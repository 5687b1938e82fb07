"""Positive stationary states at fixed frequency lambda.

Every positive H^1 solution is even, radially decreasing, and determined by
one number t > 1 (the branch coordinate) through the vertex matching
condition f(t) = g(lambda).  This module enumerates the admissible t for
given (p, q, lambda), materializes the explicit profiles, and exposes the
fold frequency lambda_bar past which the two-solution branch disappears.

The zero-frequency solution (algebraic decay, existing iff p < 6 and the
exponents are off the diagonal) is carried with branch coordinate
t = math.inf; it is a genuine branch endpoint, not a large float.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from . import algebra
from .params import Params

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class BranchPoint:
    """One stationary state: branch coordinate, frequency, offset, peak value.

    For lambda > 0: t = coth((p-2) sqrt(lambda) a / 2) and
    u0 = ((p lambda / 2)(t^2 - 1))^(1/(p-2)).
    For lambda = 0: t = inf and the offset a solves the algebraic vertex
    condition of the power-law profile.

    `d` carries t - 1 at full relative precision (t alone cannot represent
    coordinates within ~1e-16 of 1); consumers that evaluate t^2 - 1 must
    use d * (d + 2).
    """

    t: float
    lam: float
    a: float
    u0: float
    params: Params
    d: float

    @property
    def zero_frequency(self) -> bool:
        return math.isinf(self.t)


@dataclass(frozen=True)
class SolutionSet:
    """All positive solutions at one frequency, ordered by ascending t."""

    points: tuple[BranchPoint, ...]
    lam: float

    @property
    def count(self) -> int:
        return len(self.points)


def branch_point_from_t(params: Params, lam: float, t: float | None = None,
                        d: float | None = None) -> BranchPoint:
    """Materialize the stationary state at frequency lam > 0.

    Accepts the branch coordinate as t, as d = t - 1 (preferred near the
    left endpoint), or both.
    """
    if not lam > 0.0:
        raise ValueError("positive-frequency branch point needs lambda > 0")
    if d is None:
        if t is None or not t > 1.0:
            raise ValueError(f"branch coordinate must exceed 1, got {t}")
        d = t - 1.0
    elif not d > 0.0:
        raise ValueError(f"branch offset must be positive, got {d}")
    t = 1.0 + d
    p = params.p
    sq = math.sqrt(lam)
    # atanh(1/t) = ln(1 + 2/d) / 2, exact for large d and for d near 0
    a = math.log1p(2.0 / d) / ((p - 2.0) * sq)
    # logs keep u0 representable when d (d + 2) underflows
    u0 = math.exp((math.log(0.5 * p * lam) + math.log(d) + math.log(d + 2.0))
                  / (p - 2.0))
    return BranchPoint(t=t, lam=lam, a=a, u0=u0, params=params, d=d)


def zero_frequency_point(params: Params) -> BranchPoint:
    """The lambda = 0 state (t = inf); exists iff p < 6 off the diagonal."""
    p, q = params.p, params.q
    if not p < 6.0:
        raise ValueError("zero-frequency states require p < 6")
    if params.diagonal:
        raise ValueError("zero-frequency states do not exist on the diagonal")
    cp = algebra.c_p(params)
    a = ((p - 2.0) * cp ** (q - 2.0) / 4.0) ** ((p - 2.0) / (2.0 * q - p - 2.0))
    u0 = cp * a ** (-2.0 / (p - 2.0))
    return BranchPoint(t=math.inf, lam=0.0, a=a, u0=u0, params=params, d=math.inf)


def lambda_bar(params: Params) -> float | None:
    """Fold frequency for q < p/2 + 1: the largest lambda carrying solutions.

    Equal to g^(-1)(f(t*)) with t* the unique zero of f'.  Returns None for
    q > p/2 + 1 where one solution exists at every lambda > 0.
    """
    if params.diagonal:
        raise ValueError("use diagonal_exists on the diagonal q = p/2 + 1")
    if params.q > params.p / 2.0 + 1.0:
        return None
    ts = algebra.t_star(params)
    return algebra.g_inverse(params, algebra.f_of_t(params, ts))


def diagonal_exists(params: Params) -> tuple[bool, float | None]:
    """On the diagonal: whether positive states exist (p > 8) and at which t.

    The matching degenerates to t / sqrt(t^2 - 1) = sqrt(p)/(2 sqrt(2)),
    solvable iff the right side exceeds 1; then t = sqrt(p/(p-8)) for every
    lambda > 0.
    """
    if not params.diagonal:
        raise ValueError("diagonal_exists applies only when q = p/2 + 1 exactly")
    p = params.p
    if p <= 8.0:
        return (False, None)
    return (True, math.sqrt(p / (p - 8.0)))


# ---------------------------------------------------------------------------
# roots of f(t) = g(lambda) in log coordinates y = ln(t - 1)

#: Range of y = ln(t - 1) in which a state is representable: t - 1 a normal
#: double and t^2 - 1 finite.  States outside it are refused with RuntimeError.
LOGD_RANGE = (math.log(sys.float_info.min), 0.5 * math.log(sys.float_info.max))


def _log_f(params: Params, y: float) -> float:
    """ln f(1 + e^y) = ln(1 + d) - k ln(d (d + 2)), overflow-free for any y."""
    k = (params.q - 2.0) / (params.p - 2.0)
    if y > 0.0:
        e = math.exp(-y)
        return (1.0 - 2.0 * k) * y + math.log1p(e) - k * math.log1p(2.0 * e)
    d = math.exp(y)
    return math.log1p(d) - k * (y + math.log(d + 2.0))


def _log_g(params: Params, lam: float) -> float:
    """ln g(lambda) off the diagonal."""
    p, q = params.p, params.q
    return (-_LN2 + (q - 2.0) / (p - 2.0) * math.log(0.5 * p)
            + (2.0 * q - p - 2.0) / (2.0 * (p - 2.0)) * math.log(lam))


def root_from(fn, y0: float, f0: float, direction: float) -> float:
    """Root of fn on a monotone piece that starts at y0 (where fn is f0) and
    extends in the given direction (+1 or -1).

    Steps of doubling length bracket the sign change, and Brent's method
    finds it to 1e-14 in y.  Raises RuntimeError when the sign change lies
    outside LOGD_RANGE: the state it gives is not representable.
    """
    lo_lim, hi_lim = LOGD_RANGE
    prev, step = y0, 1.0
    while True:
        y = min(hi_lim, max(lo_lim, prev + direction * step))
        if (fn(y) > 0.0) != (f0 > 0.0):
            return brentq(fn, min(prev, y), max(prev, y), xtol=1e-14)
        if y in (lo_lim, hi_lim):
            raise RuntimeError(
                "state outside double range: t - 1 would lie "
                f"{'below' if direction < 0 else 'above'} {math.exp(y):.2g}")
        prev, step = y, 2.0 * step


def _matching_roots(params: Params, lam: float) -> list[float]:
    """All y = ln(t - 1) with f(t) = g(lambda), ascending.

    f is decreasing on (1, t*) and increasing past t* when q < p/2 + 1
    (two roots below the fold, one at it, none past it); for q > p/2 + 1
    it decreases from inf to 0 (one root at every frequency).
    """
    log_g = _log_g(params, lam)
    F = lambda y: _log_f(params, y) - log_g
    if params.q > params.p / 2.0 + 1.0:
        f0 = F(0.0)
        return [root_from(F, 0.0, f0, 1.0 if f0 > 0.0 else -1.0)]
    y_star = math.log(algebra.t_star(params) - 1.0)
    gap = F(y_star)
    if abs(gap) <= 1e-12:
        return [y_star]  # at the fold within double precision
    if gap > 0.0:
        return []
    return [root_from(F, y_star, gap, -1.0), root_from(F, y_star, gap, 1.0)]


def state_at_logd(params: Params, y: float) -> BranchPoint:
    """The state at branch coordinate t = 1 + e^y, its frequency from f(t) = g(lambda).

    Off the diagonal only.  Raises RuntimeError when lambda is not a
    positive finite double.
    """
    p, q = params.p, params.q
    # ln g(lambda) = ln g(1) + (2q-p-2)/(2(p-2)) ln lambda
    log_lam = (_log_f(params, y) - _log_g(params, 1.0)) \
        * 2.0 * (p - 2.0) / (2.0 * q - p - 2.0)
    if not math.log(sys.float_info.min) < log_lam < math.log(sys.float_info.max):
        raise RuntimeError(f"state outside double range: ln(lambda) = {log_lam:.6g}")
    return branch_point_from_t(params, math.exp(log_lam), d=math.exp(y))


def solve_for_lambda(params: Params, lam: float) -> SolutionSet:
    """Enumerate every positive H^1 stationary state at frequency lam >= 0.

    lam = 0 yields the algebraically decaying state iff p in (2, 6) off the
    diagonal; lam > 0 on the diagonal yields one state iff p > 8;
    off-diagonal frequencies carry 0, 1 or 2 states depending on the
    position of g(lambda) relative to the minimum of f.
    """
    lam = float(lam)
    if lam < 0.0:
        raise ValueError("no stationary states exist for lambda < 0")
    if lam == 0.0:
        if params.p < 6.0 and not params.diagonal:
            return SolutionSet((zero_frequency_point(params),), 0.0)
        return SolutionSet((), 0.0)
    if params.diagonal:
        exists, t = diagonal_exists(params)
        if not exists:
            return SolutionSet((), lam)
        return SolutionSet((branch_point_from_t(params, lam, t),), lam)
    points = tuple(branch_point_from_t(params, lam, d=math.exp(y))
                   for y in _matching_roots(params, lam))
    return SolutionSet(points, lam)


# ---------------------------------------------------------------------------
# profiles and pointwise residuals


def _sinh_neg_pow(z: np.ndarray, expo: float) -> np.ndarray:
    """sinh(z)^(-expo) for z > 0, stable for large z via the log form."""
    z = np.asarray(z, dtype=float)
    big = z > 20.0
    safe = np.where(big, 1.0, z)
    direct = np.sinh(safe) ** (-expo)
    logsinh = z - _LN2 + np.log1p(-np.exp(-2.0 * np.clip(z, 1e-300, None)))
    return np.where(big, np.exp(-expo * logsinh), direct)


def profile(point: BranchPoint, x):
    """Evaluate the profile u at x (scalar or array); even in x.

    lambda > 0: u = (p lam / 2)^(1/(p-2)) sinh(kappa (|x|+a))^(-2/(p-2))
    with kappa = (p-2) sqrt(lam) / 2.
    lambda = 0: u = c_p (|x| + a)^(-2/(p-2)).
    """
    p = point.params.p
    ax = np.abs(np.asarray(x, dtype=float)) + point.a
    expo = 2.0 / (p - 2.0)
    if point.zero_frequency:
        out = algebra.c_p(point.params) * ax ** (-expo)
    else:
        kappa = 0.5 * (p - 2.0) * math.sqrt(point.lam)
        amp = (0.5 * p * point.lam) ** (1.0 / (p - 2.0))
        out = amp * _sinh_neg_pow(kappa * ax, expo)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def profile_derivative(point: BranchPoint, x):
    """du/dx away from 0; at x = 0 returns the one-sided derivative u'(0+)."""
    p = point.params.p
    xs = np.asarray(x, dtype=float)
    ax = np.abs(xs) + point.a
    u = profile(point, xs)
    if point.zero_frequency:
        mag = -(2.0 / (p - 2.0)) * u / ax
    else:
        kappa = 0.5 * (p - 2.0) * math.sqrt(point.lam)
        mag = -math.sqrt(point.lam) * u / np.tanh(kappa * ax)
    out = np.where(xs < 0.0, -mag, mag)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def vertex_residual(point: BranchPoint) -> float:
    """|(-2 u'(0+)) - u0^(q-1)| from the analytic one-sided derivative.

    Contract: at most 1e-8 * u0^(q-1) on every constructed branch point.
    """
    q = point.params.q
    jump = -2.0 * profile_derivative(point, 0.0)
    return abs(jump - point.u0 ** (q - 1.0))


def matching_residual(point: BranchPoint) -> float:
    """|2 sqrt(lam) coth((p-2) sqrt(lam) a / 2) - u0^(q-2)| (lambda > 0 form).

    For the zero-frequency point the analogous algebraic condition
    4 u0 / ((p-2) a) = u0^(q-1) is used.
    """
    p, q = point.params.p, point.params.q
    if point.zero_frequency:
        return abs(4.0 * point.u0 / ((p - 2.0) * point.a) - point.u0 ** (q - 1.0))
    sq = math.sqrt(point.lam)
    lhs = 2.0 * sq / math.tanh(0.5 * (p - 2.0) * sq * point.a)
    return abs(lhs - point.u0 ** (q - 2.0))


def first_integral_residual(point: BranchPoint, x) -> float:
    """max |u'^2 - lam u^2 - (2/p) u^p| over the sample points x (all nonzero)."""
    p = point.params.p
    u = np.asarray(profile(point, x), dtype=float)
    du = np.asarray(profile_derivative(point, x), dtype=float)
    resid = du ** 2 - point.lam * u ** 2 - (2.0 / p) * u ** p
    return float(np.max(np.abs(resid)))
