"""Positive stationary states at fixed frequency lambda.

Every positive H^1 solution is even, radially decreasing, and determined by
one number t > 1 (the branch coordinate) through the vertex matching
condition f(t) = g(lambda).  This module enumerates the admissible t for
given (p, q, lambda), materializes the explicit profiles, and exposes the
fold frequency lambda_bar past which the two-solution branch disappears.
The energy pieces of a state are closed forms in (t, lambda) as well
(:func:`branch_energy`).

The zero-frequency solution (algebraic decay, existing iff p < 6 and the
exponents are off the diagonal) is carried with branch coordinate
t = math.inf; it is a genuine branch endpoint, not a large float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from . import algebra
from .params import Params

_LN2 = math.log(2.0)


class StateOutOfRange(RuntimeError):
    """Refusal of a state whose coordinates, mass or energy leave the double range."""


def exp_in_range(x: float, name: str) -> float:
    """e^x for a state quantity, refused (StateOutOfRange) unless a positive normal double."""
    if not algebra.LOG_DOUBLE[0] < x < algebra.LOG_DOUBLE[1]:
        raise StateOutOfRange(f"state outside double range: ln({name}) = {x:.6g}")
    return math.exp(x)


@dataclass(frozen=True)
class BranchPoint:
    """One stationary state: branch offset d = t - 1, frequency lam, profile
    offset a and peak value u0.

    d in (0, inf] is the one stored branch coordinate, at full relative
    precision (t alone cannot represent coordinates within ~1e-16 of 1);
    t = 1 + d is read from it, and consumers that evaluate t^2 - 1 must use
    d * (d + 2).
    For lambda > 0: t = coth((p-2) sqrt(lambda) a / 2) and
    u0 = ((p lambda / 2)(t^2 - 1))^(1/(p-2)).
    For lambda = 0: d = t = inf and the offset a solves the algebraic vertex
    condition of the power-law profile.
    """

    lam: float
    a: float
    u0: float
    params: Params
    d: float

    @property
    def t(self) -> float:
        return 1.0 + self.d

    @property
    def zero_frequency(self) -> bool:
        return math.isinf(self.d)


@dataclass(frozen=True)
class SolutionSet:
    """All positive solutions at one frequency, ordered by ascending t."""

    points: tuple[BranchPoint, ...]

    @property
    def count(self) -> int:
        return len(self.points)


def branch_point_from_t(params: Params, lam: float, *, d: float) -> BranchPoint:
    """Materialize the stationary state at frequency lam > 0 and t = 1 + d.

    d is finite: the t = inf end is the zero-frequency state
    (:func:`zero_frequency_point`).
    """
    if not lam > 0.0:
        raise ValueError("positive-frequency branch point needs lambda > 0")
    d = algebra.branch_offset(d)
    if math.isinf(d):
        raise ValueError("the t = inf state has lambda = 0: use zero_frequency_point")
    p = params.p
    sq = math.sqrt(lam)
    # atanh(1/t) = ln(1 + 2/d) / 2, exact for large d and for d near 0
    a = math.log1p(2.0 / d) / ((p - 2.0) * sq)
    # logs keep u0 representable when d (d + 2) underflows
    u0 = exp_in_range((math.log(0.5 * p * lam) + math.log(d) + math.log(d + 2.0))
                      / (p - 2.0), "u0")
    return BranchPoint(lam=lam, a=a, u0=u0, params=params, d=d)


def zero_frequency_point(params: Params) -> BranchPoint:
    """The lambda = 0 state (t = inf); exists iff p < 6 off the diagonal."""
    p, q = params.p, params.q
    if not p < 6.0:
        raise ValueError("zero-frequency states require p < 6")
    if params.diagonal:
        raise ValueError("zero-frequency states do not exist on the diagonal")
    # a^((2q-p-2)/(p-2)) = (p-2) c_p^(q-2) / 4 and u0 = c_p a^(-2/(p-2)), in
    # logs: near p = 2 c_p leaves double range while a and u0 do not; half
    # of 2q - p - 2 is formed as q - p/2 - 1, finite for every finite q
    log_cp = algebra.log_c_p(params)
    log_a = 0.5 * (math.log(0.25 * (p - 2.0)) + (q - 2.0) * log_cp) \
        * (p - 2.0) / (q - 0.5 * p - 1.0)
    a = exp_in_range(log_a, "a")
    u0 = exp_in_range(log_cp - 2.0 / (p - 2.0) * log_a, "u0")
    return BranchPoint(lam=0.0, a=a, u0=u0, params=params, d=math.inf)


def lambda_bar(params: Params) -> float | None:
    """Fold frequency for q < p/2 + 1: the largest lambda carrying solutions.

    Equal to g^(-1)(f(t*)) with t* the unique zero of f', formed in logs
    (inf or 0 where it is beyond the double range).  Returns None for
    q > p/2 + 1 where one solution exists at every lambda > 0.
    """
    if params.diagonal:
        raise ValueError("use diagonal_exists on the diagonal q = p/2 + 1")
    if params.q > params.p / 2.0 + 1.0:
        return None
    y_star = math.log(algebra.d_star(params))
    return algebra.exp_or_inf(algebra.log_lambda(params, algebra.log_f(params, y_star)))


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
#: double and t^2 - 1 finite.  States outside it are refused with StateOutOfRange.
LOGD_RANGE = (algebra.LOG_DOUBLE[0], 0.5 * algebra.LOG_DOUBLE[1])


def root_from(fn, y0: float, f0: float, direction: float) -> float:
    """Root of fn on a monotone piece that starts at y0 (where fn is f0) and
    extends in the given direction (+1 or -1).

    Steps of doubling length bracket the sign change, and Brent's method
    finds it to 1e-14 in y.  Raises StateOutOfRange when the sign change lies
    outside LOGD_RANGE: the state it gives is not representable.
    """
    lo_lim, hi_lim = LOGD_RANGE
    prev, step = y0, 1.0
    while True:
        y = min(hi_lim, max(lo_lim, prev + direction * step))
        if (fn(y) > 0.0) != (f0 > 0.0):
            return brentq(fn, min(prev, y), max(prev, y), xtol=1e-14)
        if y in (lo_lim, hi_lim):
            raise StateOutOfRange(
                "state outside double range: t - 1 would lie "
                f"{'below' if direction < 0 else 'above'} {math.exp(y):.2g}")
        prev, step = y, 2.0 * step


def _matching_roots(params: Params, lam: float) -> list[float]:
    """All y = ln(t - 1) with f(t) = g(lambda), ascending.

    f is decreasing on (1, t*) and increasing past t* when q < p/2 + 1
    (two roots below the fold, one at it, none past it); for q > p/2 + 1
    it decreases from inf to 0 (one root at every frequency).  Raises
    StateOutOfRange where ln g(lambda) leaves the double range.
    """
    log_g = algebra.log_g(params, lam)
    if not math.isfinite(log_g):
        raise StateOutOfRange(f"state outside double range: matching level ln g(lambda) = {log_g}")
    F = lambda y: algebra.log_f(params, y) - log_g
    if params.q > params.p / 2.0 + 1.0:
        f0 = F(0.0)
        return [root_from(F, 0.0, f0, 1.0 if f0 > 0.0 else -1.0)]
    y_star = math.log(algebra.d_star(params))
    gap = F(y_star)
    if abs(gap) <= 1e-12:
        return [y_star]  # at the fold within double precision
    if gap > 0.0:
        return []
    return [root_from(F, y_star, gap, -1.0), root_from(F, y_star, gap, 1.0)]


def state_at_logd(params: Params, y: float) -> BranchPoint:
    """The state at branch coordinate t = 1 + e^y, its frequency from f(t) = g(lambda).

    Off the diagonal only.  Raises StateOutOfRange when lambda is not a
    positive finite double.
    """
    lam = exp_in_range(algebra.log_lambda(params, algebra.log_f(params, y)), "lambda")
    return branch_point_from_t(params, lam, d=math.exp(y))


def solve_for_lambda(params: Params, lam: float) -> SolutionSet:
    """Enumerate every positive H^1 stationary state at frequency lam >= 0.

    lam = 0 yields the algebraically decaying state iff p in (2, 6) off the
    diagonal; lam > 0 on the diagonal yields one state iff p > 8;
    off-diagonal frequencies carry 0, 1 or 2 states depending on the
    position of g(lambda) relative to the minimum of f.
    """
    lam = float(lam)
    if not math.isfinite(lam):
        raise ValueError(f"need a finite lambda, got {lam}")
    if lam < 0.0:
        raise ValueError("no stationary states exist for lambda < 0")
    if lam == 0.0:
        if params.p < 6.0 and not params.diagonal:
            return SolutionSet((zero_frequency_point(params),))
        return SolutionSet(())
    if params.diagonal:
        exists, t = diagonal_exists(params)
        if not exists:
            return SolutionSet(())
        return SolutionSet((branch_point_from_t(params, lam, d=t - 1.0),))
    return SolutionSet(tuple(branch_point_from_t(params, lam, d=math.exp(y))
                             for y in _matching_roots(params, lam)))


# ---------------------------------------------------------------------------
# profiles, pointwise residuals and the closed-form energy


def _sinh_neg_pow(z: np.ndarray, expo: float, scale: float) -> np.ndarray:
    """(scale / sinh(z))^expo for z > 0, each entry in one closed form.

    Up to z = 20 the direct power.  Beyond, sinh(z) and its power leave
    double range long before the result does, so the power is
    exp(expo (ln scale - ln sinh z)) with ln sinh z = z - ln 2.  That is
    exact in doubles: ln sinh z = z - ln 2 + log1p(-e^(-2z)), whose last
    term is below 4.3e-18 while half an ulp of z - ln 2 > 19.3 is at least
    1.7e-15, so the sum rounds to z - ln 2 bit for bit.  Not forming that
    term saves two transcendentals per entry and, past z = 354 where
    e^(-2z) is subnormal or 0, keeps exp off its slow underflow path.  A
    scalar, or an array wholly on one side of 20, runs one form; a mixed
    array is split into its two sides.
    """
    z = np.asarray(z, dtype=float)
    big = z > 20.0
    if not big.any():
        return (scale / np.sinh(z)) ** expo
    if big.all():
        return np.exp(expo * (math.log(scale) - (z - _LN2)))
    out = np.empty_like(z)
    out[~big] = _sinh_neg_pow(z[~big], expo, scale)
    out[big] = _sinh_neg_pow(z[big], expo, scale)
    return out


def profile(point: BranchPoint, x):
    """Evaluate the profile u at x (scalar or array); even in x.

    lambda > 0: u = (p lam / 2)^(1/(p-2)) sinh(kappa (|x|+a))^(-2/(p-2))
    with kappa = (p-2) sqrt(lam) / 2.
    lambda = 0: u = c_p (|x| + a)^(-2/(p-2)) = u0 (1 + |x|/a)^(-2/(p-2)).
    For lambda > 0 each entry is one power of a ratio, in the one closed form
    of :func:`_sinh_neg_pow` its z = kappa (|x|+a) selects.
    """
    p = point.params.p
    ax = np.abs(np.asarray(x, dtype=float)) + point.a
    expo = 2.0 / (p - 2.0)
    if point.zero_frequency:
        out = point.u0 * (ax / point.a) ** (-expo)
    else:
        # one power of a ratio: near p = 2 the amplitude and the sinh power
        # leave double range on their own while u stays finite
        kappa = 0.5 * (p - 2.0) * math.sqrt(point.lam)
        out = _sinh_neg_pow(kappa * ax, expo, math.sqrt(0.5 * p * point.lam))
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
    """|(-2 u'(0+)) - u0^(q-1)| / u0^(q-1), the relative residual of the
    vertex condition, from the analytic one-sided derivative.

    Formed in logs, as |expm1(ln(-2 u'(0+)) - (q-1) ln u0)|, so u0^(q-1)
    is never formed: at large q it under- or overflows while the ratio does
    not.  A ratio beyond the double range is inf.

    Contract: at most 1e-8 on every constructed branch point.
    """
    gap = math.log(-2.0 * profile_derivative(point, 0.0)) \
        - (point.params.q - 1.0) * math.log(point.u0)
    return math.inf if gap > algebra.LOG_DOUBLE[1] else abs(math.expm1(gap))


@dataclass(frozen=True)
class EnergyBreakdown:
    """The three pieces of the functional and their signed sum."""

    kinetic: float   # (1/2) ||u'||_2^2
    bulk: float      # (1/p) ||u||_p^p
    point: float     # (1/q) |u(0)|^q
    total: float     # kinetic + bulk - point


def branch_energy(point: BranchPoint) -> EnergyBreakdown:
    """Closed-form energy pieces of a branch state.

    For lambda > 0, with c = 2 sqrt(lambda) u0^2 / (p+2) and
    J(t) = I(t) / (t^2-1)^(2/(p-2)):

        kinetic = c (t + J),   bulk = c (t - 4 J/(p-2)),   point = u0^q / q,

    so that, by the matching condition u0^(q-2) = 2 sqrt(lambda) t,
    E = c (t (2q-p-2)/q - (6-p)/(p-2) J).  The point piece is formed in logs
    from that condition (u0^(q-2) = 4/((p-2) a) at lambda = 0), as
    (u0^(q-2))^(q/(q-2)) / q.  J and the bulk factor
    t - 4 J/(p-2) come from ``algebra.energy_j`` (in logs, and without the
    cancellation of the bulk factor near t = 1), and u0 is stored finite, so
    no intermediate leaves double range where the pieces do not.  The
    lambda = 0 state integrates termwise to algebraic expressions in its
    peak u0 and offset a (its kinetic and bulk pieces coincide).

    Raises StateOutOfRange where a piece or the sum is beyond
    the double range.
    """
    p, q = point.params.p, point.params.q
    u0 = point.u0
    try:
        if point.zero_frequency:
            log_vertex = math.log(4.0 / (p - 2.0)) - math.log(point.a)
            kinetic = 4.0 * u0 * u0 / (point.a * (p - 2.0) * (p + 2.0))
            bulk = 2.0 * u0 ** p * point.a * (p - 2.0) / (p * (p + 2.0))
        else:
            log_vertex = _LN2 + 0.5 * math.log(point.lam) + math.log1p(point.d)
            c = 2.0 * math.sqrt(point.lam) * u0 * u0 / (p + 2.0)
            j, bulk_factor = algebra.energy_j(point.params, point.d)
            kinetic, bulk = c * (point.t + j), c * bulk_factor
        # u0^q = (u0^(q-2))^(q/(q-2)), not a power of the stored u0, which
        # rounds to 1 once q is near 1e15
        pt = math.exp(q / (q - 2.0) * log_vertex) / q
    except OverflowError:
        kinetic = bulk = pt = math.inf
    total = kinetic + bulk - pt
    if not math.isfinite(total):   # so is every piece
        raise StateOutOfRange(
            "state outside double range: its energy is beyond the largest double "
            f"(t = {point.t:.6g}, lambda = {point.lam:.6g}, u0 = {u0:.6g})")
    return EnergyBreakdown(kinetic, bulk, pt, total)
