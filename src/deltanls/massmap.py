"""Mass of the solution branches and its inversion at prescribed mass.

Off the diagonal every positive-frequency state corresponds to one t > 1,
and its squared L^2 norm is the explicit map

    mu(t) = C_pq * f(t)^((6-p)/(2q-p-2)) * I(t),

extended by mu(inf) = mu0 for p < 6 (the zero-frequency state).  The
qualitative shape of mu -- its limits at both ends, where it is monotone,
and where it dips to an interior minimum -- decides for which masses the
constrained problem is solvable, with how many solutions, and what the
mass thresholds are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad

from . import algebra, stationary
from .params import Params, ThresholdKind, expected_solution_regime
from .stationary import BranchPoint, branch_energy

#: Relative mismatch below which a requested mass is identified with mu0
#: (and served by the zero-frequency branch endpoint).
MU0_MATCH_RTOL = 1e-12

#: Relative tolerance of the profile-mass quadrature gate.
MASS_GATE_RTOL = 1e-6


class GateFailure(RuntimeError):
    """A state whose profile quadrature disagrees with its reported mass."""


def mass_of_t(params: Params, *, d: float) -> float:
    """mu(t) at t = 1 + d for d in (0, inf]; d = inf is allowed only for p < 6
    (returns mu0; ValueError beyond, where the mass diverges).

    The value comes from ln mu (``algebra.log_mass``), so no intermediate
    power leaves the double range; a mass beyond it is inf.  Off the
    diagonal only.
    """
    d = algebra.branch_offset(d)
    if math.isinf(d):
        if params.p >= 6.0:
            raise ValueError("branch mass diverges as t -> inf for p >= 6")
        return algebra.mu0(params)
    return algebra.exp_or_inf(algebra.log_mass(params, d))


def _log_diagonal_coefficient(params: Params) -> tuple[float, float]:
    """(ln M_pq, t) on the diagonal, p > 8: mu(lambda) = M_pq lambda^((6-p)/(2(p-2)))
    for the state at the one branch coordinate t, with
    ln M_pq = ln 4 - ln(p-2) + 2/(p-2) ln(p/2) + ln I(t)."""
    exists, t = stationary.diagonal_exists(params)
    if not exists:
        raise ValueError("diagonal mass map requires p > 8")
    p = params.p
    return (math.log(4.0) - math.log(p - 2.0) + 2.0 / (p - 2.0) * math.log(0.5 * p)
            + algebra.log_I(params, t - 1.0)), t


def mass_of_lambda_diagonal(params: Params, lam: float) -> float:
    """Mass of the unique diagonal state at frequency lam > 0 (p > 8 only)."""
    if not lam > 0.0:
        raise ValueError(f"need lambda > 0, got {lam}")
    log_coeff, _ = _log_diagonal_coefficient(params)
    p = params.p
    return algebra.exp_or_inf(log_coeff + (6.0 - p) / (2.0 * (p - 2.0)) * math.log(lam))


def state_mass(point: BranchPoint) -> float:
    """Closed-form mass of a stationary state: diagonal, zero-frequency or branch."""
    params = point.params
    if params.diagonal:
        return mass_of_lambda_diagonal(params, point.lam)
    return mass_of_t(params, d=point.d)


@dataclass(frozen=True)
class MassAsymptotics:
    """Predicted limits and rates of mu(t) at both branch ends.

    At t -> 1+:  mu ~ t1_prefactor * (t-1)^t1_rate.
    At t -> inf: plateau at mu0 (p < 6), logarithmic growth (p = 6), or
    power growth with exponent (p-6)/(p-2) (p > 6).
    """

    t1_limit: float
    tinf_limit: float
    t1_rate: float
    tinf_rate: float | None
    t1_prefactor: float
    tinf_kind: str  # "plateau" | "log" | "power"


def asymptotics(params: Params) -> MassAsymptotics:
    """Limits and rates of mu(t) at both ends (off the diagonal)."""
    ex, p = algebra.mass_exponents(params), params.p
    t1_pref = algebra.exp2_or_inf(ex.log2_t1)
    t1_limit = 0.0 if ex.t1_rate > 0.0 else t1_pref if ex.t1_rate == 0.0 else math.inf
    tinf_limit, tinf_rate, kind = (
        (algebra.mu0(params), 0.0, "plateau") if p < 6.0
        else (math.inf, None, "log") if p == 6.0
        else (math.inf, (p - 6.0) / (p - 2.0), "power"))
    return MassAsymptotics(t1_limit, tinf_limit, ex.t1_rate, tinf_rate, t1_pref, kind)


# ---------------------------------------------------------------------------
# sampled curve


@dataclass(frozen=True)
class MassCurve:
    """Sampled mu(t) with its interior critical points (limits: :func:`asymptotics`)."""

    samples: tuple[tuple[float, float, int], ...]         # (t, mu, sign of mu')
    extrema: tuple[tuple[float, float], ...]              # interior (t, mu) critical points


class BranchMinimum(NamedTuple):
    """Minimum of the branch mass in regions C and F.

    ``y`` = ln(t - 1) of the single root of h, or inf in F where h stays
    negative over the double range (the mass falls towards mu0 all along).
    ``depth`` = (mu0 - mu)/mu0 at the minimum in F (0 where there is no
    dip), None in C.
    """

    y: float
    mass: float
    depth: float | None


@lru_cache(maxsize=64)
def branch_minimum(params: Params) -> BranchMinimum:
    """The minimum of mu over branch states in regions C and F.

    h < 0 as t -> 1+ (the mass falls from +inf) and h > 0 past the minimum,
    so the root is bracketed by walking from t = 2 towards the other sign.
    In F the mass dips below mu0 before it rises back to it, and the depth
    of the dip comes from the closed-form deficit, however small.  Where h
    is still negative at the end of the double range there is no dip to
    report: mu0 is the infimum, attained by the zero-frequency state.
    """
    def h_at(y: float) -> float:
        return algebra.h_of_t(params, d=math.exp(y))

    h0 = h_at(0.0)
    try:
        y = stationary.root_from(h_at, 0.0, h0, -1.0 if h0 > 0.0 else 1.0)
    except stationary.StateOutOfRange:
        if not (h0 < 0.0 and params.p < 6.0):
            raise
        return BranchMinimum(math.inf, algebra.mu0(params), 0.0)
    d = math.exp(y)
    if params.p >= 6.0:
        return BranchMinimum(y, mass_of_t(params, d=d), None)
    depth = max(0.0, algebra.mass_deficit(params, d))
    return BranchMinimum(y, algebra.mu0(params) * (1.0 - depth), depth)


def mass_curve(params: Params, n: int = 2048, y_lo: float = -30.0,
               y_hi: float = 30.0) -> MassCurve:
    """Sample mu on the log grid t = 1 + e^y and annotate its extrema.

    The sign of mu' is -1 left of the branch minimum, where the existence
    rule's threshold is one (regions C and F), and +1 everywhere else (mu
    is increasing elsewhere).
    """
    y_min = -math.inf
    extrema: tuple[tuple[float, float], ...] = ()
    if expected_solution_regime(params).threshold is ThresholdKind.BRANCH_MINIMUM:
        y_min, mu_min, _ = branch_minimum(params)
        if math.isfinite(y_min):
            extrema = ((1.0 + math.exp(y_min), mu_min),)
    samples = []
    for y in np.linspace(y_lo, y_hi, n).tolist():
        d = math.exp(y)
        samples.append((1.0 + d, mass_of_t(params, d=d), -1 if y < y_min else 1))
    return MassCurve(tuple(samples), extrema)


# ---------------------------------------------------------------------------
# inversion: solutions at prescribed mass


@dataclass(frozen=True)
class NormalizedSolution:
    """A stationary state of the prescribed mass, with its total energy."""

    point: BranchPoint
    energy: float


def _panel_quad(f, ell: float, end: float) -> float:
    """Integral of f over [0, end]: the panel [0, ell], then panels growing x4.

    ell is the length over which the integrand falls by e at the origin, so
    the first panel holds the peak however narrow it is (p -> 2).  f
    decreases, so past the first panel that integrates to exactly 0 every
    panel does, and the sum stops there.
    """
    cuts = [0.0, min(ell, end)]
    while 0.0 < cuts[-1] < end:   # an ell that underflows to 0 fails the gate
        cuts.append(min(4.0 * cuts[-1], end))
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        part = quad(f, lo, hi, epsabs=1e-14, epsrel=1e-10, limit=200)[0]
        if part == 0.0:
            break
        total += part
    return total


def profile_mass_quadrature(point: BranchPoint) -> float:
    """Mass of the materialized profile by adaptive quadrature (gate oracle).

    Independent of the closed-form mass map: integrates u(x)^2 directly.
    Positive frequencies are integrated in the scaled variable
    z = (p-2) sqrt(lambda) x / 2, so branch points with tiny lambda
    (structure on scale 1/sqrt(lambda)) stay resolvable; the algebraic
    zero-frequency tail is added in closed form past a cutoff.  Both start
    their panels at the e-folding length of u^2 at the origin.
    """
    u2 = lambda x: stationary.profile(point, x) ** 2
    p = point.params.p
    if point.zero_frequency:
        # u^2 = u0^2 (1 + x/a)^(-4/(p-2)) falls by e within about a (p-2)/4
        cutoff = max(1e3, 100.0 * point.a)
        tail = point.u0 ** 2 * (p - 2.0) / (6.0 - p) * point.a \
            * (point.a / (cutoff + point.a)) ** ((6.0 - p) / (p - 2.0))
        return 2.0 * (_panel_quad(u2, 0.25 * (p - 2.0) * point.a, cutoff) + tail)
    kappa = 0.5 * (p - 2.0) * math.sqrt(point.lam)
    eps = kappa * point.a   # = ln(1 + 2/d) / 2 > 0 for every finite d
    # u^2 ~ sinh(z + eps)^(-4/(p-2)) falls by e within (p-2) tanh(eps) / 4,
    # and like exp(-4 z/(p-2)) in the far tail
    z_max = max(40.0, 7.0 * (p - 2.0))
    return 2.0 * _panel_quad(lambda z: u2(z / kappa), 0.25 * (p - 2.0) * math.tanh(eps),
                             z_max) / kappa


def mass_gate(point: BranchPoint, mu: float) -> None:
    """Raise GateFailure unless the profile of point has mass mu to 1e-6.

    Every mass the library reports for a state passes through this gate.
    """
    got = profile_mass_quadrature(point)
    if not abs(got - mu) <= MASS_GATE_RTOL * mu:   # a NaN fails too
        raise GateFailure(
            f"profile-mass gate failed: requested {mu}, quadrature gives {got} "
            f"(t={point.t}, lambda={point.lam})")


def _mass_gap(params: Params, mu: float):
    """y -> a function with the sign of mu(1 + e^y) - mu, on a log scale.

    For p < 6 it is ln(mu(y)/mu0) - ln(mu/mu0), which near mu0 is the
    deficit itself at full relative accuracy, so a state close to the plateau
    is located by its deficit rather than by the last digits of mu.
    """
    if params.p < 6.0:
        target = math.log(mu) - math.log(2.0) * algebra.log2_mu0(params)
        return lambda y: algebra.log_mass_ratio(params, math.exp(y)) - target
    target = math.log(mu)
    return lambda y: algebra.log_mass(params, math.exp(y)) - target


def _crossing(params: Params, mu: float, y0: float, slope: float) -> float:
    """y with mu(y) = mu on the piece of the mass map that starts at y0 and
    rises (slope = +1) or falls (slope = -1) with y."""
    gap = _mass_gap(params, mu)
    g0 = gap(y0)
    return stationary.root_from(gap, y0, g0, -slope if g0 > 0.0 else slope)


def _matches(mu: float, ref: float, rtol: float) -> bool:
    """mu within rtol of ref; a ref beyond the double range (inf) matches none."""
    return math.isfinite(ref) and abs(mu - ref) <= rtol * ref


def _branch_offsets_at_mass(params: Params, mu: float) -> tuple[list[float], bool]:
    """(log-offsets y = ln(t - 1) with mu(t) = mu, include zero-frequency point?)

    Where the existence rule's threshold is not the branch minimum, the mass
    increases from its t -> 1+ limit to its t -> inf limit (one piece);
    where it is (regions C and F) it falls from +inf to the branch minimum
    and rises from there to mu0 (F) or +inf (C) (two pieces).  In F
    without a dip the falling piece is the whole branch and ends at mu0.
    """
    asym = asymptotics(params)
    mu_inf = asym.tinf_limit   # mu0 for p < 6, else +inf
    with_zero = params.p < 6.0 and _matches(mu, mu_inf, MU0_MATCH_RTOL)
    rising_reaches = not with_zero and mu < mu_inf

    if expected_solution_regime(params).threshold is not ThresholdKind.BRANCH_MINIMUM:
        if not (asym.t1_limit < mu and rising_reaches):
            return [], with_zero
        return [_crossing(params, mu, 0.0, 1.0)], with_zero

    y_min, mu_min, _ = branch_minimum(params)
    if math.isinf(y_min):
        # h < 0 all along: mu falls from +inf towards mu0, which it never reaches
        return ([_crossing(params, mu, 0.0, -1.0)] if mu > mu_inf else []), with_zero
    if _matches(mu, mu_min, 1e-12):
        return [y_min], False
    if mu < mu_min:
        return [], False
    ys = [_crossing(params, mu, y_min, -1.0)]
    if rising_reaches:
        ys.append(_crossing(params, mu, y_min, 1.0))
    return ys, with_zero


def normalized_solutions(params: Params, mu: float) -> list[NormalizedSolution]:
    """Every stationary state with prescribed mass mu, or [] where none exists.

    Each returned solution passes the profile-mass quadrature gate at
    relative tolerance 1e-6.  Each (params, mu) is inverted and gated once
    per process: a repeated call returns a new list of the states found
    the first time, and a refusal is raised again on every call.
    """
    if not 0.0 < mu < math.inf:
        raise ValueError(f"need a finite mu > 0, got {mu}")
    return list(_gated_solutions(params, mu))


@lru_cache(maxsize=64)
def _gated_solutions(params: Params, mu: float) -> tuple[NormalizedSolution, ...]:
    points: list[BranchPoint] = []
    if params.diagonal:
        if stationary.diagonal_exists(params)[0]:
            p = params.p
            log_coeff, t = _log_diagonal_coefficient(params)
            # ln lambda = 2(p-2)/(6-p) (ln mu - ln M_pq), refused outside double range
            lam = stationary.exp_in_range(
                2.0 * (p - 2.0) / (6.0 - p) * (math.log(mu) - log_coeff), "lambda")
            points.append(stationary.branch_point_from_t(params, lam, d=t - 1.0))
    else:
        ys, with_zero = _branch_offsets_at_mass(params, mu)
        points.extend(stationary.state_at_logd(params, y) for y in ys)
        if with_zero:
            points.append(stationary.zero_frequency_point(params))

    out = []
    for point in points:
        mass_gate(point, mu)
        out.append(NormalizedSolution(point, branch_energy(point).total))
    return tuple(out)


# ---------------------------------------------------------------------------
# thresholds


class ThresholdReport(NamedTuple):
    """Mass threshold of the existence rule, and how it was obtained.

    The threshold is the one ``expected_solution_regime(params).threshold``
    names: mu0, the constant 2, or the branch minimum of regions C and F
    (:func:`branch_minimum`, which also gives the minimizer and, in F, the
    depth of the dip below mu0).  Both fields are None where the rule names
    no threshold.
    """

    mu_threshold: float | None
    provenance: str | None


def mass_threshold(params: Params) -> ThresholdReport:
    """Mass threshold named by the existence rule of params (off-diagonal)."""
    kind = expected_solution_regime(params).threshold
    mu0 = algebra.mu0(params)   # refuses the diagonal
    if kind is ThresholdKind.ZERO_FREQUENCY_MASS:
        return ThresholdReport(mu0, "closed-form")
    if kind is ThresholdKind.MASS_TWO:
        return ThresholdReport(2.0, "limit-constant")
    if kind is not ThresholdKind.BRANCH_MINIMUM:
        return ThresholdReport(None, None)
    y, mu, depth = branch_minimum(params)
    if depth is None or mu != mu0:
        return ThresholdReport(mu, "minimized")
    # in F the zero-frequency state attains mu0 itself
    dip = depth > 0.0 or (math.isinf(y) and algebra.mass_deficit(
        params, math.exp(stationary.LOGD_RANGE[1])) > 0.0)
    return ThresholdReport(mu, "limit; dip below double resolution" if dip
                           else "limit; no dip below mu0")
