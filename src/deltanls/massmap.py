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

import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from . import algebra, stationary
from .params import Params, Region, classify, expected_solution_regime, ExistenceRule
from .algebra import ScalarEval
from .stationary import BranchPoint

#: Relative mismatch below which a requested mass is identified with mu0
#: (and served by the zero-frequency branch endpoint).
MU0_MATCH_RTOL = 1e-12

#: Relative tolerance of the profile-mass quadrature gate.
MASS_GATE_RTOL = 1e-6


def mass_of_t(params: Params, t: float, d: float | None = None) -> ScalarEval:
    """mu(t) for t in (1, inf]; t = inf is allowed only for p < 6 (returns mu0).

    Pass d = t - 1 for coordinates too close to 1 for t to represent.
    """
    if params.diagonal:
        raise ValueError("mass-versus-t map is defined off the diagonal only")
    p, q = params.p, params.q
    if d is None and math.isinf(t):
        if p >= 6.0:
            raise ValueError("branch mass diverges as t -> inf for p >= 6")
        return ScalarEval(algebra.constants(params).mu0, 0.0)
    c_pq = algebra.constants(params).c_pq
    factor = c_pq * algebra.f_of_t(params, t, d) ** ((6.0 - p) / (2.0 * q - p - 2.0))
    integral = algebra.I_of_t(params, t, d)
    return ScalarEval(factor * integral.value, abs(factor) * integral.abs_error_estimate)


def diagonal_mass_coefficient(params: Params) -> ScalarEval:
    """M_pq such that mu(lambda) = M_pq lambda^((6-p)/(2(p-2))) on the diagonal, p > 8."""
    exists, t = stationary.diagonal_exists(params)
    if not exists:
        raise ValueError("diagonal mass map requires p > 8")
    p = params.p
    pref = 2.0 ** ((2.0 * p - 6.0) / (p - 2.0)) * p ** (2.0 / (p - 2.0)) / (p - 2.0)
    integral = algebra.I_of_t(params, t)
    return ScalarEval(pref * integral.value, pref * integral.abs_error_estimate)


def mass_of_lambda_diagonal(params: Params, lam: float) -> ScalarEval:
    """Mass of the unique diagonal state at frequency lam > 0 (p > 8 only)."""
    if not lam > 0.0:
        raise ValueError(f"need lambda > 0, got {lam}")
    coeff = diagonal_mass_coefficient(params)
    p = params.p
    scale = lam ** ((6.0 - p) / (2.0 * (p - 2.0)))
    return ScalarEval(coeff.value * scale, coeff.abs_error_estimate * scale)


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
    if params.diagonal:
        raise ValueError("asymptotics of mu(t) are defined off the diagonal only")
    p, q = params.p, params.q
    denom = 2.0 * q - p - 2.0
    t1_rate = (q - 4.0) / denom
    t1_pref = p ** ((q - 4.0) / denom) * 2.0 ** ((6.0 - p) / denom)
    if t1_rate > 0.0:
        t1_limit = 0.0
    elif t1_rate == 0.0:
        t1_limit = t1_pref
    else:
        t1_limit = math.inf
    if p < 6.0:
        return MassAsymptotics(t1_limit, algebra.constants(params).mu0,
                               t1_rate, 0.0, t1_pref, "plateau")
    if p == 6.0:
        return MassAsymptotics(t1_limit, math.inf, t1_rate, None, t1_pref, "log")
    return MassAsymptotics(t1_limit, math.inf, t1_rate,
                           (p - 6.0) / (p - 2.0), t1_pref, "power")


# ---------------------------------------------------------------------------
# sampled curve


@dataclass(frozen=True)
class MassCurve:
    """Sampled mu(t) with its limits and interior critical points."""

    params: Params
    samples: tuple[tuple[float, float, float, int], ...]  # (t, mu, mu_err, sign of mu')
    limits: tuple[float, float]                           # (t -> 1+, t -> inf)
    extrema: tuple[tuple[float, float], ...]              # interior (t, mu) critical points


def _mu_at(params: Params, y: float) -> float:
    d = math.exp(y)
    return mass_of_t(params, 1.0 + d, d).value


@lru_cache(maxsize=64)
def _branch_minimum(params: Params) -> tuple[float, float]:
    """(y, mu) at the single sign change of h in regions C and F, y = ln(t - 1).

    h < 0 as t -> 1+ (the mass falls from +inf) and h > 0 past the minimum,
    so the root is bracketed by walking from t = 2 towards the other sign.
    """
    def h_at(y: float) -> float:
        d = math.exp(y)
        return algebra.h_of_t(params, 1.0 + d, d).value

    h0 = h_at(0.0)
    y = stationary.root_from(h_at, 0.0, h0, -1.0 if h0 > 0.0 else 1.0)
    return y, _mu_at(params, y)


def mass_curve(params: Params, n: int = 2048, y_lo: float = -30.0,
               y_hi: float = 30.0) -> MassCurve:
    """Sample mu on the log grid t = 1 + e^y and annotate limits and extrema.

    The sign of mu' is -1 left of the branch minimum of regions C and F and
    +1 everywhere else (mu is increasing outside C and F).
    """
    asym = asymptotics(params)
    y_min = -math.inf
    extrema: tuple[tuple[float, float], ...] = ()
    if classify(params) in (Region.C, Region.F):
        y_min, mu_min = _branch_minimum(params)
        extrema = ((1.0 + math.exp(y_min), mu_min),)
    samples = []
    for y in np.linspace(y_lo, y_hi, n):
        d = math.exp(y)
        ev = mass_of_t(params, 1.0 + d, d)
        samples.append((1.0 + d, ev.value, ev.abs_error_estimate, -1 if y < y_min else 1))
    return MassCurve(params, tuple(samples), (asym.t1_limit, asym.tinf_limit), extrema)


# ---------------------------------------------------------------------------
# inversion: solutions at prescribed mass


@dataclass(frozen=True)
class NormalizedSolution:
    """A stationary state together with its prescribed mass and total energy."""

    point: BranchPoint
    mass: float
    energy: float


def profile_mass_quadrature(point: BranchPoint) -> float:
    """Mass of the materialized profile by adaptive quadrature (gate oracle).

    Independent of the closed-form mass map: integrates u(x)^2 directly.
    Positive frequencies are integrated in the scaled variable
    z = (p-2) sqrt(lambda) x / 2 over geometric panels, so branch points
    with tiny lambda (structure on scale 1/sqrt(lambda)) stay resolvable;
    the algebraic zero-frequency tail is added in closed form past a cutoff.
    """
    u2 = lambda x: stationary.profile(point, x) ** 2
    p = point.params.p
    if point.zero_frequency:
        cutoff = max(1e3, 100.0 * point.a)
        core, _ = quad(u2, 0.0, cutoff, epsabs=1e-12, epsrel=1e-10, limit=400)
        cp = algebra.c_p(point.params)
        tail = cp * cp * (p - 2.0) / (6.0 - p) \
            * (cutoff + point.a) ** (-(6.0 - p) / (p - 2.0))
        return 2.0 * (core + tail)
    kappa = 0.5 * (p - 2.0) * math.sqrt(point.lam)
    eps = kappa * point.a   # = ln(1 + 2/d) / 2 > 0 for every finite d
    z_max = max(40.0, 7.0 * (p - 2.0))  # u^2 ~ exp(-4 z/(p-2)) in the far tail
    # one panel per decade from eps up to 1 (at most 309 for a double d)
    decades = math.ceil(-math.log10(eps)) if eps < 1.0 else 0
    cuts = [0.0] + [eps * 10.0 ** k for k in range(decades)] + [1.0, 5.0, 20.0, z_max]
    cuts = sorted(set(c for c in cuts if c <= z_max))
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        val, _ = quad(lambda zz: u2(zz / kappa), lo, hi,
                      epsabs=1e-14, epsrel=1e-10, limit=200)
        total += val
    return 2.0 * total / kappa


def _crossing(params: Params, mu: float, y0: float, mu_at_y0: float,
              direction: float) -> float:
    """y on a monotone piece of the mass map with mu(y) = mu, walking from y0."""
    return stationary.root_from(lambda y: _mu_at(params, y) - mu, y0,
                                mu_at_y0 - mu, direction)


def _branch_offsets_at_mass(params: Params, mu: float) -> tuple[list[float], bool]:
    """(log-offsets y = ln(t - 1) with mu(t) = mu, include zero-frequency point?)

    Outside regions C and F the mass increases from its t -> 1+ limit to its
    t -> inf limit (one piece); in C and F it falls from +inf to the branch
    minimum and rises from there to mu0 (F) or +inf (C) (two pieces).
    """
    asym = asymptotics(params)
    mu_inf = asym.tinf_limit   # mu0 for p < 6, else +inf
    with_zero = params.p < 6.0 and abs(mu - mu_inf) <= MU0_MATCH_RTOL * mu_inf
    rising_reaches = not with_zero and mu < mu_inf

    if classify(params) not in (Region.C, Region.F):
        if not (asym.t1_limit < mu and rising_reaches):
            return [], with_zero
        mu_2 = _mu_at(params, 0.0)
        return [_crossing(params, mu, 0.0, mu_2, -1.0 if mu_2 > mu else 1.0)], with_zero

    y_min, mu_min = _branch_minimum(params)
    if abs(mu - mu_min) <= 1e-12 * mu_min:
        return [y_min], False
    if mu < mu_min:
        return [], False
    ys = [_crossing(params, mu, y_min, mu_min, -1.0)]
    if rising_reaches:
        ys.append(_crossing(params, mu, y_min, mu_min, 1.0))
    return ys, with_zero


def normalized_solutions(params: Params, mu: float) -> list[NormalizedSolution]:
    """Every stationary state with prescribed mass mu, or [] where none exists.

    Each returned solution passes the profile-mass quadrature gate at
    relative tolerance 1e-6.
    """
    from .energy import branch_energy  # deferred: energy builds on this module

    if not mu > 0.0:
        raise ValueError(f"need mu > 0, got {mu}")
    points: list[BranchPoint] = []
    if params.diagonal:
        if params.p > 8.0:
            p = params.p
            coeff = diagonal_mass_coefficient(params).value
            lam = (mu / coeff) ** (2.0 * (p - 2.0) / (6.0 - p))
            _, t = stationary.diagonal_exists(params)
            points.append(stationary.branch_point_from_t(params, lam, t))
    else:
        ys, with_zero = _branch_offsets_at_mass(params, mu)
        points.extend(stationary.state_at_logd(params, y) for y in ys)
        if with_zero:
            points.append(stationary.zero_frequency_point(params))

    out = []
    for point in points:
        got = profile_mass_quadrature(point)
        if abs(got - mu) > MASS_GATE_RTOL * mu:
            raise RuntimeError(
                f"profile-mass gate failed: requested {mu}, quadrature gives {got} "
                f"(t={point.t}, lambda={point.lam})")
        out.append(NormalizedSolution(point, mu, branch_energy(point).total))
    return out


# ---------------------------------------------------------------------------
# thresholds


@dataclass(frozen=True)
class ThresholdReport:
    """Mass threshold of the existence rule, with endpoint-inclusion flags.

    For the dipping regimes (C, F) the branch minimum is certified two ways
    (root of h, and direct bounded minimization); both values and their gap
    are reported.
    """

    region: Region
    rule: ExistenceRule
    mu0: float | None
    mu_threshold: float | None
    threshold_attained: bool | None
    lower_cutoff: float | None          # 2.0 for regions G and H, else None
    lower_cutoff_included: bool | None
    minimizer_t: float | None
    h_root_mass: float | None
    direct_min_mass: float | None
    certification_gap: float | None


def mass_threshold(params: Params) -> ThresholdReport:
    """Region-dependent mass threshold of the existence rule (off-diagonal)."""
    if params.diagonal:
        raise ValueError("mass thresholds are defined off the diagonal only")
    region = classify(params)
    rule = expected_solution_regime(params)
    mu0 = algebra.constants(params).mu0

    if region in (Region.A, Region.E):
        return ThresholdReport(region, rule, mu0, mu0, True, None, None,
                               math.inf, None, None, None)
    if region in (Region.B, Region.D):
        return ThresholdReport(region, rule, mu0, None, None, None, None,
                               None, None, None, None)
    if region is Region.G:
        return ThresholdReport(region, rule, mu0, mu0, True, 2.0, False,
                               math.inf, None, None, None)
    if region is Region.H:
        return ThresholdReport(region, rule, mu0, 2.0, False, 2.0, False,
                               None, None, None, None)

    # regions C and F: interior minimum of the branch mass, certified by a
    # direct minimization next to the root of h
    y_min, h_root_mass = _branch_minimum(params)
    res = minimize_scalar(lambda y: _mu_at(params, y), bounds=(y_min - 0.5, y_min + 0.5),
                          method="bounded", options={"xatol": 1e-8})
    direct_min = float(res.fun)
    return ThresholdReport(region, rule, mu0, min(h_root_mass, direct_min), True,
                           None, None, 1.0 + math.exp(y_min), h_root_mass,
                           direct_min, abs(direct_min - h_root_mass))
