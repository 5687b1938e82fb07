"""Self-contained verification battery behind `deltanls verify` and the
acceptance test suite.

Each check re-derives its expected numbers from exact arithmetic or from an
independent numerical route (shooting, Gauss-Legendre quadrature of the
closed-form profiles, the gradient flow on a grid, extrapolation) and
compares against the library at a fixed tolerance.  Checks are pure and
deterministic; `quick` covers the closed-form battery, `full` adds the
shooting sweep, the region-partition sweep and the gradient-flow
cross-check.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from . import algebra, energy, massmap, oracle, stationary
from .params import Params, classify


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    claim: str
    detail: str
    seconds: float


def _check(claim: str):
    """Make body(fails) -> detail a check of the battery that states claim.

    The check is named from its function (check_flow_vs_branch is
    flow-vs-branch) and timed from its call to its result; the body appends
    each failure to the list it is handed, and the check passes iff it
    appends none.
    """
    def decorate(body):
        name = body.__name__[len("check_"):].replace("_", "-")

        @functools.wraps(body)
        def check() -> CheckResult:
            t0 = time.perf_counter()
            fails: list[str] = []
            detail = body(fails)
            if fails:
                detail += " | FAILURES: " + "; ".join(fails)
            return CheckResult(name, not fails, claim, detail, time.perf_counter() - t0)

        return check

    return decorate


def _aitken_limit(seq: list[float]) -> float:
    """Iterated Aitken delta-squared extrapolation of a convergent sequence."""
    cur = list(seq)
    while len(cur) >= 3:
        nxt = []
        for a, b, c in zip(cur, cur[1:], cur[2:]):
            denom = a + c - 2.0 * b
            nxt.append(c if denom == 0.0 else c - (c - b) ** 2 / denom)
        cur = nxt
    return cur[-1]


# ---------------------------------------------------------------------------
# quick checks


#: (p, t) where the closed-form I(t) is compared with adaptive quadrature.
_QUADRATURE_POINTS = ((2.5, 1.3), (3.0, 40.0), (10.0 / 3.0, 7.0), (2.8, 3e3),
                      (4.5, 1.9), (5.999, 200.0), (6.0, 11.0), (8.0, 2.5), (12.0, 1e4))


@_check("p=4, q=2.5: fold at 1/32, the two states at lambda=3/128 sit at "
        "t=2/sqrt(3) and t=2, mu(2)=sqrt(6)/4, zero-frequency mass sqrt(2); "
        "the closed-form I(t) matches adaptive quadrature")
def check_exact_branch_regression(fails: list[str]) -> str:
    P = Params(4.0, 2.5)
    lb = stationary.lambda_bar(P)
    if abs(lb - 1.0 / 32.0) > 1e-12:
        fails.append(f"fold frequency {lb} != 1/32")
    pts = stationary.solve_for_lambda(P, 3.0 / 128.0).points
    expected_ts = (2.0 / math.sqrt(3.0), 2.0)
    if len(pts) != 2:
        fails.append(f"expected 2 states at lambda=3/128, got {len(pts)}")
    else:
        for pt, te in zip(pts, expected_ts):
            if abs(pt.t - te) > 1e-10:
                fails.append(f"branch coordinate {pt.t} != {te}")
    mu2 = massmap.mass_of_t(P, d=1.0)
    if abs(mu2 - math.sqrt(6.0) / 4.0) > 1e-10:
        fails.append(f"mu(2) = {mu2} != sqrt(6)/4")
    mu0 = algebra.mu0(P)
    if abs(mu0 - math.sqrt(2.0)) > 1e-12:
        fails.append(f"mu0 = {mu0} != sqrt(2)")
    # the closed-form I(t) against adaptive quadrature, on both of its series
    # and next to the poles of its connection formula (p = 6, 10/3, 14/5)
    gap = 0.0
    for p, t in _QUADRATURE_POINTS:
        P3, d = Params(p, 3.0), t - 1.0
        closed = algebra.I_of_t(P3, d=d)
        gap = max(gap, abs(closed / algebra.I_of_t_quadrature(P3, d=d)[0] - 1.0))
    if gap > 1e-9:
        fails.append(f"closed-form I(t) and quadrature differ by {gap:.3g} relative")
    return (f"lambda_bar={lb:.17g} mu(2)={mu2:.17g} mu0={mu0:.17g} "
            f"I-quadrature gap={gap:.3g} (bound 1e-9)")


@_check("p=4, q=3.5: the mass map dips to 16*sqrt(6)/9 at t=2; masses "
        "above the dip and below the plateau carry two states, below it none")
def check_multiplicity_window(fails: list[str]) -> str:
    P = Params(4.0, 3.5)
    y_min, mu_min, _ = massmap.branch_minimum(P)
    t_min = 1.0 + math.exp(y_min)
    mu_min_exact = 16.0 * math.sqrt(6.0) / 9.0
    if abs(mu_min - mu_min_exact) > 1e-8:
        fails.append(f"branch minimum {mu_min} != 16*sqrt(6)/9")
    if abs(t_min - 2.0) > 1e-6:
        fails.append(f"minimizer t {t_min} != 2")
    # second route to the branch minimum: bounded minimization of mu in y = ln(t - 1)
    direct = minimize_scalar(lambda y: massmap.mass_of_t(P, d=math.exp(y)),
                             bounds=(y_min - 0.5, y_min + 0.5), method="bounded",
                             options={"xatol": 1e-8})
    gap = abs(float(direct.fun) - mu_min)
    if gap > 1e-8:
        fails.append(f"root of h and bounded minimization differ by {gap:.3g}")
    n5 = len(massmap.normalized_solutions(P, 5.0))
    if n5 != 2:
        fails.append(f"mass 5 carries {n5} states, expected 2")
    n43 = len(massmap.normalized_solutions(P, 4.3))
    if n43 != 0:
        fails.append(f"mass 4.3 carries {n43} states, expected 0")
    return (f"mu_min={mu_min:.12g} at t={t_min:.12g}, "
            f"counts: mu=5 -> {n5}, mu=4.3 -> {n43}, "
            f"two-route gap={gap:.3g} (bound 1e-8)")


@_check("q=4: the branch mass tends to 2 at the small-t end; for p=8 "
        "masses below 2 carry no state and masses just above carry one")
def check_mass_two_threshold(fails: list[str]) -> str:
    limits = {}
    for p in (5.0, 8.0):
        P = Params(p, 4.0)
        ds = [1e-6 * 4.0 ** (-k) for k in range(7)]
        seq = [massmap.mass_of_t(P, d=dd) for dd in ds]
        lim = _aitken_limit(seq)
        limits[p] = lim
        if abs(lim - 2.0) > 1e-4:
            fails.append(f"p={p}: extrapolated small-t mass {lim} != 2")
    PH = Params(8.0, 4.0)
    n_below = len(massmap.normalized_solutions(PH, 1.9))
    n_above = len(massmap.normalized_solutions(PH, 2.1))
    if n_below != 0:
        fails.append(f"p=8, q=4: mass 1.9 carries {n_below} states, expected 0")
    if n_above != 1:
        fails.append(f"p=8, q=4: mass 2.1 carries {n_above} states, expected 1")
    return (f"extrapolated limits: p=5 -> {limits[5.0]:.8f}, "
            f"p=8 -> {limits[8.0]:.8f}; counts 1.9 -> {n_below}, 2.1 -> {n_above}")


@_check("diagonal q=p/2+1: states exist only for p>8 (t=sqrt(2) at p=16), "
        "mass scales like lambda^(-5/14) at p=16, branch energies stay "
        "positive, and p=8 carries nothing")
def check_diagonal_regime(fails: list[str]) -> str:
    P = Params(16.0, 9.0)
    exists, tdiag = stationary.diagonal_exists(P)
    if not exists or abs(tdiag - math.sqrt(2.0)) > 1e-12:
        fails.append(f"diagonal coordinate {tdiag} != sqrt(2)")
    lams = np.logspace(-2.0, 2.0, 9)
    mus = [massmap.mass_of_lambda_diagonal(P, lam) for lam in lams]
    slope = float(np.polyfit(np.log(lams), np.log(mus), 1)[0])
    if abs(slope + 5.0 / 14.0) > 1e-6:
        fails.append(f"mass-vs-frequency log slope {slope} != -5/14")
    energies = []
    for lam in (0.1, 1.0, 10.0):
        pt = stationary.solve_for_lambda(P, lam).points[0]
        tot = stationary.branch_energy(pt).total
        energies.append(tot)
        if not tot > 0.0:
            fails.append(f"diagonal energy at lambda={lam} is {tot}, expected > 0")
    for lam in (0.5, 1.0, 2.0):
        cnt = stationary.solve_for_lambda(Params(8.0, 5.0), lam).count
        if cnt != 0:
            fails.append(f"p=8, q=5: lambda={lam} carries {cnt} states, expected 0")
    return f"t={tdiag:.17g} slope={slope:.12g} energies={[f'{e:.6g}' for e in energies]}"


def _oracle_points() -> list[tuple[str, stationary.BranchPoint]]:
    """>= 12 branch states spanning regions A, B, C, F, H and the diagonal p > 8."""
    picks: list[tuple[str, stationary.BranchPoint]] = []

    def add(tag: str, params: Params, lam: float) -> None:
        for pt in stationary.solve_for_lambda(params, lam).points:
            picks.append((tag, pt))

    add("A", Params(4.0, 2.5), 3.0 / 128.0)   # two states
    add("A", Params(4.0, 2.5), 0.01)          # two states
    add("B", Params(8.0, 3.0), 0.04)          # two states
    add("C", Params(8.0, 4.5), 0.5 * stationary.lambda_bar(Params(8.0, 4.5)))  # two states
    add("F", Params(4.0, 3.5), 0.5)           # one state
    add("F", Params(4.0, 3.5), 2.0)           # one state
    add("H", Params(8.0, 4.0), 0.02)          # two states
    add("I", Params(16.0, 9.0), 0.5)          # one state
    add("I", Params(16.0, 9.0), 2.0)          # one state
    return picks


def _first_integral_residual(point: stationary.BranchPoint, x) -> float:
    """max |u'^2 - lam u^2 - (2/p) u^p| over the sample points x (all nonzero)."""
    p = point.params.p
    u = np.asarray(stationary.profile(point, x), dtype=float)
    du = np.asarray(stationary.profile_derivative(point, x), dtype=float)
    resid = du ** 2 - point.lam * u ** 2 - (2.0 / p) * u ** p
    return float(np.max(np.abs(resid)))


@_check("shooting from the vertex data reproduces every closed-form "
        "profile to 1e-6, Gauss-Legendre quadrature of each profile matches "
        "its closed-form mass and energy pieces to 1e-10 with error "
        "estimates at most 1e-12, vertex and conservation residuals below 1e-8")
def check_oracle_equivalence(fails: list[str]) -> str:
    points = _oracle_points()
    if len(points) < 12:
        fails.append(f"only {len(points)} branch states collected")
    bounds = {"sup": "1e-6", "mass": "1e-10", "kinetic": "1e-10", "bulk": "1e-10",
              "point": "1e-10", "estimate": "1e-12", "residual": "1e-8"}
    worst = dict.fromkeys(bounds, 0.0)
    for tag, pt in points:
        res = oracle.shoot(pt.params, pt.lam, pt.u0)
        sup = oracle.shooting_sup_distance(pt, res)
        worst["sup"] = max(worst["sup"], sup)
        if not res.decay_ok:
            fails.append(f"{tag}: shot at t={pt.t:.6g} did not decay ({res.outcome})")
        if sup > 1e-6:
            fails.append(f"{tag}: shooting sup-distance {sup:.3g} > 1e-6")
        if res.first_integral_drift > 1e-7:
            fails.append(f"{tag}: first-integral drift {res.first_integral_drift:.3g}")

        mass_q, eb_q, estimate = oracle.profile_functional(
            pt, max(60.0, 30.0 / math.sqrt(pt.lam)))
        worst["estimate"] = max(worst["estimate"], estimate)
        if estimate > 1e-12:
            fails.append(f"{tag}: quadrature error estimate {estimate:.3g} > 1e-12")
        eb_c = stationary.branch_energy(pt)
        for name, got, want in (("mass", mass_q, massmap.state_mass(pt)),
                                ("kinetic", eb_q.kinetic, eb_c.kinetic),
                                ("bulk", eb_q.bulk, eb_c.bulk),
                                ("point", eb_q.point, eb_c.point)):
            rel = abs(got - want) / abs(want)
            worst[name] = max(worst[name], rel)
            if rel > 1e-10:
                fails.append(f"{tag}: quadrature {name} off by {rel:.3g}")

        vres = stationary.vertex_residual(pt)
        xs = np.linspace(0.3, 8.0, 12) / max(math.sqrt(pt.lam), 0.05)
        fres = _first_integral_residual(pt, xs) \
            / (pt.lam * pt.u0 ** 2 + (2.0 / pt.params.p) * pt.u0 ** pt.params.p)
        worst["residual"] = max(worst["residual"], vres, fres)
        if vres > 1e-8 or fres > 1e-8:
            fails.append(f"{tag}: residuals vertex={vres:.3g} first-integral={fres:.3g}")
    return f"{len(points)} states; worst: " + " ".join(
        f"{name}={value:.3g} (bound {bounds[name]})" for name, value in worst.items())


@_check("the level curve is non-positive and non-increasing, constant "
        "past the zero-frequency mass in region A, bounded with shrinking "
        "decrements for large mass in region B, and switches from concave "
        "to convex exactly once")
def check_energy_level_shape(fails: list[str]) -> str:
    PA = Params(4.0, 2.5)
    mu_grid = [0.05, 0.1, 0.2, 0.29, 0.4, 0.6, 0.9, 1.2, 1.35, math.sqrt(2.0),
               1.5, 2.0, 3.0]
    vals = [energy.groundstate_energy(PA, mu).value for mu in mu_grid]
    if any(v > 1e-15 for v in vals):
        fails.append("level curve has a positive sample")
    if any(b - a > 1e-12 for a, b in zip(vals, vals[1:])):
        fails.append("level curve is not non-increasing")
    plateau = energy.groundstate_energy(PA, math.sqrt(2.0)).value
    for mu in (1.5, 2.0, 3.0):
        v = energy.groundstate_energy(PA, mu).value
        if abs(v - plateau) > 1e-8:
            fails.append(f"plateau broken at mu={mu}: {v} vs {plateau}")
    PB = Params(8.0, 3.0)
    eb = [energy.groundstate_energy(PB, m).value for m in (10.0, 100.0, 1000.0)]
    if not (eb[0] > eb[1] > eb[2]):
        fails.append(f"large-mass tail not decreasing: {eb}")
    gap_ratio = (eb[0] - eb[1]) / (eb[1] - eb[2])
    if not gap_ratio >= 2.0:
        fails.append(f"large-mass gaps not shrinking: ratio {gap_ratio}")
    flips = {}
    for P in (PA, PB):
        rep = energy.convexity_scan(P)
        flips[P.p] = rep.mu_bar
        if abs(rep.mu_bar - rep.lambda_peak_mass) > 2.0 * rep.crossing_gap + 1e-9:
            fails.append(f"p={P.p}: curvature flip {rep.mu_bar} far from "
                         f"multiplier peak {rep.lambda_peak_mass}")
    return (f"plateau={plateau:.12g}; tail={['%.10g' % x for x in eb]} "
            f"gap_ratio={gap_ratio:.3g}; flips={flips}")


def _multiplier_consistency(params: Params, mu: float, step: float) -> float:
    """|dE/dmu + lambda(mu)/2| / max(1, lambda(mu)/2) via Richardson-refined
    central differences: absolute while lambda/2 <= 1, relative beyond (near
    q = 4 in region F the level falls like mu^(q/(4-q)) and lambda reaches
    1e9 and more).

    Defined where the minimizing branch is unique and smooth around mu.
    """
    center = energy.groundstate_energy(params, mu)
    if center.lam is None:
        raise ValueError("multiplier is undefined: no minimizing branch at this mass")

    def level(m: float) -> float:
        s = energy.groundstate_energy(params, m)
        if s.value is None:
            raise ValueError("level curve is not finite near the requested mass")
        return s.value

    def central(s: float) -> float:
        return (level(mu + s) - level(mu - s)) / (2.0 * s)

    d1 = central(step)
    d2 = central(step / 2.0)
    deriv = (4.0 * d2 - d1) / 3.0
    return abs(deriv + center.lam / 2.0) / max(1.0, center.lam / 2.0)


@_check("the slope of the level curve equals minus half the multiplier "
        "of the minimizing state at interior masses")
def check_multiplier_identity(fails: list[str]) -> str:
    worst = 0.0
    cases = {Params(4.0, 2.5): (0.2, 0.4, 0.6, 0.9, 1.2),
             Params(8.0, 3.0): (0.5, 1.0, 2.0, 5.0, 10.0)}
    for P, mus in cases.items():
        for mu in mus:
            resid = _multiplier_consistency(P, mu, 1e-3 * mu)
            worst = max(worst, resid)
            if resid > 1e-5:
                fails.append(f"(p={P.p}, q={P.q}, mu={mu}): residual {resid:.3g}")
    return f"worst residual {worst:.3g}"


def _probe_min_energy(params: Params, mu: float) -> float:
    """Lowest closed-form trial energy at mass mu.

    Trial functions are exponential bumps delta * exp(-delta^2 |x|)
    rescaled to the target mass; for q != 4 the mass rescaling gives

        E = -mu'^(q/(4-q)) (delta^q/q - delta^4/2)
            + (2 delta^(p-2)/p^2) mu'^((p+2-q)/(4-q))

    evaluated over a delta ladder and masses mu' <= mu (parking the rest of
    the mass at infinity costs nothing, so any trial at mu' <= mu bounds the
    level at mu).  For q = 4 that rescaling degenerates and the width family
    sqrt(sigma) u(sigma x) is used instead.
    """
    p, q = params.p, params.q
    with np.errstate(over="ignore", invalid="ignore"):
        if q == 4.0:
            S, D = np.meshgrid(np.logspace(0.0, 8.0, 81), np.logspace(-1.0, 1.0, 21),
                               indexing="ij")
            vals = (S ** 2 * mu * D ** 4 * (2.0 - mu) / 4.0
                    + S ** (p / 2.0 - 1.0) * 2.0 * mu ** (p / 2.0)
                    * D ** (p - 2.0) / p ** 2)
        else:
            D, M = np.meshgrid(np.logspace(-2.0, 2.0, 81), mu * np.logspace(-6.0, 0.0, 31),
                               indexing="ij")
            vals = (-M ** (q / (4.0 - q)) * (D ** q / q - D ** 4 / 2.0)
                    + (2.0 * D ** (p - 2.0) / p ** 2)
                    * M ** ((p + 2.0 - q) / (4.0 - q)))
    finite = vals[np.isfinite(vals)]
    if finite.size == 0:
        raise RuntimeError("trial family evaluated to no finite energies")
    return float(np.min(finite))


@_check("trial families drive the energy below -1e6 exactly in the "
        "unbounded regimes, and stay above the level curve elsewhere")
def check_unboundedness_probes(fails: list[str]) -> str:
    must_descend = [(3.0, 5.0, 1.0), (5.0, 4.0, 3.0), (4.0, 6.0, 1.0)]
    must_stay = [(4.0, 2.5, 1.0), (8.0, 4.5, 1.0)]
    mins = {}
    for p, q, mu in must_descend:
        mins[(p, q)] = e = _probe_min_energy(Params(p, q), mu)
        if not e < oracle.FLOW_DIVERGENCE_FLOOR:
            fails.append(f"(p={p}, q={q}, mu={mu}) stayed above the floor: {e}")
    for p, q, mu in must_stay:
        mins[(p, q)] = e = _probe_min_energy(Params(p, q), mu)
        if e < oracle.FLOW_DIVERGENCE_FLOOR:
            fails.append(f"(p={p}, q={q}, mu={mu}) descended unexpectedly: {e}")
    floorA = energy.groundstate_energy(Params(4.0, 2.5), 1.0).value
    if mins[(4.0, 2.5)] < floorA - 1e-9:
        fails.append(f"bounded probe dips below the level curve: {mins[(4.0, 2.5)]} < {floorA}")
    return f"minima: {mins}"


def _gn_margin(point: stationary.BranchPoint) -> tuple[float, float]:
    """(||u||_2 ||u'||_2 - u(0)^2, error estimate) of a branch state on [-L, L].

    Both norms come from Gauss-Legendre quadrature of the closed-form profile
    (``oracle.profile_functional``), to oracle-equivalence's L = max(60,
    30/sqrt(lambda)), and to L = 1e16 at zero frequency, where the algebraic
    tail past L holds the fraction (a/(L + a))^((6-p)/(p-2)) of the mass
    (3e-16 for the state of p = 4, q = 2.5).  Truncated norms are lower
    bounds of the full ones, so a margin >= 0 on them proves the inequality
    whatever L is; L only decides how close the margin is.
    """
    L = max(60.0, 30.0 / math.sqrt(point.lam)) if point.lam > 0.0 else 1e16
    mass, eb, estimate = oracle.profile_functional(point, L)
    return math.sqrt(mass * 2.0 * eb.kinetic) - point.u0 ** 2, estimate


@_check("peak^2 <= L2 norm * gradient norm holds with margin on every "
        "materialized profile, both norms by Gauss-Legendre quadrature of "
        "the profile with error estimates at most 1e-12")
def check_gn_inequality(fails: list[str]) -> str:
    points = [pt for _, pt in _oracle_points()]
    points.append(stationary.zero_frequency_point(Params(4.0, 2.5)))
    points.extend(stationary.solve_for_lambda(Params(4.0, 3.5), 1.0).points)
    margins = [(pt, *_gn_margin(pt)) for pt in points]
    for pt, margin, estimate in margins:
        if margin < 0.0 or estimate > 1e-12:
            fails.append(f"(p={pt.params.p}, q={pt.params.q}, t={pt.t:.6g}): margin "
                         f"{margin:.3g} (bound 0), estimate {estimate:.3g} (bound 1e-12)")
    return (f"{len(margins)} profiles, smallest margin {min(m for _, m, _ in margins):.6g}, "
            f"worst estimate {max(e for _, _, e in margins):.3g} (bound 1e-12)")


@_check("the mass map is strictly increasing in the covered strips "
        "(h > 0), and for p=4, q=3.5 its derivative changes sign exactly "
        "once, at t=2")
def check_mass_monotonicity(fails: list[str]) -> str:
    ys = np.linspace(-14.0, math.log(99.0), 1000)
    for p, q in ((4.0, 2.5), (8.0, 3.0), (8.0, 4.0), (3.0, 4.5)):
        P = Params(p, q)
        hs = [algebra.h_of_t(P, d=math.exp(y)) for y in ys]
        if min(hs) <= 0.0:
            fails.append(f"(p={p}, q={q}): h dips to {min(hs)}")
    P = Params(4.0, 3.5)
    hs = [algebra.h_of_t(P, d=math.exp(y)) for y in ys]
    signs = np.sign(hs)
    changes = int(np.sum(np.abs(np.diff(signs)) > 0))
    if changes != 1:
        fails.append(f"(4, 3.5): {changes} sign changes, expected 1")
    t_min = 1.0 + math.exp(massmap.branch_minimum(P).y)
    if abs(t_min - 2.0) > 1e-10:
        fails.append(f"(4, 3.5): root {t_min} != 2")
    return f"root at {t_min:.15g}"


# ---------------------------------------------------------------------------
# full-suite extras


def _region_membership(p: float, q: float) -> list[str]:
    half = p / 2.0 + 1.0
    tags = []
    if 2.0 < p < 6.0 and 2.0 < q < half:
        tags.append("A")
    if p >= 6.0 and 2.0 < q < 4.0:
        tags.append("B")
    if p > 6.0 and 4.0 < q < half:
        tags.append("C")
    if p >= 6.0 and q > half:
        tags.append("D")
    if 2.0 < p < 6.0 and q > 4.0:
        tags.append("E")
    if 2.0 < p < 6.0 and half < q < 4.0:
        tags.append("F")
    if 2.0 < p < 6.0 and q == 4.0:
        tags.append("G")
    if p > 6.0 and q == 4.0:
        tags.append("H")
    if p > 2.0 and q == half:
        tags.append("I")
    return tags


@_check("the nine regions tile the admissible quadrant: every sampled "
        "exponent pair lies in exactly one region, boundary lines "
        "included on the printed sides")
def check_region_partition(fails: list[str]) -> str:
    rng = np.random.default_rng(20240817)
    pts = 2.01 + rng.random((10000, 2)) * (12.0 - 2.01)
    bad = 0
    # Python floats from two flat lists: faster than numpy scalars, and half
    # the memory of pts.tolist()'s 10,000 row lists
    for p, q in zip(pts[:, 0].tolist(), pts[:, 1].tolist()):
        tags = _region_membership(p, q)
        got = classify(Params(p, q)).value
        if len(tags) != 1 or tags[0] != got:
            bad += 1
            if bad <= 3:
                fails.append(f"(p={p}, q={q}): memberships {tags}, classified {got}")
    if bad:
        fails.append(f"{bad} of 10000 points misclassified")
    for (p, q, want) in ((6.0, 3.0, "B"), (6.0, 5.0, "D"), (6.0, 4.0, "I"),
                         (7.0, 4.0, "H"), (5.0, 4.0, "G"), (10.0, 6.0, "I")):
        got = classify(Params(p, q)).value
        if got != want:
            fails.append(f"boundary ({p}, {q}): {got} != {want}")
    return "10000 samples + 6 boundary points"


@_check("the mass-constrained gradient flow lands on the branch level "
        "to 1e-4 with a non-increasing energy trace")
def check_flow_vs_branch(fails: list[str]) -> str:
    P = Params(4.0, 2.5)
    mu = 0.3
    gs = energy.groundstate_energy(P, mu)
    prof0 = oracle.make_initial_profile(mu, oracle.default_domain(gs.lam), 1500, width=3.0)
    _, trace = oracle.constrained_minimize(P, mu, prof0, max_iters=120000)
    diff = abs(trace[-1] - gs.value)
    if diff > 1e-4:
        fails.append(f"flow level {trace[-1]} vs branch level {gs.value}")
    if any(b - a > 0.0 for a, b in zip(trace, trace[1:])):
        fails.append("energy trace increased")
    return (f"flow={trace[-1]:.8g} branch={gs.value:.8g} "
            f"diff={diff:.2g} (bound 1e-4) steps={len(trace) - 1}")


@_check("the discrete flow itself falls below -1e6 in an unbounded regime "
        "when seeded past the collapse barrier")
def check_probe_flow(fails: list[str]) -> str:
    P = Params(3.0, 5.0)
    n = 4000
    prof0 = oracle.make_initial_profile(1.0, 5.0, n, width=5.0 / n * 10.0)
    _, trace = oracle.constrained_minimize(P, 1.0, prof0, max_iters=60000)
    if not trace[-1] < oracle.FLOW_DIVERGENCE_FLOOR:
        fails.append(f"flow probe stayed at {trace[-1]}")
    return f"final={trace[-1]:.3g}"


QUICK_CHECKS = [
    check_exact_branch_regression,
    check_multiplicity_window,
    check_mass_two_threshold,
    check_diagonal_regime,
    check_energy_level_shape,
    check_multiplier_identity,
    check_unboundedness_probes,
    check_gn_inequality,
    check_mass_monotonicity,
]

FULL_CHECKS = QUICK_CHECKS + [
    check_oracle_equivalence,
    check_region_partition,
    check_flow_vs_branch,
    check_probe_flow,
]


def run_checks(level: str = "quick") -> list[CheckResult]:
    checks = QUICK_CHECKS if level == "quick" else FULL_CHECKS
    return [fn() for fn in checks]
