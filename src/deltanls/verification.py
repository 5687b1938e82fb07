"""Self-contained verification battery behind `deltanls verify` and the
acceptance test suite.

Each check re-derives its expected numbers from exact arithmetic or from an
independent numerical route (shooting, grid quadrature, extrapolation) and
compares against the library at a fixed tolerance.  Checks are pure and
deterministic; `quick` covers the closed-form battery, `full` adds the
shooting sweep, the region-partition sweep and the gradient-flow
cross-check.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import algebra, energy, massmap, oracle, stationary
from .params import Params, classify


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    claim: str
    detail: str
    seconds: float


def _result(name: str, claim: str, failures: list[str], detail: str,
            t0: float) -> CheckResult:
    if failures:
        detail = detail + " | FAILURES: " + "; ".join(failures)
    return CheckResult(name, not failures, claim, detail, time.perf_counter() - t0)


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


def check_exact_branch_regression() -> CheckResult:
    t0 = time.perf_counter()
    fails: list[str] = []
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
    mu2 = massmap.mass_of_t(P, 2.0).value
    if abs(mu2 - math.sqrt(6.0) / 4.0) > 1e-10:
        fails.append(f"mu(2) = {mu2} != sqrt(6)/4")
    mu0 = algebra.constants(P).mu0
    if abs(mu0 - math.sqrt(2.0)) > 1e-12:
        fails.append(f"mu0 = {mu0} != sqrt(2)")
    detail = f"lambda_bar={lb:.17g} mu(2)={mu2:.17g} mu0={mu0:.17g}"
    claim = ("p=4, q=2.5: fold at 1/32, the two states at lambda=3/128 sit at "
             "t=2/sqrt(3) and t=2, mu(2)=sqrt(6)/4, zero-frequency mass sqrt(2)")
    return _result("exact-branch-regression", claim, fails, detail, t0)


def check_multiplicity_window() -> CheckResult:
    t0 = time.perf_counter()
    fails: list[str] = []
    P = Params(4.0, 3.5)
    thr = massmap.mass_threshold(P)
    mu_min_exact = 16.0 * math.sqrt(6.0) / 9.0
    if abs(thr.mu_threshold - mu_min_exact) > 1e-8:
        fails.append(f"branch minimum {thr.mu_threshold} != 16*sqrt(6)/9")
    if abs(thr.minimizer_t - 2.0) > 1e-6:
        fails.append(f"minimizer t {thr.minimizer_t} != 2")
    n5 = len(massmap.normalized_solutions(P, 5.0))
    if n5 != 2:
        fails.append(f"mass 5 carries {n5} states, expected 2")
    n43 = len(massmap.normalized_solutions(P, 4.3))
    if n43 != 0:
        fails.append(f"mass 4.3 carries {n43} states, expected 0")
    detail = (f"mu_min={thr.mu_threshold:.12g} at t={thr.minimizer_t:.12g}, "
              f"counts: mu=5 -> {n5}, mu=4.3 -> {n43}, "
              f"two-route gap={thr.certification_gap:.3g}")
    claim = ("p=4, q=3.5: the mass map dips to 16*sqrt(6)/9 at t=2; masses "
             "above the dip and below the plateau carry two states, below it none")
    return _result("multiplicity-window", claim, fails, detail, t0)


def check_mass_two_threshold() -> CheckResult:
    t0 = time.perf_counter()
    fails: list[str] = []
    limits = {}
    for p in (5.0, 8.0):
        P = Params(p, 4.0)
        ds = [1e-6 * 4.0 ** (-k) for k in range(7)]
        seq = [massmap.mass_of_t(P, 1.0 + dd, dd).value for dd in ds]
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
    detail = (f"extrapolated limits: p=5 -> {limits[5.0]:.8f}, "
              f"p=8 -> {limits[8.0]:.8f}; counts 1.9 -> {n_below}, 2.1 -> {n_above}")
    claim = ("q=4: the branch mass tends to 2 at the small-t end; for p=8 "
             "masses below 2 carry no state and masses just above carry one")
    return _result("mass-two-threshold", claim, fails, detail, t0)


def check_diagonal_regime() -> CheckResult:
    t0 = time.perf_counter()
    fails: list[str] = []
    P = Params(16.0, 9.0)
    exists, tdiag = stationary.diagonal_exists(P)
    if not exists or abs(tdiag - math.sqrt(2.0)) > 1e-12:
        fails.append(f"diagonal coordinate {tdiag} != sqrt(2)")
    lams = np.logspace(-2.0, 2.0, 9)
    mus = [massmap.mass_of_lambda_diagonal(P, lam).value for lam in lams]
    slope = float(np.polyfit(np.log(lams), np.log(mus), 1)[0])
    if abs(slope + 5.0 / 14.0) > 1e-6:
        fails.append(f"mass-vs-frequency log slope {slope} != -5/14")
    energies = []
    for lam in (0.1, 1.0, 10.0):
        pt = stationary.solve_for_lambda(P, lam).points[0]
        tot = energy.branch_energy(pt).total
        energies.append(tot)
        if not tot > 0.0:
            fails.append(f"diagonal energy at lambda={lam} is {tot}, expected > 0")
    for lam in (0.5, 1.0, 2.0):
        cnt = stationary.solve_for_lambda(Params(8.0, 5.0), lam).count
        if cnt != 0:
            fails.append(f"p=8, q=5: lambda={lam} carries {cnt} states, expected 0")
    detail = f"t={tdiag:.17g} slope={slope:.12g} energies={[f'{e:.6g}' for e in energies]}"
    claim = ("diagonal q=p/2+1: states exist only for p>8 (t=sqrt(2) at p=16), "
             "mass scales like lambda^(-5/14) at p=16, branch energies stay "
             "positive, and p=8 carries nothing")
    return _result("diagonal-regime", claim, fails, detail, t0)


def _oracle_points() -> list[tuple[str, stationary.BranchPoint]]:
    """>= 12 branch states spanning regions A, B, C, F, H and the diagonal p > 8."""
    picks: list[tuple[str, stationary.BranchPoint]] = []

    def add(tag: str, params: Params, lam: float) -> None:
        for pt in stationary.solve_for_lambda(params, lam).points:
            picks.append((tag, pt))

    add("A", Params(4.0, 2.5), 3.0 / 128.0)   # two states
    add("A", Params(4.0, 2.5), 0.01)          # two states
    add("B", Params(8.0, 3.0), 0.04)          # two states
    add("C", Params(8.0, 4.5), 0.5 * _fold(Params(8.0, 4.5)))  # two states
    add("F", Params(4.0, 3.5), 0.5)           # one state
    add("F", Params(4.0, 3.5), 2.0)           # one state
    add("H", Params(8.0, 4.0), 0.02)          # two states
    add("I", Params(16.0, 9.0), 0.5)          # one state
    add("I", Params(16.0, 9.0), 2.0)          # one state
    return picks


def _fold(params: Params) -> float:
    lb = stationary.lambda_bar(params)
    assert lb is not None
    return lb


def check_oracle_equivalence() -> CheckResult:
    t0 = time.perf_counter()
    fails: list[str] = []
    points = _oracle_points()
    if len(points) < 12:
        fails.append(f"only {len(points)} branch states collected")
    sup_worst = mass_worst = en_worst = resid_worst = 0.0
    for tag, pt in points:
        res = oracle.shoot(pt.params, pt.lam, pt.u0)
        sup = oracle.shooting_sup_distance(pt, res)
        sup_worst = max(sup_worst, sup)
        if not res.decay_ok:
            fails.append(f"{tag}: shot at t={pt.t:.6g} did not decay ({res.outcome})")
        if sup > 1e-6:
            fails.append(f"{tag}: shooting sup-distance {sup:.3g} > 1e-6")
        if res.first_integral_drift > 1e-7:
            fails.append(f"{tag}: first-integral drift {res.first_integral_drift:.3g}")

        L = max(60.0, 30.0 / math.sqrt(pt.lam))
        grid = oracle.sample_profile(pt, L, 800000)
        mass_q, eb_q = oracle.functional_eval(pt.params, grid)
        if pt.params.diagonal:
            mass_c = massmap.mass_of_lambda_diagonal(pt.params, pt.lam).value
        else:
            mass_c = massmap.mass_of_t(pt.params, pt.t, pt.d).value
        rel_mass = abs(mass_q - mass_c) / mass_c
        mass_worst = max(mass_worst, rel_mass)
        if rel_mass > 1e-6:
            fails.append(f"{tag}: quadrature mass off by {rel_mass:.3g}")
        eb_c = energy.branch_energy(pt)
        for name, got, want in (("kinetic", eb_q.kinetic, eb_c.kinetic),
                                ("bulk", eb_q.bulk, eb_c.bulk),
                                ("point", eb_q.point, eb_c.point)):
            rel = abs(got - want) / abs(want)
            en_worst = max(en_worst, rel)
            if rel > 1e-6:
                fails.append(f"{tag}: {name} energy off by {rel:.3g}")

        vres = stationary.vertex_residual(pt) / pt.u0 ** (pt.params.q - 1.0)
        xs = np.linspace(0.3, 8.0, 12) / max(math.sqrt(pt.lam), 0.05)
        fres = stationary.first_integral_residual(pt, xs) \
            / (pt.lam * pt.u0 ** 2 + (2.0 / pt.params.p) * pt.u0 ** pt.params.p)
        resid_worst = max(resid_worst, vres, fres)
        if vres > 1e-8 or fres > 1e-8:
            fails.append(f"{tag}: residuals vertex={vres:.3g} first-integral={fres:.3g}")
    detail = (f"{len(points)} states; worst: sup={sup_worst:.3g} "
              f"mass={mass_worst:.3g} energy={en_worst:.3g} residual={resid_worst:.3g}")
    claim = ("shooting from the vertex data reproduces every closed-form "
             "profile to 1e-6, grid quadrature matches closed-form mass and "
             "energy to 1e-6, vertex and conservation residuals below 1e-8")
    return _result("oracle-equivalence", claim, fails, detail, t0)


def check_energy_level_shape() -> CheckResult:
    t0 = time.perf_counter()
    fails: list[str] = []
    PA = Params(4.0, 2.5)
    mu_grid = [0.05, 0.1, 0.2, 0.29, 0.4, 0.6, 0.9, 1.2, 1.35, math.sqrt(2.0),
               1.5, 2.0, 3.0]
    curve = energy.energy_curve(PA, mu_grid)
    vals = [s.value for s in curve.samples]
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
    detail = (f"plateau={plateau:.12g}; tail={['%.10g' % x for x in eb]} "
              f"gap_ratio={gap_ratio:.3g}; flips={flips}")
    claim = ("the level curve is non-positive and non-increasing, constant "
             "past the zero-frequency mass in region A, bounded with shrinking "
             "decrements for large mass in region B, and switches from concave "
             "to convex exactly once")
    return _result("energy-level-shape", claim, fails, detail, t0)


def check_multiplier_identity() -> CheckResult:
    t0 = time.perf_counter()
    fails: list[str] = []
    worst = 0.0
    cases = {Params(4.0, 2.5): (0.2, 0.4, 0.6, 0.9, 1.2),
             Params(8.0, 3.0): (0.5, 1.0, 2.0, 5.0, 10.0)}
    for P, mus in cases.items():
        for mu in mus:
            resid = energy.multiplier_consistency(P, mu, 1e-3 * mu)
            worst = max(worst, resid)
            if resid > 1e-5:
                fails.append(f"(p={P.p}, q={P.q}, mu={mu}): residual {resid:.3g}")
    claim = ("the slope of the level curve equals minus half the multiplier "
             "of the minimizing state at interior masses")
    return _result("multiplier-identity", claim, fails, f"worst residual {worst:.3g}", t0)


def check_unboundedness_probes() -> CheckResult:
    t0 = time.perf_counter()
    fails: list[str] = []
    must_descend = [(3.0, 5.0, 1.0), (5.0, 4.0, 3.0), (4.0, 6.0, 1.0)]
    must_stay = [(4.0, 2.5, 1.0), (8.0, 4.5, 1.0)]
    mins = {}
    for p, q, mu in must_descend:
        r = energy.unboundedness_probe(Params(p, q), mu)
        mins[(p, q)] = r.min_energy
        if not r.descended_below_floor:
            fails.append(f"(p={p}, q={q}, mu={mu}) stayed above the floor: {r.min_energy}")
    for p, q, mu in must_stay:
        r = energy.unboundedness_probe(Params(p, q), mu)
        mins[(p, q)] = r.min_energy
        if r.descended_below_floor:
            fails.append(f"(p={p}, q={q}, mu={mu}) descended unexpectedly: {r.min_energy}")
    floorA = energy.groundstate_energy(Params(4.0, 2.5), 1.0).value
    if mins[(4.0, 2.5)] < floorA - 1e-9:
        fails.append(f"bounded probe dips below the level curve: {mins[(4.0, 2.5)]} < {floorA}")
    claim = ("trial families drive the energy below -1e6 exactly in the "
             "unbounded regimes, and stay above the level curve elsewhere")
    return _result("unboundedness-probes", claim, fails, f"minima: {mins}", t0)


def check_gn_inequality() -> CheckResult:
    t0 = time.perf_counter()
    fails: list[str] = []
    points = [pt for _, pt in _oracle_points()]
    points.append(stationary.zero_frequency_point(Params(4.0, 2.5)))
    for pt in stationary.solve_for_lambda(Params(4.0, 3.5), 1.0).points:
        points.append(pt)
    worst = math.inf
    for pt in points:
        margin = energy.gagliardo_nirenberg_margin(pt)
        worst = min(worst, margin)
        if margin < 0.0:
            fails.append(f"(p={pt.params.p}, q={pt.params.q}, t={pt.t:.6g}): "
                         f"margin {margin:.3g} < 0")
    claim = ("peak^2 <= L2 norm * gradient norm holds with margin on every "
             "materialized profile")
    return _result("gn-inequality", claim, fails,
                   f"{len(points)} profiles, smallest margin {worst:.6g}", t0)


def check_mass_monotonicity() -> CheckResult:
    t0 = time.perf_counter()
    fails: list[str] = []
    ys = np.linspace(-14.0, math.log(99.0), 1000)
    for p, q in ((4.0, 2.5), (8.0, 3.0), (8.0, 4.0), (3.0, 4.5)):
        P = Params(p, q)
        hs = [algebra.h_of_t(P, 1.0 + math.exp(y), math.exp(y)).value for y in ys]
        if min(hs) <= 0.0:
            fails.append(f"(p={p}, q={q}): h dips to {min(hs)}")
    P = Params(4.0, 3.5)
    hs = [algebra.h_of_t(P, 1.0 + math.exp(y), math.exp(y)).value for y in ys]
    signs = np.sign(hs)
    changes = int(np.sum(np.abs(np.diff(signs)) > 0))
    if changes != 1:
        fails.append(f"(4, 3.5): {changes} sign changes, expected 1")
    t_min = massmap.mass_threshold(P).minimizer_t
    if abs(t_min - 2.0) > 1e-10:
        fails.append(f"(4, 3.5): root {t_min} != 2")
    claim = ("the mass map is strictly increasing in the covered strips "
             "(h > 0), and for p=4, q=3.5 its derivative changes sign exactly "
             "once, at t=2")
    return _result("mass-monotonicity", claim, fails,
                   f"root at {t_min:.15g}", t0)


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


def check_region_partition() -> CheckResult:
    t0 = time.perf_counter()
    fails: list[str] = []
    rng = np.random.default_rng(20240817)
    pts = 2.01 + rng.random((10000, 2)) * (12.0 - 2.01)
    bad = 0
    for p, q in pts:
        tags = _region_membership(float(p), float(q))
        got = classify(Params(float(p), float(q))).value
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
    claim = ("the nine regions tile the admissible quadrant: every sampled "
             "exponent pair lies in exactly one region, boundary lines "
             "included on the printed sides")
    return _result("region-partition", claim, fails, "10000 samples + 6 boundary points", t0)


def check_flow_vs_branch() -> CheckResult:
    t0 = time.perf_counter()
    fails: list[str] = []
    P = Params(4.0, 2.5)
    mu = 0.3
    gs = energy.groundstate_energy(P, mu)
    L = max(50.0, 20.0 / math.sqrt(gs.lam))
    prof0 = oracle.make_initial_profile(mu, L, 1500, width=3.0)
    _, trace = oracle.constrained_minimize(P, mu, prof0, max_iters=120000)
    diff = abs(trace[-1] - gs.value)
    if diff > 1e-4:
        fails.append(f"flow level {trace[-1]} vs branch level {gs.value}")
    if any(b - a > 0.0 for a, b in zip(trace, trace[1:])):
        fails.append("energy trace increased")
    claim = ("the mass-constrained gradient flow lands on the branch level "
             "to 1e-4 with a non-increasing energy trace")
    return _result("flow-vs-branch", claim, fails,
                   f"flow={trace[-1]:.8g} branch={gs.value:.8g} "
                   f"diff={diff:.2g} iters={len(trace)}", t0)


def check_probe_flow() -> CheckResult:
    t0 = time.perf_counter()
    fails: list[str] = []
    P = Params(3.0, 5.0)
    n = 4000
    prof0 = oracle.make_initial_profile(1.0, 5.0, n, width=5.0 / n * 10.0)
    _, trace = oracle.constrained_minimize(P, 1.0, prof0, max_iters=60000,
                                           probe_floor=-1e6)
    if not trace[-1] < -1e6:
        fails.append(f"flow probe stayed at {trace[-1]}")
    claim = ("the discrete flow itself falls below -1e6 in an unbounded regime "
             "when seeded past the collapse barrier")
    return _result("probe-flow", claim, fails, f"final={trace[-1]:.3g}", t0)


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


def run_checks(level: str = "quick", jobs: int = 1) -> list[CheckResult]:
    checks = QUICK_CHECKS if level == "quick" else FULL_CHECKS
    if jobs <= 1:
        return [fn() for fn in checks]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(fn) for fn in checks]
        return [f.result() for f in futures]
