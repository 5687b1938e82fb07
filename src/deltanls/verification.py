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
import operator
import time
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from . import algebra, discrete, energy, massmap, oracle, stationary
from .params import Params, classify


#: the comparison each sense of a margin makes of its value with its bound
_HOLDS = {"<=": operator.le, "<": operator.lt, ">=": operator.ge, ">": operator.gt}


@dataclass(frozen=True)
class Margin:
    """The worst value of one metric of a check and the bound it is held to:
    the metric holds iff `value sense bound` (sense "<=", "<", ">=" or ">"),
    and a NaN value holds no bound."""

    metric: str
    value: float
    bound: float
    sense: str

    def __str__(self) -> str:
        return f"{self.metric}={self.value:.3g} (bound {self.bound:.3g})"


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    claim: str
    detail: str
    seconds: float
    margins: tuple[Margin, ...] = ()


class _Recorder:
    """What a check body is handed: each comparison of a figure with its bound
    is one call, at_most or at_least, and a fact that is not a number against
    a bound (a state count, a region label, a shot's outcome) is one fail.

    Each value past its bound adds one failure line; the worst value of each
    (metric, bound, sense) becomes one Margin, NaN if any value was NaN.
    """

    def __init__(self) -> None:
        self.fails: list[str] = []
        self._values: dict[tuple[str, float, str], list[float]] = {}

    def fail(self, text: str) -> None:
        self.fails.append(text)

    def at_most(self, metric: str, value: float, bound: float, where: str = "",
                strict: bool = False) -> None:
        self._record(metric, value, bound, "<" if strict else "<=", where)

    def at_least(self, metric: str, value: float, bound: float, where: str = "",
                 strict: bool = False) -> None:
        self._record(metric, value, bound, ">" if strict else ">=", where)

    def _record(self, metric: str, value: float, bound: float, sense: str,
                where: str) -> None:
        value, bound = float(value), float(bound)
        self._values.setdefault((metric, bound, sense), []).append(value)
        if not _HOLDS[sense](value, bound):
            margin = Margin(metric, value, bound, sense)
            self.fails.append(f"{where}: {margin}" if where else str(margin))

    def margins(self) -> tuple[Margin, ...]:
        # numpy's max and min propagate a NaN, where Python's depend on order
        return tuple(Margin(metric, float(np.max(v) if sense[0] == "<" else np.min(v)),
                            bound, sense)
                     for (metric, bound, sense), v in self._values.items())


def _check(claim: str):
    """Make body(m) -> figures a check of the battery that states claim.

    The check is named from its function (check_flow_vs_branch is
    flow-vs-branch) and timed from its call to its result.  The body records
    each comparison with its bound on the _Recorder m and returns its own
    figures; the detail is those figures, then every margin as
    `metric=worst (bound b)`, then the failures, and the check passes iff
    there are none.
    """
    def decorate(body):
        name = body.__name__[len("check_"):].replace("_", "-")

        @functools.wraps(body)
        def check() -> CheckResult:
            t0 = time.perf_counter()
            m = _Recorder()
            figures = body(m)
            margins = m.margins()
            detail = "; ".join(filter(None, [figures, " ".join(map(str, margins))]))
            if m.fails:
                detail += " | FAILURES: " + "; ".join(m.fails)
            return CheckResult(name, not m.fails, claim, detail,
                               time.perf_counter() - t0, margins)

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
def check_exact_branch_regression(m: _Recorder) -> str:
    P = Params(4.0, 2.5)
    lb = stationary.lambda_bar(P)
    m.at_most("|lambda_bar-1/32|", abs(lb - 1.0 / 32.0), 1e-12)
    pts = stationary.solve_for_lambda(P, 3.0 / 128.0).points
    if len(pts) != 2:
        m.fail(f"expected 2 states at lambda=3/128, got {len(pts)}")
    for pt, te in zip(pts, (2.0 / math.sqrt(3.0), 2.0)):
        m.at_most("|t-t_exact|", abs(pt.t - te), 1e-10, f"t_exact={te:.6g}")
    mu2 = massmap.mass_of_t(P, d=1.0)
    m.at_most("|mu(2)-sqrt(6)/4|", abs(mu2 - math.sqrt(6.0) / 4.0), 1e-10)
    mu0 = algebra.mu0(P)
    m.at_most("|mu0-sqrt(2)|", abs(mu0 - math.sqrt(2.0)), 1e-12)
    # the closed-form I(t) against adaptive quadrature, on both of its series
    # and next to the poles of its connection formula (p = 6, 10/3, 14/5)
    for p, t in _QUADRATURE_POINTS:
        P3, d = Params(p, 3.0), t - 1.0
        closed = algebra.I_of_t(P3, d=d)
        m.at_most("I-quadrature gap", abs(closed / algebra.I_of_t_quadrature(P3, d=d)[0] - 1.0),
                  1e-9, f"(p={p}, t={t})")
    return f"lambda_bar={lb:.17g} mu(2)={mu2:.17g} mu0={mu0:.17g}"


@_check("p=4, q=3.5: the mass map dips to 16*sqrt(6)/9 at t=2; masses "
        "above the dip and below the plateau carry two states, below it none")
def check_multiplicity_window(m: _Recorder) -> str:
    P = Params(4.0, 3.5)
    y_min, mu_min, _ = massmap.branch_minimum(P)
    t_min = 1.0 + math.exp(y_min)
    m.at_most("|mu_min-16*sqrt(6)/9|", abs(mu_min - 16.0 * math.sqrt(6.0) / 9.0), 1e-8)
    m.at_most("|t_min-2|", abs(t_min - 2.0), 1e-6)
    # second route to the branch minimum: bounded minimization of mu in y = ln(t - 1)
    direct = minimize_scalar(lambda y: massmap.mass_of_t(P, d=math.exp(y)),
                             bounds=(y_min - 0.5, y_min + 0.5), method="bounded",
                             options={"xatol": 1e-8})
    m.at_most("two-route gap", abs(float(direct.fun) - mu_min), 1e-8)
    n5 = len(massmap.normalized_solutions(P, 5.0))
    if n5 != 2:
        m.fail(f"mass 5 carries {n5} states, expected 2")
    n43 = len(massmap.normalized_solutions(P, 4.3))
    if n43 != 0:
        m.fail(f"mass 4.3 carries {n43} states, expected 0")
    return (f"mu_min={mu_min:.12g} at t={t_min:.12g}, "
            f"counts: mu=5 -> {n5}, mu=4.3 -> {n43}")


@_check("q=4: the branch mass tends to 2 at the small-t end; for p=8 "
        "masses below 2 carry no state and masses just above carry one")
def check_mass_two_threshold(m: _Recorder) -> str:
    limits = {}
    for p in (5.0, 8.0):
        P = Params(p, 4.0)
        ds = [1e-6 * 4.0 ** (-k) for k in range(7)]
        seq = [massmap.mass_of_t(P, d=dd) for dd in ds]
        limits[p] = lim = _aitken_limit(seq)
        m.at_most("|limit-2|", abs(lim - 2.0), 1e-4, f"p={p}")
    PH = Params(8.0, 4.0)
    n_below = len(massmap.normalized_solutions(PH, 1.9))
    n_above = len(massmap.normalized_solutions(PH, 2.1))
    if n_below != 0:
        m.fail(f"p=8, q=4: mass 1.9 carries {n_below} states, expected 0")
    if n_above != 1:
        m.fail(f"p=8, q=4: mass 2.1 carries {n_above} states, expected 1")
    return (f"extrapolated limits: p=5 -> {limits[5.0]:.8f}, "
            f"p=8 -> {limits[8.0]:.8f}; counts 1.9 -> {n_below}, 2.1 -> {n_above}")


def _loglog_slope(xs: list[float], ys: list[float]) -> float:
    """The least-squares slope of ln y against ln x, centred:
    sum (X - mean X)(Y - mean Y) / sum (X - mean X)^2, each sum and mean
    correctly rounded (math.fsum), so the slope depends on no summation order."""
    X, Y = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = math.fsum(X) / len(X), math.fsum(Y) / len(Y)
    dx = [x - mx for x in X]
    return math.fsum(a * (y - my) for a, y in zip(dx, Y)) / math.fsum(a * a for a in dx)


@_check("diagonal q=p/2+1: states exist only for p>8 (t=sqrt(2) at p=16), "
        "mass scales like lambda^(-5/14) at p=16, branch energies stay "
        "positive, and p=8 carries nothing")
def check_diagonal_regime(m: _Recorder) -> str:
    P = Params(16.0, 9.0)
    exists, tdiag = stationary.diagonal_exists(P)
    if not exists:
        m.fail("p=16 carries no diagonal state")
        tdiag = math.nan
    m.at_most("|t-sqrt(2)|", abs(tdiag - math.sqrt(2.0)), 1e-12)
    lams = np.logspace(-2.0, 2.0, 9).tolist()
    slope = _loglog_slope(lams, [massmap.mass_of_lambda_diagonal(P, lam) for lam in lams])
    m.at_most("|slope+5/14|", abs(slope + 5.0 / 14.0), 1e-6)
    energies = []
    for lam in (0.1, 1.0, 10.0):
        pt = stationary.solve_for_lambda(P, lam).points[0]
        energies.append(tot := stationary.branch_energy(pt).total)
        m.at_least("energy", tot, 0.0, f"lambda={lam}", strict=True)
    for lam in (0.5, 1.0, 2.0):
        cnt = stationary.solve_for_lambda(Params(8.0, 5.0), lam).count
        if cnt != 0:
            m.fail(f"p=8, q=5: lambda={lam} carries {cnt} states, expected 0")
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
    """max |H| / scale of the first integral (``oracle.first_integral``) of
    the closed-form profile over the sample points x (all nonzero)."""
    u = np.asarray(stationary.profile(point, x), dtype=float)
    du = np.asarray(stationary.profile_derivative(point, x, u), dtype=float)
    H, scale = oracle.first_integral(point.params.p, point.lam, u, du, point.u0)
    return float(np.max(np.abs(H))) / scale


def _quadrature_domain(point: stationary.BranchPoint) -> float:
    """L of the Gauss-Legendre route on [-L, L]: 30 decay lengths 1/sqrt(lambda),
    and at least 60; 1e16 at zero frequency, where the algebraic tail past L
    holds the fraction (a/(L + a))^((6-p)/(p-2)) of the mass (3e-16 for the
    state of p = 4, q = 2.5)."""
    return max(60.0, 30.0 / math.sqrt(point.lam)) if point.lam > 0.0 else 1e16


@_check("shooting from the vertex data reproduces every closed-form "
        "profile to 1e-6, Gauss-Legendre quadrature of each profile matches "
        "its closed-form mass and energy pieces to 1e-10 with error "
        "estimates at most 1e-12, vertex and conservation residuals below 1e-8")
def check_oracle_equivalence(m: _Recorder) -> str:
    points = _oracle_points()
    if len(points) < 12:
        m.fail(f"only {len(points)} branch states collected")
    for tag, pt in points:
        where = f"{tag} t={pt.t:.6g}"
        res = oracle.shoot(pt.params, pt.lam, pt.u0)
        if not res.decay_ok:
            m.fail(f"{where}: shot did not decay ({res.outcome})")
        m.at_most("sup", oracle.shooting_sup_distance(pt, res), 1e-6, where)
        m.at_most("drift", res.first_integral_drift, 1e-7, where)

        mass_q, eb_q, estimate = oracle.profile_functional(pt, _quadrature_domain(pt))
        m.at_most("estimate", estimate, 1e-12, where)
        eb_c = stationary.branch_energy(pt)
        for name, got, want in (("mass", mass_q, massmap.state_mass(pt)),
                                ("kinetic", eb_q.kinetic, eb_c.kinetic),
                                ("bulk", eb_q.bulk, eb_c.bulk),
                                ("point", eb_q.point, eb_c.point)):
            m.at_most(name, abs(got - want) / abs(want), 1e-10, where)

        xs = np.linspace(0.3, 8.0, 12) / max(math.sqrt(pt.lam), 0.05)
        fres = _first_integral_residual(pt, xs)
        m.at_most("residual", stationary.vertex_residual(pt), 1e-8, where + " vertex")
        m.at_most("residual", fres, 1e-8, where + " first-integral")
    return f"{len(points)} states"


@_check("the level curve is non-positive and non-increasing, constant "
        "past the zero-frequency mass in region A, bounded with shrinking "
        "decrements for large mass in region B, and switches from concave "
        "to convex exactly once")
def check_energy_level_shape(m: _Recorder) -> str:
    PA = Params(4.0, 2.5)
    mu_grid = [0.05, 0.1, 0.2, 0.29, 0.4, 0.6, 0.9, 1.2, 1.35, math.sqrt(2.0),
               1.5, 2.0, 3.0]
    vals = [energy.groundstate_energy(PA, mu).value for mu in mu_grid]
    for mu, v in zip(mu_grid, vals):
        m.at_most("E", v, 1e-15, f"mu={mu:.6g}")
    for mu, a, b in zip(mu_grid[1:], vals, vals[1:]):
        m.at_most("E rise", b - a, 1e-12, f"mu={mu:.6g}")
    plateau = energy.groundstate_energy(PA, math.sqrt(2.0)).value
    for mu in (1.5, 2.0, 3.0):
        v = energy.groundstate_energy(PA, mu).value
        m.at_most("|E-plateau|", abs(v - plateau), 1e-8, f"mu={mu}")
    PB = Params(8.0, 3.0)
    eb = [energy.groundstate_energy(PB, mu).value for mu in (10.0, 100.0, 1000.0)]
    for mu, a, b in zip((100.0, 1000.0), eb, eb[1:]):
        m.at_least("tail decrement", a - b, 0.0, f"mu={mu:g}", strict=True)
    gap_ratio = (eb[0] - eb[1]) / (eb[1] - eb[2])
    m.at_least("gap_ratio", gap_ratio, 2.0)
    flips = {}
    for P in (PA, PB):
        rep = energy.convexity_scan(P)
        flips[P.p] = rep.mu_bar
        m.at_most(f"|flip-peak|(p={P.p:g})", abs(rep.mu_bar - rep.lambda_peak_mass),
                  2.0 * rep.crossing_gap + 1e-9)
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
def check_multiplier_identity(m: _Recorder) -> str:
    cases = {Params(4.0, 2.5): (0.2, 0.4, 0.6, 0.9, 1.2),
             Params(8.0, 3.0): (0.5, 1.0, 2.0, 5.0, 10.0)}
    for P, mus in cases.items():
        for mu in mus:
            m.at_most("residual", _multiplier_consistency(P, mu, 1e-3 * mu), 1e-5,
                      f"(p={P.p}, q={P.q}, mu={mu})")
    return f"{sum(map(len, cases.values()))} masses"


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
def check_unboundedness_probes(m: _Recorder) -> str:
    must_descend = [(3.0, 5.0, 1.0), (5.0, 4.0, 3.0), (4.0, 6.0, 1.0)]
    must_stay = [(4.0, 2.5, 1.0), (8.0, 4.5, 1.0)]
    mins = {}
    for p, q, mu in must_descend:
        mins[(p, q)] = e = _probe_min_energy(Params(p, q), mu)
        m.at_most("unbounded min", e, oracle.FLOW_DIVERGENCE_FLOOR,
                  f"(p={p}, q={q}, mu={mu})", strict=True)
    for p, q, mu in must_stay:
        mins[(p, q)] = e = _probe_min_energy(Params(p, q), mu)
        m.at_least("bounded min", e, oracle.FLOW_DIVERGENCE_FLOOR, f"(p={p}, q={q}, mu={mu})")
    floorA = energy.groundstate_energy(Params(4.0, 2.5), 1.0).value
    m.at_least("trial min", mins[(4.0, 2.5)], floorA - 1e-9, "(p=4.0, q=2.5) against E(1)")
    return f"minima: {mins}"


def _gn_margin(point: stationary.BranchPoint) -> tuple[float, float]:
    """(||u||_2 ||u'||_2 - u(0)^2, error estimate) of a branch state on [-L, L].

    Both norms come from Gauss-Legendre quadrature of the closed-form profile
    (``oracle.profile_functional``) on oracle-equivalence's domain
    (:func:`_quadrature_domain`).  Truncated norms are lower bounds of the
    full ones, so a margin >= 0 on them proves the inequality whatever L is;
    L only decides how close the margin is.
    """
    mass, eb, estimate = oracle.profile_functional(point, _quadrature_domain(point))
    return math.sqrt(mass * 2.0 * eb.kinetic) - point.u0 ** 2, estimate


@_check("peak^2 <= L2 norm * gradient norm holds with margin on every "
        "materialized profile, both norms by Gauss-Legendre quadrature of "
        "the profile with error estimates at most 1e-12")
def check_gn_inequality(m: _Recorder) -> str:
    points = [pt for _, pt in _oracle_points()]
    points.append(stationary.zero_frequency_point(Params(4.0, 2.5)))
    points.extend(stationary.solve_for_lambda(Params(4.0, 3.5), 1.0).points)
    for pt in points:
        margin, estimate = _gn_margin(pt)
        where = f"(p={pt.params.p}, q={pt.params.q}, t={pt.t:.6g})"
        m.at_least("margin", margin, 0.0, where)
        m.at_most("estimate", estimate, 1e-12, where)
    return f"{len(points)} profiles"


@_check("the mass map is strictly increasing in the covered strips "
        "(h > 0), and for p=4, q=3.5 its derivative changes sign exactly "
        "once, at t=2")
def check_mass_monotonicity(m: _Recorder) -> str:
    ys = np.linspace(-14.0, math.log(99.0), 1000)
    for p, q in ((4.0, 2.5), (8.0, 3.0), (8.0, 4.0), (3.0, 4.5)):
        P = Params(p, q)
        hs = [algebra.h_of_t(P, d=math.exp(y)) for y in ys]
        m.at_least("min h", np.min(hs), 0.0, f"(p={p}, q={q})", strict=True)
    P = Params(4.0, 3.5)
    hs = [algebra.h_of_t(P, d=math.exp(y)) for y in ys]
    signs = np.sign(hs)
    changes = int(np.sum(np.abs(np.diff(signs)) > 0))
    if changes != 1:
        m.fail(f"(4, 3.5): {changes} sign changes, expected 1")
    t_min = 1.0 + math.exp(massmap.branch_minimum(P).y)
    m.at_most("|root-2|", abs(t_min - 2.0), 1e-10, "(4, 3.5)")
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
def check_region_partition(m: _Recorder) -> str:
    rng = np.random.default_rng(20240817)
    bad = 0
    # 10,000 pairs in 20 chunks of 500 (the generator gives the same doubles
    # in the same order whatever the chunk), read as Python floats, which are
    # faster than numpy scalars
    for _ in range(20):
        pts = 2.01 + rng.random((500, 2)) * (12.0 - 2.01)
        for p, q in zip(pts[:, 0].tolist(), pts[:, 1].tolist()):
            tags = _region_membership(p, q)
            got = classify(Params(p, q)).value
            if len(tags) != 1 or tags[0] != got:
                bad += 1
                if bad <= 3:
                    m.fail(f"(p={p}, q={q}): memberships {tags}, classified {got}")
    m.at_most("misclassified", bad, 0, "10000 samples")
    for (p, q, want) in ((6.0, 3.0, "B"), (6.0, 5.0, "D"), (6.0, 4.0, "I"),
                         (7.0, 4.0, "H"), (5.0, 4.0, "G"), (10.0, 6.0, "I")):
        got = classify(Params(p, q)).value
        if got != want:
            m.fail(f"boundary ({p}, {q}): {got} != {want}")
    return "10000 samples + 6 boundary points"


@_check("the mass-constrained gradient flow lands on the branch level "
        "to 1e-4 with a non-increasing energy trace")
def check_flow_vs_branch(m: _Recorder) -> str:
    P = Params(4.0, 2.5)
    mu = 0.3
    gs = energy.groundstate_energy(P, mu)
    prof0 = discrete.make_initial_profile(mu, oracle.default_domain(gs.lam), 1500, width=3.0)
    _, trace = oracle.constrained_minimize(P, mu, prof0)
    m.at_most("diff", abs(trace[-1] - gs.value), 1e-4)
    for step, (a, b) in enumerate(zip(trace, trace[1:]), 1):
        m.at_most("E rise", b - a, 0.0, f"step {step}")
    return f"flow={trace[-1]:.8g} branch={gs.value:.8g} steps={len(trace) - 1}"


@_check("the discrete flow itself falls below -1e6 in an unbounded regime "
        "when seeded past the collapse barrier")
def check_probe_flow(m: _Recorder) -> str:
    P = Params(3.0, 5.0)
    n = 4000
    prof0 = discrete.make_initial_profile(1.0, 5.0, n, width=5.0 / n * 10.0)
    _, trace = oracle.constrained_minimize(P, 1.0, prof0)
    m.at_most("final", trace[-1], oracle.FLOW_DIVERGENCE_FLOOR, strict=True)
    return ""


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
