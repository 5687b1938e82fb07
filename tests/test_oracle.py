import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg.lapack import dgtsv
from scipy.optimize import brentq

from deltanls import energy, massmap, oracle, stationary, verification
from deltanls.params import Params

P425 = Params(4.0, 2.5)
P83 = Params(8.0, 3.0)


def test_shoot_reproduces_closed_form():
    pt = stationary.solve_for_lambda(P425, 3.0 / 128.0).points[1]
    res = oracle.shoot(P425, pt.lam, pt.u0, L=200.0)
    assert res.outcome == "decayed"
    assert res.decay_ok
    assert oracle.shooting_sup_distance(pt, res) <= 1e-6
    assert res.first_integral_drift <= 1e-7
    # boundary value of the accepted profile has decayed
    assert res.profile.values[-1] <= 1e-8 * res.profile.values[0]


def test_shoot_perturbed_height_fails():
    pt = stationary.solve_for_lambda(P425, 3.0 / 128.0).points[1]
    up = oracle.shoot(P425, pt.lam, pt.u0 * 1.1, L=200.0)
    assert not up.decay_ok
    down = oracle.shoot(P425, pt.lam, pt.u0 * 0.9, L=200.0)
    assert not down.decay_ok
    assert {up.outcome, down.outcome} <= {"crossed_zero", "rebounded"}


def test_shoot_blowup_is_reported_not_raised():
    # the vertex slope is negative, so a trajectory that grows has turned
    # around first: the rebound ends it
    res = oracle.shoot(P425, 1.0, 5.0, L=50.0)
    assert not res.decay_ok
    assert res.outcome == "rebounded"


def test_shoot_initial_slope_convention():
    res = oracle.shoot(P83, 0.04, 0.4, L=5.0, n=50)
    # vertex condition split: u'(0+) = -u0^(q-1)/2, encoded in the first cells
    h = res.profile.h
    slope = (res.profile.values[1] - res.profile.values[0]) / h
    assert slope == pytest.approx(-0.5 * 0.4 ** 2.0, abs=5e-3)


@pytest.mark.parametrize("params, lam", [(P425, 3.0 / 128.0), (Params(3.0, 4.0), 0.0)])
def test_tail_continuation_matches_scalar_decay_law(params, lam):
    # the tail past the capture point is evaluated as one array expression;
    # the scalar decay laws below are the reference
    if lam > 0.0:
        u0 = stationary.solve_for_lambda(params, lam).points[1].u0
    else:  # zero frequency: u0^(2(q-1))/4 = (2/p) u0^p
        u0 = (8.0 / params.p) ** (1.0 / (2.0 * params.q - 2.0 - params.p))
    res = oracle.shoot(params, lam, u0)
    assert res.outcome == "decayed"
    x = res.profile.x
    dx = x[x > res.capture_x] - res.capture_x
    u_d = float(res.profile.values[x <= res.capture_x][-1])
    p = params.p
    half = 0.5 * (p - 2.0)

    def scalar(d):
        if lam > 0.0:
            return u_d * math.exp(-math.sqrt(lam) * d)
        return (u_d ** (-half) + half * math.sqrt(2.0 / p) * d) ** (-1.0 / half)

    want = np.array([scalar(d) for d in dx])
    got = oracle._tail_value(params, lam, u_d, dx)
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


def test_vertex_height_matches_independent_root():
    # independent oracle: the decaying height solves
    # u0^(2(q-1))/4 = lam u0^2 + (2/p) u0^p
    p, q, lam = 3.0, 4.0, 1.0
    params = Params(p, q)
    exact = brentq(lambda u: u ** (2.0 * (q - 1.0)) / 4.0 - lam * u * u
                   - (2.0 / p) * u ** p, 1.0, 5.0, xtol=1e-12)
    pt = stationary.solve_for_lambda(params, lam).points[0]
    assert pt.u0 == pytest.approx(exact, rel=1e-10)


def test_functional_eval_zero_profile():
    prof = oracle.GridProfile(10.0, 100, np.zeros(101))
    mass, eb = oracle.functional_eval(P425, prof)
    assert mass == 0.0
    assert eb.kinetic == eb.bulk == eb.point == eb.total == 0.0


def test_functional_eval_matches_closed_forms():
    pt = stationary.solve_for_lambda(P425, 3.0 / 128.0).points[1]
    grid = oracle.sample_profile(pt, 400.0, 200000)
    mass, eb = oracle.functional_eval(P425, grid)
    assert mass == pytest.approx(massmap.mass_of_t(P425, d=1.0), rel=1e-6)
    want = energy.branch_energy(pt)
    assert eb.kinetic == pytest.approx(want.kinetic, rel=1e-6)
    assert eb.bulk == pytest.approx(want.bulk, rel=1e-6)
    assert eb.point == pytest.approx(want.point, rel=1e-12)


def _fine_grid_state():
    """A branch state of region A and its domain in the oracle-equivalence check."""
    pt = stationary.solve_for_lambda(P425, 3.0 / 128.0).points[1]
    return pt, max(60.0, 30.0 / math.sqrt(pt.lam))


@pytest.mark.parametrize("n", [800000, 800001, 32766, 32767, 32768, 32769])
def test_sample_profile_is_the_linspace_sampling_bit_for_bit(n):
    # at n = 800,001, n * (L / n) != L
    pt, L = _fine_grid_state()
    want = stationary.profile(pt, np.linspace(0.0, L, n + 1))
    np.testing.assert_array_equal(oracle.sample_profile(pt, L, n).values, want)


def test_blocked_functional_matches_whole_grid_formulas():
    # the whole-grid trapezoid-weight formulas are the reference
    pt, L = _fine_grid_state()
    grid = oracle.sample_profile(pt, L, 800000)
    u, h, p = grid.values, grid.h, P425.p
    w = np.full(len(u), h)
    w[0] = w[-1] = 0.5 * h
    mass_ref = 2.0 * float(np.sum(w * u * u))
    kinetic_ref = float(np.sum(np.diff(u) ** 2)) / h
    bulk_ref = (2.0 / p) * float(np.sum(w * np.abs(u) ** p))
    mass, eb = oracle.functional_eval(P425, grid)
    assert oracle.discrete_mass(u, h) == mass
    assert mass == pytest.approx(mass_ref, rel=1e-13)
    assert eb.kinetic == pytest.approx(kinetic_ref, rel=1e-13)
    assert eb.bulk == pytest.approx(bulk_ref, rel=1e-13)


@pytest.mark.parametrize("nodes", [32768, 32769, 32770])
def test_array_functional_sums_the_last_node_of_an_undecayed_profile(nodes):
    # a profile that has not decayed at L shows a last node dropped from the sums
    h, p, q = 0.01, P425.p, P425.q
    ones = np.ones(nodes)
    assert oracle.discrete_mass(ones, h) == 2.0 * h * (nodes - 1)
    mass, eb = oracle.functional_eval(P425, oracle.GridProfile(h * (nodes - 1), nodes - 1, ones))
    assert (mass, eb.kinetic) == (2.0 * h * (nodes - 1), 0.0)
    assert eb.bulk == (2.0 / p) * h * (nodes - 1)
    assert oracle.discrete_energy(P425, ones, h) == eb.bulk - 1.0 / q
    ramp = np.linspace(2.0, 1.0, nodes)
    w = np.full(nodes, h)
    w[0] = w[-1] = 0.5 * h
    assert oracle.discrete_mass(ramp, h) == pytest.approx(2.0 * np.sum(w * ramp ** 2), rel=1e-13)
    kinetic = np.sum(np.diff(ramp) ** 2) / h
    bulk = (2.0 / p) * np.sum(w * ramp ** p)
    assert oracle.discrete_energy(P425, ramp, h) == \
        pytest.approx(kinetic + bulk - 2.0 ** q / q, rel=1e-13)


def _grid_check_states():
    """The 14 states of oracle-equivalence on their domains, and a zero-frequency
    state of algebraic decay on [0, 1e3]."""
    states = [(pt, max(60.0, 30.0 / math.sqrt(pt.lam)))
              for _, pt in verification._oracle_points()]
    return states + [(stationary.zero_frequency_point(Params(2.5, 2.5)), 1e3)]


def test_streamed_grid_check_holds_no_whole_grid_array():
    # one 800,001-node profile alone is 6.4 MB; the check's largest arrays
    # are the shooter's 20,001-node grids
    tracemalloc.start()
    try:
        verification.check_oracle_equivalence()
        _, check_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert check_peak < 6e6


def test_profile_quadrature_matches_adaptive_quadrature():
    # SciPy's adaptive quad of the same three integrands is the reference, on
    # panels of its own: [0, 1/64], then doubling to L
    for pt, L in _grid_check_states():
        p, q = pt.params.p, pt.params.q
        integrands = (lambda x: stationary.profile(pt, x) ** 2,
                      lambda x: stationary.profile_derivative(pt, x) ** 2,
                      lambda x: stationary.profile(pt, x) ** p)
        cuts = [0.0, 1.0 / 64.0]
        while cuts[-1] < L:
            cuts.append(min(2.0 * cuts[-1], L))
        usq, dusq, upow = (sum(quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                               for lo, hi in zip(cuts, cuts[1:])) for f in integrands)
        mass, eb, estimate = oracle.profile_functional(pt, L)
        assert mass == pytest.approx(2.0 * usq, rel=1e-12, abs=0.0), pt
        assert eb.kinetic == pytest.approx(dusq, rel=1e-12, abs=0.0), pt
        assert eb.bulk == pytest.approx((2.0 / p) * upow, rel=1e-12, abs=0.0), pt
        assert eb.point == stationary.profile(pt, 0.0) ** q / q
        assert eb.total == eb.kinetic + eb.bulk - eb.point
        assert estimate <= 1e-12, pt


def test_oracle_check_names_the_estimate_of_a_kinked_profile(monkeypatch):
    # u (1 + 1e-6 max(0, x - 0.7)) has a kink at x = 0.7, inside a panel of
    # every state: there the 40- and 20-point rules part, and the check names
    # the estimate of each state (the kink moves the integrals too)
    profile = oracle.analytic_profile
    monkeypatch.setattr(oracle, "analytic_profile", lambda pt, x: profile(pt, x)
                        * (1.0 + 1e-6 * np.maximum(np.asarray(x) - 0.7, 0.0)))
    result = verification.check_oracle_equivalence()
    assert not result.passed
    failures = result.detail.split(" | FAILURES: ", 1)[1].split("; ")
    assert sum("quadrature error estimate" in f and f.endswith("> 1e-12")
               for f in failures) == 14


def test_one_block_functional_is_the_whole_array_formula():
    # on the flow's 1,501-node grids each sum is one numpy reduction
    pt = stationary.solve_for_lambda(P425, 3.0 / 128.0).points[1]
    n = 1500
    L = 50.0
    u, h = oracle.sample_profile(pt, L, n).values, L / n
    p, q = P425.p, P425.q
    kinetic = float(np.sum(np.diff(u) ** 2)) / h
    vsum = float(np.sum(np.abs(u) ** p)) - 0.5 * float(abs(u[0]) ** p + abs(u[-1]) ** p)
    bulk = (2.0 / p) * h * vsum
    point = abs(u[0]) ** q / q
    assert oracle.discrete_energy(P425, u, h) == kinetic + bulk - point
    assert oracle.discrete_mass(u, h) \
        == 2.0 * h * (float(np.dot(u, u)) - 0.5 * float(u[0] ** 2 + u[-1] ** 2))


def test_flow_checks_report_their_pinned_figures():
    flow = verification.check_flow_vs_branch()
    assert flow.passed and "diff=1.2e-06" in flow.detail and "steps=992" in flow.detail
    probe = verification.check_probe_flow()
    assert probe.passed and probe.detail == "final=-1.62e+06"


def _dgtsv_step(d, e, b, **overwrite):
    """The flow's tridiagonal solve by general LU with partial pivoting, in
    the (d, e, x, info) form of LAPACK dptsv."""
    *_, x, info = dgtsv(e, d, e, b)
    return d, e, x, info


@pytest.mark.parametrize("params, mu, L, n, width", [
    (P425, 0.3, None, 1500, 3.0),           # flow-vs-branch
    (Params(3.0, 5.0), 1.0, 5.0, 4000, 5.0 / 4000 * 10.0),   # probe-flow
], ids=["flow-vs-branch", "probe-flow"])
def test_flow_ldlt_solve_tracks_the_general_lu_solve(monkeypatch, params, mu, L, n, width):
    # the flow's matrix is symmetric positive definite, so LDL^T (dptsv)
    # solves it; the general LU solve (dgtsv) is the reference.  The traces
    # differ by rounding only: at most 2.1e-17 on the flow (whose energy
    # passes 0) and 4.1e-15 |E| on the probe flow
    if L is None:
        L = max(50.0, 20.0 / math.sqrt(energy.groundstate_energy(params, mu).lam))
    prof0 = oracle.make_initial_profile(mu, L, n, width=width)
    _, trace = oracle.constrained_minimize(params, mu, prof0, max_iters=120000)
    monkeypatch.setattr(oracle, "dptsv", _dgtsv_step)
    _, ref = oracle.constrained_minimize(params, mu, prof0, max_iters=120000)
    assert len(trace) == len(ref)
    trace, ref = np.array(trace), np.array(ref)
    scale = np.maximum(np.abs(ref), abs(ref[0]))
    assert np.all(np.abs(trace - ref) <= 1e-14 * scale)


def test_functional_eval_tent_family():
    # plateau c on [0, m^2], linear ramp to zero over one unit: as m grows the
    # energy tends to 0 at fixed mass
    mu = 1.0
    last = None
    for m in (3.0, 6.0, 12.0):
        L = m * m + 1.0
        n = 60000
        x = np.linspace(0.0, L, n + 1)
        u = np.clip(L - x, 0.0, 1.0)
        c = math.sqrt(mu / (2.0 * np.trapezoid(u * u, x)))
        mass, eb = oracle.functional_eval(P425, oracle.GridProfile(L, n, c * u))
        assert mass == pytest.approx(mu, rel=1e-6)
        assert eb.total > 0.0
        if last is not None:
            assert eb.total < last
        last = eb.total
    assert last < 5e-3


def test_refinement_convergence():
    pt = stationary.solve_for_lambda(P425, 3.0 / 128.0).points[1]
    closed = massmap.mass_of_t(P425, d=1.0)
    errs = []
    for n in (25000, 50000):
        mass, _ = oracle.functional_eval(P425, oracle.sample_profile(pt, 400.0, n))
        errs.append(abs(mass - closed))
    assert errs[0] / errs[1] >= 3.0


def test_renormalization_preserves_mass():
    prof0 = oracle.make_initial_profile(0.7, 40.0, 500, width=3.0)
    prof, trace = oracle.constrained_minimize(P425, 0.7, prof0, max_iters=200)
    assert oracle.discrete_mass(prof.values, prof.h) == pytest.approx(0.7, rel=1e-12)
    assert all(b <= a for a, b in zip(trace, trace[1:]))


def test_flow_reaches_branch_level():
    mu = 0.3
    gs = energy.groundstate_energy(P425, mu)
    L = max(50.0, 20.0 / math.sqrt(gs.lam))
    prof0 = oracle.make_initial_profile(mu, L, 1500, width=3.0)
    prof, trace = oracle.constrained_minimize(P425, mu, prof0, max_iters=120000)
    assert abs(trace[-1] - gs.value) <= 1e-4
    # the flow profile approximates the unique positive state
    pt = massmap.normalized_solutions(P425, mu)[0].point
    exact = stationary.profile(pt, prof.x)
    assert float(np.max(np.abs(prof.values - exact))) <= 5e-3 * pt.u0


@pytest.mark.parametrize("params, mu", [(P425, 0.3), (P83, 1.0)])
def test_flow_lands_on_branch_level_in_few_steps(params, mu):
    gs = energy.groundstate_energy(params, mu)
    L = max(50.0, 20.0 / math.sqrt(gs.lam))
    prof0 = oracle.make_initial_profile(mu, L, 1500, width=3.0)
    _, trace = oracle.constrained_minimize(params, mu, prof0, max_iters=120000)
    assert abs(trace[-1] - gs.value) <= 1e-4
    assert all(b <= a for a, b in zip(trace, trace[1:]))
    # backward-Euler steps are not limited by tau ~ h^2: about 1,000 and
    # 2,100 accepted steps here, where explicit steps took 25,000 and 36,000
    assert len(trace) - 1 <= 3000


def test_flow_probe_mode_descends():
    n = 4000
    L = 5.0
    prof0 = oracle.make_initial_profile(1.0, L, n, width=10.0 * L / n)
    _, trace = oracle.constrained_minimize(Params(3.0, 5.0), 1.0, prof0,
                                           max_iters=60000)
    assert trace[-1] < -1e6
    assert all(b <= a for a, b in zip(trace, trace[1:]))


def test_flow_stalls_near_zero_for_q4_small_mass():
    prof0 = oracle.make_initial_profile(1.0, 40.0, 800, width=2.0)
    _, trace = oracle.constrained_minimize(Params(5.0, 4.0), 1.0, prof0,
                                           max_iters=20000)
    assert trace[-1] >= -1e-3
    assert trace[-1] <= trace[0]
    assert abs(trace[-1]) < 0.2 * abs(trace[0])


def test_grid_profile_validation():
    with pytest.raises(ValueError):
        oracle.GridProfile(10.0, 100, np.zeros(50))
    with pytest.raises(ValueError):
        oracle.GridProfile(10.0, 10, np.full(11, np.nan))


def test_default_domain():
    assert oracle.default_domain(0.0) == 1e3
    assert oracle.default_domain(1.0) == 50.0
    assert oracle.default_domain(1e-4) == pytest.approx(2000.0)


def test_oracle_check_reports_its_pinned_figures():
    result = verification.check_oracle_equivalence()
    assert result.passed and result.detail == (
        "14 states; worst: sup=1.06e-07 (bound 1e-6) mass=1.99e-15 (bound 1e-10) "
        "kinetic=2.56e-15 (bound 1e-10) bulk=8.39e-15 (bound 1e-10) "
        "point=1.84e-15 (bound 1e-10) estimate=1.38e-14 (bound 1e-12) "
        "residual=9.99e-16 (bound 1e-8)")


def test_dense_values_are_the_dense_output_bit_for_bit(monkeypatch):
    # shoot evaluates the DOP853 dense output of every step at once from the
    # interpolants' coefficients; SciPy's own OdeSolution is the reference,
    # on every point shoot evaluates and on each step's end points, for the
    # 14 oracle states and the zero-frequency, rebounded, crossed_zero and
    # no_event shots
    solves = []
    solve_ivp = oracle.solve_ivp

    def recording_ivp(*args, **kwargs):
        solves.append(solve_ivp(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(oracle, "solve_ivp", recording_ivp)
    n = 20000
    outcomes = set()
    for params, lam, u0, L in _shots():
        res = oracle.shoot(params, lam, u0, L=L, n=n)
        sol = solves[-1]
        x_end = sol.t[-1]
        x = np.linspace(0.0, oracle.default_domain(lam) if L is None else L, n + 1)
        grid = x[x <= x_end]
        drift = np.linspace(0.0, x_end, 512)
        for pts in (grid, drift, sol.t, np.array([x_end]), np.concatenate([grid, drift])):
            assert _same_bits(oracle._dense_values(sol.sol, pts), sol.sol(pts)), \
                (params, lam, u0)
        assert _same_bits(oracle._dense_values(sol.sol, np.array([x_end]))[:, 0],
                          sol.sol(x_end))
        if res.outcome == "decayed":
            assert _same_bits(res.profile.values[:len(grid)], sol.sol(grid)[0])
            assert res.capture_x == x_end
        outcomes.add(res.outcome)
    assert len(solves) == 19
    assert outcomes == {"decayed", "rebounded", "crossed_zero", "no_event"}


def _same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def _shots():
    """(params, lam, u0, L) of the 14 oracle states and of the other shots
    above: a zero-frequency one, and ones that rebound, cross zero or end
    without an event."""
    pt = stationary.solve_for_lambda(P425, 3.0 / 128.0).points[1]
    zero_u0 = (8.0 / 3.0) ** (1.0 / (2.0 * 4.0 - 2.0 - 3.0))
    return ([(s.params, s.lam, s.u0, None) for _, s in verification._oracle_points()]
            + [(Params(3.0, 4.0), 0.0, zero_u0, None),
               (P425, pt.lam, pt.u0 * 1.1, 200.0), (P425, pt.lam, pt.u0 * 0.9, 200.0),
               (P425, 1.0, 5.0, 50.0), (P83, 0.04, 0.4, 5.0)])


def test_two_float_stepper_takes_scipys_steps(monkeypatch):
    # every shot again with SciPy's own DOP853 stepper: the same steps, the
    # same right-hand-side count and the same outcome; only the order of the
    # stage sums differs, which moves the nodal values by at most 3.3e-10 u0
    # (the zero-frequency shot) and the capture point by at most 1.2e-6
    solve_ivp = oracle.solve_ivp
    method, solves = [None], []

    def forced_ivp(*args, **kwargs):
        if method[0] is not None:
            kwargs["method"] = method[0]
        solves.append(solve_ivp(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(oracle, "solve_ivp", forced_ivp)
    outcomes = set()
    for params, lam, u0, L in _shots():
        method[0] = None
        ours = oracle.shoot(params, lam, u0, L=L)
        method[0] = "DOP853"
        ref = oracle.shoot(params, lam, u0, L=L)
        sol, ref_sol = solves[-2:]
        assert (sol.nfev, len(sol.t), ours.outcome) \
            == (ref_sol.nfev, len(ref_sol.t), ref.outcome), (params, lam, u0)
        if ref.capture_x is None:
            assert ours.capture_x is None
        else:
            assert ours.capture_x == pytest.approx(ref.capture_x, rel=1e-5, abs=0.0)
        assert np.max(np.abs(ours.profile.values - ref.profile.values)) <= 1e-9 * u0
        assert ours.decay_ok == ref.decay_ok
        outcomes.add(ours.outcome)
    assert outcomes == {"decayed", "rebounded", "crossed_zero", "no_event"}


def test_stepper_nfev_counts_every_rhs_call(monkeypatch):
    # sol.nfev is the figure the benchmark's tracer reads as the shooter's
    # right-hand-side evaluations: it must be the number of calls made
    solve_ivp = oracle.solve_ivp
    totals = []

    def counting_ivp(fun, *args, **kwargs):
        calls = [0]

        def counted(x, y):
            calls[0] += 1
            return fun(x, y)

        sol = solve_ivp(counted, *args, **kwargs)
        assert sol.nfev == calls[0]
        totals.append(calls[0])
        return sol

    monkeypatch.setattr(oracle, "solve_ivp", counting_ivp)
    for params, lam, u0, L in _shots():
        oracle.shoot(params, lam, u0, L=L)
    assert sum(totals[:14]) == 15970


def test_only_a_decayed_shot_can_pass_the_decay_gate(monkeypatch):
    # shoot reads the far-end gate on the decay law's tail alone: a shot that
    # ends without an event stops with u - u'/s above the capture radius
    # (s = max(sqrt(lambda), 1)), so |u| + |u'| there is above CAPTURE_TOL u0,
    # far above the gate's DECAY_GATE u0
    solve_ivp = oracle.solve_ivp
    solves = []

    def recording_ivp(*args, **kwargs):
        solves.append(solve_ivp(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(oracle, "solve_ivp", recording_ivp)
    verdicts, no_event = set(), 0
    for params, lam, u0, L in _shots():
        res = oracle.shoot(params, lam, u0, L=L)
        verdicts.add((res.outcome, res.decay_ok))
        if res.outcome == "no_event":
            u, v = solves[-1].y[:, -1]
            assert u - v / max(math.sqrt(lam), 1.0) > oracle.CAPTURE_TOL * u0
            assert abs(u) + abs(v) > oracle.CAPTURE_TOL * u0 > oracle.DECAY_GATE * u0
            no_event += 1
    assert all(outcome == "decayed" for outcome, ok in verdicts if ok)
    assert ("decayed", True) in verdicts and no_event == 1
