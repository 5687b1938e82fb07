import hashlib
import math
import struct
import tracemalloc
import types

import numpy as np
import pytest
import scipy.integrate
from numpy._core._multiarray_umath import __cpu_features__
from scipy.integrate import DOP853, OdeSolution, quad
from scipy.integrate._ivp.rk import Dop853DenseOutput
from scipy.linalg.lapack import dgtsv
from scipy.optimize import brentq

from deltanls import energy, massmap, oracle, stationary, verification
from deltanls.params import Params

P425 = Params(4.0, 2.5)
P83 = Params(8.0, 3.0)

#: numpy runs its AVX-512 (x86-64-v4) kernels, whose last digits of exp, pow
#: and the reductions differ from those of the AVX2 kernels it runs on other
#: x86-64 hosts
AVX512 = __cpu_features__.get("X86_V4", False)


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
    assert sum("estimate=" in f and f.endswith("(bound 1e-12)") for f in failures) == 14


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
    assert flow.passed and "steps=69" in flow.detail
    assert "diff=1.17e-06 (bound 0.0001)" in flow.detail
    probe = verification.check_probe_flow()
    assert probe.passed and probe.detail == "final=-2.25e+06 (bound -1e+06)"


def _dgtsv_flow_solve(d, off, rhs, tau_c):
    """The flow's trial by general LU with partial pivoting (LAPACK dgtsv) of
    the whole rank-one-modified matrix, diagonal d - tau_c e0, signed as
    oracle._flow_solve signs it."""
    d = d.copy()
    d[0] -= tau_c
    *_, x, info = dgtsv(off, d, off, rhs[:, 0])
    if info != 0:
        return None
    return -x if x[0] < 0.0 else x


@pytest.mark.parametrize("params, mu, L, n, width", [
    (P425, 0.3, None, 1500, 3.0),           # flow-vs-branch
    (Params(3.0, 5.0), 1.0, 5.0, 4000, 5.0 / 4000 * 10.0),   # probe-flow
], ids=["flow-vs-branch", "probe-flow"])
def test_flow_ldlt_solve_tracks_the_general_lu_solve(monkeypatch, params, mu, L, n, width):
    # only the matrix's part without the point term is symmetric positive
    # definite: the flow solves that part by LDL^T (dptsv) and adds the
    # point term by Sherman-Morrison.  The reference solves the whole matrix
    # by LU (dgtsv), and the traces differ by rounding only
    if L is None:
        L = max(50.0, 20.0 / math.sqrt(energy.groundstate_energy(params, mu).lam))
    prof0 = oracle.make_initial_profile(mu, L, n, width=width)
    _, trace = oracle.constrained_minimize(params, mu, prof0, max_iters=120000)
    monkeypatch.setattr(oracle, "_flow_solve", _dgtsv_flow_solve)
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


def _flow_from_width_3_seed(params, mu):
    """The ground state at mass mu, and the flow's end profile and energy
    trace from flow-vs-branch's seed and grid (width 3, n = 1500)."""
    gs = energy.groundstate_energy(params, mu)
    prof0 = oracle.make_initial_profile(mu, oracle.default_domain(gs.lam), 1500, width=3.0)
    return (gs, *oracle.constrained_minimize(params, mu, prof0, max_iters=120000))


def _discrete_euler_lagrange(params, prof):
    """(lambda_h, relative residual) of the discrete Euler-Lagrange equation
    g + lambda_h 2W u = 0, with g the gradient of discrete_energy, 2W the
    trapezoid weights and lambda_h = -<u, g> / <u, 2W u>.  The residual is
    max |g + lambda_h 2W u| / 2W relative to lambda_h max u."""
    u, h = prof.values, prof.h
    two_w = np.full(len(u), 2.0 * h)
    two_w[0] = two_w[-1] = h
    d = np.diff(u)
    g = np.zeros(len(u))
    g[:-1] -= 2.0 * d / h
    g[1:] += 2.0 * d / h
    g += two_w * np.abs(u) ** (params.p - 2.0) * u
    g[0] -= abs(u[0]) ** (params.q - 2.0) * u[0]
    lam_h = -float(np.dot(u, g)) / float(np.dot(u, two_w * u))
    residual = float(np.max(np.abs(g + lam_h * two_w * u) / two_w))
    return lam_h, residual / (lam_h * float(np.max(u)))


def test_flow_reaches_branch_level():
    gs, prof, trace = _flow_from_width_3_seed(P425, 0.3)
    assert abs(trace[-1] - gs.value) <= 1e-4
    # the flow profile approximates the unique positive state
    pt = massmap.normalized_solutions(P425, 0.3)[0].point
    exact = stationary.profile(pt, prof.x)
    assert float(np.max(np.abs(prof.values - exact))) <= 5e-3 * pt.u0


@pytest.mark.parametrize("params, mu", [(P425, 0.3), (P83, 1.0), (Params(8.0, 4.0), 3.0)])
def test_flow_lands_on_branch_level_in_few_steps(params, mu):
    gs, _, trace = _flow_from_width_3_seed(params, mu)
    assert abs(trace[-1] - gs.value) <= 1e-4
    assert all(b <= a for a, b in zip(trace, trace[1:]))
    # with the point term implicit, tau is not held near h at the origin:
    # 69, 73 and 77 accepted steps here
    assert len(trace) - 1 <= 200


@pytest.mark.parametrize("params, mu", [(P425, 0.3), (P83, 1.0)])
def test_flow_ends_at_a_discrete_critical_point(params, mu):
    # the flow ends where the discrete Euler-Lagrange equation holds (4e-7
    # and 6.2e-6), and its multiplier is the state's to the grid's accuracy
    # (5.6e-4 and 3.1e-4 relative)
    gs, prof, _ = _flow_from_width_3_seed(params, mu)
    lam_h, residual = _discrete_euler_lagrange(params, prof)
    assert residual <= 1e-4
    assert abs(lam_h - gs.lam) <= 1e-3 * gs.lam


def test_flow_in_region_f_stops_at_the_grids_level():
    # at (4, 3.5), mu = 5.5 the flow ends 29% above the library's level
    # -9.2558, at -6.568027 in 111 steps; the explicit point term stalled
    # 9.3e-6 above it after 39,647 steps, and at n = 6000 the gap is 2.5%.
    # The gap is the n = 1500 grid's, not the flow's
    _, _, trace = _flow_from_width_3_seed(Params(4.0, 3.5), 5.5)
    assert abs(trace[-1] - (-6.568027)) <= 1e-6 * 6.568027
    assert len(trace) - 1 <= 200


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
    bulk, estimate, residual = (("8.39e-15", "1.38e-14", "9.99e-16") if AVX512
                                else ("8.81e-15", "1.43e-14", "8.88e-16"))
    assert result.passed and result.detail == (
        "14 states; sup=1.06e-07 (bound 1e-06) drift=7.75e-13 (bound 1e-07) "
        f"estimate={estimate} (bound 1e-12) mass=1.99e-15 (bound 1e-10) "
        f"kinetic=2.56e-15 (bound 1e-10) bulk={bulk} (bound 1e-10) "
        f"point=1.85e-15 (bound 1e-10) residual={residual} (bound 1e-08)")


def _recorded_shots(monkeypatch):
    """Each shot of :func:`_shots` with its solve_ivp result, its stepper and
    the stops it read."""
    solve_ivp = oracle.solve_ivp
    solves = []

    def recording_ivp(fun, *args, **kwargs):
        sol = solve_ivp(fun, *args, **kwargs)
        solves.append((sol, kwargs["out"][0], kwargs["stops"], fun))
        return sol

    monkeypatch.setattr(oracle, "solve_ivp", recording_ivp)
    for params, lam, u0, L in _shots():
        res = oracle.shoot(params, lam, u0, L=L)
        yield (params, lam, u0, L), res, *solves[-1]


def _coefficients_step_by_step(fun, stepper):
    """The interpolant coefficients (component, row, step) formed one step at
    a time on floats from each step's recorded stages, as a loop over the
    nonzeros of DOP853's extra stages and D rows adds them: the reference of
    the stepper's array arithmetic over the steps."""
    steps = [struct.unpack(f"{len(packed) // 8}d", packed) for packed in stepper._steps]
    ends = [step[2:4] for step in steps[1:]] + [stepper._uv]
    extra = tuple(zip(DOP853.C_EXTRA.tolist(), oracle._nonzero_rows(DOP853.A_EXTRA)))
    F = []
    for (t, h, u, v, *k), (u1, v1) in zip(steps, ends):
        ku, kv = list(k[:len(k) // 2]), list(k[len(k) // 2:])
        f1u, f1v = ku[-1], kv[-1]

        def sums(row):
            su = sv = 0.0
            for j, a in row:
                su += a * ku[j]
                sv += a * kv[j]
            return su, sv

        for c, row in extra:
            su, sv = sums(row)
            fu, fv = fun(t + c * h, (u + su * h, v + sv * h))
            ku.append(fu)
            kv.append(fv)
        du, dv = u1 - u, v1 - v
        rows = [(du, dv), (h * ku[0] - du, h * kv[0] - dv),
                (2.0 * du - h * (f1u + ku[0]), 2.0 * dv - h * (f1v + kv[0]))]
        rows += [(h * su, h * sv) for su, sv in map(sums, oracle._nonzero_rows(DOP853.D))]
        F.append(rows)
    return np.array(F).transpose(2, 1, 0)


def _event_point(stops, stopped, last):
    """The event point of a stopped shot as solve_ivp finds it: brentq with
    xtol = rtol = 4 eps on the last step's interpolant for each event that
    changed sign, the earliest root first."""
    eps = np.finfo(float).eps
    return min(brentq(lambda x, g=stops[i][0]: g(*last(x)), last.t_old, last.t,
                      xtol=4 * eps, rtol=4 * eps) for i in stopped)


def test_dense_values_are_the_dense_output_bit_for_bit(monkeypatch):
    # shoot evaluates the DOP853 dense output of every step at once from the
    # stepper's stacked coefficients; SciPy's own OdeSolution of
    # Dop853DenseOutput steps built from the recorded steps is the reference,
    # on every point shoot evaluates and on each step's end points, for the
    # 14 oracle states and the zero-frequency, rebounded, crossed_zero and
    # no_event shots.  The coefficients are those formed one step at a time
    # on floats, the event point is located on SciPy's interpolant of the
    # last step, and the float interpolant shoot hands brentq is SciPy's
    # scalar evaluation bit for bit
    n = 20000
    outcomes = set()
    for (params, lam, u0, L), res, sol, stepper, stops, fun in _recorded_shots(monkeypatch):
        t, y, F = stepper.steps
        assert _same_bits(t, sol.t) and _same_bits(y, sol.y[:, :-1])
        assert _same_bits(F, _coefficients_step_by_step(fun, stepper))
        steps = [Dop853DenseOutput(t[i], t[i + 1], y[:, i], F[:, :, i].T)
                 for i in range(len(t) - 1)]
        ode = OdeSolution(t, steps)
        x_end = _event_point(stops, stepper.stopped, steps[-1]) if stepper.stopped else t[-1]
        x = np.linspace(0.0, oracle.default_domain(lam) if L is None else L, n + 1)
        grid = x[x <= x_end]
        drift = np.linspace(0.0, x_end, 512)
        for pts in (grid, drift, t, np.array([x_end])):
            assert _same_bits(oracle._dense_values(t, y, F, pts), ode(pts)), (params, lam, u0)
        assert _same_bits(oracle._dense_values(t, y, F, np.array([x_end]))[:, 0], ode(x_end))
        at = oracle._step_interpolant(t[-2], t[-1], y[:, -1].tolist(), F[:, :, -1])
        for xi in np.linspace(t[-2], t[-1], 9):
            assert _same_bits(at(xi), steps[-1](xi))
        if res.outcome == "decayed":
            assert _same_bits(res.profile.values[:len(grid)], ode(grid)[0])
            assert res.capture_x == x_end
        outcomes.add(res.outcome)
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


def _scipy_solve(solves):
    """A solve_ivp for shoot that runs SciPy's own DOP853 under stock
    solve_ivp, with the shot's stops as terminal events and SciPy's dense
    output, and hands shoot its steps as the stepper would."""
    def scipy_ivp(fun, t_span, y0, method, stops, out, **options):
        events = []
        for g, direction in stops:
            def event(x, y, g=g):
                return g(*y.tolist())
            event.terminal, event.direction = True, direction
            events.append(event)
        sol = scipy.integrate.solve_ivp(fun, t_span, y0, method="DOP853", events=events,
                                        dense_output=True, **options)
        steps = sol.sol.interpolants
        out.append(types.SimpleNamespace(
            steps=(np.array([s.t_old for s in steps] + [steps[-1].t]),
                   np.array([s.y_old for s in steps]).T,
                   np.array([s.F for s in steps]).transpose(2, 1, 0)),
            stopped=[i for i, te in enumerate(sol.t_events) if len(te)]))
        solves.append(sol)
        return sol
    return scipy_ivp


def test_two_float_stepper_takes_scipys_steps(monkeypatch):
    # every shot again with stock scipy.integrate.solve_ivp(method="DOP853",
    # events=...): the same steps, the same right-hand-side count and the
    # same outcome; only the order of the stage sums differs, which moves the
    # nodal values by at most 3.3e-10 u0 (the zero-frequency shot) and the
    # capture point by at most 1.2e-6
    solve_ivp = oracle.solve_ivp
    ours_solves, ref_solves = [], []

    def our_ivp(*args, **kwargs):
        ours_solves.append(solve_ivp(*args, **kwargs))
        return ours_solves[-1]

    outcomes = set()
    for params, lam, u0, L in _shots():
        monkeypatch.setattr(oracle, "solve_ivp", our_ivp)
        ours = oracle.shoot(params, lam, u0, L=L)
        monkeypatch.setattr(oracle, "solve_ivp", _scipy_solve(ref_solves))
        ref = oracle.shoot(params, lam, u0, L=L)
        sol, ref_sol = ours_solves[-1], ref_solves[-1]
        assert (sol.nfev, len(sol.t), ours.outcome) \
            == (ref_sol.nfev, len(ref_sol.t), ref.outcome), (params, lam, u0)
        if ref.capture_x is None:
            assert ours.capture_x is None
        else:
            assert ours.capture_x == pytest.approx(ref.capture_x, rel=1e-5, abs=0.0)
            assert ref.capture_x == ref_sol.t_events[0][0] == ref_sol.t[-1]
        assert np.max(np.abs(ours.profile.values - ref.profile.values)) <= 1e-9 * u0
        assert ours.decay_ok == ref.decay_ok
        outcomes.add(ours.outcome)
    assert outcomes == {"decayed", "rebounded", "crossed_zero", "no_event"}


def test_stepper_nfev_counts_every_rhs_call(monkeypatch):
    # sol.nfev is the figure the benchmark's tracer reads as the shooter's
    # right-hand-side evaluations: it must be the number of calls made,
    # counted until shoot returns, the dense output's stages included
    solve_ivp = oracle.solve_ivp
    counted_solves = []

    def counting_ivp(fun, *args, **kwargs):
        calls = [0]

        def counted(x, y):
            calls[0] += 1
            return fun(x, y)

        sol = solve_ivp(counted, *args, **kwargs)
        counted_solves.append((sol, calls))
        return sol

    monkeypatch.setattr(oracle, "solve_ivp", counting_ivp)
    totals = []
    for params, lam, u0, L in _shots():
        oracle.shoot(params, lam, u0, L=L)
        sol, calls = counted_solves[-1]
        assert sol.nfev == calls[0]
        totals.append(calls[0])
    assert sum(totals[:14]) == 15970


def test_a_failed_integration_is_named_and_never_decays(monkeypatch):
    # a right-hand side that turns NaN past x = 1 makes every step across it
    # fail its error test, until the step falls below DOP853's least step:
    # solve_ivp returns status -1, and the shot says so
    solve_ivp = oracle.solve_ivp
    solves = []

    def failing_ivp(fun, *args, **kwargs):
        def nan_past_one(x, y):
            return (math.nan, math.nan) if x > 1.0 else fun(x, y)

        solves.append(solve_ivp(nan_past_one, *args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(oracle, "solve_ivp", failing_ivp)
    pt = stationary.solve_for_lambda(P425, 3.0 / 128.0).points[1]
    res = oracle.shoot(P425, pt.lam, pt.u0)
    assert solves[-1].status == -1 and solves[-1].t[-1] <= 1.0
    assert res.outcome == "step_failed"
    assert not res.decay_ok and res.capture_x is None
    x = res.profile.x
    assert np.all(res.profile.values[x > solves[-1].t[-1]] == 0.0)


def test_compiled_trial_step_is_the_loop_over_the_tableau_bit_for_bit():
    # the trial step written out from the tableau adds the products of each
    # row in the order of a loop over its nonzeros, from 0.0
    stepper = oracle._TwoFloatDOP853
    trial = oracle._trial_step(stepper._STAGES, stepper._B, stepper._E5, stepper._E3)

    def rhs(x, y):
        u, v = y
        return v - 0.1 * x, 0.3 * u + abs(u) ** 2.5 * u

    def sums(row, ku, kv):
        su = sv = 0.0
        for j, a in row:
            su += a * ku[j]
            sv += a * kv[j]
        return su, sv

    for t, u, v, step in np.random.default_rng(27).uniform(-1.0, 1.0, (200, 4)).tolist():
        t_new = t + 0.01 * step
        h = t_new - t
        ku, kv = [rhs(t, (u, v))[0]], [rhs(t, (u, v))[1]]
        for c, row in stepper._STAGES:
            su, sv = sums(row, ku, kv)
            for k, f in zip((ku, kv), rhs(t + c * h, (u + su * h, v + sv * h))):
                k.append(f)
        bu, bv = sums(stepper._B, ku, kv)
        u_new, v_new = u + h * bu, v + h * bv
        for k, f in zip((ku, kv), rhs(t_new, (u_new, v_new))):
            k.append(f)
        want = (u_new, v_new, ku[-1], kv[-1], *sums(stepper._E5, ku, kv),
                *sums(stepper._E3, ku, kv), *ku, *kv)
        *got, k = trial(rhs, t, u, v, ku[0], kv[0], h, t_new)
        assert _same_bits(got + list(k), want)


def test_stepper_constants_and_tableau_are_scipys():
    # the step-size constants shoot owns and the tableau rows its stepper
    # reads are SciPy's own (the private modules that define them)
    from scipy.integrate._ivp import dop853_coefficients as dc, rk
    assert (oracle.SAFETY, oracle.MIN_FACTOR, oracle.MAX_FACTOR) \
        == (rk.SAFETY, rk.MIN_FACTOR, rk.MAX_FACTOR) == (0.9, 0.2, 10)
    stepper = oracle._TwoFloatDOP853
    n = dc.N_STAGES
    assert stepper._STAGES == tuple(
        (float(dc.C[i]), tuple((j, float(a)) for j, a in enumerate(dc.A[i, :n]) if a != 0.0))
        for i in range(1, n))
    assert (stepper._B, stepper._E5, stepper._E3) == tuple(
        tuple((j, float(a)) for j, a in enumerate(row) if a != 0.0) for row in (dc.B, dc.E5, dc.E3))
    # the dense output reads DOP853's own extra stages and D rows: the rows
    # of D share their nonzeros, and each extra stage reads earlier stages only
    np.testing.assert_array_equal(DOP853.C_EXTRA, dc.C[n + 1:])
    np.testing.assert_array_equal(DOP853.A_EXTRA, dc.A[n + 1:])
    np.testing.assert_array_equal(DOP853.D, dc.D)
    assert ((dc.D != 0.0) == (dc.D[0] != 0.0)).all()
    for s, row in enumerate(dc.A[n + 1:]):
        assert not row[n + 1 + s:].any()


#: sha256 of the float64 bytes of the flow's energy trace, for numpy's
#: AVX-512 and AVX2 kernels (pow), and for each kernel family numpy's
#: OpenBLAS picks for np.dot by CPU (OPENBLAS_CORETYPE): the flow's mass is a
#: BLAS dot product, whose order of additions is the kernel's
FLOW_TRACE_SHA256 = {
    True: {   # numpy's AVX-512 kernels
        "Prescott, Core2, Nehalem":
            "207c21330f043db9c647666c374c1530b4399724c6abf8616626b3e5f7305d22",
        "Sandybridge": "e2fe013c4eaee7f701e7400db2d2c31c3f0eb0d41295e6d72984f946ab6257bb",
        "Haswell, Zen": "5e1f5cf765c20fb69a850eb1ec5f0927b4c58a78c985896a40a73c797299ad64",
        "SkylakeX, Cooperlake, SapphireRapids":
            "a9e17317caf92302019b851556fefbe070546d8529e099eec4d2268d0c21e035",
    },
    False: {   # its AVX2 kernels
        "Prescott, Core2, Nehalem":
            "c30d111003cc65833615f4902a7b5b5d648b69dd7e538156d715a82a05de7ad6",
        "Sandybridge": "3448a2c70c5e0358bec316217b19372d398c311d6d9f6639e2cbcdecb2ba9119",
        "Haswell, Zen": "ddc96d634a0ea570c9a53906aed6883decc46667bde5d2e874f8ce8a32c50e90",
        "SkylakeX, Cooperlake, SapphireRapids":
            "530ce996bbe77e722817bb9e3025669ce25bf66e579fadd5309a48cdf45d0f73",
    },
}


def test_flow_trace_is_pinned_bit_for_bit():
    # the energy trace of flow-vs-branch's flow, all 69 steps, is pinned by
    # the sha256 of its float64 bytes: the trials form their sums in reused
    # work arrays and the energy without the mass, and not a bit may move.
    # The bits are those of the pinned numpy and SciPy wheels (BLAS ddot,
    # LAPACK dptsv, numpy's pow) on x86-64, one trace per pow and ddot kernel
    _, _, trace = _flow_from_width_3_seed(P425, 0.3)
    assert len(trace) - 1 == 69
    assert hashlib.sha256(np.array(trace).tobytes()).hexdigest() \
        in FLOW_TRACE_SHA256[AVX512].values()


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
