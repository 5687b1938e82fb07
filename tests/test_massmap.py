import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from deltanls import algebra, massmap, stationary
from deltanls.params import MassInterval, Params, Region, classify, expected_solution_regime

P425 = Params(4.0, 2.5)
P435 = Params(4.0, 3.5)
P83 = Params(8.0, 3.0)
P84 = Params(8.0, 4.0)
PD16 = Params(16.0, 9.0)


def mu_p4_q25(t):
    # exact closed form for p=4, q=2.5 (I(t) = t-1 and f explicit)
    return math.sqrt(2.0) * (t - 1.0) * math.sqrt(t * t - 1.0) / (t * t)


def mu_p4_q35(t):
    return 2.0 ** 2.5 * t * t / ((t + 1.0) ** 1.5 * math.sqrt(t - 1.0))


def test_mass_examples_exact():
    assert massmap.mass_of_t(P425, d=1.0) == pytest.approx(
        math.sqrt(6.0) / 4.0, abs=1e-12)
    assert massmap.mass_of_t(P425, d=math.inf) == pytest.approx(
        math.sqrt(2.0), abs=1e-14)
    assert massmap.mass_of_t(P435, d=1.0) == pytest.approx(
        16.0 * math.sqrt(6.0) / 9.0, abs=1e-12)


def test_mass_matches_exact_p4_curves():
    for t in (1.2, 1.7, 2.0, 3.5, 20.0):
        assert massmap.mass_of_t(P425, d=t - 1.0) == pytest.approx(mu_p4_q25(t), rel=1e-13)
        assert massmap.mass_of_t(P435, d=t - 1.0) == pytest.approx(mu_p4_q35(t), rel=1e-13)


def test_mass_rejects_bad_arguments():
    with pytest.raises(ValueError):
        massmap.mass_of_t(P83, d=math.inf)
    with pytest.raises(ValueError):
        massmap.mass_of_t(PD16, d=1.0)


def test_diagonal_mass_slope():
    lams = np.logspace(-2, 2, 9)
    mus = [massmap.mass_of_lambda_diagonal(PD16, lam) for lam in lams]
    slope = np.polyfit(np.log(lams), np.log(mus), 1)[0]
    assert slope == pytest.approx(-5.0 / 14.0, abs=1e-6)


def test_diagonal_mass_proportionality_p10():
    PD10 = Params(10.0, 6.0)
    m1 = massmap.mass_of_lambda_diagonal(PD10, 1.0)
    m2 = massmap.mass_of_lambda_diagonal(PD10, 16.0)
    # mu ~ lambda^((6-10)/16) = lambda^(-1/4)
    assert m2 / m1 == pytest.approx(16.0 ** -0.25, rel=1e-10)


def test_diagonal_mass_against_profile_quadrature():
    pt = stationary.solve_for_lambda(PD16, 1.0).points[0]
    direct = massmap.profile_mass_quadrature(pt)
    assert massmap.mass_of_lambda_diagonal(PD16, 1.0) == pytest.approx(
        direct, rel=1e-6)


def test_diagonal_mass_rejects_small_p():
    with pytest.raises(ValueError):
        massmap.mass_of_lambda_diagonal(Params(8.0, 5.0), 1.0)


def test_asymptotics_limits():
    a = massmap.asymptotics(P84)
    assert a.t1_limit == pytest.approx(2.0, abs=1e-14)
    assert a.t1_rate == 0.0
    b = massmap.asymptotics(P425)
    assert b.t1_limit == 0.0 and b.t1_rate == pytest.approx(1.5)
    assert b.tinf_limit == pytest.approx(math.sqrt(2.0))
    c = massmap.asymptotics(P435)
    assert math.isinf(c.t1_limit) and c.t1_rate == pytest.approx(-0.5)
    d = massmap.asymptotics(Params(6.0, 3.0))
    assert d.tinf_kind == "log"
    e = massmap.asymptotics(P83)
    assert e.tinf_kind == "power" and e.tinf_rate == pytest.approx(2.0 / 6.0)


@pytest.mark.parametrize("p,q", [(8.0, 4.0), (4.0, 2.5), (4.0, 3.5)])
def test_small_t_extrapolation_matches_predicted_rate(p, q):
    # Richardson-type extrapolation of mu(t) / (prefactor (t-1)^rate) -> 1
    params = Params(p, q)
    a = massmap.asymptotics(params)
    ds = [1e-5 * 4.0 ** (-k) for k in range(7)]
    seq = [massmap.mass_of_t(params, d=dd)
           / (a.t1_prefactor * dd ** a.t1_rate) for dd in ds]
    cur = list(seq)
    while len(cur) >= 3:
        cur = [c - (c - b) ** 2 / (aa + c - 2 * b) if aa + c != 2 * b else c
               for aa, b, c in zip(cur, cur[1:], cur[2:])]
    assert cur[-1] == pytest.approx(1.0, abs=1e-4)


def test_branch_mass_consistency_random_points():
    rng = np.random.default_rng(11)
    pool = [P425, P435, P83, P84, Params(8.0, 4.5), Params(3.0, 4.5),
            Params(5.0, 4.0), Params(7.0, 3.2)]
    checked = 0
    while checked < 50:
        params = pool[rng.integers(len(pool))]
        t = 1.0 + math.exp(rng.uniform(-4.0, 4.0))
        lam = math.exp(algebra.log_lambda(params, algebra.log_f(params, math.log(t - 1.0))))
        pt = stationary.branch_point_from_t(params, lam, d=t - 1.0)
        closed = massmap.mass_of_t(params, d=t - 1.0)
        direct = massmap.profile_mass_quadrature(pt)
        assert abs(direct - closed) <= 1e-6 * closed
        checked += 1


def test_mass_monotone_in_covered_strips():
    # grid capped where increments stay resolvable in double precision
    # (for p < 6 the plateau gap decays like a power of 1/t)
    for params in (P425, P83, P84, Params(3.0, 4.5)):
        curve = massmap.mass_curve(params, n=256, y_lo=-12.0, y_hi=6.0)
        mus = [s[1] for s in curve.samples]
        assert all(a < b for a, b in zip(mus, mus[1:]))
        assert curve.extrema == ()


def test_mass_dip_in_region_F():
    curve = massmap.mass_curve(P435, n=256)
    mus = np.array([s[1] for s in curve.samples])
    drops = np.diff(mus) < 0
    # one decreasing stretch followed by one increasing stretch
    flips = int(np.sum(np.abs(np.diff(drops.astype(int)))))
    assert flips == 1
    assert len(curve.extrema) == 1
    t_min, mu_min = curve.extrema[0]
    assert t_min == pytest.approx(2.0, abs=1e-9)
    assert mu_min == pytest.approx(16.0 * math.sqrt(6.0) / 9.0, rel=1e-10)


def test_normalized_solutions_unique_in_A():
    sols = massmap.normalized_solutions(P425, math.sqrt(6.0) / 4.0)
    assert len(sols) == 1
    assert sols[0].point.t == pytest.approx(2.0, abs=1e-9)


def test_normalized_solutions_window_in_F():
    sols = massmap.normalized_solutions(P435, 5.0)
    assert len(sols) == 2
    t_lo, t_hi = sorted(s.point.t for s in sols)
    assert t_lo < 2.0 < t_hi
    assert massmap.normalized_solutions(P435, 4.3) == []
    # at the plateau level: one falling-branch state plus the zero-frequency one
    sols0 = massmap.normalized_solutions(P435, 2.0 ** 2.5)
    assert len(sols0) == 2
    assert any(s.point.zero_frequency for s in sols0)


def test_normalized_solutions_region_H():
    assert massmap.normalized_solutions(P84, 1.5) == []
    assert massmap.normalized_solutions(P84, 1.9) == []
    assert len(massmap.normalized_solutions(P84, 2.1)) == 1


def test_normalized_solutions_at_mu0_is_zero_frequency():
    sols = massmap.normalized_solutions(P425, math.sqrt(2.0))
    assert len(sols) == 1
    assert sols[0].point.zero_frequency


def test_repeated_mass_is_answered_without_the_gate(monkeypatch):
    # each (params, mu) is inverted and gated once; cleared first, so the
    # count holds whatever ran before
    massmap._gated_solutions.cache_clear()
    real, calls = massmap.profile_mass_quadrature, []
    monkeypatch.setattr(massmap, "profile_mass_quadrature",
                        lambda point: calls.append(point) or real(point))
    first = massmap.normalized_solutions(P435, 5.0)
    assert len(calls) == len(first) == 2
    second = massmap.normalized_solutions(P435, 5.0)
    assert len(calls) == 2
    assert second == first and second is not first
    second.clear()   # a caller's list is its own
    assert massmap.normalized_solutions(P435, 5.0) == first


def test_refusal_is_raised_on_every_call():
    # lambda = e^2399 at this mass: refused, and the refusal is never kept
    for _ in range(2):
        with pytest.raises(stationary.StateOutOfRange, match="ln\\(lambda\\)"):
            massmap.normalized_solutions(Params(8.5, 5.25), 1e-200)


def test_normalized_solution_round_trip():
    for params, mu in ((P425, 0.3), (P83, 2.0), (P435, 5.0)):
        for sol in massmap.normalized_solutions(params, mu):
            if sol.point.zero_frequency:
                continue
            back = stationary.solve_for_lambda(params, sol.point.lam)
            assert min(abs(pt.t - sol.point.t) for pt in back.points) <= 1e-9 * sol.point.t


def test_mass_threshold_by_region():
    ta = massmap.mass_threshold(P425)
    assert ta.mu_threshold == pytest.approx(math.sqrt(2.0), abs=1e-12)
    # mu0 itself is admissible: 0 < mu <= mu0
    assert expected_solution_regime(P425).interval is MassInterval.UPTO_THRESHOLD

    tf = massmap.mass_threshold(P435)
    assert tf.mu_threshold == pytest.approx(16.0 * math.sqrt(6.0) / 9.0, abs=1e-8)
    assert 1.0 + math.exp(massmap.branch_minimum(P435).y) == pytest.approx(2.0, abs=1e-6)
    # a bounded minimization of the mass map finds the same minimum
    direct = minimize_scalar(lambda y: massmap.mass_of_t(P435, d=math.exp(y)),
                             bounds=(-0.5, 0.5), method="bounded", options={"xatol": 1e-8})
    assert abs(direct.fun - tf.mu_threshold) < 1e-8

    th = massmap.mass_threshold(P84)
    assert th.mu_threshold == 2.0
    # 2 itself is not admissible: mu > 2
    assert expected_solution_regime(P84).interval is MassInterval.ABOVE_TWO

    tb = massmap.mass_threshold(P83)
    assert tb.mu_threshold is None

    tg = massmap.mass_threshold(Params(5.0, 4.0))
    assert classify(Params(5.0, 4.0)) is Region.G
    assert expected_solution_regime(Params(5.0, 4.0)).interval is MassInterval.TWO_TO_THRESHOLD
    assert tg.mu_threshold == pytest.approx(algebra.mu0(Params(5.0, 4.0)))
    assert algebra.mu0(Params(5.0, 4.0)) > 2.0

    with pytest.raises(ValueError):
        massmap.mass_threshold(PD16)


def test_mass_curve_limits_annotation():
    asym = massmap.asymptotics(P425)
    assert asym.t1_limit == 0.0
    assert asym.tinf_limit == pytest.approx(math.sqrt(2.0))
    assert math.isinf(massmap.asymptotics(P83).tinf_limit)


def test_region_F_sweep_threshold_never_above_mu0():
    # At large t the deficit (mu0 - mu)/mu0 is c1/t^2 + O(t^-m), m = (6-p)/(p-2).
    # For p < 10/3 the first term leads, with
    # c1 = (q-4)/(2q-p-2) + (p-2)/(10-3p); where c1 < 0 the mass map falls
    # to mu0 from above and has no dip.  Elsewhere in F it dips below mu0.
    rng = np.random.default_rng(2026)
    for _ in range(400):
        p = 2.0 + 4.0 * rng.random()
        q = p / 2.0 + 1.0 + (3.0 - p / 2.0) * rng.random()
        thr = massmap.mass_threshold(Params(p, q))
        y, _, depth = massmap.branch_minimum(Params(p, q))
        mu0 = algebra.mu0(Params(p, q))
        c1 = (q - 4.0) / (2.0 * q - p - 2.0) + (p - 2.0) / (10.0 - 3.0 * p)
        assert math.isinf(y) == (p < 10.0 / 3.0 and c1 < 0.0), (p, q)
        assert thr.mu_threshold == mu0 * (1.0 - depth) <= mu0
        assert depth >= 0.0
