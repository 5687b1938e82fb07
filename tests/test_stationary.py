import math

import numpy as np
import pytest

from deltanls import algebra, stationary
from deltanls.params import Params

P425 = Params(4.0, 2.5)
P435 = Params(4.0, 3.5)
P83 = Params(8.0, 3.0)
PD16 = Params(16.0, 9.0)


def test_lambda_bar_closed_form():
    assert stationary.lambda_bar(P425) == pytest.approx(1.0 / 32.0, abs=1e-12)
    assert stationary.lambda_bar(P435) is None


def test_lambda_bar_matches_root_count_bisection():
    # independent route: bisect the frequency where the root count drops 2 -> 0
    lb = stationary.lambda_bar(P83)
    lo, hi = 0.5 * lb, 2.0 * lb
    assert stationary.solve_for_lambda(P83, lo).count == 2
    assert stationary.solve_for_lambda(P83, hi).count == 0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if stationary.solve_for_lambda(P83, mid).count >= 1:
            lo = mid
        else:
            hi = mid
    assert lb == pytest.approx(0.5 * (lo + hi), rel=1e-8)


def test_diagonal_exists():
    assert stationary.diagonal_exists(PD16) == (True, pytest.approx(math.sqrt(2.0), abs=1e-15))
    assert stationary.diagonal_exists(Params(8.0, 5.0)) == (False, None)
    assert stationary.diagonal_exists(Params(6.0, 4.0)) == (False, None)
    with pytest.raises(ValueError):
        stationary.diagonal_exists(P425)


def test_solve_two_branch_example():
    ss = stationary.solve_for_lambda(P425, 3.0 / 128.0)
    assert ss.count == 2
    assert ss.points[0].t == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-10)
    assert ss.points[1].t == pytest.approx(2.0, abs=1e-10)


def test_solve_tangency_and_past_fold():
    ss = stationary.solve_for_lambda(P425, 1.0 / 32.0)
    assert ss.count == 1
    assert ss.points[0].t == pytest.approx(math.sqrt(2.0), rel=1e-9)
    assert stationary.solve_for_lambda(P425, 0.05).count == 0


def test_solve_zero_frequency():
    assert stationary.solve_for_lambda(P425, 0.0).count == 1
    assert stationary.solve_for_lambda(P83, 0.0).count == 0        # p >= 6
    assert stationary.solve_for_lambda(Params(4.0, 3.0), 0.0).count == 0  # diagonal


def test_solve_diagonal():
    assert stationary.solve_for_lambda(PD16, 1.0).count == 1
    for lam in (0.5, 1.0, 2.0):
        assert stationary.solve_for_lambda(Params(8.0, 5.0), lam).count == 0


def test_solve_rejects_negative_frequency():
    with pytest.raises(ValueError):
        stationary.solve_for_lambda(P425, -0.1)


@pytest.mark.parametrize("p,q", [(4.0, 2.5), (8.0, 3.0), (10.0, 5.0)])
def test_root_count_staircase(p, q):
    params = Params(p, q)
    lb = stationary.lambda_bar(params)
    for lam, want in ((0.1 * lb, 2), (0.9 * lb, 2), (lb, 1), (1.01 * lb, 0), (10 * lb, 0)):
        assert stationary.solve_for_lambda(params, lam).count == want, lam


@pytest.mark.parametrize("p,q", [(4.0, 3.5), (3.0, 4.5)])
def test_unique_branch_above_diagonal(p, q):
    params = Params(p, q)
    for lam in np.logspace(-4, 4, 25):
        assert stationary.solve_for_lambda(params, lam).count == 1


def test_branch_point_residual_gates():
    pts = list(stationary.solve_for_lambda(P425, 3.0 / 128.0).points)
    pts.append(stationary.zero_frequency_point(P425))
    for lam in (0.5, 1.0, 2.0):
        pts.extend(stationary.solve_for_lambda(PD16, lam).points)
    for pt in pts:
        assert stationary.vertex_residual(pt) <= 1e-8


def test_profile_is_even_and_decreasing():
    pt = stationary.solve_for_lambda(P425, 3.0 / 128.0).points[1]
    xs = np.linspace(0.1, 30.0, 50)
    assert np.allclose(stationary.profile(pt, xs), stationary.profile(pt, -xs),
                       rtol=0, atol=0)
    vals = stationary.profile(pt, xs)
    assert np.all(np.diff(vals) < 0.0)
    assert stationary.profile(pt, 0.0) == pytest.approx(pt.u0, rel=1e-14)


def test_first_integral_residual():
    pt = stationary.solve_for_lambda(P425, 3.0 / 128.0).points[1]
    xs = np.linspace(0.2, 40.0, 25)
    scale = pt.lam * pt.u0 ** 2 + (2.0 / 4.0) * pt.u0 ** 4
    assert stationary.first_integral_residual(pt, xs) <= 1e-8 * scale


def test_zero_frequency_profile_tail():
    # p = 4: u ~ c_p / x for large x
    pt = stationary.zero_frequency_point(P425)
    cp = algebra.c_p(P425)
    for x in (1e3, 1e5):
        assert stationary.profile(pt, x) * x == pytest.approx(cp, rel=1e-2)
    assert stationary.profile(pt, 1e7) * 1e7 == pytest.approx(cp, rel=1e-4)


def test_profile_exponential_decay_fit():
    for pt in stationary.solve_for_lambda(P425, 3.0 / 128.0).points:
        s = math.sqrt(pt.lam)
        xs = np.linspace(5.0 / s, 50.0 / s, 40)
        logs = np.log(stationary.profile(pt, xs))
        rate = -np.polyfit(xs, logs, 1)[0]
        assert rate > 0.0
        assert rate == pytest.approx(s, rel=1e-2)
        assert np.all(stationary.profile(pt, xs) <= pt.u0 * np.exp(-0.9 * s * xs))


def test_branch_point_offset_definition():
    # a must invert t = coth((p-2) sqrt(lam) a / 2)
    pt = stationary.solve_for_lambda(P83, 0.04).points[0]
    t_back = 1.0 / math.tanh(0.5 * (8.0 - 2.0) * math.sqrt(pt.lam) * pt.a)
    assert t_back == pytest.approx(pt.t, rel=1e-13)


def test_solution_set_ordering():
    ss = stationary.solve_for_lambda(P83, 0.04)
    assert ss.count == 2
    assert ss.points[0].t < ss.points[1].t
    assert ss.points[0].u0 < ss.points[1].u0
