import math
import sys

import numpy as np
import pytest

from deltanls import algebra
from deltanls.params import Params

P425 = Params(4.0, 2.5)
P43 = Params(4.0, 3.0)
P435 = Params(4.0, 3.5)
P83 = Params(8.0, 3.0)


def graded_midpoint_integral(p, t, panels=10 ** 6):
    """Independent oracle for I(t): midpoint rule after s = cosh(theta) and
    the power substitution that flattens the endpoint, on `panels` panels."""
    m = (6.0 - p) / (p - 2.0)
    theta = np.arccosh(t)
    v_hi = theta ** (m + 1.0) / (m + 1.0)
    v = (np.arange(panels) + 0.5) * (v_hi / panels)
    th = ((m + 1.0) * v) ** (1.0 / (m + 1.0))
    return float(np.sum((np.sinh(th) / th) ** m) * v_hi / panels)


def f_of_t(params, t):
    """f(t) = t / (t^2 - 1)^((q-2)/(p-2)), from its one log form."""
    return math.exp(algebra.log_f(params, math.log(t - 1.0)))


def test_f_examples_exact():
    assert f_of_t(P425, math.sqrt(2.0)) == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert f_of_t(P43, 2.0) == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-15)


def test_f_divergence_rate_near_one():
    # f(t) * (t-1)^((q-2)/(p-2)) -> 2^(-(q-2)/(p-2)) as t -> 1+
    for params in (P425, P83):
        expo = (params.q - 2.0) / (params.p - 2.0)
        for d in (1e-6, 1e-8, 1e-10):
            ratio = math.exp(algebra.log_f(params, math.log(d))) * d ** expo
            assert ratio == pytest.approx(2.0 ** (-expo), rel=1e-5)


def test_g_examples():
    assert math.exp(algebra.log_g(P425, 1.0 / 32.0)) == pytest.approx(math.sqrt(2.0), abs=1e-14)
    # on the diagonal g is the lambda-independent constant sqrt(p)/(2 sqrt(2))
    for lam in (0.3, 1.0, 7.0):
        assert math.exp(algebra.log_g(Params(16.0, 9.0), lam)) == pytest.approx(
            math.sqrt(2.0), abs=1e-15)
    assert math.exp(algebra.log_g(P435, 1.0)) == pytest.approx(0.5 * 2.0 ** 0.75, abs=1e-15)


def test_g_inverse_round_trip():
    for params in (P425, P435, P83):
        for lam in (1e-3, 0.7, 42.0):
            log_level = algebra.log_g(params, lam)
            assert math.exp(algebra.log_lambda(params, log_level)) == pytest.approx(
                lam, rel=1e-13)


def test_g_rejects_bad_inputs():
    with pytest.raises(ValueError):
        algebra.log_g(P425, 0.0)


def test_f_prime_critical_point_and_signs():
    # f' vanishes at t* = sqrt(2), where ln f has its minimum in y = ln(t - 1)
    y_star = math.log(algebra.d_star(P425))
    assert algebra.d_star(P425) == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-15)
    f_min = algebra.log_f(P425, y_star)
    for step in (1e-3, 1e-2, 0.5):
        assert algebra.log_f(P425, y_star - step) > f_min
        assert algebra.log_f(P425, y_star + step) > f_min
    assert f_of_t(P425, 1.1 + 1e-6) < f_of_t(P425, 1.1)      # f' < 0 below t*
    assert f_of_t(P425, 3.0 + 1e-6) > f_of_t(P425, 3.0)      # f' > 0 above t*
    # q > p/2 + 1: f is strictly decreasing
    for t in (1.01, 1.5, 4.0, 50.0):
        assert f_of_t(P435, t * (1.0 + 1e-6)) < f_of_t(P435, t)


@pytest.mark.parametrize("params,t", [
    (P425, 1.3), (P425, 2.7), (P435, 1.8), (P83, 1.2), (P83, 5.0),
])
def test_f_prime_matches_finite_differences(params, t):
    # f'/f = ((1 - 2k) t^2 - 1) / (t (t^2 - 1)), k = (q-2)/(p-2)
    k = (params.q - 2.0) / (params.p - 2.0)
    f_prime = f_of_t(params, t) * ((1.0 - 2.0 * k) * t * t - 1.0) / (t * (t * t - 1.0))
    step = 1e-5
    fd = (f_of_t(params, t + step) - f_of_t(params, t - step)) / (2 * step)
    assert f_prime == pytest.approx(fd, rel=1e-6)


def test_I_p4_is_exact():
    assert algebra.I_of_t(P425, d=2.0) == 2.0


def test_I_p6_grows_like_log():
    # I(t) = arccosh(t) = log(2t) + O(1/t^2), so I/log(t) -> 1 from above
    P6 = Params(6.0, 3.0)
    ratios = [algebra.I_of_t(P6, d=t - 1.0) / math.log(t) for t in (1e3, 1e6, 1e9)]
    assert ratios[0] > ratios[1] > ratios[2] > 1.0
    assert ratios[2] == pytest.approx(1.0, abs=0.04)
    assert algebra.I_of_t(P6, d=1e9 - 1.0) - math.log(2e9) == pytest.approx(0.0, abs=1e-12)


def test_I_p8_against_graded_midpoint_oracle():
    got = algebra.I_of_t(P83, d=1.0)
    want = graded_midpoint_integral(8.0, 2.0)
    assert abs(got - want) < 1e-10


def test_I_additivity_on_random_splits():
    rng = np.random.default_rng(42)
    from scipy.integrate import quad
    for params in (Params(3.0, 4.0), Params(5.0, 3.0), Params(9.0, 4.0)):
        e = (4.0 - params.p) / (params.p - 2.0)
        for _ in range(4):
            t1 = 1.0 + rng.random() * 2.0
            t2 = t1 + rng.random() * 5.0
            middle, _ = quad(lambda s: (s * s - 1.0) ** e, t1, t2,
                             epsabs=1e-13, epsrel=1e-12)
            lhs = algebra.I_of_t(params, d=t2 - 1.0)
            rhs = algebra.I_of_t(params, d=t1 - 1.0) + middle
            assert abs(lhs - rhs) < 1e-9


def test_I_infinite_endpoint():
    with pytest.raises(ValueError):
        algebra.I_of_t(Params(5.0, 3.0), d=math.inf)
    with pytest.raises(ValueError):
        algebra.I_of_t(Params(6.0, 3.0), d=math.inf)
    tail = algebra.I_of_t(P83, d=math.inf)
    assert tail > algebra.I_of_t(P83, d=99.0)
    assert math.isfinite(tail)


@pytest.mark.parametrize("p,t", [(3.0, 1.7), (4.5, 2.2), (8.0, 1.4), (11.0, 3.0)])
def test_integration_by_parts_identity(p, t):
    # integral_1^t s^2 (s^2-1)^((4-p)/(p-2)) ds
    #   = (p-2)/(p+2) [ t (t^2-1)^(2/(p-2)) + I(t) ]
    params = Params(p, 3.0)
    m = (6.0 - p) / (p - 2.0)
    theta = math.acosh(t)
    v_hi = theta ** (m + 1.0) / (m + 1.0)
    k = 400000
    v = (np.arange(k) + 0.5) * (v_hi / k)
    th = ((m + 1.0) * v) ** (1.0 / (m + 1.0))
    lhs = float(np.sum(np.cosh(th) ** 2 * (np.sinh(th) / th) ** m) * v_hi / k)
    rhs = (p - 2.0) / (p + 2.0) * (
        t * (t * t - 1.0) ** (2.0 / (p - 2.0)) + algebra.I_of_t(params, d=t - 1.0))
    assert abs(lhs - rhs) < 1e-8


def test_h_closed_form_for_p4():
    # for p = 4 the sign factor reduces to ((q-3) t - 1) / ((q-3)(t+1))
    q = 3.5
    for t in (1.2, 1.5, 2.0, 3.0, 10.0):
        want = ((q - 3.0) * t - 1.0) / ((q - 3.0) * (t + 1.0))
        assert algebra.h_of_t(P435, d=t - 1.0) == pytest.approx(want, abs=1e-12)
    assert algebra.h_of_t(P435, d=1.0) == pytest.approx(0.0, abs=1e-12)
    assert algebra.h_of_t(P435, d=0.5) < 0.0
    assert algebra.h_of_t(P83, d=1.0) > 0.0


def test_h_sign_change_counts():
    ys = np.linspace(-10.0, math.log(99.0), 400)
    for q in (3.2, 3.5, 3.8):
        hs = [algebra.h_of_t(Params(4.0, q), d=math.exp(y)) for y in ys]
        assert int(np.sum(np.abs(np.diff(np.sign(hs))) > 0)) == 1
    for p, q in ((4.0, 2.5), (8.0, 3.0), (8.0, 4.0), (3.0, 4.5)):
        hs = [algebra.h_of_t(Params(p, q), d=math.exp(y)) for y in ys]
        assert min(hs) > 0.0


def test_h_p6_is_identity():
    assert algebra.h_of_t(Params(6.0, 3.0), d=1.5) == 2.5


def test_constants_exact_values():
    assert 2.0 ** algebra.log2_c_pq(P425) == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert math.exp(algebra.log_c_p(P425)) == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert algebra.mu0(P425) == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert 2.0 ** algebra.log2_c_pq(P435) == pytest.approx(2.0 ** 2.5, abs=1e-14)
    assert algebra.mu0(P435) == pytest.approx(2.0 ** 2.5, abs=1e-14)
    assert algebra.mu0(P83) is None


def _direct_exponents(p, q):
    """The mass-map exponents with every term formed as written."""
    denom = 2.0 * q - p - 2.0
    e = (6.0 - p) / denom
    log2_p = (q - 4.0) * math.log2(p)
    return (e, e * (q - 2.0) / (p - 2.0), (q - 4.0) / denom,
            (3.0 * (q - p + 2.0) + log2_p) / denom - math.log2(p - 2.0),
            (6.0 - p + log2_p) / denom)


def test_mass_exponents_are_the_direct_quotients_bit_for_bit():
    # mass_exponents scales its terms by 2^-11 so that none overflows; where
    # the direct terms are finite every exponent is theirs, bit for bit
    rng = np.random.default_rng(25)
    pairs = 2.0 + 10.0 ** rng.uniform(-15.0, 300.0, (4000, 2))
    near_diagonal = [(p, p / 2.0 + 1.0 + s) for p in (3.0, 5.0, 10.0, 30.0)
                     for s in (-1e-9, 1e-12, 3e-6)]
    for p, q in [*pairs, *near_diagonal, (4.0, 2.5), (8.0, 3.0)]:
        got = [v.hex() for v in algebra.mass_exponents(Params(float(p), float(q)))]
        assert got == [v.hex() for v in _direct_exponents(float(p), float(q))], (p, q)


@pytest.mark.parametrize("q", [2e307, 5e307, 9e307, 1e308, 1.79e308, sys.float_info.max])
def test_mass_exponents_stay_finite_at_huge_q(q):
    # 3 (q - p + 2) and 2q - p - 2 once overflowed from about q = 5e307 and
    # 9e307: log2 mu0 went to inf, then nan, and log_g(., 1) to nan
    P = Params(4.0, q)
    assert all(math.isfinite(v) for v in algebra.mass_exponents(P))
    assert algebra.log2_mu0(P) == pytest.approx(1.5, rel=1e-15)
    assert algebra.log_g(P, 1.0) == pytest.approx(0.5 * (q - 4.0) * math.log(2.0), rel=1e-15)


def test_constants_mu0_identity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = 2.1 + rng.random() * 3.8
        q = 2.1 + rng.random() * 9.0
        if q == p / 2.0 + 1.0:
            continue
        params = Params(p, q)
        assert algebra.mu0(params) == pytest.approx(
            2.0 ** algebra.log2_c_pq(params) * (p - 2.0) / (6.0 - p), rel=1e-13)


def test_constants_reject_diagonal():
    with pytest.raises(ValueError):
        algebra.log2_c_pq(Params(16.0, 9.0))
    with pytest.raises(ValueError):
        algebra.mu0(Params(16.0, 9.0))
    # c_p alone is fine on the diagonal
    assert math.exp(algebra.log_c_p(Params(16.0, 9.0))) > 0.0

