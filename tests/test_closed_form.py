"""The closed-form I(t), h(t), mass map and fold against 40-digit mpmath.

The reference takes I(t) = B(x; a, b)/2, x = 1 - 1/t^2, from mpmath's
incomplete beta function, and h and mu from their definitions.  h and the
mass deficit cancel about ln(t^2)/ln(10) digits at large t, and mpmath's
incomplete beta function loses as many again next to the poles of its
connection formula, so the working precision is 40 digits plus 1.8 y with
y = ln(t - 1).
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deltanls import algebra, massmap, stationary
from deltanls.params import Params


def reference(p: float, q: float, y: float):
    """(ln I, h, ln mu) at t = 1 + d, d = exp(y) rounded to a double."""
    with mp.workdps(40 + int(1.8 * max(y, 0.0))):
        p, q = mp.mpf(p), mp.mpf(q)
        d = mp.mpf(math.exp(y))
        t = 1 + d
        a = 2 / (p - 2)
        if p == 6:   # mpmath's incomplete beta function is slow at b = 0
            integral = mp.log1p(d + mp.sqrt(d * (d + 2)))   # arccosh(t)
        else:
            integral = mp.betainc(a, (p - 6) / (2 * (p - 2)), 0, d * (d + 2) / t ** 2) / 2
        m = (6 - p) / (p - 2)
        h = t + m * ((p - 2) / (p + 2 - 2 * q) - t * t) * (d * (d + 2)) ** (-a) * integral
        denom = 2 * q - p - 2
        log_c = (3 * (q - p + 2) * mp.log(2) + (q - 4) * mp.log(p)) / denom - mp.log(p - 2)
        log_f = mp.log(t) - (q - 2) / (p - 2) * mp.log(d * (d + 2))
        log_mu = log_c + (6 - p) / denom * log_f + mp.log(integral)
        return float(mp.log(integral)), float(h), float(log_mu)


def check_against_reference(p: float, q: float, y: float) -> None:
    params = Params(p, q)
    d = math.exp(y)
    log_i, h, log_mu = reference(p, q, y)
    assert algebra.log_I(params, d) == pytest.approx(log_i, rel=1e-14, abs=1e-14)
    assert algebra.log_mass(params, d) == pytest.approx(log_mu, rel=1e-14, abs=1e-14)
    # h keeps its relative accuracy where it is O(1/t); next to its root the
    # scale of its addends bounds the error instead
    t = 1.0 + d
    scale = (1.0 + abs((p - 2.0) / (p + 2.0 - 2.0 * q))) * min(t, 4.0 / t)
    assert abs(algebra.h_of_t(params, d=d) - h) <= 1e-14 * (1.0 + abs(y)) * (abs(h) + scale)


exponents = st.tuples(st.floats(2.02, 16.0), st.floats(2.05, 12.0)).filter(
    lambda pq: abs(pq[1] - (pq[0] / 2.0 + 1.0)) > 1e-3)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(exponents, st.floats(-700.0, 350.0))
def test_closed_form_matches_mpmath(pq, y):
    check_against_reference(pq[0], pq[1], y)


# p = 6: I = arccosh(t), b = 0; p = 10/3 and 14/5: b = -1 and -2, where the
# two terms of the connection formula have poles that cancel
@pytest.mark.parametrize("p", [6.0, 10.0 / 3.0, 14.0 / 5.0])
@pytest.mark.parametrize("y", [-300.0, -1.0, 0.5, 3.0, 40.0, 340.0])
def test_closed_form_at_the_poles(p, y):
    check_against_reference(p, 2.9 if p < 6.0 else 3.1, y)


# next to p = 2 the factor (1 - 1/t^2)^(-a) of the t > 2 series, a = 2/(p-2),
# is beyond the double range on its own (once an OverflowError in h and in
# the mass deficit)
@pytest.mark.parametrize("p", [2.0001, 2.0003, 2.0008, 2.001])
@pytest.mark.parametrize("q", [2.05, 2.6, 5.0])
@pytest.mark.parametrize("y", [0.5, 3.0, 20.0])
def test_closed_form_next_to_p_2(p, q, y):
    check_against_reference(p, q, y)


# at (2.001, 2.0006), region F, mu0 ~ e^13854 is beyond the double range
# and mu/mu0 is too: e^x, x = ln(mu/mu0) > 709, once overflowed in the
# deficit (mu0 - mu)/mu0 = -expm1(x) (an OverflowError from mass_of_t and
# from `deltanls curves`); the log of the ratio is formed from the logs of
# the factors of mu instead, finite, and the mass is inf
@pytest.mark.parametrize("y", [0.25, 0.5, 0.75, 1.0, 1.25])
def test_mass_ratio_beyond_the_double_range_next_to_p_2(y):
    p, q = 2.001, 2.0006
    params = Params(p, q)
    with mp.workdps(40):
        P, Q = mp.mpf(p), mp.mpf(q)
        log_mu0 = ((3 * (Q - P + 2) * mp.log(2) + (Q - 4) * mp.log(P)) / (2 * Q - P - 2)
                   - mp.log(P - 2) + mp.log((P - 2) / (6 - P)))
        want = float(reference(p, q, y)[2] - log_mu0)
    got = algebra.log_mass_ratio(params, math.exp(y))
    assert 500.0 < want < 2200.0
    assert got == pytest.approx(want, rel=1e-14)
    assert massmap.mass_of_t(params, d=math.exp(y)) == math.inf
    beyond = want > algebra.LOG_DOUBLE[1]
    assert algebra.mass_deficit(params, math.exp(y)) == (
        -math.inf if beyond else pytest.approx(-math.expm1(want), rel=1e-12))


def test_fold_next_to_q_2():
    # d* = t* - 1 of the fold, the fold frequency lambda_bar and the
    # multiplier-peak mass mu(t*) at seeded pairs with q - 2 down to 1e-12
    # (p - 2); t* - 1 formed from t* = sqrt((p-2)/(p+2-2q)) cancels the
    # digits of q - 2 and was off by up to 25% here
    rng = np.random.default_rng(2122)
    for _ in range(360):
        p = 2.0 + 10.0 ** rng.uniform(-3.0, 1.0)
        q = 2.0 + (p / 2.0 - 1.0) * 10.0 ** rng.uniform(-12.0, -0.2)
        params = Params(p, q)
        with mp.workdps(40):
            P, Q = mp.mpf(p), mp.mpf(q)
            d = mp.sqrt((P - 2) / (P + 2 - 2 * Q)) - 1
            k = (Q - 2) / (P - 2)
            log_f = mp.log1p(d) - k * mp.log(d * (d + 2))
            log_g1 = -mp.log(2) + k * mp.log(P / 2)
            lam = mp.exp((log_f - log_g1) * 2 * (P - 2) / (2 * Q - P - 2))
        d_star = algebra.d_star(params)
        assert d_star == pytest.approx(float(d), rel=2e-15, abs=0.0), (p, q)
        assert stationary.lambda_bar(params) == pytest.approx(float(lam), rel=4e-15), (p, q)
        log_mu = reference(p, q, math.log(float(d)))[2]
        assert algebra.log_mass(params, d_star) == pytest.approx(log_mu, rel=1e-14, abs=1e-14)


def test_p4_is_exact():
    params = Params(4.0, 3.5)
    for d in (1e-300, 0.3, 1.0, 7.0, 1e200):
        assert algebra.I_of_t(params, d=d) == d
        assert algebra.log_I(params, d) == pytest.approx(math.log(d), rel=1e-15, abs=1e-15)


def test_p6_is_arccosh():
    params = Params(6.0, 3.0)
    for d in (1e-12, 0.4, 2.0, 1e5, 1e150):
        want = math.log1p(d + math.sqrt(d * (d + 2.0)))
        assert algebra.I_of_t(params, d=d) == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("p", [6.5, 8.0, 11.0, 16.0])
def test_infinite_endpoint_is_half_beta(p):
    a, b = 2.0 / (p - 2.0), (p - 6.0) / (2.0 * (p - 2.0))
    assert algebra.I_of_t(Params(p, 3.0), d=math.inf) == pytest.approx(
        float(mp.beta(a, b)) / 2.0, rel=1e-14)


@pytest.mark.parametrize("p", [2.5, 3.0, 4.5, 5.999, 6.0, 8.0, 12.0])
@pytest.mark.parametrize("t", [1.0 + 1e-6, 1.3, 2.0, 2.5, 40.0, 3e4])
def test_closed_form_matches_quadrature_oracle(p, t):
    params = Params(p, 3.0)
    quad, err = algebra.I_of_t_quadrature(params, d=t - 1.0)
    assert algebra.I_of_t(params, d=t - 1.0) == pytest.approx(quad, rel=1e-10, abs=err)


# every function of the branch coordinate, with the arguments it takes before d
BRANCH_FUNCTIONS = {
    "I_of_t": (algebra.I_of_t, ()),
    "I_of_t_quadrature": (algebra.I_of_t_quadrature, ()),
    "h_of_t": (algebra.h_of_t, ()),
    "mass_of_t": (massmap.mass_of_t, ()),
    "branch_point_from_t": (stationary.branch_point_from_t, (0.5,)),
}


def _at_infinity(name: str, params: Params):
    """The value at d = inf (t = inf): I(inf) for p > 6, mu0 for p < 6, None where refused."""
    if name in ("I_of_t", "I_of_t_quadrature") and params.p > 6.0:
        return algebra.half_beta(params)
    if name == "mass_of_t" and params.p < 6.0:
        return algebra.mu0(params)
    return None


@pytest.mark.parametrize("name", list(BRANCH_FUNCTIONS))
def test_branch_offset_is_checked(name):
    fn, args = BRANCH_FUNCTIONS[name]
    for params in (Params(5.0, 3.0), Params(8.0, 3.0)):
        for d in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="branch offset"):
                fn(params, *args, d=d)
        with pytest.raises(TypeError):
            fn(params, *args, 2.0)   # the coordinate is the keyword d alone
        want = _at_infinity(name, params)
        if want is None:
            with pytest.raises(ValueError):
                fn(params, *args, d=math.inf)
        else:
            got = fn(params, *args, d=math.inf)
            assert (got[0] if name == "I_of_t_quadrature" else got) == pytest.approx(
                want, rel=1e-10)


def test_mass_curve_samples_are_mass_of_t():
    params = Params(4.0, 3.5)
    curve = massmap.mass_curve(params, n=64, y_lo=-20.0, y_hi=20.0)
    for y, (t, mu, sign) in zip(np.linspace(-20.0, 20.0, 64), curve.samples):
        d = math.exp(y)
        assert t == 1.0 + d
        assert mu == massmap.mass_of_t(params, d=d)
        assert sign == (-1 if y < 0.0 else 1)   # the minimum of (4, 3.5) is at t = 2


@pytest.mark.parametrize("p, q", [(2.7, 3.4), (8.0, 4.5)])
def test_mass_curve_spans_the_double_range(p, q):
    curve = massmap.mass_curve(Params(p, q), n=512, y_lo=-700.0, y_hi=350.0)
    mus = [mu for _, mu, _ in curve.samples]
    assert all(mu > 0.0 and not math.isnan(mu) for mu in mus)   # finite or inf
