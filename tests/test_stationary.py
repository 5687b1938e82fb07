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


_LN2 = math.log(2.0)
PNEAR2 = Params(2.0 + 1e-4, 7.0)   # expo 2 / (p - 2) = 2e4


def _two_form_sinh_neg_pow(z, expo, scale):
    """(scale / sinh z)^expo with both closed forms formed on every entry
    and one kept: the direct power up to z = 20, the log form beyond."""
    z = np.asarray(z, dtype=float)
    big = z > 20.0
    direct = (scale / np.sinh(np.where(big, math.asinh(scale), z))) ** expo
    zb = np.where(big, z, 21.0)
    logsinh = zb - _LN2 + np.log1p(-np.exp(-2.0 * zb))
    return np.where(big, np.exp(expo * (math.log(scale) - logsinh)), direct)


def _two_form_profile(pt, x):
    p = pt.params.p
    ax = np.abs(np.asarray(x, dtype=float)) + pt.a
    kappa = 0.5 * (p - 2.0) * math.sqrt(pt.lam)
    out = _two_form_sinh_neg_pow(kappa * ax, 2.0 / (p - 2.0), math.sqrt(0.5 * p * pt.lam))
    return float(out) if np.ndim(x) == 0 else out


def _same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("p", [PNEAR2.p, 4.0, 16.0])
def test_profile_kernel_is_the_two_form_kernel_bit_for_bit(p):
    # scale near sinh(20) puts the values next to z = 20 at O(1); z_lo keeps
    # every direct power in double range.  The far side runs to z = 1000
    # through the band 354 < z < 372.5 where e^(-2z) is subnormal and past
    # the point where it is 0, against the reference's log1p(-e^(-2z)) term
    expo = 2.0 / (p - 2.0)
    scale = 1.0001 * math.sinh(20.0)
    z_lo = max(math.asinh(scale * math.exp(-700.0 / expo)), 1e-3)
    at = [math.nextafter(20.0, 0.0), 20.0, math.nextafter(20.0, math.inf)]
    small = np.concatenate([np.linspace(z_lo, 20.0, 37), at[:2]])
    big = np.concatenate([at[2:], np.linspace(20.0, 45.0, 41)[1:],
                          np.linspace(45.0, 1000.0, 193)[1:],
                          np.linspace(354.0, 372.5, 38)[1:-1]])
    mixed = np.concatenate([small, big])[np.random.default_rng(7).permutation(
        len(small) + len(big))]
    cases = [*at, *small[::6], *big[::6], np.array(20.0), np.array(35.0),
             small, big, mixed, np.array([]), mixed.reshape(2, -1)]
    for z in cases:
        got = stationary._sinh_neg_pow(z, expo, scale)
        assert _same_bits(got, _two_form_sinh_neg_pow(z, expo, scale)), (p, z)
    assert np.all(np.isfinite(stationary._sinh_neg_pow(mixed, expo, scale)))


@pytest.mark.parametrize("params,lam", [(PNEAR2, 1.0), (PNEAR2, 100.0), (PD16, 1.0),
                                        (P425, 3.0 / 128.0)])
def test_profile_is_the_two_form_profile_bit_for_bit(params, lam):
    for pt in stationary.solve_for_lambda(params, lam).points:
        kappa = 0.5 * (params.p - 2.0) * math.sqrt(pt.lam)
        x20 = 20.0 / kappa - pt.a   # z = 20 lies at x20 to rounding
        near = [x20]
        for _ in range(3):
            near = [math.nextafter(near[0], 0.0), *near, math.nextafter(near[-1], math.inf)]
        xs = np.concatenate([np.linspace(0.0, 2.0 * x20, 81), near])
        z = kappa * (np.abs(xs) + pt.a)
        assert z.min() < 20.0 < z.max()
        for x in (*xs[::4], *near, -x20, np.array(x20)):
            got = stationary.profile(pt, x)
            assert type(got) is float and _same_bits(got, _two_form_profile(pt, x)), x
        for x in (xs, -xs, xs[xs < x20], xs[xs > x20], xs[:0], np.array([x20])):
            assert _same_bits(stationary.profile(pt, x), _two_form_profile(pt, x)), x


def test_zero_frequency_profile_tail():
    # p = 4: u ~ c_p / x for large x
    pt = stationary.zero_frequency_point(P425)
    cp = math.exp(algebra.log_c_p(P425))
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
