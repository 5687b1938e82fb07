import math
import sys

import numpy as np
import pytest

from deltanls import discrete, oracle, stationary
from deltanls.params import Params

P425 = Params(4.0, 2.5)


def _sampled(L, n):
    """A branch state of region A on n+1 nodes of [0, L], L by default its
    domain in the oracle-equivalence check."""
    pt = stationary.solve_for_lambda(P425, 3.0 / 128.0).points[1]
    return oracle.sample_profile(pt, max(60.0, 30.0 / math.sqrt(pt.lam)) if L is None else L, n)


def _undecayed(values):
    """A profile that has not decayed at L, on a grid of step 0.01."""
    n = len(values) - 1
    return discrete.GridProfile(0.01 * n, n, values)


#: name -> (profile, its exact (mass, kinetic, bulk, point) or None)
CASES = {
    # oracle-equivalence's former fine grid
    "sampled-800000": lambda: (_sampled(None, 800000), None),
    # the flow's 1,501-node grids
    "sampled-1500": lambda: (_sampled(50.0, 1500), None),
    **{f"ones-{nodes}": lambda nodes=nodes: (
        _undecayed(np.ones(nodes)),
        (0.02 * (nodes - 1), 0.0, (2.0 / P425.p) * 0.01 * (nodes - 1), 1.0 / P425.q))
       for nodes in (32768, 32769, 32770)},
    **{f"ramp-{nodes}": lambda nodes=nodes: (_undecayed(np.linspace(2.0, 1.0, nodes)), None)
       for nodes in (32768, 32769, 32770)},
}


@pytest.mark.parametrize("case", list(CASES))
def test_functional_is_the_whole_array_formulas(case):
    # each sum is one numpy reduction over the whole array, the last node of a
    # profile that has not decayed at L included; the trapezoid-weight
    # formulas are the reference to rounding
    profile, want = CASES[case]()
    u, h, p, q = profile.values, profile.h, P425.p, P425.q
    kinetic, bulk, point = discrete.grid_energy(P425, u, h)
    mass = discrete.discrete_mass(u, h)
    vsum = float(np.sum(np.abs(u) ** p)) - 0.5 * float(abs(u[0]) ** p + abs(u[-1]) ** p)
    assert (kinetic, bulk, point) == (float(np.sum(np.diff(u) ** 2)) / h,
                                      (2.0 / p) * h * vsum, abs(u[0]) ** q / q)
    assert mass == 2.0 * h * (float(np.dot(u, u)) - 0.5 * float(u[0] ** 2 + u[-1] ** 2))
    if want is not None:
        assert (mass, kinetic, bulk, point) == want
    w = np.full(len(u), h)
    w[0] = w[-1] = 0.5 * h
    bulk_ref = (2.0 / p) * float(np.sum(w * np.abs(u) ** p))
    assert mass == pytest.approx(2.0 * float(np.sum(w * u * u)), rel=1e-13)
    assert bulk == pytest.approx(bulk_ref, rel=1e-13)
    assert kinetic + bulk - point == pytest.approx(kinetic + bulk_ref - point, rel=1e-13)
    # functional_eval splits the same pieces
    eval_mass, eb = oracle.functional_eval(P425, profile)
    assert (eval_mass, eb.kinetic, eb.bulk, eb.point, eb.total) \
        == (mass, kinetic, bulk, point, kinetic + bulk - point)


@pytest.mark.parametrize("L, n", [(50.0, 1500), (5.0, 4000), (77.7, 800001)])
def test_grid_holds_the_flows_weights_and_stiffness(L, n):
    # 2W and K are the mass matrix of M_h and the Hessian of the kinetic
    # term: M_h(u) = u^T 2W u and kinetic = u^T K u / 2, K tridiagonal with
    # off-diagonal -2/h
    grid = discrete.Grid(L, n)
    h = L / n
    assert grid.h == h
    np.testing.assert_array_equal(grid.x, np.linspace(0.0, L, n + 1))
    two_w = np.full(n + 1, 2.0 * h)
    two_w[0] = two_w[-1] = h
    stiff = np.full(n + 1, 4.0 / h)
    stiff[0] = stiff[-1] = 2.0 / h
    got_two_w, got_stiff = grid.mass_and_stiffness()
    np.testing.assert_array_equal(got_two_w, two_w)
    np.testing.assert_array_equal(got_stiff, stiff)
    u = np.exp(-grid.x / 7.0) * (1.0 + 0.3 * np.cos(grid.x))
    k_u = stiff * u
    k_u[:-1] -= (2.0 / h) * u[1:]
    k_u[1:] -= (2.0 / h) * u[:-1]
    kinetic, _, _ = discrete.grid_energy(P425, u, h)
    assert discrete.discrete_mass(u, h) == pytest.approx(float(u @ (two_w * u)), rel=1e-13)
    assert kinetic == pytest.approx(0.5 * float(u @ k_u), rel=1e-11)


@pytest.mark.parametrize("params, mu, L, n, width", [
    (P425, 0.3, 200.0, 1500, 3.0),
    (Params(3.0, 5.0), 1.0, 5.0, 4000, 5.0 / 4000 * 10.0),   # probe-flow's seed
])
def test_masked_bulk_power_is_the_unmasked_one(params, mu, L, n, width):
    # seeds whose tails hold exact zeros and powers below tiny: the nodes
    # under tiny^(1/p) are not raised to the power p, and the bulk term is
    # bit for bit that of one unmasked power over the whole array
    u = discrete.make_initial_profile(mu, L, n, width=width).values
    h, p = L / n, params.p
    mag = np.abs(u)
    small = mag < sys.float_info.min ** (1.0 / p)
    assert small.any() and (u == 0.0).any()
    mag[small] = 0.0
    vsum = float(np.add.reduce(mag ** p)) - 0.5 * (abs(u[0]) ** p + abs(u[-1]) ** p)
    assert discrete.grid_energy(params, u, h)[1] == (2.0 / p) * h * vsum
