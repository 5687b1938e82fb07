"""Cross-region behavioral contracts: existence windows, multiplicities and
level-curve signs in the regions not exercised by the headline examples."""

import math

import pytest
from scipy.optimize import minimize_scalar

from deltanls import algebra, energy, massmap, stationary
from deltanls.energy import Attainment
from deltanls.params import Params, Region, classify

PG = Params(5.0, 4.0)    # region G
PC = Params(8.0, 4.5)    # region C
PD = Params(8.0, 6.0)    # region D
PE = Params(3.0, 4.5)    # region E


def test_region_G_window_with_exact_mu0():
    # for p=5, q=4 the zero-frequency mass is exactly 8
    assert algebra.mu0(PG) == pytest.approx(8.0, abs=1e-13)
    thr = massmap.mass_threshold(PG)
    assert thr.mu_threshold == pytest.approx(8.0, abs=1e-13)
    assert len(massmap.normalized_solutions(PG, 5.0)) == 1
    sols_top = massmap.normalized_solutions(PG, 8.0)
    assert len(sols_top) == 1 and sols_top[0].point.zero_frequency
    assert massmap.normalized_solutions(PG, 9.0) == []
    assert massmap.normalized_solutions(PG, 1.5) == []


def test_region_C_fold_and_window():
    assert classify(PC) is Region.C
    lb = stationary.lambda_bar(PC)
    assert lb is not None and lb > 0.0
    assert stationary.solve_for_lambda(PC, 0.5 * lb).count == 2
    assert stationary.solve_for_lambda(PC, 2.0 * lb).count == 0
    thr = massmap.mass_threshold(PC)
    # a bounded minimization of the mass map finds the same minimum
    y_min = massmap.branch_minimum(PC).y
    direct = minimize_scalar(lambda y: massmap.mass_of_t(PC, d=math.exp(y)),
                             bounds=(y_min - 0.5, y_min + 0.5), method="bounded",
                             options={"xatol": 1e-8})
    assert abs(direct.fun - thr.mu_threshold) < 1e-8
    # both branch ends blow up: every mass above the dip carries two states
    for factor in (1.2, 3.0, 20.0):
        assert len(massmap.normalized_solutions(PC, factor * thr.mu_threshold)) == 2
    assert massmap.normalized_solutions(PC, 0.9 * thr.mu_threshold) == []


def test_region_C_level_trichotomy():
    thr = massmap.mass_threshold(PC)
    mt = energy.zero_level_mass(PC)
    assert thr.mu_threshold < mt
    below = energy.groundstate_energy(PC, 0.5 * thr.mu_threshold)
    assert below.value == 0.0 and below.flag is Attainment.NOT_ATTAINED
    middle = energy.groundstate_energy(PC, 0.5 * (thr.mu_threshold + mt))
    assert middle.value == 0.0 and middle.flag is Attainment.NOT_ATTAINED
    assert len(middle.candidates) == 2  # states exist but cost positive energy
    past = energy.groundstate_energy(PC, 1.5 * mt)
    assert past.value < 0.0 and past.flag is Attainment.ATTAINED
    # bounded level for large masses (same mechanism as region B)
    tail = [energy.groundstate_energy(PC, m).value for m in (50.0, 500.0)]
    assert tail[0] > tail[1] > -1.0


def test_region_D_all_masses_one_state():
    assert classify(PD) is Region.D
    for lam in (0.1, 1.0, 10.0):
        assert stationary.solve_for_lambda(PD, lam).count == 1
    for mu in (0.05, 1.0, 30.0):
        assert len(massmap.normalized_solutions(PD, mu)) == 1
    assert energy.groundstate_energy(PD, 1.0).flag is Attainment.MINUS_INFINITY


def test_region_E_window_closes_at_mu0():
    assert classify(PE) is Region.E
    mu0 = algebra.mu0(PE)
    assert 2.0 < mu0 < 3.0
    assert len(massmap.normalized_solutions(PE, 0.5 * mu0)) == 1
    top = massmap.normalized_solutions(PE, mu0)
    assert len(top) == 1 and top[0].point.zero_frequency
    assert massmap.normalized_solutions(PE, 1.2 * mu0) == []
    # energy level is minus infinity everywhere despite existing states
    assert energy.groundstate_energy(PE, 0.5 * mu0).flag is Attainment.MINUS_INFINITY


def test_region_boundaries_next_to_lines():
    # existence rules flip across p = 6 at fixed q < 4
    just_below = massmap.mass_threshold(Params(6.0 - 1e-9, 3.0))
    just_at = massmap.mass_threshold(Params(6.0, 3.0))
    assert classify(Params(6.0 - 1e-9, 3.0)) is Region.A
    assert classify(Params(6.0, 3.0)) is Region.B
    assert just_below.mu_threshold is not None and just_at.mu_threshold is None


def test_diagonal_neighbourhood_is_discontinuous():
    # crossing the diagonal at p = 4 flips the fold structure
    below = Params(4.0, 3.0 - 1e-9)   # q < p/2 + 1: fold exists
    above = Params(4.0, 3.0 + 1e-9)   # q > p/2 + 1: one state at every lambda
    assert stationary.lambda_bar(below) is not None
    assert stationary.lambda_bar(above) is None
    assert stationary.solve_for_lambda(Params(4.0, 3.0), 1.0).count == 0
