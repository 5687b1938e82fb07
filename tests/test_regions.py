"""Cross-region behavioral contracts: existence windows, multiplicities and
level-curve signs in the regions not exercised by the headline examples."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from deltanls import algebra, energy, massmap, stationary, verification
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


def _region_pairs(seed: int) -> list[tuple[str, Params]]:
    """Two pairs in each of the regions A-H, each coordinate drawn from the
    middle 80% of its range, so no pair lies next to a region line."""
    rng = np.random.default_rng(seed)
    u = lambda lo, hi: float(lo + (hi - lo) * rng.uniform(0.1, 0.9))
    out = []
    for _ in range(2):
        p = u(2.5, 5.5)
        out.append(("A", Params(p, u(2.0, p / 2.0 + 1.0))))
        out.append(("B", Params(u(6.0, 14.0), u(2.0, 4.0))))
        p = u(6.5, 14.0)
        out.append(("C", Params(p, u(4.0, p / 2.0 + 1.0))))
        p = u(6.0, 14.0)
        out.append(("D", Params(p, u(p / 2.0 + 1.0, p / 2.0 + 4.0))))
        out.append(("E", Params(u(2.5, 5.5), u(4.0, 8.0))))
        p = u(2.5, 5.5)
        out.append(("F", Params(p, u(p / 2.0 + 1.0, 4.0))))
        out.append(("G", Params(u(2.5, 5.5), 4.0)))
        out.append(("H", Params(u(6.5, 14.0), 4.0)))
    return out


PAIRS = _region_pairs(2029)   # seed fixed before the first run


def _thresholds(tag: str, params: Params) -> dict[str, float]:
    """The masses at which the paper's statement for the region changes."""
    if tag in "AE":
        return {"mu0": algebra.mu0(params)}
    if tag == "G":
        return {"two": 2.0, "mu0": algebra.mu0(params)}
    if tag == "H":
        return {"two": 2.0}
    if tag in "CF":
        th = {"mu_min": massmap.branch_minimum(params).mass,
              "mu_tilde": energy.zero_level_mass(params)}
        if tag == "F":
            th["mu0"] = algebra.mu0(params)
        return th
    return {}


def _expected(tag: str, th: dict[str, float], mu: float) -> tuple[Attainment, set, int]:
    """(flag, allowed branch ids, state count) the paper gives at mass mu:
    A the branch below mu0 and the plateau above; B attained; C and F no
    state below mu_min, two above (one past mu0 in F), level 0 up to mu_tilde
    and negative past it; D and E minus infinity (E's states end at mu0); G
    0 up to 2 and minus infinity past it, states on (2, mu0]; H no state
    below 2, attained above."""
    vanishing = (Attainment.NOT_ATTAINED, {"vanishing"})
    unbounded = (Attainment.MINUS_INFINITY, {"none"})
    if tag == "A":
        below = mu < th["mu0"]
        return (Attainment.ATTAINED, {"only"}, 1) if below \
            else (Attainment.NOT_ATTAINED, {"plateau"}, 0)
    if tag == "B":
        return Attainment.ATTAINED, {"only"}, 1
    if tag == "D":
        return (*unbounded, 1)
    if tag == "E":
        return (*unbounded, int(mu < th["mu0"]))
    if tag == "G":
        return (*(vanishing if mu < 2.0 else unbounded), int(2.0 < mu < th["mu0"]))
    if tag == "H":
        return (Attainment.ATTAINED, {"only"}, 1) if mu > 2.0 else (*vanishing, 0)
    count = 0 if mu < th["mu_min"] else 1 if tag == "F" and mu > th["mu0"] else 2
    if mu < th["mu_tilde"]:
        return (*vanishing, count)
    return Attainment.ATTAINED, {"only"} if count == 1 else {"lower", "upper"}, count


@pytest.mark.parametrize("tag, params", PAIRS, ids=lambda v: str(v))
def test_level_and_states_at_each_threshold_edge(tag, params):
    assert classify(params) is Region(tag)
    th = _thresholds(tag, params)
    edges = [t * f for t in th.values() for f in (1.0 - 1e-6, 1.0 + 1e-6)]
    scale = list(th.values()) + [1.0]
    ladder = np.geomspace(min(scale) / 4.0, 4.0 * max(scale), 6).tolist()
    for mu in edges + ladder:
        flag, ids, count = _expected(tag, th, mu)
        sample = energy.groundstate_energy(params, mu)
        got = (sample.flag, sample.branch_id, len(massmap.normalized_solutions(params, mu)))
        assert got[0] is flag and got[1] in ids and got[2] == count, (mu, th, got)
        if flag is Attainment.ATTAINED:
            assert sample.value < 0.0, (mu, sample)
        elif flag is Attainment.NOT_ATTAINED and "vanishing" in ids:
            assert sample.value == 0.0, (mu, sample)


@pytest.mark.parametrize("p, states, flag", [
    (5.0, 0, Attainment.NOT_ATTAINED),   # level 0 below p = 6
    (7.0, 0, Attainment.UNKNOWN),        # open from p = 6, no states up to p = 8
    (10.0, 1, Attainment.UNKNOWN),       # one state at every mass past p = 8
])
def test_diagonal_level_and_states_on_a_ladder(p, states, flag):
    params = Params(p, p / 2.0 + 1.0)
    for mu in (0.05, 0.3, 1.0, 2.5, 7.0, 40.0):
        sample = energy.groundstate_energy(params, mu)
        assert sample.flag is flag
        assert sample.branch_id == ("vanishing" if flag is Attainment.NOT_ATTAINED else "none")
        assert sample.value == (0.0 if flag is Attainment.NOT_ATTAINED else None)
        assert len(massmap.normalized_solutions(params, mu)) == states
        assert len(sample.candidates) == (states if flag is Attainment.UNKNOWN else 0)


def test_level_slope_is_minus_half_the_multiplier_on_the_minimizing_branch():
    # dE/dmu = -lambda/2 as a property over B, C, F and H, at masses on the
    # minimizing branch at least 1% from every threshold, to the
    # multiplier-identity check's bound: 1e-5 of max(1, lambda/2)
    rng = np.random.default_rng(2030)   # seed fixed before the first run
    worst = 0.0
    for tag, params in PAIRS:
        if tag not in "BCFH":
            continue
        th = _thresholds(tag, params)
        # the level is attained from mu_tilde on in C and F and past 2 in H
        lo = {"B": 0.3, "H": 1.01 * 2.0}.get(tag) or 1.01 * th["mu_tilde"]
        masses = []
        while len(masses) < 4:
            mu = float(lo * np.exp(rng.uniform(0.0, math.log(20.0))))
            if all(abs(mu / t - 1.0) >= 0.01 for t in th.values()):
                masses.append(mu)
        for mu in masses:
            sample = energy.groundstate_energy(params, mu)
            assert sample.flag is Attainment.ATTAINED, (params, mu)
            resid = verification._multiplier_consistency(params, mu, 1e-3 * mu)
            worst = max(worst, resid)
    assert worst <= 1e-5
