import math

import numpy as np
import pytest
from scipy.integrate import quad

from deltanls import algebra, energy, massmap, stationary
from deltanls.energy import Attainment
from deltanls.params import Params, Region, classify

P425 = Params(4.0, 2.5)
P435 = Params(4.0, 3.5)
P83 = Params(8.0, 3.0)
P84 = Params(8.0, 4.0)
PD16 = Params(16.0, 9.0)


def quad_energy(point, upper):
    """Independent energy pieces by piecewise adaptive quadrature."""
    p, q = point.params.p, point.params.q
    du2 = lambda x: stationary.profile_derivative(point, x) ** 2
    up = lambda x: stationary.profile(point, x) ** p
    cuts = [c for c in (0.0, 10.0, 1e3, upper) if c <= upper]
    if cuts[-1] != upper:
        cuts.append(upper)
    kin = blk = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        kin += quad(du2, lo, hi, epsabs=1e-12, epsrel=1e-9, limit=400)[0]
        blk += (2.0 / p) * quad(up, lo, hi, epsabs=1e-12, epsrel=1e-9, limit=400)[0]
    pnt = stationary.profile(point, 0.0) ** q / q
    return kin, blk, pnt


def test_branch_energy_against_quadrature():
    pt = stationary.solve_for_lambda(P425, 3.0 / 128.0).points[1]
    kin, blk, pnt = quad_energy(pt, 60.0 / math.sqrt(pt.lam))
    eb = energy.branch_energy(pt)
    assert eb.kinetic == pytest.approx(kin, rel=1e-8)
    assert eb.bulk == pytest.approx(blk, rel=1e-8)
    assert eb.point == pytest.approx(pnt, rel=1e-12)
    assert eb.total == pytest.approx(kin + blk - pnt, rel=1e-6)
    assert eb.total == eb.kinetic + eb.bulk - eb.point


def test_branch_energy_zero_frequency_against_quadrature():
    pt = stationary.zero_frequency_point(P425)
    # algebraic tails: integrate far out and add nothing (integrands ~ x^-4)
    kin, blk, pnt = quad_energy(pt, 1e6)
    eb = energy.branch_energy(pt)
    assert eb.kinetic == pytest.approx(kin, rel=1e-6)
    assert eb.bulk == pytest.approx(blk, rel=1e-6)
    assert eb.point == pytest.approx(pnt, rel=1e-12)
    # zero-frequency states have kinetic = bulk (pointwise first integral)
    assert eb.kinetic == pytest.approx(eb.bulk, rel=1e-12)


def test_branch_energy_nonnegative_components():
    for lam in (0.001, 0.01, 0.02):
        for pt in stationary.solve_for_lambda(P425, lam).points:
            eb = energy.branch_energy(pt)
            assert eb.kinetic >= 0.0 and eb.bulk >= 0.0 and eb.point >= 0.0


def test_diagonal_energy_positive_and_reduced_form():
    # on the diagonal the point piece cancels the block terms exactly,
    # leaving prefactor * (p-6)/(p-2) * I(t) > 0 for p > 8
    for p in (10.0, 12.0, 16.0):
        params = Params(p, p / 2.0 + 1.0)
        for lam in (0.1, 1.0, 10.0):
            pt = stationary.solve_for_lambda(params, lam).points[0]
            eb = energy.branch_energy(pt)
            assert eb.total > 0.0
            pref = 2.0 ** ((p - 4.0) / (p - 2.0)) * p ** (2.0 / (p - 2.0)) \
                * lam ** ((p + 2.0) / (2.0 * (p - 2.0))) / (p + 2.0)
            reduced = pref * (p - 6.0) / (p - 2.0) * algebra.I_of_t(params, d=pt.d)
            assert eb.total == pytest.approx(reduced, rel=1e-10)


def test_multiplier_identity_on_branches():
    for params, lam in ((P425, 3.0 / 128.0), (P83, 0.04), (P435, 1.0), (PD16, 1.0)):
        for pt in stationary.solve_for_lambda(params, lam).points:
            mass = massmap.profile_mass_quadrature(pt)
            # lambda mu = u0^q - ||u'||^2 - ||u||_p^p on every branch state
            e = energy.branch_energy(pt)
            q, p = params.q, params.p
            lam_from_energy = (q * e.point - 2.0 * e.kinetic - p * e.bulk) / mass
            assert abs(pt.lam - lam_from_energy) <= 1e-6 * max(pt.lam, 1e-3)


def test_peak_bound_in_lower_strip():
    # u0^(p+2-2q) <= p/8 whenever q < p/2 + 1 and lambda >= 0
    cases = [(P425, 0.01), (P425, 3.0 / 128.0), (P83, 0.04), (P84, 0.02),
             (Params(8.0, 4.5), 0.005)]
    for params, lam in cases:
        for pt in stationary.solve_for_lambda(params, lam).points:
            p, q = params.p, params.q
            assert p / 8.0 - pt.u0 ** (p + 2.0 - 2.0 * q) >= 0.0


def test_groundstate_region_A_plateau():
    plateau = energy.groundstate_energy(P425, math.sqrt(2.0))
    assert plateau.flag is Attainment.ATTAINED
    assert plateau.lam == 0.0
    for mu in (1.5, 2.0, 3.0):
        s = energy.groundstate_energy(P425, mu)
        assert s.flag is Attainment.NOT_ATTAINED
        assert s.branch_id == "plateau"
        assert s.value == pytest.approx(plateau.value, abs=1e-8)
        assert s.lam == 0.0
    below = energy.groundstate_energy(P425, 0.5)
    assert below.flag is Attainment.ATTAINED and below.value < 0.0


def test_groundstate_region_H_small_mass_zero():
    for mu in (0.5, 1.5, 2.0):
        s = energy.groundstate_energy(P84, mu)
        assert s.value == 0.0
        assert s.flag is Attainment.NOT_ATTAINED
    s = energy.groundstate_energy(P84, 2.5)
    assert s.flag is Attainment.ATTAINED and s.value < 0.0


def test_groundstate_region_G_trichotomy():
    PG = Params(5.0, 4.0)
    s1 = energy.groundstate_energy(PG, 1.0)
    assert s1.value == 0.0 and s1.flag is Attainment.NOT_ATTAINED
    s3 = energy.groundstate_energy(PG, 3.0)
    assert s3.value is None and s3.flag is Attainment.MINUS_INFINITY


def test_groundstate_unbounded_regions():
    for params in (Params(3.0, 5.0), Params(8.0, 7.0)):
        s = energy.groundstate_energy(params, 1.0)
        assert s.flag is Attainment.MINUS_INFINITY and s.value is None


def test_groundstate_diagonal():
    s = energy.groundstate_energy(Params(4.0, 3.0), 1.0)
    assert s.value == 0.0 and s.flag is Attainment.NOT_ATTAINED
    s16 = energy.groundstate_energy(PD16, 1.0)
    assert s16.flag is Attainment.UNKNOWN and s16.value is None
    assert len(s16.candidates) == 1  # the positive-energy branch state is recorded


def test_curve_nonpositive_nonincreasing():
    for params, grid in ((P425, np.linspace(0.05, 3.0, 40)),
                         (P83, np.geomspace(0.05, 50.0, 40))):
        vals = [energy.groundstate_energy(params, mu).value for mu in grid]
        assert all(v <= 1e-15 for v in vals)
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_region_F_candidates_recorded():
    s = energy.groundstate_energy(P435, 5.0)
    assert s.flag is Attainment.ATTAINED
    assert len(s.candidates) == 2
    # both multiplier/energy pairs retained, minimizer is the falling branch
    energies = sorted(c[2] for c in s.candidates)
    assert s.value == pytest.approx(energies[0])


def _dipping_pairs(n: int, seed: int) -> list[Params]:
    """n pairs of regions C and F whose mass map dips to an interior minimum."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        if rng.random() < 0.5:   # C: p > 6, 4 < q < p/2 + 1
            p = float(rng.uniform(6.5, 14.0))
            lo, hi = 4.0, p / 2.0 + 1.0
        else:                    # F: p < 6, p/2 + 1 < q < 4
            p = float(rng.uniform(2.5, 5.5))
            lo, hi = p / 2.0 + 1.0, 4.0
        params = Params(p, float(lo + (hi - lo) * rng.uniform(0.1, 0.9)))
        y, _, depth = massmap.branch_minimum(params)
        if math.isfinite(y) and (depth is None or depth > 0.0):
            out.append(params)
    return out


def test_larger_frequency_state_is_the_ground_state_in_C_and_F():
    # dE/dmu = -lambda/2 on each piece of the mass map, and the pieces meet
    # at the branch minimum: of the two states at one mass, the one with the
    # larger lambda has the lower energy, and the level selects it.  The gap
    # E_other - E_ground has derivative (lambda_ground - lambda_other)/2 > 0,
    # so it grows strictly along the mass ladder
    seen = {Region.C: 0, Region.F: 0}
    for params in _dipping_pairs(30, 2027):   # seed fixed before the first run
        mu_min = massmap.branch_minimum(params).mass
        gaps = []
        for mu in np.geomspace(mu_min * (1.0 + 1e-6), 10.0 * mu_min, 6).tolist():
            sols = massmap.normalized_solutions(params, mu)
            if len(sols) != 2:
                continue
            seen[classify(params)] += 1
            ground, other = sorted(sols, key=lambda s: -s.point.lam)
            assert ground.energy < other.energy, (params, mu)
            gaps.append(other.energy - ground.energy)
            sample = energy.groundstate_energy(params, mu)
            if ground.energy <= 0.0:
                assert sample.flag is Attainment.ATTAINED
                assert (sample.value, sample.lam) == (ground.energy, ground.point.lam)
            else:   # every state costs positive energy: the level is 0
                assert sample.flag is Attainment.NOT_ATTAINED and sample.value == 0.0
        assert all(a < b for a, b in zip(gaps, gaps[1:])), (params, gaps)
    assert seen[Region.C] >= 50 and seen[Region.F] >= 10


def test_zero_level_mass():
    assert energy.zero_level_mass(P84) == 2.0
    assert energy.zero_level_mass(Params(5.0, 4.0)) == 2.0
    assert energy.zero_level_mass(P425) is None
    mt = energy.zero_level_mass(P435)
    thr = massmap.mass_threshold(P435)
    assert thr.mu_threshold < mt < algebra.mu0(P435)
    # the minimal branch energy changes sign at mt
    lo = min(s.energy for s in massmap.normalized_solutions(P435, mt * (1.0 - 1e-4)))
    hi = min(s.energy for s in massmap.normalized_solutions(P435, mt * (1.0 + 1e-4)))
    assert lo > 0.0 > hi


def test_energy_at_the_branch_minimum_is_positive():
    # zero_level_mass walks from the branch minimum (from t = 2 where F has
    # no dip) away from it, which finds the zero of E only where E > 0 there.
    # In F the zero-frequency energy E0 = 4 u0^2 (2q-p-2)/((p-2)(p+2) q a)
    # is positive, and the branch minimum lies above it.
    rng = np.random.default_rng(2121)
    refused = 0
    for region in [Region.C] * 150 + [Region.F] * 150:
        if region is Region.C:
            p = 6.0 + 8.0 * rng.random()
            q = 4.0 + (p / 2.0 - 3.0) * rng.random()
        else:
            p = 2.2 + 3.8 * rng.random()
            q = p / 2.0 + 1.0 + (3.0 - p / 2.0) * rng.random()
        params = Params(p, q)
        assert classify(params) is region, params
        y = massmap.branch_minimum(params).y
        try:   # next to the diagonal a state may lie beyond the double range
            # in F without a dip (y = inf) the zero-frequency state is the minimum
            states = [stationary.state_at_logd(params, y)] if math.isfinite(y) else []
            if region is Region.F:
                states.append(stationary.zero_frequency_point(params))
            pieces = [stationary.branch_energy(pt) for pt in states]
        except stationary.StateOutOfRange:
            refused += 1
            continue
        assert pieces[0].total > 0.0, params
        if region is Region.F:
            zero, eb = states[-1], pieces[-1]
            e0 = 4.0 * zero.u0 ** 2 * (2.0 * q - p - 2.0) / ((p - 2.0) * (p + 2.0) * q * zero.a)
            # the sum of the pieces is accurate to the size of the pieces
            assert abs(eb.total - e0) <= 1e-14 * (eb.kinetic + eb.bulk + eb.point), params
            assert pieces[0].total >= eb.total * (1.0 - 1e-12) and eb.total > 0.0, params
    assert refused <= 10


def test_scaling_estimate_strict_decrease_region_F():
    # past the zero-level mass, E(mu2) < (mu2/mu1)^(q/(4-q)) E(mu1)
    q = 3.5
    mt = energy.zero_level_mass(P435)
    mu1, mu2 = 1.2 * mt, 2.0 * mt
    e1 = energy.groundstate_energy(P435, mu1).value
    e2 = energy.groundstate_energy(P435, mu2).value
    assert e1 < 0.0
    assert e2 < (mu2 / mu1) ** (q / (4.0 - q)) * e1


def test_multiplier_vanishes_at_plateau_edge():
    lams = [energy.groundstate_energy(P425, mu).lam for mu in (0.8, 1.2, 1.40, 1.414)]
    assert all(a > b for a, b in zip(lams, lams[1:]))
    assert lams[-1] < 1e-3


def test_convexity_scan_region_A():
    rep = energy.convexity_scan(P425)
    # the curvature flip sits at the mass of the fold point, where the
    # multiplier peaks
    assert rep.lambda_peak_mass == pytest.approx(
        massmap.mass_of_t(P425, d=math.sqrt(2.0) - 1.0), rel=1e-12)
    assert abs(rep.mu_bar - rep.lambda_peak_mass) <= 2.0 * rep.crossing_gap


def test_convexity_scan_region_B():
    rep = energy.convexity_scan(P83)
    assert abs(rep.mu_bar - rep.lambda_peak_mass) <= 2.0 * rep.crossing_gap


def test_second_divided_differences_match_the_loop_bitwise():
    rng = np.random.default_rng(5)
    for mus in (np.geomspace(1e-2, 1e3, 400), np.sort(rng.uniform(0.1, 3.0, 97))):
        levels = -rng.uniform(0.0, 1.0, len(mus)).cumsum()
        want = np.empty(len(mus) - 2)
        for i in range(1, len(mus) - 1):
            left = (levels[i] - levels[i - 1]) / (mus[i] - mus[i - 1])
            right = (levels[i + 1] - levels[i]) / (mus[i + 1] - mus[i])
            want[i - 1] = 2.0 * (right - left) / (mus[i + 1] - mus[i - 1])
        got = energy.second_divided_differences(mus, levels)
        assert np.array_equal(got, want)


def test_convexity_scan_rejects_wrong_regime():
    with pytest.raises(ValueError):
        energy.convexity_scan(P435)
    with pytest.raises(ValueError):
        energy.convexity_scan(Params(5.0, 4.0))
