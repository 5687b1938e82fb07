"""The helpers behind single checks of the verification battery."""

import numpy as np
import pytest

from deltanls import energy, oracle, stationary, verification
from deltanls.params import Params, Region, classify

P425 = Params(4.0, 2.5)
P83 = Params(8.0, 3.0)
P84 = Params(8.0, 4.0)
PD16 = Params(16.0, 9.0)


def test_gn_margin_on_profiles():
    pts = list(stationary.solve_for_lambda(P425, 3.0 / 128.0).points)
    pts.append(stationary.zero_frequency_point(P425))
    pts.extend(stationary.solve_for_lambda(PD16, 1.0).points)
    for pt in pts:
        assert verification._gn_margin(pt) >= 0.0


def test_first_integral_residual():
    pt = stationary.solve_for_lambda(P425, 3.0 / 128.0).points[1]
    xs = np.linspace(0.2, 40.0, 25)
    scale = pt.lam * pt.u0 ** 2 + (2.0 / 4.0) * pt.u0 ** 4
    assert verification._first_integral_residual(pt, xs) <= 1e-8 * scale


def test_region_partition_catches_a_mislabelled_region(monkeypatch):
    # classify answers C where the exponents lie in F: the check must fail
    def mislabel(params):
        region = classify(params)
        return Region.C if region is Region.F else region

    monkeypatch.setattr(verification, "classify", mislabel)
    result = verification.check_region_partition()
    assert not result.passed
    assert "memberships ['F'], classified C" in result.detail


def test_multiplier_consistency_examples():
    assert verification._multiplier_consistency(P425, 0.3, 1e-3) <= 1e-5
    assert verification._multiplier_consistency(P83, 1.0, 1e-3) <= 1e-5
    with pytest.raises(ValueError):
        verification._multiplier_consistency(P84, 1.0, 1e-3)  # no minimizer below 2


def test_unboundedness_probe_descends():
    for p, q, mu in ((3.0, 5.0, 1.0), (5.0, 4.0, 3.0), (4.0, 6.0, 1.0)):
        e = verification._probe_min_energy(Params(p, q), mu)
        assert e < oracle.FLOW_DIVERGENCE_FLOOR, (p, q, e)
        assert e < -1e6


def test_unboundedness_probe_bounded():
    eA = verification._probe_min_energy(P425, 1.0)
    assert not eA < oracle.FLOW_DIVERGENCE_FLOOR
    # trial energies bound the level curve from above
    assert eA >= energy.groundstate_energy(P425, 1.0).value - 1e-9
    for params, mu in ((Params(8.0, 4.5), 1.0), (P84, 1.5)):
        assert not verification._probe_min_energy(params, mu) < oracle.FLOW_DIVERGENCE_FLOOR
