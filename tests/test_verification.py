"""The helpers behind single checks of the verification battery."""

import math

import numpy as np
import pytest

from deltanls import energy, massmap, oracle, stationary, verification
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
        assert verification._gn_margin(pt)[0] >= 0.0


def test_gn_margin_agrees_with_the_gate_and_closed_form_route():
    # the route before Gauss-Legendre: the mass from the profile-mass gate
    # (adaptive quad at rtol 1e-10), ||u'||^2 twice the closed-form kinetic
    # term.  The margin cancels up to five digits of the norm product, and
    # the gate is 7e-13 off at p = 8 and 16, so the routes are compared
    # relative to that product
    points = [pt for _, pt in verification._oracle_points()]
    points.append(stationary.zero_frequency_point(P425))
    points.extend(stationary.solve_for_lambda(Params(4.0, 3.5), 1.0).points)
    assert len(points) == 16   # the states of gn-inequality
    for pt in points:
        grad_sq = 2.0 * stationary.branch_energy(pt).kinetic
        product = math.sqrt(massmap.profile_mass_quadrature(pt) * grad_sq)
        margin, estimate = verification._gn_margin(pt)
        assert abs(margin - (product - pt.u0 ** 2)) <= 1e-10 * product, pt
        assert estimate <= 1e-12


def test_gn_check_fails_on_a_large_estimate_or_a_negative_margin(monkeypatch):
    real = oracle.profile_functional
    monkeypatch.setattr(oracle, "profile_functional",
                        lambda point, L: (*real(point, L)[:2], 2e-12))
    result = verification.check_gn_inequality()
    assert not result.passed
    failures = result.detail.split(" | FAILURES: ", 1)[1].split("; ")
    assert len(failures) == 16
    assert all(failure.endswith(": estimate=2e-12 (bound 1e-12)") for failure in failures)

    def quarter_mass(point, L):
        # halves the norm product, which puts it below u(0)^2 everywhere
        mass, eb, estimate = real(point, L)
        return 0.25 * mass, eb, estimate

    monkeypatch.setattr(oracle, "profile_functional", quarter_mass)
    result = verification.check_gn_inequality()
    assert not result.passed
    failures = result.detail.split(" | FAILURES: ", 1)[1].split("; ")
    assert len(failures) == 16
    assert all(": margin=-" in failure and failure.endswith("(bound 0)")
               for failure in failures)


def test_gn_check_reads_no_profile_mass_gate(monkeypatch):
    def refuse(point):
        raise AssertionError("gn-inequality called the profile-mass gate")

    monkeypatch.setattr(massmap, "profile_mass_quadrature", refuse)
    assert verification.check_gn_inequality().passed


def test_first_integral_residual():
    pt = stationary.solve_for_lambda(P425, 3.0 / 128.0).points[1]
    xs = np.linspace(0.2, 40.0, 25)
    # relative to the scale lam u0^2 + (2/p) u0^p of its terms
    assert verification._first_integral_residual(pt, xs) <= 1e-8


def test_region_partition_catches_a_mislabelled_region(monkeypatch):
    # classify answers C where the exponents lie in F: the check must fail
    def mislabel(params):
        region = classify(params)
        return Region.C if region is Region.F else region

    monkeypatch.setattr(verification, "classify", mislabel)
    result = verification.check_region_partition()
    assert not result.passed
    failures = result.detail.split(" | FAILURES: ", 1)[1].split("; ")
    assert all("memberships ['F'], classified C" in f for f in failures[:3])
    assert failures[3].startswith("10000 samples: misclassified=")
    assert failures[3].endswith(" (bound 0)")


def test_oracle_check_fails_on_a_nan_sup_distance(monkeypatch):
    # Python's max(0, nan) is 0, so a running maximum would pass a NaN figure
    monkeypatch.setattr(oracle, "shooting_sup_distance", lambda point, res: math.nan)
    result = verification.check_oracle_equivalence()
    assert not result.passed
    sup = result.margins[0]
    assert (sup.metric, math.isnan(sup.value), sup.bound, sup.sense) == ("sup", True, 1e-6, "<=")
    failures = result.detail.split(" | FAILURES: ", 1)[1].split("; ")
    assert len(failures) == 14
    assert all(failure.endswith(": sup=nan (bound 1e-06)") for failure in failures)


def test_multiplier_check_fails_on_a_nan_residual(monkeypatch):
    monkeypatch.setattr(verification, "_multiplier_consistency",
                        lambda params, mu, step: math.nan)
    result = verification.check_multiplier_identity()
    assert not result.passed
    assert [(g.metric, math.isnan(g.value), g.bound, g.sense) for g in result.margins] \
        == [("residual", True, 1e-5, "<=")]
    assert result.detail.startswith("10 masses; residual=nan (bound 1e-05) | FAILURES: ")


def test_multiplier_consistency_examples():
    assert verification._multiplier_consistency(P425, 0.3, 1e-3) <= 1e-5
    assert verification._multiplier_consistency(P83, 1.0, 1e-3) <= 1e-5
    # near q = 4 in F, lambda = 1.55e9 at this mass: the slope's residual is
    # 8.2 absolute but 1.1e-8 of lambda/2, and the bound is relative there
    PF = Params(4.8301, 3.9207)
    assert energy.groundstate_energy(PF, 3.19).lam > 1e9
    assert verification._multiplier_consistency(PF, 3.19, 1e-3 * 3.19) <= 1e-5
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
