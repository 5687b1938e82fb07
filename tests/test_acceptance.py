"""Acceptance battery: one test per release criterion, each printing a
pass/fail line.  Every criterion delegates to the verification module, whose
checks recompute expected values from exact arithmetic or an independent
numerical route at the stated tolerances."""

import time

from deltanls import verification


def _run(check, label, budget=None):
    t0 = time.perf_counter()
    result = check()
    elapsed = time.perf_counter() - t0
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] {label} ({elapsed:.2f}s): {result.detail}")
    assert result.passed, result.detail
    if budget is not None:
        assert elapsed < budget, f"{label} took {elapsed:.1f}s (budget {budget}s)"


def test_criterion_01_exact_branch_regression_region_A():
    _run(verification.check_exact_branch_regression,
         "criterion 1: exact branch regression (region A)", budget=1.0)


def test_criterion_02_multiplicity_window_region_F():
    _run(verification.check_multiplicity_window,
         "criterion 2: multiplicity window (region F)", budget=5.0)


def test_criterion_03_mass_two_threshold():
    _run(verification.check_mass_two_threshold,
         "criterion 3: mass-2 threshold (regions G/H)")


def test_criterion_04_diagonal_regime():
    _run(verification.check_diagonal_regime, "criterion 4: diagonal regime")


def test_criterion_05_oracle_equivalence():
    _run(verification.check_oracle_equivalence,
         "criterion 5: oracle equivalence", budget=10.0)


def test_criterion_06_energy_level_shape():
    _run(verification.check_energy_level_shape,
         "criterion 6: energy-level shape")


def test_criterion_07_multiplier_identity():
    _run(verification.check_multiplier_identity,
         "criterion 7: multiplier identity")


def test_criterion_08_unboundedness_probes():
    _run(verification.check_unboundedness_probes,
         "criterion 8: unboundedness probes", budget=10.0)


def test_criterion_09_gagliardo_nirenberg_gate():
    _run(verification.check_gn_inequality,
         "criterion 9: peak-norm inequality gate")


def test_criterion_10_monotonicity_contract():
    _run(verification.check_mass_monotonicity,
         "criterion 10: mass-map monotonicity contract")


def test_criterion_11_region_partition():
    _run(verification.check_region_partition,
         "criterion 11: the nine regions tile the quadrant", budget=5.0)
