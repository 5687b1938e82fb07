import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import pytest
from numpy._core._multiarray_umath import __cpu_features__

import deltanls
from deltanls import algebra, massmap, verification
from deltanls.cli import main
from deltanls.massmap import GateFailure
from deltanls.params import Params

#: numpy runs its AVX-512 (x86-64-v4) kernels, whose last digits of exp, log
#: and pow differ from those of the AVX2 kernels it runs on other x86-64 hosts
AVX512 = __cpu_features__.get("X86_V4", False)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_alone(*argv):
    """(exit code, stdout, stderr) of one command in a fresh interpreter."""
    src = str(pathlib.Path(deltanls.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "deltanls.cli", *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("calls", [
    (("solve", "--p", "4", "--q", "3.5", "--lambda", "0.01"),
     ("solve", "--p", "4", "--q", "3.5", "--mass", "5")),
    (("classify", "--p", "4", "--q", "2.5", "--format", "json"),
     ("classify", "--p", "4", "--q", "2.5")),
], ids=["lambda-then-mass", "json-then-default"])
def test_consecutive_calls_match_calls_made_alone(capsys, calls):
    # one parser serves every call of a process: no parsed value of a call
    # (--lambda, --format json) may reach the next
    together = [run(capsys, *argv) for argv in calls]
    assert together == [run_alone(*argv) for argv in calls]


def test_classify_text_output(capsys):
    code, out, _ = run(capsys, "classify", "--p", "4", "--q", "2.5")
    assert code == 0
    assert "region: A" in out
    assert "lambda_bar = 0.03125" in out
    assert "mu0 = 1.414213562373095" in out


def test_classify_diagonal_no_solutions(capsys):
    code, out, _ = run(capsys, "classify", "--p", "6", "--q", "4")
    assert code == 0
    assert "region: I" in out
    assert "no mass admits a solution" in out


def test_format_text_is_not_an_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--p", "4", "--q", "2.5", "--format", "text"])
    assert exc.value.code == 2


def test_classify_reports_a_refused_threshold_and_the_rest(capsys):
    # region F next to the diagonal: the zero-level state has ln(lambda) = 10397.6
    code, out, _ = run(capsys, "classify", "--p", "4.546140650772335",
                       "--q", "3.2731394255368302")
    assert code == 0
    assert "mu_threshold = inf" in out
    assert "mu_tilde = none  [refused: state outside double range: ln(lambda)" in out


def test_classify_invalid_exponents(capsys):
    code, _, err = run(capsys, "classify", "--p", "2", "--q", "3")
    assert code == 2
    assert "p > 2" in err


@pytest.mark.parametrize("p, q, label", [("4", "2.5", "closed-form"),
                                           ("8", "4", "limit-constant"),
                                           ("4", "3.5", "minimized")])
def test_classify_threshold_provenance(capsys, p, q, label):
    code, out, _ = run(capsys, "classify", "--p", p, "--q", q, "--format", "json")
    assert code == 0
    assert json.loads(out)["thresholds"]["provenance"]["mu_threshold"] == label


def test_classify_json_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "classify", "--p", "8", "--q", "3", "--format", "json")
    code2, out2, _ = run(capsys, "classify", "--p", "8", "--q", "3", "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["region"] == "B"
    assert doc["thresholds"]["mu_threshold"] is None


def test_solve_at_fixed_frequency(capsys):
    code, out, _ = run(capsys, "solve", "--p", "4", "--q", "2.5",
                       "--lambda", "0.0234375")
    assert code == 0
    header, *rows = out.splitlines()
    assert len(rows) == 2
    ts = sorted(float(r.split(",")[0]) for r in rows)
    assert ts[0] == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-9)
    assert ts[1] == pytest.approx(2.0, abs=1e-9)
    # the relative vertex residual stays within its contract
    col = header.split(",").index("vertex_residual_rel")
    for r in rows:
        assert float(r.split(",")[col]) <= 1e-8


def test_solve_at_fixed_mass_multiplicity(capsys):
    code, out, _ = run(capsys, "solve", "--p", "4", "--q", "3.5", "--mass", "5")
    assert code == 0
    rows = [l for l in out.splitlines() if l and not l.startswith(("#", "t,"))]
    assert len(rows) == 2


def test_solve_nonexistent_mass_explains(capsys):
    code, out, _ = run(capsys, "solve", "--p", "4", "--q", "2.5", "--mass", "2")
    assert code == 0
    rows = [l for l in out.splitlines() if l and not l.startswith(("#", "t,"))]
    assert rows == []
    assert "# note: no states at this mass" in out


@pytest.mark.parametrize("p,q,lam,reason", [
    ("8", "5", "1", "on the diagonal q = p/2 + 1 the matching level is constant; "
                    "states exist only for p > 8"),
    ("8", "3", "0", "zero-frequency states require p < 6 off the diagonal"),
    ("4", "2.5", "0.05", "frequency exceeds the fold value lambda_bar = 0.03125"),
], ids=["diagonal", "zero-frequency", "above-fold"])
def test_solve_nonexistent_frequency_explains(capsys, p, q, lam, reason):
    code, out, err = run(capsys, "solve", "--p", p, "--q", q, "--lambda", lam)
    assert code == 0 and err == ""
    assert out == ("t,lambda,a,u0,mass,kinetic,bulk,point,total,vertex_residual_rel\n"
                   f"# note: no states at this frequency: {reason}\n")


def test_solve_json_format(capsys):
    code, out, _ = run(capsys, "solve", "--p", "16", "--q", "9",
                       "--lambda", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 1
    assert doc["rows"][0][0] == pytest.approx(math.sqrt(2.0))


def test_curves_energy_plateau(tmp_path, capsys):
    out_file = tmp_path / "energy.csv"
    code, _, _ = run(capsys, "curves", "--p", "4", "--q", "2.5",
                     "--which", "energy", "--range", "0.2:3:15",
                     "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "mu,E,lambda,branch_id,flag"
    rows = [l.split(",") for l in lines[1:]]
    plateau_rows = [r for r in rows if r[3] == "plateau"]
    assert plateau_rows
    assert all(float(r[2]) == 0.0 for r in plateau_rows)
    vals = {float(r[1]) for r in plateau_rows}
    assert len(vals) == 1  # the level stays constant past mu0
    sidecar = json.loads((tmp_path / "energy.csv.json").read_text())
    assert sidecar["thresholds"]["mu_threshold"] == pytest.approx(math.sqrt(2.0))


def test_curves_energy_refusal(tmp_path, capsys):
    out_file = tmp_path / "bad.csv"
    code, _, _ = run(capsys, "curves", "--p", "3", "--q", "5",
                     "--which", "energy", "--out", str(out_file))
    assert code == 1
    assert not out_file.exists()
    refusal = json.loads((tmp_path / "bad.csv.refused.json").read_text())
    assert refusal["refused"] == "energy curve"
    assert "unbounded below" in refusal["reason"]


def test_curves_mass_refused_on_the_diagonal(tmp_path, capsys):
    out_file = tmp_path / "mass.csv"
    code, out, err = run(capsys, "curves", "--p", "8", "--q", "5",
                         "--which", "mass", "--out", str(out_file))
    assert (code, out, err) == (1, "", "")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["mass.csv.refused.json"]
    refusal = json.loads((tmp_path / "mass.csv.refused.json").read_text())
    assert refusal == {
        "refused": "mass-vs-t curve",
        "reason": ("the branch coordinate is frequency-independent on the diagonal "
                   "q = p/2 + 1; use `solve` at fixed frequency instead")}


def test_curves_malformed_range_is_invalid_input(tmp_path, capsys):
    code, out, err = run(capsys, "curves", "--p", "4", "--q", "2.5",
                         "--which", "mass", "--range", "1.5:3",
                         "--out", str(tmp_path / "c.csv"))
    assert code == 2
    assert out == "" and err == "error: expected --range a:b:n, got '1.5:3'\n"
    assert list(tmp_path.iterdir()) == []


def test_curves_mass_beyond_the_double_range_next_to_p_2(tmp_path, capsys):
    # mu/mu0 beyond the double range once raised an OverflowError out of
    # the mass map; every mass on this curve is beyond it, and is inf
    out_file = tmp_path / "mass.csv"
    code, out, err = run(capsys, "curves", "--p", "2.001", "--q", "2.0006",
                         "--which", "mass", "--range", "1.001:1000:40",
                         "--out", str(out_file))
    assert (code, out, err) == (0, "", "")
    lines = out_file.read_text().splitlines()
    assert lines[0] == "t,mu,h_sign" and len(lines) == 41
    assert all(line.split(",")[1] == "inf" for line in lines[1:])
    sidecar = json.loads((tmp_path / "mass.csv.json").read_text())
    assert sidecar["region"] == "F" and sidecar["thresholds"]["mu0"] == math.inf


def test_curves_mass_region_H(tmp_path, capsys):
    out_file = tmp_path / "mass.csv"
    code, _, _ = run(capsys, "curves", "--p", "8", "--q", "4",
                     "--which", "mass", "--range", "1.0001:500:60",
                     "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "t,mu,h_sign"
    mus = [float(l.split(",")[1]) for l in lines[1:]]
    assert all(m > 2.0 for m in mus)
    assert all(a < b for a, b in zip(mus, mus[1:]))
    assert all(int(l.split(",")[2]) == 1 for l in lines[1:])


def test_curves_outputs_are_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run(capsys, "curves", "--p", "4", "--q", "3.5",
                         "--which", "mass", "--range", "1.01:50:40",
                         "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv.json").read_bytes() == (tmp_path / "b.csv.json").read_bytes()


def test_curves_default_output_honors_env_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DELTANLS_OUT", str(tmp_path))
    code, _, _ = run(capsys, "curves", "--p", "4", "--q", "2.5",
                     "--which", "energy", "--range", "0.5:1:3")
    assert code == 0
    produced = sorted(p.name for p in tmp_path.iterdir())
    assert produced == ["energy_p4_q2.5.csv", "energy_p4_q2.5.csv.json"]


@pytest.mark.parametrize("which", ["energy", "mass"])
def test_curves_empty_range_is_invalid_input(tmp_path, capsys, which):
    # n = 0 once gave a header-only CSV (mass) or a false refusal (energy)
    code, out, err = run(capsys, "curves", "--p", "4", "--q", "2.5",
                         "--which", which, "--range", "1.5:3:0",
                         "--out", str(tmp_path / "c.csv"))
    assert code == 2
    assert out == "" and err == "error: --range needs n >= 1 samples, got 0\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (("classify", "--p", "inf", "--q", "3"), "need finite p and q, got p=inf, q=3.0"),
    (("classify", "--p", "4", "--q", "inf"), "need finite p and q, got p=4.0, q=inf"),
    (("curves", "--p", "inf", "--q", "3", "--which", "mass"),
     "need finite p and q, got p=inf, q=3.0"),
    (("solve", "--p", "4", "--q", "2.5", "--lambda", "nan"), "need a finite lambda, got nan"),
    (("solve", "--p", "8", "--q", "3", "--mass", "inf"), "need a finite mu > 0, got inf"),
    (("curves", "--p", "4", "--q", "2.5", "--which", "energy", "--range", "0.1:inf:5"),
     "--range needs finite end points, got '0.1:inf:5'"),
], ids=["p-inf", "q-inf", "curves-p-inf", "lambda-nan", "mass-inf", "range-inf"])
def test_non_finite_input_is_refused_by_name(tmp_path, capsys, argv, message):
    # these once gave a nan branch offset (exit 2), mu0 = inf (exit 0), a
    # float-to-int error, "state outside double range" (exit 4), "no states
    # at this mass", and a numpy RuntimeWarning ahead of the error line; a
    # warning now is an error, so it cannot reach stderr unseen
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv, "--out", str(tmp_path / "out.csv"))
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (("solve", "--p", "4", "--q", "2.5", "--lambda", "-1e-3"),
     "no stationary states exist for lambda < 0"),
    (("solve", "--p", "4", "--q", "2.5", "--lambda", "-inf"), "need a finite lambda, got -inf"),
    (("solve", "--p", "4", "--q", "2.5", "--mass", "-1e3"), "need a finite mu > 0, got -1000.0"),
    (("classify", "--p", "-1e3", "--q", "3"), "need p > 2 and q > 2, got p=-1000.0, q=3.0"),
    (("curves", "--p", "4", "--q", "2.5", "--which", "energy", "--range", "-1:2:3"),
     "need a finite mu > 0, got -1.0"),
], ids=["lambda-exponent", "lambda-minus-inf", "mass-exponent", "p-exponent", "range"])
def test_negative_value_given_as_its_own_argument_is_read(tmp_path, capsys, argv, message):
    # argparse once took each of these values for an option and exited 2
    # with its usage block and "expected one argument"; each now gets the
    # refusal its --option=value form gets
    k = next(i for i, a in enumerate(argv) if a.startswith("-") and not a.startswith("--"))
    joined = argv[:k - 1] + (f"{argv[k - 1]}={argv[k]}",) + argv[k + 1:]
    for args in (argv, joined):
        code, out, err = run(capsys, *args, "--out", str(tmp_path / "out.csv"))
        assert (code, out, err) == (2, "", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


def test_huge_q_reads_the_finite_mass_map(capsys):
    # the mass-map exponents once overflowed from about q = 5e307: mu0 = inf,
    # and solve --mass refused by name at 5e307 (the overflowed mu0 asked for
    # t - 1 below 2.2e-308) but found no states at 1e308; mu0 tends to 2^1.5
    code, out, _ = run(capsys, "classify", "--p", "4", "--q", "1e308")
    assert code == 0
    assert "mu0 = 2.8284271247461903  [closed-form]\n" in out
    rows = []
    for q in ("2e307", "5e307", "1e308"):
        code, out, err = run(capsys, "solve", "--p", "4", "--q", q, "--mass", "1")
        assert (code, err) == (0, "")
        rows.append(out.splitlines()[1].split(",")[:5])   # t, lambda, a, u0, mass
    assert rows[0] == rows[1] == rows[2]


@pytest.mark.parametrize("q, residual", [
    ("1e12", "0.00013758276849820859" if AVX512 else "0.00013758276849804208"),
    ("1e15", "0.0063346918744012657"),
    ("1e20", "inf"), ("2e307", "inf"),
])
def test_huge_q_vertex_residual_is_printed_not_raised(capsys, q, residual):
    # u0 rounds towards 1 as q grows, so u0^(q-1) leaves the double range
    # (from q = 1e20 it underflowed to 0 and solve raised ZeroDivisionError);
    # the residual is formed in logs and is inf past the double range
    code, out, err = run(capsys, "solve", "--p", "4", "--q", q, "--lambda", "0.1")
    assert (code, err) == (0, "")
    header, row = out.splitlines()
    assert header.endswith(",vertex_residual_rel")
    assert row.split(",")[-1] == residual


def test_refusal_exits_4(capsys):
    # a state outside double range is an honest refusal, not a library defect
    code, out, err = run(capsys, "solve", "--p", "8.5", "--q", "5.25", "--mass", "1e-200")
    assert code == 4
    assert out == ""
    assert err == "error: state outside double range: ln(lambda) = 2399.06\n"


@pytest.mark.parametrize("lam, level", [("5.77e-6", "-inf"), ("1e5", "inf")])
def test_matching_level_beyond_double_range_exits_4(capsys, lam, level):
    # at q = 7.85e307 ln g(lambda) overflows at both ends; at -inf, log_f - log_g
    # is NaN past y = 5, where no root walk can bracket a sign change
    code, out, err = run(capsys, "solve", "--p", "6.033349938888554",
                         "--q", "7.852438395528933e307", "--lambda", lam)
    assert (code, out) == (4, "")
    assert err == f"error: state outside double range: matching level ln g(lambda) = {level}\n"


def test_config_file_and_curves_format_are_not_options(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format = csv\n")
    for argv in (["solve", "--p", "4", "--q", "2.5", "--lambda", "0.0234375",
                  "--config", str(cfg)],
                 ["curves", "--p", "4", "--q", "2.5", "--which", "energy",
                  "--format", "json", "--out", str(tmp_path / "e.csv")]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    assert not (tmp_path / "e.csv").exists()


def test_verify_quick_passes(capsys):
    code, out, err = run(capsys, "verify", "quick")
    assert code == 0
    assert out == ""
    lines = [l for l in err.splitlines() if l.startswith("[")]
    assert len(lines) == len(verification.QUICK_CHECKS)
    assert all(l.startswith("[PASS]") for l in lines)
    assert err.splitlines()[-1].startswith("OK")


def test_verify_json_on_stdout_is_the_report(capsys, monkeypatch):
    # the status lines go to stderr, so stdout parses as the report itself
    checks = verification.QUICK_CHECKS[:2]
    monkeypatch.setattr(verification, "QUICK_CHECKS", checks)
    code, out, err = run(capsys, "verify", "quick", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert [c["name"] for c in doc["checks"]] == [
        l.split()[1] for l in err.splitlines() if l.startswith("[PASS]")]
    assert err.splitlines()[-1] == "OK: 2/2 checks passed"


def test_verify_report_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "r1.json", tmp_path / "r2.json"
    for path in (a, b):
        code, _, _ = run(capsys, "verify", "quick", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["passed"] is True
    assert all(c["claim"] for c in doc["checks"])
    # every check writes its margins as numbers, and names each bound in its detail
    for check in doc["checks"]:
        assert check["margins"]
        for g in check["margins"]:
            assert isinstance(g["value"], float) and isinstance(g["bound"], float)
            assert g["sense"] in ("<=", "<", ">=", ">")
            assert f"{g['metric']}={g['value']:.3g} (bound {g['bound']:.3g})" in check["detail"]


def test_verify_report_writes_a_nan_margin_as_valid_json(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(verification, "QUICK_CHECKS", [verification.check_multiplier_identity])
    monkeypatch.setattr(verification, "_multiplier_consistency",
                        lambda params, mu, step: math.nan)
    path = tmp_path / "report.json"
    code, _, err = run(capsys, "verify", "quick", "--out", str(path))
    assert code == 1 and "FAILED: 0/1 checks passed" in err

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    doc = json.loads(path.read_text(), parse_constant=refuse)
    assert doc["checks"][0]["margins"] == [
        {"metric": "residual", "value": "nan", "bound": 1e-5, "sense": "<="}]


def test_verify_detects_tampered_constant(capsys, monkeypatch):
    # deliberate fault injection: perturb the mass-map prefactor (its one
    # log form, which mu(t) and mu0 both read) and make sure the battery
    # names the regression that catches it
    real = algebra.log2_c_pq
    monkeypatch.setattr(algebra, "log2_c_pq",
                        lambda params: real(params) + math.log2(1.0 + 1e-6))
    result = verification.check_exact_branch_regression()
    assert not result.passed
    failures = result.detail.split(" | FAILURES: ", 1)[1].split("; ")
    assert failures == ["|mu(2)-sqrt(6)/4|=6.12e-07 (bound 1e-10)",
                        "|mu0-sqrt(2)|=1.41e-06 (bound 1e-12)"]


def test_gate_failure_is_one_line_with_exit_3(capsys, monkeypatch):
    # a profile mass off by 1e-3 fails the always-on gate; a mass gated
    # earlier in the process is not gated again, so the memo goes first
    massmap._gated_solutions.cache_clear()
    real = massmap.profile_mass_quadrature
    monkeypatch.setattr(massmap, "profile_mass_quadrature",
                        lambda point: real(point) * (1.0 + 1e-3))
    code, out, err = run(capsys, "solve", "--p", "4", "--q", "2.5", "--mass", "0.3")
    assert code == 3
    assert out == ""
    assert err.startswith("error: profile-mass gate failed")
    assert len(err.splitlines()) == 1
    # the library raises the same failure as a typed error
    with pytest.raises(GateFailure, match="^profile-mass gate failed"):
        massmap.normalized_solutions(Params(4.0, 2.5), 0.3)
