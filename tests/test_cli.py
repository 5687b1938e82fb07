import json
import math

import pytest

from deltanls import algebra, massmap, verification
from deltanls.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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


def test_classify_invalid_exponents(capsys):
    code, _, err = run(capsys, "classify", "--p", "2", "--q", "3")
    assert code == 2
    assert "p > 2" in err


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
    rows = [l for l in out.splitlines() if l and not l.startswith(("#", "t,"))]
    assert len(rows) == 2
    ts = sorted(float(r.split(",")[0]) for r in rows)
    assert ts[0] == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-9)
    assert ts[1] == pytest.approx(2.0, abs=1e-9)
    # residual columns stay within the configured gate
    for r in rows:
        cells = r.split(",")
        assert float(cells[-1]) <= 1e-8 and float(cells[-2]) <= 1e-8


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
    assert lines[0].startswith("# config:")
    assert lines[1] == "mu,E,lambda,branch_id,flag"
    rows = [l.split(",") for l in lines[2:]]
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


def test_curves_mass_region_H(tmp_path, capsys):
    out_file = tmp_path / "mass.csv"
    code, _, _ = run(capsys, "curves", "--p", "8", "--q", "4",
                     "--which", "mass", "--range", "1.0001:500:60",
                     "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[1] == "t,mu,mu_err,h_sign"
    mus = [float(l.split(",")[1]) for l in lines[2:]]
    assert all(m > 2.0 for m in mus)
    assert all(a < b for a, b in zip(mus, mus[1:]))
    assert all(int(l.split(",")[3]) == 1 for l in lines[2:])


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


def test_config_file_overrides(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("precision = 6\nformat = csv\n")
    code, out, _ = run(capsys, "solve", "--p", "4", "--q", "2.5",
                       "--lambda", "0.0234375", "--config", str(cfg))
    assert code == 0
    assert '"precision":6' in out.splitlines()[0]


def test_verify_quick_passes(capsys):
    code, out, _ = run(capsys, "verify", "quick")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("[")]
    assert len(lines) == len(verification.QUICK_CHECKS)
    assert all(l.startswith("[PASS]") for l in lines)
    assert out.splitlines()[-1].startswith("OK")


def test_verify_report_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "r1.json", tmp_path / "r2.json"
    for path in (a, b):
        code, _, _ = run(capsys, "verify", "quick", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["passed"] is True
    assert all(c["claim"] for c in doc["checks"])


def test_verify_detects_tampered_constant(capsys, monkeypatch):
    # deliberate fault injection: perturb the mass-map prefactor and make
    # sure the battery names the regression that catches it
    real = algebra.constants

    def tampered(params):
        c = real(params)
        return algebra.Constants(c.c_pq * (1.0 + 1e-6), c.c_p, c.mu0)

    monkeypatch.setattr(algebra, "constants", tampered)
    result = verification.check_exact_branch_regression()
    assert not result.passed
    assert "mu(2)" in result.detail


def test_gate_failure_is_one_line_with_exit_3(capsys, monkeypatch):
    # a profile mass off by 1e-3 fails the always-on gate
    real = massmap.profile_mass_quadrature
    monkeypatch.setattr(massmap, "profile_mass_quadrature",
                        lambda point: real(point) * (1.0 + 1e-3))
    code, out, err = run(capsys, "solve", "--p", "4", "--q", "2.5", "--mass", "0.3")
    assert code == 3
    assert out == ""
    assert err.startswith("error: profile-mass gate failed")
    assert len(err.splitlines()) == 1
