import json

import numpy as np

import fraccert.cli
from fraccert.cli import main
from fraccert.errors import ConfigurationError, DegenerateInputError
from fraccert.reporting import SCHEMA_VERSION, to_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_eval_fundamental_near_zero(capsys):
    code, out = run(capsys, "eval", "--n", "3", "--s", "0.5",
                    "--profile", "fundamental", "--at", "2.0")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == SCHEMA_VERSION
    body = doc["body"]
    assert abs(body["value"]) <= 1e-6
    assert body["error_estimate"] >= 0.0  # no bare numbers


def test_verify_chain_pass_exit_zero(capsys, tmp_path):
    report = tmp_path / "lvc.json"
    code, out = run(capsys, "verify-chain", "--chain", "LVC", "--n", "1", "--s", "0.75",
                    "--r0", "2", "--r", "20", "--samples", "40",
                    "--report", str(report))
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["body"]["verdict"] == "PASS"
    assert len(doc["body"]["samples"]) == 40


def test_verify_chain_bound_chain_uses_given_constants(capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("bound chains take --r0/--r as given")

    monkeypatch.setattr(fraccert.cli, "choose_constants", never)
    code, out = run(capsys, "verify-chain", "--chain", "CA3D", "--n", "1", "--s", "0.75",
                    "--r0", "2", "--r", "25", "--samples", "40")
    assert code == 0
    body = json.loads(out)["body"]
    assert body["verdict"] == "PASS"
    assert body["constants"]["base_radius"] == 2.0
    assert body["constants"]["outer_radius"] == 25.0
    assert body["constants"]["power_bump_coef"] == 1.0


def test_verify_chain_failed_selection_is_inconclusive(capsys, monkeypatch):
    def degenerate(*args, **kwargs):
        raise DegenerateInputError("envelope probes degenerate")

    monkeypatch.setattr(fraccert.cli, "choose_constants", degenerate)
    argv = ("verify-chain", "--chain", "LVC", "--n", "1", "--s", "0.75", "--samples", "40")
    code, out = run(capsys, *argv)
    assert code == 2
    body = json.loads(out)["body"]
    assert body["verdict"] == "INCONCLUSIVE"
    assert body["notes"] == ["envelope probes degenerate"]
    assert body["samples"] == []

    def misconfigured(*args, **kwargs):
        raise ConfigurationError("bad radii")

    monkeypatch.setattr(fraccert.cli, "choose_constants", misconfigured)
    assert main(list(argv)) == 3


def test_unknown_command_is_usage_error(capsys):
    assert main(["definitely-not-a-command"]) == 3


def test_eval_cos_in_several_dimensions_is_usage_error(capsys):
    # np.cos maps an (n, k) point array to n rows instead of one value per point
    for n in ("2", "3"):
        assert main(["eval", "--profile", "cos", "--n", n, "--at", "1"]) == 3
        assert capsys.readouterr().err.startswith("error:")


def test_malformed_spec_file_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run(capsys, "check-f", "--spec", str(bad), "--condition", "f2",
                  "--n", "3", "--s", "0.5")
    assert code == 3


def test_check_f_holds_and_fails(capsys, tmp_path):
    holds = tmp_path / "holds.json"
    holds.write_text(json.dumps({"form": "separable", "gamma": 0.0,
                                 "g": {"name": "power", "p": 1.4}}))
    code, out = run(capsys, "check-f", "--spec", str(holds), "--condition", "f2",
                    "--n", "3", "--s", "0.5")
    assert code == 0
    assert json.loads(out)["body"]["verdict"] == "HOLDS"

    fails = tmp_path / "fails.json"
    fails.write_text(json.dumps({"form": "separable", "gamma": 0.0,
                                 "g": {"name": "power", "p": 2.0}}))
    code, out = run(capsys, "check-f", "--spec", str(fails), "--condition", "f2",
                    "--n", "3", "--s", "0.5")
    assert code == 1
    assert json.loads(out)["body"]["verdict"] == "FAILS"


def test_check_f_spliced_builtin(capsys, tmp_path):
    spec = tmp_path / "splice.json"
    spec.write_text(json.dumps({"form": "separable", "gamma": 0.0,
                                "g": {"name": "critical_splice"}}))
    code, out = run(capsys, "check-f", "--spec", str(spec), "--condition", "f2",
                    "--n", "3", "--s", "0.5")
    assert code == 0
    body = json.loads(out)["body"]
    assert body["verdict"] == "HOLDS"
    assert abs(body["plateau_value"] - 2.5) <= 0.05


def test_reports_are_byte_identical_across_runs(capsys, tmp_path):
    argv = ["maxprinciple", "--check", "comparison", "--n", "1", "--s", "0.5",
            "--samples", "5", "--seed", "7"]
    _, out1 = run(capsys, *argv)
    _, out2 = run(capsys, *argv)
    assert out1 == out2


def test_solve_writes_csv_plot_data(capsys, tmp_path):
    csv_path = tmp_path / "solution.csv"
    code, _ = run(capsys, "solve", "--n", "1", "--s", "0.5", "--domain=-1:1",
                  "--h", str(1 / 64), "--rhs-const", "1.0", "--csv", str(csv_path))
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "node,value"
    assert len(lines) == 1 + 128


def test_barrier_gallery_csv(capsys, tmp_path):
    target = tmp_path / "gallery.csv"
    code, _ = run(capsys, "barrier", "--n", "1", "--s", "0.75", "--r0", "2",
                  "--r", "20", "--out", "csv", "--report", str(target))
    assert code == 0
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "barrier,radius,value"
    assert len(lines) > 100


def test_report_summarizes_json(capsys, tmp_path):
    path = tmp_path / "r.json"
    path.write_text(to_json({"verdict": "PASS", "samples": list(range(10))}, "verify-chain"))
    code, out = run(capsys, "report", str(path))
    assert code == 0
    assert "verdict: PASS" in out
    assert "[10 entries]" in out


def test_trace_exit_and_csv(capsys, tmp_path):
    csv_path = tmp_path / "trace.csv"
    code, _ = run(capsys, "trace", "--n", "3", "--s", "0.5", "--power", "1.4",
                  "--decades", "1.0", "--r0", "1.0", "--csv", str(csv_path))
    assert code == 0
    header = csv_path.read_text().splitlines()[0]
    assert header == "r,m,forcing_lower,upper_envelope,rho,eta"


def test_exit_code_inconclusive_via_eval(capsys):
    # an oscillatory tail reports honest non-convergence -> exit 2
    code, out = run(capsys, "eval", "--n", "1", "--s", "0.3", "--profile", "cos",
                    "--at", "0.0")
    assert code == 2
    assert abs(json.loads(out)["body"]["value"] - 1.0) <= 1e-3


def test_canonical_json_handles_numpy_and_enums():
    from fraccert.chains import Verdict
    payload = {"arr": np.asarray([1.5, 2.5]), "verdict": Verdict.PASS, "nan": float("nan")}
    text = to_json(payload)
    doc = json.loads(text)
    assert doc["body"]["arr"] == [1.5, 2.5]
    assert doc["body"]["verdict"] == "PASS"
    assert doc["body"]["nan"] is None
