import json
import math

import numpy as np
import pytest

import fraccert.cli
from fraccert.chains import Verdict, VerificationReport
from fraccert.cli import main
from fraccert.dirichlet import ComparisonReport, HopfReport
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


def test_parser_is_built_once_and_keeps_no_state(capsys, monkeypatch):
    seen = []

    def spy(chain, params, constants, policy, quad):
        seen.append(policy.points)
        return VerificationReport(chain, params, constants, (), float("nan"), Verdict.PASS)

    monkeypatch.setattr(fraccert.cli, "verify_chain", spy)
    argv = ["verify-chain", "--chain", "CA3D", "--n", "1", "--s", "0.75"]
    assert main(argv + ["--samples", "7"]) == 0
    assert main(argv) == 0
    assert seen == [7, 200]  # the second call sees the default again
    assert main(argv + ["--samples", "many"]) == 3
    assert main(argv) == 0 and seen[-1] == 200
    assert fraccert.cli.build_parser() is fraccert.cli.build_parser()
    capsys.readouterr()


def test_rate_fits_the_envelope_slope(capsys):
    code, out = run(capsys, "rate", "--chain", "CA3D", "--n", "1", "--s", "0.75")
    assert code == 0
    body = json.loads(out)["body"]
    assert set(body) == {"chain", "n", "s", "r_grid", "constant", "slope", "residual", "ratio_spread"}
    assert abs(body["slope"] + 1.0) <= 0.15


def test_rate_on_a_sign_chain_is_usage_error(capsys):
    assert main(["rate", "--chain", "LVC", "--n", "1", "--s", "0.75"]) == 3
    assert "no rate envelope" in capsys.readouterr().err


def test_unknown_command_is_usage_error(capsys):
    assert main(["definitely-not-a-command"]) == 3


def test_eval_cos_in_several_dimensions_is_usage_error(capsys):
    # cos(x_1) is not radial, so it is rejected before any evaluation
    for n in ("2", "3"):
        assert main(["eval", "--profile", "cos", "--n", n, "--at", "1"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "cos is not a radial function" in err


def test_malformed_spec_file_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    for content in (b"{not json", b"\xff\xfe{"):  # malformed JSON, bytes that are no UTF-8
        bad.write_bytes(content)
        assert main(["check-f", "--spec", str(bad), "--condition", "f2", "--n", "3", "--s", "0.5"]) == 3
        assert capsys.readouterr().err.startswith("error:")


_POWER = {"name": "power", "p": 1.4}


@pytest.mark.parametrize("spec", [
    [1, 2],  # not an object
    {"form": "separable", "g": "power"},  # g names a builtin instead of configuring one
    {"form": "separable", "g": {"name": "piecewise_powers", "pieces": [1.0]}},  # a piece that is no object
    {"form": "separable", "gamma": None, "g": _POWER},  # gamma null
    {"form": "separable", "g": {"name": "power", "p": [1.4]}},  # p a list
    {"form": "separable"},  # no g: no silent power law at p = 1
    {"form": "separable", "gama": 0.3, "g": _POWER},  # a misspelt gamma: no silent gamma = 0
])
def test_malformed_spec_shape_is_a_configuration_error(capsys, tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["check-f", "--spec", str(path), "--condition", "f2", "--n", "3", "--s", "0.5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


@pytest.mark.parametrize("g,named", [
    ({"name": "power", "q": 3}, "'q'"),  # a key power does not take: no silent p = 1
    ({"name": "piecewise_powers", "pieces": [{"upto": None, "terms": [5]}]}, "terms"),  # a term that is no pair
    ({"name": "piecewise_powers", "pieces": [{"upto": None, "terms": 5}]}, "terms"),  # terms that are no list
    ({"name": "piecewise_powers"}, "pieces"),  # no pieces
])
def test_unknown_keys_and_malformed_terms_exit_3(capsys, tmp_path, g, named):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"form": "separable", "g": g}))
    assert main(["check-f", "--spec", str(path), "--condition", "f2", "--n", "3", "--s", "0.5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:") and named in captured.err


@pytest.mark.parametrize("content", ["[1, 2]", '"report"', "3", "{not json"])
def test_report_of_a_file_holding_no_object_is_a_configuration_error(capsys, tmp_path, content):
    path = tmp_path / "r.json"
    path.write_text(content)
    assert main(["report", str(path)]) == 3
    assert capsys.readouterr().err.startswith("error:")


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


def test_check_f_piecewise_spec(capsys, tmp_path):
    spec = tmp_path / "piecewise.json"
    pieces = [{"upto": 1.0, "terms": [[2.5, 1.5]]}, {"upto": None, "terms": [[1.0, -1.0]]}]
    spec.write_text(json.dumps({"form": "separable", "g": {"name": "piecewise_powers", "pieces": pieces}}))
    argv = ["check-f", "--spec", str(spec), "--condition", "f2", "--n", "3", "--s", "0.5"]
    code, out = run(capsys, *argv)
    assert code == 0 and json.loads(out)["body"]["verdict"] == "HOLDS"

    for bad in ([{"upto": 2.0, "terms": [[2.5, 1.5]]}] + pieces,  # upto 2 then 1: out of order
                [{"upto": None, "terms": [[2.5, 1.5]]}, pieces[0]]):  # null before the last piece
        spec.write_text(json.dumps({"form": "separable", "g": {"name": "piecewise_powers", "pieces": bad}}))
        code, _ = run(capsys, *argv)
        assert code == 3


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
                  "--r", "20", "--csv", str(target))
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


@pytest.mark.parametrize("s", [0.5, 0.75])
def test_trace_follows_the_positive_fundamental_solution(capsys, s):
    # n <= 2s: the plain fundamental solution is -log r or -r^(2s - n), negative on the annuli
    code, out = run(capsys, "trace", "--n", "1", "--s", str(s), "--power", "1.4")
    assert code == 0
    body = json.loads(out)["body"]
    assert body["contradiction_radius"] is not None
    # sigma* > 0 takes the eta-ratio branch
    assert (body["rows"][0]["eta_ratio"] is not None) == (s == 0.75)


def test_scan_without_samples_is_a_usage_error(capsys):
    code = main(["scan", "--n", "3", "--s", "0.5", "--family-side", "2", "--samples", "0"])
    assert code == 3
    assert "sample point" in capsys.readouterr().err


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


def test_float_arrays_and_lists_give_the_same_json():
    values = [1.5, float("nan"), float("inf"), -float("inf"), -0.0, 1e-300]
    as_list = to_json({"v": values})
    assert json.loads(as_list)["body"]["v"][1:4] == [None, "inf", "-inf"]
    assert to_json({"v": np.asarray(values)}) == as_list
    assert to_json({"v": tuple(values)}) == as_list
    assert to_json({"v": np.asarray([values, values])}) == to_json({"v": [values, values]})
    mixed = [1.5, np.float64("nan"), 2, None, "inf", float("inf")]  # not all Python floats
    assert json.loads(to_json({"v": mixed}))["body"]["v"] == [1.5, None, 2, None, "inf", "inf"]


def test_float_dicts_give_the_same_json():
    # rows of plain floats take one pass; NaN and inf still become null, "inf" and "-inf"
    rows = [{"x": 1.5, "value": v, "err": 1e-300} for v in (2.5, float("nan"), float("inf"), -float("inf"))]
    rows += [{"a": 1e308, "b": 1e308}, {1: 0.5}, {}]  # an overflowing sum, a key that is no string, no keys
    numpy_rows = [{k: np.float64(v) for k, v in row.items()} for row in rows]
    text = to_json({"samples": rows})
    assert text == to_json({"samples": numpy_rows})
    assert [row["value"] for row in json.loads(text)["body"]["samples"][1:4]] == [None, "inf", "-inf"]


def test_scan_writes_json_and_csv(capsys, tmp_path):
    report, csv_path = tmp_path / "scan.json", tmp_path / "scan.csv"
    code, out = run(capsys, "scan", "--n", "3", "--s", "0.5", "--family-side", "2",
                    "--samples", "4", "--report", str(report), "--csv", str(csv_path))
    assert code == 0
    body = json.loads(report.read_text())["body"]
    assert json.loads(out)["body"] == body
    assert set(body) == {"power", "n", "s", "summary", "members"}
    assert len(body["members"]) == 4
    assert set(body["members"][0]) == {"label", "verdict", "witness", "residual", "err"}
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "label,radius,residual,err"
    assert len(lines) == 1 + 4 * 4


def test_maxprinciple_runs_every_verifier(capsys):
    code, out = run(capsys, "maxprinciple", "--check", "all", "--n", "1", "--s", "0.5",
                    "--seed", "7", "--samples", "3")
    assert code == 0
    results = json.loads(out)["body"]["results"]
    assert set(results) == {"comparison", "hopf", "kslap", "qsmp", "measure"}
    assert results["comparison"] == {"pairs": 3, "violations": 0}
    assert {"c_estimate", "stable"} <= set(results["hopf"])
    assert {"c_bar", "per_set"} <= set(results["kslap"])
    assert {"c0", "stable"} <= set(results["qsmp"])
    assert {"c_bar", "nu"} <= set(results["measure"])


def test_maxprinciple_fail_outranks_an_inconclusive_check(capsys, monkeypatch):
    # a comparison violation is a FAIL; a later unstable Hopf ratio must not turn it into exit 2
    monkeypatch.setattr(fraccert.cli, "verify_comparison", lambda p1, p2: ComparisonReport(False, 1.0))
    monkeypatch.setattr(fraccert.cli, "verify_hopf_ratio", lambda problem: HopfReport(0.5, 1.0, 2.0, False))
    code, out = run(capsys, "maxprinciple", "--check", "all", "--n", "1", "--s", "0.5", "--samples", "1")
    results = json.loads(out)["body"]["results"]
    assert results["comparison"]["violations"] == 1 and results["hopf"]["stable"] is False
    assert code == 1
    code, _ = run(capsys, "maxprinciple", "--check", "hopf", "--n", "1", "--s", "0.5")
    assert code == 2


def test_barrier_gallery_json(capsys):
    code, out = run(capsys, "barrier", "--n", "3", "--s", "0.5", "--r0", "2", "--r", "20")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "barrier-gallery"
    assert set(doc["body"]) == {"rows", "n", "s", "r0", "r"}
    assert {row[0] for row in doc["body"]["rows"]} >= {"capped_power", "exterior_with_shell"}


def test_eval_on_a_barrier_profile(capsys):
    code, out = run(capsys, "eval", "--n", "1", "--s", "0.75", "--profile", "ramp_with_bump",
                    "--at", "10", "--r0", "2", "--r", "20")
    assert code == 0
    body = json.loads(out)["body"]
    assert set(body) == {"profile", "at", "n", "s", "value", "error_estimate",
                         "panels_used", "converged"}
    assert body["profile"] == "ramp_with_bump" and body["converged"] is True


def test_tol_loosens_the_error_target(capsys):
    # a plain callable whose panels adapt (profiles now converge on their starting panels); exact: cos x
    argv = ("eval", "--n", "1", "--s", "0.9", "--profile", "cos", "--at", "0.7")
    code, out = run(capsys, *argv)
    default = json.loads(out)["body"]
    code_tol, out_tol = run(capsys, *argv, "--tol", "1e-4")
    loose = json.loads(out_tol)["body"]
    assert code == code_tol == 0
    assert set(loose) == set(default)
    assert loose["error_estimate"] > default["error_estimate"]
    assert loose["panels_used"] < default["panels_used"]
    for body in (default, loose):
        assert abs(body["value"] - math.cos(0.7)) <= 2.0 * body["error_estimate"]


@pytest.mark.parametrize("argv", [
    ("solve", "--tol", "5"), ("solve", "--seed", "3"), ("solve", "--r0", "9"),
    ("scan", "--family-side", "2", "--tol", "1e-6"), ("trace", "--tol", "1e-6"),
    ("barrier", "--out", "csv"), ("eval", "--at", "2", "--samples", "5"),
    ("maxprinciple", "--r", "20"),  # no abbreviation of --report either
])
def test_flag_the_verb_does_not_read_is_usage_error(capsys, argv):
    assert main(list(argv)) == 3
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    # a ValueError inside the verb before, which only the wide catch in main turned into exit 3
    ("verify-chain", "--chain", "XYZ"), ("rate", "--chain", "XYZ"), ("eval", "--profile", "xyz", "--at", "1"),
    ("solve", "--domain=a:b"), ("solve", "--domain=-1:0:1"), ("solve", "--domain=1"), ("solve", "--domain=nan:1"),
    ("rate", "--chain", "CA3D", "--r-min", "0"), ("trace", "--r0", "0"), ("trace", "--decades", "-1"),
    ("scan", "--family-side", "-1"), ("maxprinciple", "--seed", "-1"),
    # inputs that ran before, silently or to an INCONCLUSIVE null value
    ("trace", "--decades", "0"), ("maxprinciple", "--check", "comparison", "--samples", "0"),
    ("trace", "--power", "nan"), ("trace", "--power", "-1"), ("scan", "--power", "nan"),
    ("verify-chain", "--chain", "CA3D", "--n", "1", "--s", "0.75", "--samples", "8", "--auto-constants"),
    ("eval", "--at", "nan"), ("eval", "--at", "inf"), ("eval", "--profile", "cos", "--at", "nan"),
    ("eval", "--at", "2", "--tol", "nan"),
    ("solve", "--s", "0.25", "--domain=0:1", "--exterior", "fundamental"),  # data unbounded at the boundary
], ids=" ".join)
def test_out_of_range_input_is_a_usage_error(capsys, argv):
    assert main(list(argv)) == 3
    assert "error:" in capsys.readouterr().err


def test_chain_names_are_read_in_any_case():
    args = fraccert.cli.build_parser().parse_args(["rate", "--chain", "ca3d"])
    assert args.chain == "CA3D"


def test_a_value_error_inside_the_numerics_propagates(capsys, monkeypatch):
    # only FraccertError and OSError are usage errors; a ValueError is a defect and keeps its traceback
    def broken(*args, **kwargs):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(fraccert.cli, "measure_rate", broken)
    with pytest.raises(ValueError, match="broadcast"):
        main(["rate", "--chain", "CA3D", "--n", "1", "--s", "0.75"])
    assert capsys.readouterr().out == ""
