import json

import pytest

from chromasym.cli import main
from chromasym.symfun import SymE


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_csf_text(capsys):
    code, out, _ = run_cli(capsys, "csf", "--graph", "path:3")
    assert code == 0
    assert out.strip() == "3*e[3] + e[2,1]"


def test_csf_json_round_trips(capsys):
    code, out, _ = run_cli(capsys, "csf", "--graph", "twin(cycle:3,0)", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 4
    value = SymE.from_json_obj(obj["value"])
    assert value.coefficient((4,)) == 24


def test_csf_coloring_check(capsys):
    code, out, _ = run_cli(capsys, "csf", "--graph", "cycle:4",
                           "--check-colorings", "3")
    assert code == 0
    assert out.strip() == "ok"


def test_csf_bad_graph_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "csf", "--graph", "heptagon:9")
    assert code == 2
    assert "error" in err


def test_bad_env_bound_is_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("CHROMASYM_MAX_N", "twelve")
    code, _, err = run_cli(capsys, "csf", "--graph", "path:3")
    assert code == 2
    assert err.startswith("error:") and "CHROMASYM_MAX_N" in err and "twelve" in err


def test_series_extract(capsys):
    code, out, _ = run_cli(capsys, "series", "--name", "path-gf", "--N", "6",
                           "--extract", "3")
    assert code == 0
    assert out.strip() == "3*e[3] + e[2,1]"


def test_series_full_print(capsys):
    code, out, _ = run_cli(capsys, "series", "--name", "G", "--N", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("#")
    assert "z^3: 2*e[3]" in lines


def test_series_k_indexed(capsys):
    code, out, _ = run_cli(capsys, "series", "--name", "G_geq", "--k", "4",
                           "--N", "5", "--extract", "3")
    assert code == 0
    assert out.strip() == "0"


def test_series_requires_k(capsys):
    code, _, err = run_cli(capsys, "series", "--name", "G_geq", "--N", "5")
    assert code == 2


def test_series_extract_out_of_range(capsys):
    code, _, err = run_cli(capsys, "series", "--name", "E", "--N", "3",
                           "--extract", "9")
    assert code == 2


def test_family_all_methods(capsys):
    code, out, _ = run_cli(capsys, "family", "--name", "twin-cycle", "--n", "4")
    assert code == 0
    assert out.strip() == "50*e[5] + 6*e[4,1] + 4*e[3,2]"


def test_family_single_method_json(capsys):
    code, out, _ = run_cli(capsys, "family", "--name", "twin-path-interior",
                           "--n", "5", "--ell", "2", "--method", "epos-gf",
                           "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["family"] == "twin-path-interior"
    assert SymE.from_json_obj(obj["value"]).homogeneous_degree() == 6


def test_family_missing_ell(capsys):
    code, _, err = run_cli(capsys, "family", "--name", "flagpole", "--n", "4")
    assert code == 2


def test_family_help_lists_every_family(monkeypatch, capsys):
    from chromasym.families import FAMILIES

    monkeypatch.setenv("COLUMNS", "200")  # argparse would wrap names at hyphens
    with pytest.raises(SystemExit) as exc:
        main(["family", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert all(name in out for name in FAMILIES)


def test_coeff_twinned_cycle(capsys):
    code, out, _ = run_cli(capsys, "coeff", "--family", "twinned-cycle",
                           "--lambda", "5")
    assert code == 0
    assert out.strip() == "25"


def test_coeff_not_covered(capsys):
    code, out, _ = run_cli(capsys, "coeff", "--family", "twin-path-both",
                           "--lambda", "4")
    assert code == 0
    assert "not covered" in out


def test_coeff_json(capsys):
    code, out, _ = run_cli(capsys, "coeff", "--family", "path",
                           "--lambda", "5,1", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["coeff"] == "4"


def test_verify_small_run(capsys, tmp_path):
    report_file = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", "--suite", "partitions",
                           "--max-n", "5", "--max-deg", "8",
                           "--out", str(report_file))
    assert code == 0
    report = json.loads(report_file.read_text())
    assert report["failed"] == 0
    assert all(case["status"] == "pass" for case in report["cases"])
    assert {"suite", "case", "status", "expected", "actual"} <= set(report["cases"][0])


def test_verify_oracle_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "oracle", "--max-n", "5")
    assert code == 0
    assert "passed, 0 failed" in out


def test_verify_json_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "--suite", "partitions",
                             "--max-n", "4", "--max-deg", "6", "--json")
    code2, out2, _ = run_cli(capsys, "verify", "--suite", "partitions",
                             "--max-n", "4", "--max-deg", "6", "--json")
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_failure_exit_code(monkeypatch, capsys):
    from chromasym.verify import CaseResult

    def fake_run(names, **kwargs):
        return [CaseResult("partitions", "synthetic", "fail", "1", "2")]

    monkeypatch.setattr("chromasym.cli.verify.run_suites", fake_run)
    code, out, _ = run_cli(capsys, "verify", "--suite", "partitions")
    assert code == 1
    assert "FAIL" in out and "synthetic" in out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["csf"])  # missing required --graph
    assert exc.value.code == 2
