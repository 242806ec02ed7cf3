import contextlib
import dataclasses
import importlib
import io
import json
import os
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import chromasym
from chromasym import cli
from chromasym.cli import main
from chromasym.csf import DEFAULT_MAX_VERTICES
from chromasym.families import FAMILIES
from chromasym.powerseries import SERIES_NAMES, Series
from chromasym.symfun import _MEMOS, SymE, e


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
    code, out, _ = run_cli(capsys, "csf", "--graph", "cycle:4",
                           "--check-colorings", "3", "--json")
    assert code == 0
    assert json.loads(out) == {"graph": "cycle:4", "k": 3, "colorings_match": True}


def test_csf_negative_palette_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "csf", "--graph", "path:3",
                             "--check-colorings", "-1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "palette size" in err
    assert "Traceback" not in err


def test_csf_count_check_past_its_bounds_names_them(capsys):
    code, out, err = run_cli(capsys, "csf", "--graph", "path:9",
                             "--check-colorings", "3")
    assert code == 2
    assert out == ""
    assert err == ("error: the count check takes at most 8 vertices and k <= 5"
                   " (n=9, k=3)\n")


def test_csf_bad_graph_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "csf", "--graph", "heptagon:9")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("spec", ["twin-cycle:2", "cycle:2"])
def test_csf_of_a_pinned_member_is_usage_error(capsys, spec):
    code, out, err = run_cli(capsys, "csf", "--graph", spec)
    name = spec.partition(":")[0]
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: family {name!r} at n=2 is a pinned convention")
    assert "Traceback" not in err


def test_csf_too_many_vertices_is_usage_error(monkeypatch, capsys):
    # the vertex bound is checked before the memo lookup and any oracle work
    monkeypatch.setattr(importlib.import_module("chromasym.csf"), "_csf_memo", None)
    edges = ",".join(f"{a}-{b}" for a, b in combinations(range(15), 2))
    code, out, err = run_cli(capsys, "csf", "--graph", f"g:n=15;edges={edges}")
    assert code == 2
    assert out == ""
    assert err == "error: graph has 15 vertices, oracle bound is 14\n"


_NEST = "twin(" * 5000 + "path:3" + ",0)" * 5000


@pytest.mark.parametrize("spec, vertices", [
    ("path:1000000000", 10**9), ("cycle:1000000000", 10**9),
    ("moose:1000000000", 10**9 + FAMILIES["moose"].extra),
    ("flagpole:1000000000,3", 10**9 + FAMILIES["flagpole"].extra),
    (_NEST, 5003)], ids=["path", "cycle", "moose", "flagpole", "twin-nest-5000"])
def test_oversized_graph_spec_is_refused_before_it_is_built(capsys, spec, vertices):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "csf", "--graph", spec)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err == f"error: graph has {vertices} vertices, oracle bound is {DEFAULT_MAX_VERTICES}\n"


def test_csf_of_a_dense_graph(capsys):
    # dense graphs are computed: K_12 has 66 edges
    edges = ",".join(f"{a}-{b}" for a, b in combinations(range(12), 2))
    code, out, _ = run_cli(capsys, "csf", "--graph", f"g:n=12;edges={edges}")
    assert code == 0
    assert out.strip() == "479001600*e[12]"


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


@pytest.mark.parametrize("name", ["path-gf", "cycle-gf"])
def test_series_gf_is_cut_from_the_deepest_build(monkeypatch, capsys, name):
    powerseries = cli.powerseries
    asks = [("--N", "12", "--extract", "7"), ("--N", "12"), ("--N", "0"),
            ("--N", "20", "--json")]
    cold = {}
    for ask in asks:
        chromasym.clear_caches()
        cold[ask] = run_cli(capsys, "series", "--name", name, *ask)
        assert cold[ask][0] == 0

    builder = name.replace("-", "_")
    builds, build = [], getattr(powerseries, builder)
    monkeypatch.setattr(powerseries, builder,
                        lambda trunc: builds.append(trunc) or build(trunc))
    chromasym.clear_caches()
    assert run_cli(capsys, "series", "--name", name, "--N", "20")[0] == 0
    for ask in asks:
        assert run_cli(capsys, "series", "--name", name, *ask) == cold[ask], ask
    assert builds == [20]
    # a deeper request builds again and replaces the memo's series
    assert run_cli(capsys, "series", "--name", name, "--N", "24")[0] == 0
    for ask in asks:
        assert run_cli(capsys, "series", "--name", name, *ask) == cold[ask], ask
    assert builds == [20, 24]


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


def test_family_all_methods_in_any_spelling(capsys):
    want = run_cli(capsys, "family", "--name", "twin-cycle", "--n", "4", "--method", "all")
    assert want[0] == 0
    for spelling in ("ALL", " All "):
        got = run_cli(capsys, "family", "--name", "twin-cycle", "--n", "4",
                      "--method", spelling)
        assert got == want, spelling


def test_family_all_methods_reports_a_disagreement(monkeypatch, capsys):
    monkeypatch.setitem(FAMILIES["twin-cycle"].routes, "gf", lambda n, ell: e(n + 1))
    code, out, err = run_cli(capsys, "family", "--name", "twin-cycle", "--n", "4")
    assert code == 1
    assert out == ""
    assert err == "method disagreement: ['gf']\n"


def test_family_single_method_json(capsys):
    code, out, _ = run_cli(capsys, "family", "--name", "twin-path-interior",
                           "--n", "5", "--ell", "2", "--method", "epos-gf",
                           "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["family"] == "twin-path-interior"
    assert SymE.from_json_obj(obj["value"]).homogeneous_degree() == 6


def test_family_json_names_one_method_as_typed_and_all_methods_as_a_list(capsys):
    argv = ("family", "--name", "twin-cycle", "--n", "4", "--json", "--method")
    one, every = (json.loads(run_cli(capsys, *argv, m)[1]) for m in ("Recurrence", "all"))
    assert list(one) == ["family", "n", "ell", "method", "value"]
    assert list(every) == ["family", "n", "ell", "methods", "value"]
    assert one["method"] == "Recurrence"
    assert every["methods"] == list(FAMILIES["twin-cycle"].routes)
    assert one["value"] == every["value"]


def test_family_missing_ell(capsys):
    code, _, err = run_cli(capsys, "family", "--name", "flagpole", "--n", "4")
    assert code == 2


def test_family_help_lists_every_family(monkeypatch, capsys):
    from chromasym.families import FAMILIES

    listed = {"family": [*FAMILIES, *(m for spec in FAMILIES.values() for m in spec.routes)],
              "coeff": [name for name, spec in FAMILIES.items() if spec.coeffs],
              "series": list(SERIES_NAMES)}
    for columns in ("80", "40"):
        monkeypatch.setenv("COLUMNS", columns)
        for command, names in listed.items():
            with pytest.raises(SystemExit) as exc:
                main([command, "--help"])
            assert exc.value.code == 0
            lines = capsys.readouterr().out.splitlines()
            words = [set(line.replace(",", " ").split()) for line in lines]
            for name in names:
                assert any(name in w for w in words), (columns, command, name)


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


def test_coeff_outside_the_family_domain_is_usage_error(capsys):
    # the smallest partition size of each family's domain is accepted and the
    # size below it refused; "0" is the empty partition.  A family without
    # formulas is named as one before any size is read, even past the depth cap
    for name, spec in FAMILIES.items():
        if not spec.coeffs:
            code, out, err = run_cli(capsys, "coeff", "--family", name,
                                     "--lambda", str(cli.MAX_DEPTH + 4))
            assert (code, out) == (2, ""), name
            assert err == f"error: no coefficient formulas for family {name!r}\n"
            continue
        least = spec.coeff_from + spec.extra
        code, out, _ = run_cli(capsys, "coeff", "--family", name, "--lambda", str(least))
        assert code == 0 and out, name
        code, out, err = run_cli(capsys, "coeff", "--family", name, "--lambda", str(least - 1))
        assert code == 2 and out == "", name
        assert err == (f"error: family {name!r} has coefficient formulas for "
                       f"|lambda| >= {least}, got {least - 1}\n")


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


def test_verify_unwritable_out_stops_before_any_check(monkeypatch, capsys, tmp_path):
    def no_work(*args, **kwargs):
        raise AssertionError("checked before opening --out")

    monkeypatch.setattr(cli.verify, "run_suites", no_work)
    for out in (tmp_path / "missing" / "report.json", tmp_path):
        code, stdout, err = run_cli(capsys, "verify", "--suite", "partitions",
                                    "--out", str(out))
        assert code == 2, out
        assert stdout == ""
        assert err.startswith("error: cannot write --out") and "Traceback" not in err
        assert err.count("\n") == 1


def test_verify_usage_error_keeps_an_existing_report(capsys, tmp_path):
    report = tmp_path / "report.json"
    report.write_bytes(b'{"failed": 0}\n')
    for flag, value in (("--max-n", 2), ("--max-deg", 1),
                        ("--max-n", DEFAULT_MAX_VERTICES + 1)):
        code, out, err = run_cli(capsys, "verify", "--suite", "all", flag, str(value),
                                 "--out", str(report))
        assert code == 2, (flag, value)
        assert out == ""
        assert err.startswith(f"error: {flag} must be")
        assert report.read_bytes() == b'{"failed": 0}\n', (flag, value)


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


def test_clear_caches_empties_every_memo(capsys):
    argv = ("verify", "--suite", "families", "--max-n", "7", "--json")
    code, warm, _ = run_cli(capsys, *argv)
    assert code == 0
    assert all(_MEMOS)  # the sweep filled every registered memo
    chromasym.clear_caches()
    assert not any(_MEMOS)
    code, cold, _ = run_cli(capsys, *argv)
    assert code == 0
    assert cold == warm


def _unregistered_growth(capsys) -> list[str]:
    """Module-level dicts of chromasym.* that grow during a small verify run
    of every suite but are not registered memos."""
    modules = [m for name, m in sys.modules.items()
               if name == "chromasym" or name.startswith("chromasym.")]
    chromasym.clear_caches()
    before = {f"{m.__name__}.{attr}": (value, len(value))
              for m in modules for attr, value in vars(m).items()
              if isinstance(value, dict) and not attr.startswith("__")}
    code, _, _ = run_cli(capsys, "verify", "--suite", "all", "--max-n", "5",
                         "--max-deg", "6")
    assert code == 0
    registered = {id(memo) for memo in _MEMOS}
    return sorted(name for name, (value, size) in before.items()
                  if len(value) > size and id(value) not in registered)


def test_every_growing_memo_is_registered(capsys):
    assert _unregistered_growth(capsys) == []
    chromasym.clear_caches()
    assert not any(_MEMOS)


def test_an_unregistered_memo_fails_the_registry_check(monkeypatch, capsys):
    families = importlib.import_module("chromasym.families")
    scratch, path_seq = {}, families.path_seq

    def remembering_path_seq(n):
        scratch[n] = path_seq(n)
        return scratch[n]

    monkeypatch.setattr(families, "_scratch_memo", scratch, raising=False)
    monkeypatch.setattr(families, "path_seq", remembering_path_seq)
    assert _unregistered_growth(capsys) == ["chromasym.families._scratch_memo"]


@pytest.mark.parametrize("suite", ["partitions", "series", "families", "oracle", "all"])
@pytest.mark.parametrize("flag, floor", [("--max-n", 3), ("--max-deg", 2)])
def test_verify_bounds_below_the_floor_are_usage_errors(capsys, suite, flag, floor):
    for value in (-3, floor - 1):
        code, out, err = run_cli(capsys, "verify", "--suite", suite, flag, str(value))
        assert code == 2
        assert out == ""
        assert err == f"error: {flag} must be >= {floor}, got {value}\n"
    # and above the ceiling: the oracle's vertex bound and the CLI depth cap
    ceiling = {"--max-n": DEFAULT_MAX_VERTICES, "--max-deg": cli.MAX_DEPTH}[flag]
    code, out, err = run_cli(capsys, "verify", "--suite", suite, flag, str(ceiling + 1))
    assert code == 2
    assert out == ""
    assert err == f"error: {flag} must be <= {ceiling}, got {ceiling + 1}\n"


def test_verify_at_the_floors_checks_something_in_every_group(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--max-n", "3",
                           "--max-deg", "2", "--json")
    assert code == 0
    cases = json.loads(out)["cases"]
    assert cases
    for case in cases:
        assert case["status"] == "pass", case
        assert case["expected"] != "0 checks", case


def test_verify_at_the_default_bounds_keeps_every_group(capsys):
    # 38 is the group count the verify-all benchmark gates on
    # (VerifyAll.MIN_GROUPS in perfbench/workloads.py)
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--json")
    report = json.loads(out)
    assert code == 0 and report["failed"] == 0
    assert len(report["cases"]) >= 38
    assert {"path-gf", "cycle-gf"} <= {case["case"] for case in report["cases"]}


def _failed_groups(results) -> set[str]:
    return {r.case.partition(":")[0] for r in results if r.status != "pass"}


def test_merged_verify_groups_report_only_their_own_failures(monkeypatch):
    # the oracle and partition suites check several groups in one pass; a
    # fault in one check fails its own group and no other
    verify = cli.verify
    assert _failed_groups(verify.structural_check(5)) == set()
    assert _failed_groups(verify.epsilon_properties_check(6)) == set()
    with monkeypatch.context() as patch:
        patch.setattr(verify, "triple_deletion_check", lambda graph, tri: False)
        assert _failed_groups(verify.structural_check(5)) == {"triple-deletion"}
    with monkeypatch.context() as patch:
        patch.setattr(verify, "chromatic_count_check", lambda graph, k: False)
        assert _failed_groups(verify.structural_check(5)) == {"coloring-counts"}
    with monkeypatch.context() as patch:
        patch.setattr(verify, "epsilon_minus", lambda lam, j: -1)
        assert (_failed_groups(verify.epsilon_properties_check(6))
                == {"epsilon-scaling", "epsilon-removal"})


def test_series_suite_builds_its_gf_forms_transiently():
    # keeping every form's deepest build doubled the deep run's peak RSS, so
    # the series suite builds each form without the deepest-build memo
    chromasym.clear_caches()
    cli.verify.series_identities_check(12)
    assert cli.powerseries._deepest == {}


def test_verify_reads_gf_forms_and_coefficient_scales_from_the_table(monkeypatch):
    verify, families = cli.verify, cli.families
    assert _failed_groups(verify.series_identities_check(8)) == set()
    assert _failed_groups(verify.coefficient_sweeps_check(7)) == set()

    # the leaf twin's full form declared at scale 2, not 1
    leaf = FAMILIES["twin-path-leaf"]
    wrong = dict(leaf.gfs, full=(2, lambda N, ell: families.leaf_twin_gf(N)))
    monkeypatch.setitem(FAMILIES, "twin-path-leaf", dataclasses.replace(leaf, gfs=wrong))
    assert _failed_groups(verify.series_identities_check(8)) == {"twin-path-leaf-gf"}
    monkeypatch.undo()

    # the twinned cycle's printed coefficient formula declared at scale 1, not 2
    cyc = FAMILIES["twin-cycle"]
    wrong = dict(cyc.coeffs, printed=(1, families.twin_cycle_coeff))
    monkeypatch.setitem(FAMILIES, "twin-cycle", dataclasses.replace(cyc, coeffs=wrong))
    assert _failed_groups(verify.coefficient_sweeps_check(7)) == {"twin-cycle-coefficients"}
    monkeypatch.undo()

    # a form added to the path's entry, its alt form off by one at (3, 2):
    # caught at that partition only, with no edit to verify
    path = FAMILIES["path"]
    alt = path.coeffs["alt"][1]
    wrong = dict(path.coeffs, off=(1, lambda lam: alt(lam) + (lam == (3, 2))))
    monkeypatch.setitem(FAMILIES, "path", dataclasses.replace(path, coeffs=wrong))
    assert [r.case for r in verify.coefficient_sweeps_check(7)
            if r.status != "pass"] == ["path-coefficients:off:(3, 2)"]


def test_verify_checks_gf_forms_below_their_first_member(monkeypatch):
    # the same 2 e_3 z^3 in every twinned-cycle form times its scale: the
    # forms still agree with each other, and z^3 is below the first member's
    # z^(3+1), so only the check that each form is zero there can see it
    cyc = FAMILIES["twin-cycle"]
    shifted = {form: (scale, lambda N, ell, build=build, scale=scale: build(N, ell)
                      + Series.monomial(e(3) * (2 // scale), 3, N))
               for form, (scale, build) in cyc.gfs.items()}
    monkeypatch.setitem(FAMILIES, "twin-cycle", dataclasses.replace(cyc, gfs=shifted))
    failed = [r.case for r in cli.verify.series_identities_check(8) if r.status != "pass"]
    assert failed == [f"twin-cycle-gf:{form}-zero-below-z^4" for form in cyc.gfs]


def test_a_gf_route_reads_its_form_from_the_table(monkeypatch):
    verify, families = cli.verify, cli.families
    right = families.family_value("twin-path-leaf", 4, method="gf")
    assert _failed_groups(verify.family_sweep_check(6)) == set()

    # the leaf twin's half form declared at scale 1, not 2
    leaf = FAMILIES["twin-path-leaf"]
    wrong = dict(leaf.gfs, half=(1, leaf.gfs["half"][1]))
    monkeypatch.setitem(FAMILIES, "twin-path-leaf", dataclasses.replace(leaf, gfs=wrong))
    assert families.family_value("twin-path-leaf", 4, method="gf") * 2 == right
    assert _failed_groups(verify.family_sweep_check(6)) == {"method-and-oracle-agreement"}


def test_run_suites_takes_one_suite_name_as_a_string():
    verify = cli.verify
    one = verify.run_suites("series", max_n=3, max_deg=4)
    assert {r.suite for r in one} == {"series"}
    assert one == verify.run_suites(["series"], max_n=3, max_deg=4)
    every = verify.run_suites("all", max_n=3, max_deg=2)
    assert {r.suite for r in every} == set(verify.SUITES)
    assert every == verify.run_suites(["all"], max_n=3, max_deg=2)
    with pytest.raises(ValueError, match=r"unknown suites: \['nope'\]"):
        verify.run_suites("nope")


def test_run_suites_refuses_an_empty_selection():
    with pytest.raises(ValueError, match="no suites selected"):
        cli.verify.run_suites([])


def test_each_suite_alone_stamps_only_its_own_rows():
    verify = cli.verify
    # a check called directly leaves the suite to run_suites
    assert {r.suite for r in verify.epsilon_table_check()} == {""}
    alone = {suite: verify.run_suites(suite) for suite in verify.SUITES}
    for suite, rows in alone.items():
        assert rows and {r.suite for r in rows} == {suite}
        elsewhere = {r.case for other, rs in alone.items() if other != suite for r in rs}
        assert not elsewhere & {r.case for r in rows}, suite
    union = sorted((r for rows in alone.values() for r in rows), key=lambda r: (r.suite, r.case))
    assert len(union) == 40
    assert union == verify.run_suites("all")


def test_the_series_suite_scans_for_e_positivity_only_where_claimed(monkeypatch):
    verify = cli.verify
    monkeypatch.setattr(SymE, "negative_term", lambda self: ((2, 1), -1))
    monkeypatch.setitem(FAMILIES, "twin-cycle",
                        dataclasses.replace(FAMILIES["twin-cycle"], e_positive=False))
    results = verify.series_identities_check(8)
    groups = {r.case.partition(":")[0] for r in results}
    gf_groups = {group for group in groups if group.endswith("-gf")}
    assert len(gf_groups) == 10 and "twin-cycle-gf" in gf_groups
    assert _failed_groups(results) == (gf_groups - {"twin-cycle-gf"}) | {"epos-combos"}


def test_verify_checks_e_positivity_where_each_form_and_value_is_built(monkeypatch):
    verify = cli.verify
    monkeypatch.setattr(SymE, "negative_term", lambda self: ((2, 1), -1))

    results = verify.series_identities_check(8)
    groups = {r.case.partition(":")[0] for r in results}
    gf_groups = {group for group in groups if group.endswith("-gf")}
    assert len(gf_groups) == 10 and "twin-path-interior-ell6-gf" in gf_groups
    assert _failed_groups(results) == gf_groups | {"epos-combos"}
    # each -gf group fails on its first form's coefficients, one per degree
    for group in gf_groups:
        name = group.partition("-ell")[0].removesuffix("-gf")
        first = next(iter(FAMILIES[name].gfs))
        failed = {r.case for r in results if r.case.startswith(f"{group}:")}
        assert failed == {f"{group}:{first}-epos-z^{d}" for d in range(9)}, group

    assert _failed_groups(verify.family_sweep_check(6)) == {"family-values-epos"}


def test_verify_builds_each_gf_form_once_per_family_and_ell(monkeypatch):
    verify = cli.verify
    builds = {}

    def counted(name, form, build):
        def run(N, ell):
            builds[name, form, ell, N] = builds.get((name, form, ell, N), 0) + 1
            return build(N, ell)
        return run

    for name, spec in list(FAMILIES.items()):
        gfs = {form: (scale, counted(name, form, build))
               for form, (scale, build) in spec.gfs.items()}
        monkeypatch.setitem(FAMILIES, name, dataclasses.replace(spec, gfs=gfs))
    verify.run_suites(["all"], max_n=9, max_deg=12)

    want = {(name, form, ell) for name, spec in FAMILIES.items() for form in spec.gfs
            for ell in (verify.GF_ELLS if spec.ells else (None,))}
    assert {key[:3]: count for key, count in builds.items() if key[3] == 12} == \
        dict.fromkeys(want, 1)
    # the sweep's gf routes truncate at the member's own degree n + extra <= 9
    assert all(N <= 9 for *_, N in builds if N != 12)


def test_cli_depth_cap_stops_before_any_work(monkeypatch, capsys):
    def no_work(*args):
        raise AssertionError("computed past the depth cap")

    monkeypatch.setattr(cli.powerseries, "named_series", no_work)
    monkeypatch.setattr(cli.families, "family_value", no_work)
    monkeypatch.setattr(cli.families, "coeff_value", no_work)
    for argv, flag in ((("series", "--name", "path-gf", "--N", "100000"), "--N"),
                       (("series", "--name", "path-gf", "--N", "-1"), "--N"),
                       (("series", "--name", "E", "--N", str(cli.MAX_DEPTH + 1)), "--N"),
                       (("family", "--name", "twin-cycle", "--n", str(cli.MAX_DEPTH + 1)),
                        "--n"),
                       # twin-path-leaf has one extra vertex: n = |lambda| - 1
                       (("coeff", "--family", "twin-path-leaf",
                         "--lambda", str(cli.MAX_DEPTH + 2)), "--lambda")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith(f"error: {flag} must be") and str(cli.MAX_DEPTH) in err


def test_cli_depth_cap_admits_the_cap(capsys):
    code, out, _ = run_cli(capsys, "series", "--name", "E", "--N", str(cli.MAX_DEPTH),
                           "--extract", str(cli.MAX_DEPTH))
    assert code == 0
    assert out.strip() == f"e[{cli.MAX_DEPTH}]"
    code, out, _ = run_cli(capsys, "coeff", "--family", "twin-path-leaf",
                           "--lambda", str(cli.MAX_DEPTH + 1))
    assert code == 0
    assert out.strip() == str(2 * (cli.MAX_DEPTH + 1))


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH="src")

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "chromasym", *argv],
                              cwd=Path(__file__).resolve().parents[1], env=env,
                              capture_output=True, text=True, timeout=120)

    ok = run("csf", "--graph", "path:3")
    assert ok.returncode == 0
    assert ok.stdout == "3*e[3] + e[2,1]\n"
    bad = run("csf", "--graph", "g:n=3;edges=0-5")
    assert bad.returncode == 2
    assert bad.stdout == ""
    assert bad.stderr.startswith("error:")


def test_verify_failure_exit_code(monkeypatch, capsys):
    from chromasym.verify import CaseResult

    for failures in (1, 25):
        monkeypatch.setattr("chromasym.cli.verify.run_suites", lambda names, **kwargs: [
            CaseResult("partitions", f"synthetic-{i:02}", "fail", "1", "2")
            for i in range(failures)])
        code, out, _ = run_cli(capsys, "verify", "--suite", "partitions")
        assert code == 1
        lines = out.splitlines()
        # the first 20 failures are detailed, the rest counted
        assert [line for line in lines if line.startswith("FAIL")] == [
            f"FAIL  partitions/synthetic-{i:02}: expected 1, got 2"
            for i in range(min(failures, 20))]
        more = [f"... and {failures - 20} more failures"] if failures > 20 else []
        assert lines[-1 - len(more):] == more + [f"0 groups passed, {failures} failed"]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["csf"])  # missing required --graph
    assert exc.value.code == 2


# --- argv fuzzing -----------------------------------------------------------

# mostly ints in -3..12, so that many draws get past argparse
_INT_OR_NOT = st.sampled_from([str(i) for i in range(-3, 13)]
                              + ["", "x", "1.5", "-", "1e3", "0x4", "٣"])
_NAMES = st.sampled_from(list(FAMILIES) + ["twinned-cycle", "twin_path_leaf", "PATH",
                                        "heptagon", "", "twin-"])
_SERIES = st.sampled_from(["E", "D", "G", "K", "F1", "F2", "F3", "E_geq", "K_geq",
                           "G_geq", "G_leq", "path-gf", "cycle_gf", "H", "", "e"])
_METHODS = st.sampled_from(["all", "identity", "gf", "epos-gf", "epos_gf",
                            "recurrence", "oracle", ""])
_PARTITIONS = st.sampled_from(["0", "5", "5,2", "4,1,1", "3,3", "12", "2,2,2,2",
                               "", "x", "3,-1", "0,1", "1.5", "5,,2"])
_MALFORMED_GRAPH_SPECS = [
    "", "path", "path:", "path:x", "path:1.5", "path:3,4,5", "heptagon:9",
    "flagpole:3,x", "twin(path:3", "twin(path:3)", "twin(path:3,x)", "twin(path:3,7)",
    "twin(twin(path:3,1))", "g:n=3;edges=0-5", "g:n=3;edges=-1-2", "g:n=3;edges=0-0",
    "g:edges=0-1", "g:n=x", "g:n=-1", "g:n=3;foo=1", "g:n=3;edges=0-1-2",
    "g:n=3;edges=0-1,,1-2", "g:n=3;edges=0-", "cycle:2", "(", ")",
    "g:n=3;edges=0-1;n=2", "g:n=3;edges=0-1;edges=1-2",
]
_MALFORMED_GRAPHS = st.sampled_from(_MALFORMED_GRAPH_SPECS)


@pytest.mark.parametrize("spec", _MALFORMED_GRAPH_SPECS)
def test_malformed_graph_spec_is_usage_error(capsys, spec):
    code, out, err = run_cli(capsys, "csf", "--graph", spec)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert "unpack" not in err and "invalid literal" not in err
    bad_token = {"path:x": "x", "path:1.5": "1.5", "flagpole:3,x": "x", "twin(path:3,x)": "x",
                 "g:n=x": "x", "g:n=3;edges=0-1-2": "1-2", "g:n=3;edges=0-1,,1-2": ""}
    if spec in bad_token:
        assert err == f"error: bad graph spec {spec!r}: {bad_token[spec]!r} is not an integer\n"
    if spec == "twin(path:3":
        assert err == "error: bad twin spec 'twin(path:3': missing the closing ')'\n"


@st.composite
def _graph_specs(draw):
    """Graph specs with at most 9 vertices, well formed or not."""
    kind = draw(st.sampled_from(["family", "twin", "explicit", "malformed"]))
    if kind == "malformed":
        return draw(_MALFORMED_GRAPHS)
    if kind == "explicit":
        # ends in range except for loops; _MALFORMED_GRAPHS has the rest
        n = draw(st.integers(min_value=0, max_value=9))
        ends = st.integers(min_value=0, max_value=max(n - 1, 0))
        edges = draw(st.lists(st.tuples(ends, ends), max_size=6))
        return f"g:n={n};edges=" + ",".join(f"{a}-{b}" for a, b in edges)
    # family graphs have at most n + 2 vertices, and a twin adds one more
    top = 7 if kind == "family" else 6
    small = st.integers(min_value=-3, max_value=top).map(str)
    name = draw(_NAMES)
    params = draw(st.lists(small, min_size=1, max_size=2))
    spec = f"{name}:{','.join(params)}"
    if kind == "twin":
        spec = f"twin({spec},{draw(st.integers(min_value=-1, max_value=9))})"
    return spec


def _flags(draw, options):
    """Draw flags from (flag, value strategy or None, weight) options.

    A flag is passed when a draw from 0..9 is below its weight, so a
    required flag (weight 9) is usually present; the order is drawn too.
    """
    argv = []
    for flag, values, weight in draw(st.permutations(options)):
        if draw(st.integers(min_value=0, max_value=9)) < weight:
            argv.append(flag)
            if values is not None:
                argv.append(draw(values))
    return argv


@st.composite
def _argvs(draw):
    # verify is drawn least often: even its smallest run takes tens of ms
    command = draw(st.sampled_from(["csf", "series", "family", "coeff"] * 2
                                   + ["verify", "bogus", "--help"]))
    if command == "csf":
        options = [("--graph", _graph_specs(), 9), ("--check-colorings", _INT_OR_NOT, 3),
                   ("--json", None, 3)]
    elif command == "series":
        options = [("--name", _SERIES, 9), ("--N", _INT_OR_NOT, 7), ("--k", _INT_OR_NOT, 4),
                   ("--extract", _INT_OR_NOT, 5), ("--json", None, 3)]
    elif command == "family":
        options = [("--name", _NAMES, 9), ("--n", _INT_OR_NOT, 9), ("--ell", _INT_OR_NOT, 5),
                   ("--method", _METHODS, 5), ("--json", None, 3)]
    elif command == "coeff":
        options = [("--family", _NAMES, 9), ("--lambda", _PARTITIONS, 9),
                   ("--json", None, 3)]
    elif command == "verify":
        # --max-n and --max-deg are always small: the defaults make verify slow
        options = [("--suite", st.sampled_from(["partitions", "series", "families",
                                                "oracle", "all", "none"]), 9),
                   ("--max-n", st.integers(min_value=-3, max_value=4).map(str), 10),
                   ("--max-deg", st.integers(min_value=-3, max_value=4).map(str), 10),
                   ("--seed", _INT_OR_NOT, 3), ("--json", None, 3)]
    else:
        options = []
    argv = [command] + _flags(draw, options)
    if draw(st.integers(min_value=0, max_value=19)) == 0:
        argv.append(draw(st.sampled_from(["--help", "--bogus", "extra"])))
    return argv


def _call(argv, fresh_parser=False):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        if fresh_parser:
            stack.enter_context(mock.patch.object(cli, "_parser", cli.build_parser))
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse: usage errors and --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.lists(_argvs(), min_size=1, max_size=3))
def test_argv_fuzz_exit_codes_and_repeatability(argvs):
    first = [_call(argv) for argv in argvs]
    for argv, (code, out, err) in zip(argvs, first):
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in out + err, argv
    # main() shares one parser between calls: a repeat must print the same
    # bytes as the first call, and as a call through a parser of its own
    for argv, result in zip(reversed(argvs), reversed(first)):
        assert _call(argv) == result, argv
        assert _call(argv, fresh_parser=True) == result, argv


# --- dispatch: a call is parsed once, by its subcommand's parser ------------

def test_a_subcommand_call_skips_the_top_level_parser():
    def refuse(*args, **kwargs):
        raise AssertionError("the top-level parser parsed a subcommand call")

    with mock.patch.object(cli._parser(), "parse_known_args", refuse):
        assert _call(["csf", "--graph", "path:3"]) == (0, "3*e[3] + e[2,1]\n", "")


@pytest.mark.parametrize("argv, code, usage", [
    ([], 2, "usage: chromasym [-h] {"),
    (["--help"], 0, "usage: chromasym [-h] {"),
    (["-h", "csf"], 0, "usage: chromasym [-h] {"),
    (["bogus"], 2, "usage: chromasym [-h] {"),
    (["csf", "--help"], 0, "usage: chromasym csf [-h]"),
    (["csf", "--graph", "path:3", "extra"], 2, "usage: chromasym csf [-h]"),
])
def test_usage_comes_from_the_parser_that_parsed_the_call(argv, code, usage):
    got, out, err = _call(argv)
    assert got == code
    printed = out if code == 0 else err  # help goes to stdout, usage errors to stderr
    assert printed.startswith(usage), printed
    assert (err if code == 0 else out) == ""
    if argv[-1:] == ["extra"]:
        assert err.endswith("chromasym csf: error: unrecognized arguments: extra\n")


def test_main_without_argv_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["chromasym", "csf", "--graph", "path:3"])
    assert main() == 0
    assert capsys.readouterr().out == "3*e[3] + e[2,1]\n"
