"""The benchmark's own test: every workload's gate passes the program's real
answers and catches a corrupted one.

    python3 perfbench/selftest.py

Runs in a few seconds on reduced inputs (a prefix of the query mix, the two
smallest oracle graphs, a shallow truncation, a synthetic verify report) and
exits 1 if a gate misses a corruption or rejects a correct answer.
"""

import importlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402

MODS = {m: importlib.import_module(f"chromasym.{m}") for m in workloads.MODULES}
FAILURES = []


def expect(label: str, verdicts: dict, want: set) -> None:
    ok = set(verdicts) == want
    print(f"{'ok  ' if ok else 'FAIL'} {label}: flagged {sorted(verdicts)}")
    if not ok:
        FAILURES.append(label)


def answers(load) -> list:
    return [op() for op in load.ops()]


def query_mix() -> None:
    load = workloads.QueryMix(MODS, 7)
    load.queries = load.queries[:300]
    values = answers(load)
    expect("query-mix real answers", load.gate(values), set())
    argvs = [argv for argv, _ in load.queries]
    once = [i for i, argv in enumerate(argvs) if argvs.count(argv) == 1]
    value_at = next(i for i in once if load.queries[i][1][0] == "value")
    usage_at = next(i for i in once if load.queries[i][1][0] == "usage")
    code, out, err = values[value_at]
    values[value_at] = (code, out.replace("e[", "2*e[", 1), err)
    values[usage_at] = (0, "", "")
    expect("query-mix corrupted value and exit code", load.gate(values),
           {value_at, usage_at})


def oracle_dense() -> None:
    load = workloads.OracleDense(MODS, 7)
    load.graphs, load.named = load.graphs[:2], load.named[:2]
    values = answers(load)
    expect("oracle-dense real answers", load.gate(values), set())
    n = load.graphs[1].n
    values[1] = values[1] + MODS["symfun"].e(n) - MODS["symfun"].e_term((n - 1, 1))
    expect("oracle-dense corrupted csf", load.gate(values), {1})


def series_deep() -> None:
    load = workloads.SeriesDeep(MODS, 7)
    load.N = 10
    values = answers(load)
    expect("series-deep real answers", load.gate(values), set())
    coeffs = list(values[2].coeffs)
    coeffs[5] = coeffs[5] + MODS["symfun"].e_term((3, 2))
    values[2] = MODS["powerseries"].Series(coeffs, load.N)
    expect("series-deep corrupted coefficient", load.gate(values), {2})


def verify_all() -> None:
    load = workloads.VerifyAll(MODS, 7)
    case = {"suite": "oracle", "case": "x", "status": "pass",
            "expected": "3 checks", "actual": "3 checks"}
    good = {"cases": [case] * 40, "failed": 0}
    expect("verify-all clean report", load.gate([(0, json.dumps(good), "")]), set())
    bad = {"cases": [case] * 39 + [dict(case, status="fail")], "failed": 1}
    expect("verify-all failing report", load.gate([(1, json.dumps(bad), "")]), {0})
    short = {"cases": [case] * 20, "failed": 0}
    expect("verify-all too few groups", load.gate([(0, json.dumps(short), "")]), {0})


if __name__ == "__main__":
    for check in (query_mix, oracle_dense, series_deep, verify_all):
        check()
    sys.exit(1 if FAILURES else 0)
