"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every comparison is exact (integer coefficients); the stated runtime budgets
are asserted.  Run with `pytest tests/test_acceptance.py -s` to see the
per-criterion lines.
"""

import time

from chromasym import verify


def _run(label, checks, limit=None):
    start = time.perf_counter()
    results = []
    for fn in checks:
        results.extend(fn())
    elapsed = time.perf_counter() - start
    failures = [r for r in results if r.status != "pass"]
    in_budget = limit is None or elapsed <= limit
    verdict = "PASS" if not failures and in_budget else "FAIL"
    budget = f", budget {limit:.0f}s" if limit is not None else ""
    print(f"[acceptance] {label}: {verdict} ({elapsed:.2f}s{budget})")
    detail = "; ".join(f"{r.case}: expected {r.expected}, got {r.actual}"
                       for r in failures[:5])
    assert not failures, detail
    assert in_budget, f"{label} took {elapsed:.2f}s, budget {limit}s"
    return results


def test_criterion_1_epsilon_table():
    _run("criterion 1 (epsilon table)",
         [verify.epsilon_table_check], limit=1.0)


def test_criterion_2_oracle_fixtures():
    _run("criterion 2 (printed fixture expansions)",
         [verify.fixtures_check], limit=5.0)


def test_criterion_3_formula_vs_oracle_sweep():
    _run("criterion 3 (every method vs oracle, graphs up to 9 vertices)",
         [lambda: verify.family_sweep_check(max_vertices=9)], limit=60.0)


def test_criterion_4_generating_function_identities():
    _run("criterion 4 (generating function identities at N=12)",
         [lambda: verify.series_identities_check(trunc=12)], limit=30.0)


def test_criterion_5_coefficient_formulas():
    _run("criterion 5 (coefficient formulas, partitions up to size 10)",
         [lambda: verify.coefficient_sweeps_check(max_size=9)],
         limit=30.0)


def test_criterion_6_e_positivity():
    results = _run("criterion 6 (e-positivity of family values and gf coefficients)",
                   [lambda: verify.family_sweep_check(max_vertices=9),
                    lambda: verify.series_identities_check(trunc=12)])
    groups = {r.case for r in results}
    assert "family-values-epos" in groups
    assert {"path-gf", "cycle-gf", "twin-path-leaf-gf", "twin-path-both-gf",
            "twin-cycle-gf"} <= groups
    assert {f"twin-path-interior-ell{ell}-gf" for ell in range(2, 7)} <= groups


def test_criterion_7_structural_properties():
    _run("criterion 7 (statistic identities, deletion identities, colorings)",
         [lambda: verify.epsilon_properties_check(max_size=12),
          lambda: verify.enumeration_check(max_size=12),
          lambda: verify.structural_check(max_vertices=9)],
         limit=5.0)
