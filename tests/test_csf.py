import importlib
import time
from itertools import combinations, product
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

import chromasym
from chromasym import families as fam
from chromasym import verify
from chromasym.csf import (COUNT_MAX_K, COUNT_MAX_VERTICES, chromatic_count_check,
                           count_proper_colorings, csf,
                           leaf_twin_reduction_check, near_triangle_check,
                           triple_deletion_check)
from chromasym.graphs import (Graph, cycle, delete_edge, disjoint_union, family, path,
                              twin, triangles)
from chromasym.symfun import SymE, e, e_term, power_sum_lambda_to_e


def brute_force_colorings(g, k):
    # independent oracle: full scan of the k^n assignments, up to a colour
    # swap: swapping two colours maps proper colourings onto proper
    # colourings, so those with vertex 0 coloured 0 are 1/k of them
    if g.n == 0:
        return 1
    total = 0
    for assignment in product(range(1), *[range(k)] * (g.n - 1)):
        for a, b in g.edges:
            if assignment[a] == assignment[b]:
                break
        else:
            total += 1
    return k * total


def subset_sum_csf(g):
    # independent oracle: Stanley's sum over all 2^|E| edge subsets S of
    # (-1)^|S| p_lam(S), lam(S) the component sizes of (V, S)
    n = g.n
    edges = g.edge_list()
    tally: dict[tuple, int] = {}
    for mask in range(1 << len(edges)):
        parent = list(range(n))
        m = mask
        while m:
            low = m & -m
            m ^= low
            a, b = edges[low.bit_length() - 1]
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            while parent[b] != b:
                parent[b] = parent[parent[b]]
                b = parent[b]
            if a != b:
                parent[b] = a
        sizes: dict[int, int] = {}
        for v in range(n):
            r = v
            while parent[r] != r:
                r = parent[r]
            sizes[r] = sizes.get(r, 0) + 1
        lam = tuple(sorted(sizes.values(), reverse=True))
        sign = -1 if mask.bit_count() & 1 else 1
        tally[lam] = tally.get(lam, 0) + sign

    total = SymE.zero()
    for lam, count in tally.items():
        if count:
            total = total + power_sum_lambda_to_e(lam) * count
    return total


def complete(n):
    return Graph(n, combinations(range(n), 2))


def star(leaves):
    return Graph(leaves + 1, [(0, v) for v in range(1, leaves + 1)])


def test_csf_fixtures():
    assert csf(path(3)) == e_term((2, 1)) + e(3) * 3
    assert csf(path(0)) == SymE.one()
    assert csf(twin(path(2), 0)) == csf(cycle(3)) == e(3) * 6
    assert csf(family("twin-path-both", 2)) == e(4) * 24


def test_csf_path4():
    assert csf(path(4)) == e_term((2, 2), 2) + e_term((3, 1), 2) + e(4) * 4


def test_csf_homogeneous():
    for g in (path(5), cycle(6), family("twin-cycle", 4), family("twin-path-both", 3)):
        assert csf(g).homogeneous_degree() == g.n


def test_csf_multiplicative():
    pairs = [(path(2), path(3)), (cycle(3), path(4)), (cycle(4), cycle(4)),
             (path(1), cycle(5)), (twin(path(3), 1), path(2))]
    for g, h in pairs:
        assert csf(disjoint_union(g, h)) == csf(g) * csf(h)


def test_csf_single_vertex_and_edgeless():
    assert csf(path(1)) == e(1)
    assert csf(Graph(3)) == e_term((1, 1, 1))


def test_csf_matches_subset_sum_on_family_graphs():
    graphs = [g for *_, g in verify.family_instances(8) if g is not None]
    assert len(graphs) == 117
    for g in graphs:
        assert csf(g) == subset_sum_csf(g), g


def test_csf_matches_subset_sum_edge_cases():
    for g in (Graph(0), Graph(5), complete(5), star(7),
              disjoint_union(cycle(3), disjoint_union(path(1), twin(path(3), 1)))):
        assert csf(g) == subset_sum_csf(g), g


def test_csf_at_vertex_bound(monkeypatch):
    # a cold memo, so the budget times the oracle itself (the package
    # re-exports the function csf under the module's name)
    monkeypatch.setattr(importlib.import_module("chromasym.csf"), "_csf_memo", {})
    # P_10 twinned at a leaf and three interior vertices has 14 vertices and
    # 20 edges: the 2^|E| subset sum takes seconds on it
    dense = path(10)
    for v in (0, 3, 5, 7):
        dense = twin(dense, v)
    assert len(dense.edges) == 20
    cases = [(dense, [])]
    for name, spec in fam.FAMILIES.items():
        n = 14 - spec.extra
        ell = spec.ells(n)[len(spec.ells(n)) // 2] if spec.ells else None
        cases.append((family(name, n, ell), [fam.family_value(name, n, ell)]))
    cases.append((family("twin-cycle", 13), [fam.family_value("twin-cycle", 13, None, m)
                                   for m in fam.methods_for("twin-cycle")]))
    cases.append((star(13), [subset_sum_csf(star(13))]))
    start = time.perf_counter()
    got = [csf(g) for g, _ in cases]
    elapsed = time.perf_counter() - start
    for (g, wants), value in zip(cases, got):
        assert g.n == 14
        assert all(value == want for want in wants), g
    for k in range(4):
        assert got[0].eval_elementary([1] * k) == count_proper_colorings(dense, k)
    assert elapsed <= 3.0, f"oracle at 14 vertices took {elapsed:.2f}s, budget 3s"


def test_csf_size_bound():
    with pytest.raises(ValueError, match="15 vertices, oracle bound is 14"):
        csf(Graph(15))


def test_csf_of_complete_graphs():
    # dense graphs are computed: K_12 has 66 edges
    for n in range(8, 13):
        assert csf(complete(n)) == e(n) * factorial(n), n


def test_coloring_counts_against_full_scan():
    cases = [(path(3), 2), (path(4), 3), (cycle(3), 2), (cycle(4), 3),
             (cycle(5), 3), (twin(path(3), 1), 3)]
    for g, k in cases:
        assert count_proper_colorings(g, k) == brute_force_colorings(g, k)


def test_coloring_tally_is_shared_across_palette_sizes():
    # one tally per graph serves every k: the counts may not depend on
    # which palette size filled it, so run k ascending and descending
    graphs = [g for *_, g in verify.family_instances(8) if g is not None]
    graphs += [complete(8), Graph(8)]
    want = {(g, k): brute_force_colorings(g, k)
            for g in set(graphs) for k in range(COUNT_MAX_K + 1)}
    for ks in (range(COUNT_MAX_K + 1), range(COUNT_MAX_K, -1, -1)):
        chromasym.clear_caches()
        for g in graphs:
            for k in ks:
                assert count_proper_colorings(g, k) == want[g, k], (g, k)


def test_equal_graphs_share_one_oracle_and_one_tally_entry():
    # the memos are keyed by the graph itself: equal graphs built by twin and
    # delete, by reversed edge order and orientation, and spelled out share
    # one entry
    g = delete_edge(twin(path(5), 2), 2, 5)
    spellings = [g, Graph(6, [(b, a) for a, b in reversed(g.edge_list())]),
                 Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (3, 5)])]
    oracle = importlib.import_module("chromasym.csf")
    chromasym.clear_caches()
    for h in spellings:
        csf(h)
        count_proper_colorings(h, 3)
    for memo in (oracle._csf_memo, oracle._tally_memo):
        [key] = memo
        assert type(key) is Graph and key == g


def test_coloring_counter_refuses_graphs_past_the_oracle_bound():
    # cold, the tally of path:15 alone would take about a second; the
    # refusal comes before any tally work
    chromasym.clear_caches()
    start = time.perf_counter()
    with pytest.raises(ValueError, match="graph has 15 vertices, oracle bound is 14"):
        count_proper_colorings(path(15), 3)
    assert time.perf_counter() - start < 1.0
    assert count_proper_colorings(path(14), 3) == 3 * 2 ** 13
    # the palette is checked first, before the vertex bound
    with pytest.raises(ValueError, match="palette size"):
        count_proper_colorings(Graph(15), -1)


@st.composite
def simple_graphs(draw, max_n=7, max_edges=None):
    n = draw(st.integers(min_value=0, max_value=max_n))
    edges = draw(st.sets(st.sampled_from(list(combinations(range(n), 2))), max_size=max_edges)
                 if n >= 2 else st.just(set()))
    return Graph(n, edges)


@settings(derandomize=True)
@given(simple_graphs(), st.integers(min_value=0, max_value=5))
def test_coloring_counts_match_full_scan_on_random_graphs(g, k):
    assert count_proper_colorings(g, k) == brute_force_colorings(g, k)


# at most 14 edges keeps the 2^|E| reference fast
@settings(derandomize=True)
@given(simple_graphs(max_n=8, max_edges=14))
def test_csf_subset_sum_and_colorings_agree_on_random_graphs(g):
    value = csf(g)
    assert value == subset_sum_csf(g)
    for k in range(4):
        assert value.eval_elementary([1] * k) == count_proper_colorings(g, k)


def test_coloring_count_edge_cases():
    for k in range(6):
        assert count_proper_colorings(Graph(0), k) == 1
        assert (count_proper_colorings(family("twin-cycle", 3), k)
                == k * (k - 1) * (k - 2) * (k - 3))
        for n in range(1, 6):
            assert count_proper_colorings(Graph(n), k) == k ** n
    for n in range(1, 6):
        assert count_proper_colorings(path(n), 0) == 0
    assert all(count_proper_colorings(family("twin-cycle", 3), k) == 0 for k in range(4))
    with pytest.raises(ValueError, match="palette size"):
        count_proper_colorings(path(3), -1)


def test_count_check_fixture_values():
    # frozen from the full-scan oracle
    assert brute_force_colorings(path(3), 2) == 2
    assert brute_force_colorings(cycle(3), 2) == 0
    assert brute_force_colorings(cycle(4), 3) == 18
    assert chromatic_count_check(path(3), 2)
    assert chromatic_count_check(cycle(3), 2)
    assert chromatic_count_check(cycle(4), 3)


def test_count_check_bounds():
    assert (COUNT_MAX_VERTICES, COUNT_MAX_K) == (8, 5)
    bounds = "at most 8 vertices and k <= 5"
    with pytest.raises(ValueError, match=bounds + r" \(n=3, k=9\)"):
        chromatic_count_check(path(3), 9)
    with pytest.raises(ValueError, match=bounds + r" \(n=3, k=6\)"):
        chromatic_count_check(path(3), 6)
    with pytest.raises(ValueError, match=bounds + r" \(n=9, k=3\)"):
        chromatic_count_check(path(9), 3)
    assert chromatic_count_check(path(8), 5)
    with pytest.raises(ValueError, match="palette size"):
        chromatic_count_check(path(3), -1)
    # the palette is checked first, before the vertex bound and the oracle
    with pytest.raises(ValueError, match="palette size"):
        chromatic_count_check(Graph(15), -1)


def test_triple_deletion_on_twin():
    g = twin(path(3), 0)
    tri = next(iter(triangles(g)))
    assert triple_deletion_check(g, tri)


def test_triple_deletion_on_k4_all_faces():
    k4 = family("twin-cycle", 3)
    for tri in triangles(k4):
        assert triple_deletion_check(k4, tri)


def test_triple_deletion_requires_triangle():
    with pytest.raises(ValueError):
        triple_deletion_check(path(4), (0, 1, 2))


def test_near_triangle_identity():
    assert near_triangle_check(path(3), 1, 0, 2)
    assert near_triangle_check(cycle(5), 1, 0, 2)
    with pytest.raises(ValueError):
        near_triangle_check(cycle(3), 1, 0, 2)


def test_leaf_twin_reduction():
    for m in range(1, 7):
        assert leaf_twin_reduction_check(path(m), m - 1)


def test_leaf_twin_reduction_nonleaf_anchor():
    assert leaf_twin_reduction_check(cycle(4), 0)
