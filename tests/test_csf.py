from itertools import product

import pytest

from chromasym.csf import (chromatic_count_check, count_proper_colorings, csf,
                           leaf_twin_reduction_check, near_triangle_check,
                           triple_deletion_check)
from chromasym.graphs import (Graph, cycle, disjoint_union, path, twin,
                              twin_cycle, twin_path_both, triangles)
from chromasym.symfun import SymE, e, e_term


def brute_force_colorings(g, k):
    # independent oracle: full k^n scan
    total = 0
    for assignment in product(range(k), repeat=g.n):
        if all(assignment[a] != assignment[b] for a, b in g.edges):
            total += 1
    return total


def test_csf_fixtures():
    assert csf(path(3)) == e_term((2, 1)) + e(3) * 3
    assert csf(path(0)) == SymE.one()
    assert csf(twin(path(2), 0)) == csf(cycle(3)) == e(3) * 6
    assert csf(twin_path_both(2)) == e(4) * 24


def test_csf_path4():
    assert csf(path(4)) == e_term((2, 2), 2) + e_term((3, 1), 2) + e(4) * 4


def test_csf_homogeneous():
    for g in (path(5), cycle(6), twin_cycle(4), twin_path_both(3)):
        assert csf(g).homogeneous_degree() == g.n


def test_csf_multiplicative():
    pairs = [(path(2), path(3)), (cycle(3), path(4)), (cycle(4), cycle(4)),
             (path(1), cycle(5)), (twin(path(3), 1), path(2))]
    for g, h in pairs:
        assert csf(disjoint_union(g, h)) == csf(g) * csf(h)


def test_csf_single_vertex_and_edgeless():
    assert csf(path(1)) == e(1)
    assert csf(Graph(3)) == e_term((1, 1, 1))


def test_csf_size_bound():
    with pytest.raises(ValueError):
        csf(Graph(15))
    with pytest.raises(ValueError):
        csf(cycle(12), max_edges=5)


def test_csf_respects_env_bound(monkeypatch):
    monkeypatch.setenv("CHROMASYM_MAX_N", "4")
    with pytest.raises(ValueError):
        csf(path(5))
    monkeypatch.setenv("CHROMASYM_MAX_N", "6")
    assert csf(path(5)).homogeneous_degree() == 5


def test_csf_rejects_non_integer_env_bound(monkeypatch):
    monkeypatch.setenv("CHROMASYM_MAX_N", "4.5")
    with pytest.raises(ValueError, match="CHROMASYM_MAX_N.*4.5"):
        csf(path(3))


def test_coloring_counts_against_full_scan():
    cases = [(path(3), 2), (path(4), 3), (cycle(3), 2), (cycle(4), 3),
             (cycle(5), 3), (twin(path(3), 1), 3)]
    for g, k in cases:
        assert count_proper_colorings(g, k) == brute_force_colorings(g, k)


def test_count_check_fixture_values():
    # frozen from the full-scan oracle
    assert brute_force_colorings(path(3), 2) == 2
    assert brute_force_colorings(cycle(3), 2) == 0
    assert brute_force_colorings(cycle(4), 3) == 18
    assert chromatic_count_check(path(3), 2)
    assert chromatic_count_check(cycle(3), 2)
    assert chromatic_count_check(cycle(4), 3)


def test_count_check_bounds():
    with pytest.raises(ValueError):
        chromatic_count_check(path(3), 9)
    with pytest.raises(ValueError):
        chromatic_count_check(path(3), 3, max_vertices=2)


def test_triple_deletion_on_twin():
    g = twin(path(3), 0)
    tri = next(iter(triangles(g)))
    assert triple_deletion_check(g, tri)


def test_triple_deletion_on_k4_all_faces():
    k4 = twin_cycle(3)
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
