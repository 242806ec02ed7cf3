from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from chromasym.graphs import (Graph, add_edge, cycle, delete_edge,
                              disjoint_union, family, parse_graph, path,
                              triangles, twin)


def test_path_basics():
    assert path(1).n == 1 and not path(1).edges
    assert path(4).edges == {(0, 1), (1, 2), (2, 3)}
    assert path(0).n == 0


def test_cycle_basics():
    assert cycle(3).edges == {(0, 1), (1, 2), (0, 2)}
    with pytest.raises(ValueError):
        cycle(2)


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)])
    assert Graph(3, [(0, 1), (1, 0)]).edges == {(0, 1)}


def test_twin_of_path2_is_triangle():
    assert twin(path(2), 0) == cycle(3)


def test_twin_of_triangle_is_k4():
    k4 = twin(cycle(3), 0)
    assert k4.n == 4
    assert len(k4.edges) == 6


def test_twin_of_isolated_vertex():
    assert twin(path(1), 0) == path(2)


def test_twin_counts():
    g = cycle(5)
    t = twin(g, 2)
    assert t.n == g.n + 1
    assert len(t.edges) == len(g.edges) + len(g.neighbors(2)) + 1


def test_edge_operations():
    assert delete_edge(cycle(4), 0, 3) == path(4)
    assert add_edge(path(3), 0, 2) == cycle(3)
    du = disjoint_union(path(2), path(1))
    assert du.n == 3 and du.edges == {(0, 1)}
    with pytest.raises(ValueError):
        delete_edge(path(3), 0, 2)
    with pytest.raises(ValueError):
        add_edge(path(3), 0, 1)


def test_twin_then_deletions_recover_disjoint_union():
    g = path(3)
    t = twin(g, 1)  # clone vertex 3 adjacent to 1 and its neighbors 0, 2
    stripped = delete_edge(delete_edge(delete_edge(t, 3, 1), 3, 0), 3, 2)
    assert stripped == disjoint_union(g, path(1))


def test_flagpole_at_end_is_path():
    f = family("flagpole", 3, 1)
    assert sorted(f.degree_sequence()) == sorted(path(4).degree_sequence())
    assert len(f.edges) == 3


def test_triangle_path_shape():
    t = family("triangle-path", 4, 2)
    assert t.n == 5
    assert t.has_edge(1, 4) and t.has_edge(2, 4)
    assert list(triangles(t)) == [(1, 2, 4)]


def test_moose_shape():
    a6 = family("moose", 4)
    assert a6.n == 6
    degs = a6.degree_sequence()
    assert degs.count(3) == 2 and degs.count(1) == 2
    assert family("moose", 2) == Graph(4, [(0, 1), (0, 2), (1, 3)])
    for n in range(3, 8):
        degs = family("moose", n).degree_sequence()
        assert degs.count(3) == 2 and degs.count(1) == 2
        assert degs.count(2) == n - 2


def test_twin_cycle_3_is_k4():
    assert family("twin-cycle", 3) == twin(cycle(3), 0)
    assert len(family("twin-cycle", 3).edges) == 6


def test_dgraph_and_tadpole_edge_counts():
    for n in range(3, 7):
        tc = family("twin-cycle", n)
        assert len(family("dgraph", n).edges) == len(tc.edges) - 1
        assert len(family("tadpole", n).edges) == len(tc.edges) - 2
        degs = family("tadpole", n).degree_sequence()
        assert degs.count(1) == 1 and degs.count(3) == 1


def test_twin_path_families():
    assert family("twin-path-leaf", 1) == path(2)
    both = family("twin-path-both", 2)
    assert both.n == 4 and len(both.edges) == 6
    g = family("twin-path-interior", 5, 3)
    assert g.n == 6
    assert g.has_edge(5, 2) and g.has_edge(5, 1) and g.has_edge(5, 3)
    with pytest.raises(ValueError):
        family("twin-path-interior", 5, 1)
    with pytest.raises(ValueError):
        family("twin-path-interior", 5, 5)


def test_family_dispatch():
    assert family("moose", 4) == Graph(6, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 5)])
    assert family("twinned-cycle", 3) == twin(cycle(3), 0)
    assert family("flagpole", 3, 1) == Graph(4, [(0, 1), (1, 2), (0, 3)])
    with pytest.raises(ValueError):
        family("flagpole", 3)
    with pytest.raises(ValueError):
        family("path", 3, 1)
    with pytest.raises(ValueError):
        family("nonsense", 3)


def test_parse_graph():
    assert parse_graph("path:7") == path(7)
    assert parse_graph("cycle:6") == cycle(6)
    assert parse_graph("twin(cycle:6,0)") == twin(cycle(6), 0)
    assert parse_graph("twin(twin(path:3,1),0)") == twin(twin(path(3), 1), 0)
    assert parse_graph("moose:5") == family("moose", 5)
    assert parse_graph("flagpole:9,4") == family("flagpole", 9, 4)
    assert parse_graph("g:n=5;edges=0-1,1-2") == Graph(5, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        parse_graph("path")
    with pytest.raises(ValueError):
        parse_graph("g:edges=0-1")


def test_parse_graph_counts_vertices_up_to_the_oracle_bound():
    # a twin( nest counts its base and its depth; 14 vertices is the bound
    want = path(3)
    for _ in range(11):
        want = twin(want, 0)
    assert parse_graph("twin(" * 11 + " path:3" + ",0)" * 11) == want
    with pytest.raises(ValueError, match="^graph has 15 vertices, oracle bound is 14$"):
        parse_graph("twin(" * 12 + "path:3" + ",0)" * 12)
    assert parse_graph("moose:12").n == 14
    with pytest.raises(ValueError, match="^graph has 15 vertices"):
        parse_graph("moose:13")


def test_triangles_enumeration():
    assert list(triangles(path(5))) == []
    assert list(triangles(cycle(3))) == [(0, 1, 2)]
    k4 = family("twin-cycle", 3)
    assert len(list(triangles(k4))) == 4


@pytest.mark.parametrize("name", ["twin-cycle", "cycle"])
@pytest.mark.parametrize("n", [1, 2])
def test_pinned_members_have_no_graph(name, n):
    want = (f"family {name!r} at n={n} is a pinned convention with no graph; "
            f"graphs start at n=3")
    with pytest.raises(ValueError) as by_family:
        family(name, n)
    with pytest.raises(ValueError) as by_spec:
        parse_graph(f"{name}:{n}")
    assert str(by_family.value) == str(by_spec.value) == want
    assert family(name, 3).n >= 3


@st.composite
def graphs(draw, max_n=14):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    # each edge given in either orientation
    return Graph(n, [(b, a) if draw(st.booleans()) else (a, b) for a, b in sorted(edges)])


@settings(derandomize=True)
@given(graphs(), st.data())
def test_adjacency_masks_are_the_edge_set(g, data):
    derived = [g, disjoint_union(g, data.draw(graphs(max_n=5)))]
    if g.n:
        derived.append(twin(g, data.draw(st.integers(min_value=0, max_value=g.n - 1))))
    if g.edges:
        derived.append(delete_edge(g, *data.draw(st.sampled_from(sorted(g.edges)))))
    non_edges = [pair for pair in combinations(range(g.n), 2) if pair not in g.edges]
    if non_edges:
        derived.append(add_edge(g, *data.draw(st.sampled_from(non_edges))))
    for h in derived:
        assert len(h.adj) == h.n
        degrees = [0] * h.n
        for a, b in h.edges:
            degrees[a] += 1
            degrees[b] += 1
        for v in range(h.n):
            assert h.adj[v] >> h.n == 0
            for u in range(h.n):
                assert bool(h.adj[v] >> u & 1) == (u != v and h.has_edge(u, v)), (h, u, v)
            scan = sorted(b if a == v else a for a, b in h.edges if v in (a, b))
            assert h.neighbors(v) == scan, (h, v)
        assert h.degree_sequence() == sorted(degrees, reverse=True), h
