"""Simple labeled graphs and the constructions the family formulas are about.

Vertices are dense integers 0..n-1.  Family constructors keep a documented,
deterministic labeling: the path or cycle spine is always 0..n-1 and added
vertices are appended in definition order, so tests can name the twinned
vertex unambiguously.  Positions inside a spine are 1-based to match the
usual combinatorial indexing of path vertices.
"""

from __future__ import annotations

from typing import Iterable, Optional


def _norm_edge(u: int, v: int) -> tuple[int, int]:
    if u == v:
        raise ValueError(f"loop edge at vertex {u}")
    return (u, v) if u < v else (v, u)


class Graph:
    """Simple undirected graph on vertices 0..n-1; immutable."""

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be >= 0")
        es = set()
        for u, v in edges:
            edge = _norm_edge(u, v)
            if not (0 <= edge[0] and edge[1] < n):
                raise ValueError(f"edge {edge} out of range for {n} vertices")
            es.add(edge)
        self.n = n
        self.edges = frozenset(es)

    def has_edge(self, u: int, v: int) -> bool:
        return _norm_edge(u, v) in self.edges

    def neighbors(self, v: int) -> list[int]:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range")
        out = []
        for a, b in self.edges:
            if a == v:
                out.append(b)
            elif b == v:
                out.append(a)
        return sorted(out)

    def degree_sequence(self) -> list[int]:
        degs = [0] * self.n
        for a, b in self.edges:
            degs[a] += 1
            degs[b] += 1
        return sorted(degs, reverse=True)

    def edge_list(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        es = ",".join(f"{a}-{b}" for a, b in self.edge_list())
        return f"Graph(n={self.n}; {es})"


def path(n: int) -> Graph:
    """Path on n vertices 0..n-1 (n=0 gives the empty graph)."""
    if n < 0:
        raise ValueError("path needs n >= 0")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    """Cycle on n >= 3 vertices (smaller cycles are not simple graphs)."""
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def twin(g: Graph, v: int) -> Graph:
    """Add a clone of v (new vertex g.n) adjacent to v and all its neighbors."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    extra = [(g.n, v)] + [(g.n, u) for u in g.neighbors(v)]
    return Graph(g.n + 1, list(g.edges) + extra)


def delete_edge(g: Graph, u: int, v: int) -> Graph:
    if not g.has_edge(u, v):
        raise ValueError(f"edge {u}-{v} not present")
    return Graph(g.n, g.edges - {_norm_edge(u, v)})


def add_edge(g: Graph, u: int, v: int) -> Graph:
    if g.has_edge(u, v):
        raise ValueError(f"edge {u}-{v} already present")
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError(f"edge {u}-{v} out of range")
    return Graph(g.n, list(g.edges) + [(u, v)])


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """g together with h, the vertices of h shifted up by g.n."""
    shifted = [(a + g.n, b + g.n) for a, b in h.edges]
    return Graph(g.n + h.n, list(g.edges) + shifted)


def triangles(g: Graph):
    """All vertex triples (a, b, c), a<b<c, whose three edges are present."""
    for a, b in g.edge_list():
        for c in range(b + 1, g.n):
            if g.has_edge(a, c) and g.has_edge(b, c):
                yield (a, b, c)


def flagpole(n: int, ell: int) -> Graph:
    """Path 0..n-1 plus a pendant vertex n attached at spine position ell (1-based)."""
    if n < 1 or not 1 <= ell <= n:
        raise ValueError(f"flagpole needs n >= 1 and 1 <= ell <= n, got ({n}, {ell})")
    return Graph(n + 1, list(path(n).edges) + [(ell - 1, n)])


def triangle_path(n: int, ell: int) -> Graph:
    """Path 0..n-1 plus a vertex n adjacent to spine positions ell and ell+1 (1-based)."""
    if n < 2 or not 1 <= ell <= n - 1:
        raise ValueError(f"triangle_path needs n >= 2 and 1 <= ell <= n-1, got ({n}, {ell})")
    return Graph(n + 1, list(path(n).edges) + [(ell - 1, n), (ell, n)])


def twin_path_leaf(n: int) -> Graph:
    """Path on n vertices twinned at the leaf n-1 (at the only vertex when n=1)."""
    if n < 1:
        raise ValueError("twin_path_leaf needs n >= 1")
    return twin(path(n), n - 1)


def twin_path_both(n: int) -> Graph:
    """Path on n >= 2 vertices twinned at both leaves (clone of 0 first, then of n-1)."""
    if n < 2:
        raise ValueError("twin_path_both needs n >= 2")
    return twin(twin(path(n), 0), n - 1)


def twin_path_interior(n: int, ell: int) -> Graph:
    """Path on n vertices twinned at interior spine position ell (1-based, 2 <= ell <= n-1)."""
    if not 2 <= ell <= n - 1:
        raise ValueError(f"interior twin needs 2 <= ell <= n-1, got ({n}, {ell})")
    return twin(path(n), ell - 1)


def twin_interior_leaf(n: int, ell: int) -> Graph:
    """Path twinned at interior position ell, then at the leaf n (1-based)."""
    if n < 4 or not 2 <= ell <= n - 2:
        raise ValueError(f"interior+leaf twin needs n >= 4 and 2 <= ell <= n-2, got ({n}, {ell})")
    return twin(twin(path(n), ell - 1), n - 1)


def twin_cycle(n: int) -> Graph:
    """Cycle on n >= 3 vertices twinned at vertex 0."""
    return twin(cycle(n), 0)


def dgraph(n: int) -> Graph:
    """Twinned cycle with one of the two spine edges at the twinned vertex removed.

    Concretely: twin(cycle(n), 0) minus the edge 0-(n-1); n+1 vertices.
    """
    if n < 3:
        raise ValueError("dgraph needs n >= 3")
    return delete_edge(twin_cycle(n), 0, n - 1)


def tadpole(n: int) -> Graph:
    """Cycle on n vertices with one pendant vertex; built by removing a second
    edge (the clone edge 0-n) from dgraph(n)."""
    if n < 3:
        raise ValueError("tadpole needs n >= 3")
    return delete_edge(dgraph(n), 0, n)


def moose(n: int) -> Graph:
    """Cycle on n vertices with pendant leaves on the adjacent vertices 0 and 1.

    n+2 vertices; leaf n hangs from 0, leaf n+1 from 1.  For n=2 the cycle
    degenerates to a single edge and the graph is a 4-vertex path.
    """
    if n < 2:
        raise ValueError("moose needs n >= 2")
    if n == 2:
        return Graph(4, [(0, 1), (0, 2), (1, 3)])
    return Graph(n + 2, list(cycle(n).edges) + [(0, n), (1, n + 1)])


def family(name: str, n: int, ell: Optional[int] = None) -> Graph:
    """Named family constructor; ell is required exactly for the two-parameter families."""
    # deferred: the family table lives in families, which imports this module
    from .families import family_spec
    spec = family_spec(name)
    spec.check(name, n, ell)
    return spec.graph(n) if ell is None else spec.graph(n, ell)


def parse_graph(text: str) -> Graph:
    """Parse the CLI graph vocabulary.

    Forms: "path:7", "cycle:6", "flagpole:9,4", "twin(cycle:6,0)",
    "g:n=5;edges=0-1,1-2".  Family names accept - or _ separators.
    """
    text = text.strip()
    if text.startswith("twin(") and text.endswith(")"):
        inner = text[len("twin("):-1]
        depth = 0
        split = -1
        for i, ch in enumerate(inner):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                split = i
        if split < 0:
            raise ValueError(f"bad twin spec {text!r}")
        base = parse_graph(inner[:split])
        return twin(base, int(inner[split + 1:]))
    if text.startswith("g:"):
        n = None
        edges: list[tuple[int, int]] = []
        for field in text[2:].split(";"):
            field = field.strip()
            if field.startswith("n="):
                n = int(field[2:])
            elif field.startswith("edges="):
                body = field[len("edges="):]
                if body:
                    for tok in body.split(","):
                        a, b = tok.split("-")
                        edges.append((int(a), int(b)))
            elif field:
                raise ValueError(f"bad graph field {field!r}")
        if n is None:
            raise ValueError("explicit graph needs n=")
        return Graph(n, edges)
    if ":" not in text:
        raise ValueError(f"bad graph spec {text!r}")
    name, _, args = text.partition(":")
    params = [int(tok) for tok in args.split(",")] if args else []
    if len(params) == 1:
        return family(name, params[0])
    if len(params) == 2:
        return family(name, params[0], params[1])
    raise ValueError(f"bad graph parameters in {text!r}")
