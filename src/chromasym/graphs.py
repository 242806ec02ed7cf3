"""Simple labeled graphs and the primitives the family graphs are built from.

Vertices are dense integers 0..n-1.  twin appends the clone as vertex n, so
the family graphs (each built by its entry in families.FAMILIES and reached
through family) keep a documented, deterministic labeling: the path or cycle
spine is always 0..n-1 and added vertices are appended in definition order,
so tests can name the twinned vertex unambiguously.  Positions inside a
spine are 1-based to match the usual combinatorial indexing of path vertices.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional


def _norm_edge(u: int, v: int) -> tuple[int, int]:
    if u == v:
        raise ValueError(f"loop edge at vertex {u}")
    return (u, v) if u < v else (v, u)


class Graph:
    """Simple undirected graph on vertices 0..n-1; immutable; adj[v] masks v's neighbours."""

    __slots__ = ("n", "edges", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be >= 0")
        es = set()
        adj = [0] * n
        for u, v in edges:
            edge = a, b = _norm_edge(u, v)
            if not (0 <= a and b < n):
                raise ValueError(f"edge {edge} out of range for {n} vertices")
            es.add(edge)
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        self.n = n
        self.edges = frozenset(es)
        self.adj = tuple(adj)

    def has_edge(self, u: int, v: int) -> bool:
        return _norm_edge(u, v) in self.edges

    def neighbors(self, v: int) -> list[int]:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range")
        return [u for u in range(self.n) if self.adj[v] >> u & 1]

    def degree_sequence(self) -> list[int]:
        return sorted((mask.bit_count() for mask in self.adj), reverse=True)

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


def family(name: str, n: int, ell: Optional[int] = None) -> Graph:
    """The graph of a family member, built by its entry in families.FAMILIES;
    ell is required exactly for the two-parameter families.  Members below
    the entry's pinned_below have a value but no graph."""
    # deferred: the family table lives in families, which imports this module
    from .families import family_spec
    spec = family_spec(name)
    spec.check(name, n, ell)
    if n < spec.pinned_below:
        raise ValueError(f"family {name!r} at n={n} is a pinned convention with no graph; "
                         f"graphs start at n={spec.pinned_below}")
    return spec.graph(n, ell)


def _int(token: str, spec: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"bad graph spec {spec!r}: {token!r} is not an integer") from None


def _base_spec(text: str) -> tuple[int, Callable[[], Graph]]:
    """The vertex count of a spec that is not a twin, and a builder of its graph."""
    if text.startswith("g:"):
        n = None
        edges: list[tuple[int, int]] = []
        seen: set[str] = set()
        for field in text[2:].split(";"):
            field = field.strip()
            key = field.partition("=")[0]
            if field and key in seen:
                raise ValueError(f"bad graph spec {text!r}: {key}= is given twice")
            seen.add(key)
            if field.startswith("n="):
                n = _int(field[2:], text)
            elif field.startswith("edges="):
                body = field[len("edges="):]
                if body:
                    for tok in body.split(","):
                        a, _, b = tok.partition("-")
                        edges.append((_int(a, text), _int(b, text)))
            elif field:
                raise ValueError(f"bad graph field {field!r}")
        if n is None:
            raise ValueError("explicit graph needs n=")
        return n, lambda: Graph(n, edges)
    if ":" not in text:
        raise ValueError(f"bad graph spec {text!r}")
    name, _, args = text.partition(":")
    params = [_int(tok, text) for tok in args.split(",")] if args else []
    if len(params) not in (1, 2):
        raise ValueError(f"bad graph parameters in {text!r}")
    # deferred: the family table lives in families, which imports this module
    from .families import family_spec
    return params[0] + family_spec(name).extra, lambda: family(name, *params)


def parse_graph(text: str) -> Graph:
    """Parse the CLI graph vocabulary.

    Forms: "path:7", "cycle:6", "flagpole:9,4", "twin(cycle:6,0)",
    "g:n=5;edges=0-1,1-2".  Family names accept - or _ separators.  A spec
    whose graph has more vertices than the oracle's bound is refused before
    its graph is built; a twin( nest is parsed by a loop, so its depth is
    bounded by that count, not by the recursion limit.
    """
    # deferred: csf imports this module
    from .csf import check_vertex_bound
    text = text.strip()
    vertices = []  # the twinned vertices, outermost first
    while text.startswith("twin("):
        if not text.endswith(")"):
            raise ValueError(f"bad twin spec {text!r}: missing the closing ')'")
        # the vertex has no comma, so it follows the last one
        base, comma, vertex = text[len("twin("):-1].rpartition(",")
        if not comma:
            raise ValueError(f"bad twin spec {text!r}")
        vertices.append(_int(vertex, text))
        text = base.strip()
    n, build = _base_spec(text)
    n += len(vertices)
    check_vertex_bound(n)
    g = build()
    for v in reversed(vertices):
        g = twin(g, v)
    return g
