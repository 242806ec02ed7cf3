"""Ground-truth chromatic symmetric functions of small graphs.

The oracle expands X_G = sum over edge subsets S of (-1)^{|S|} p_{lam(S)},
where lam(S) is the partition of connected component sizes of (V, S), then
converts each power sum product to the e-basis.  This is 2^{|E|} work, far
below the k^n coloring scan for the sizes here, and it lands directly in
symmetric function form.  Independent cross-checks (coloring counts, triple
deletion) live alongside it.
"""

from __future__ import annotations

import os

from .graphs import Graph, add_edge, delete_edge, twin
from .symfun import SymE, e, power_sum_lambda_to_e

DEFAULT_MAX_VERTICES = 14
DEFAULT_MAX_EDGES = 20

_csf_memo: dict[tuple[int, tuple], SymE] = {}


def _vertex_bound() -> int:
    raw = os.environ.get("CHROMASYM_MAX_N")
    if raw:
        try:
            return int(raw)
        except ValueError:
            raise ValueError(f"CHROMASYM_MAX_N must be an integer, got {raw!r}") from None
    return DEFAULT_MAX_VERTICES


def csf(g: Graph, max_vertices: int | None = None, max_edges: int = DEFAULT_MAX_EDGES) -> SymE:
    """Exact e-expansion of the chromatic symmetric function of g.

    Size-guarded: the subset sum enumerates 2^{|E|} terms.  Results are
    memoized by (n, edge set).
    """
    bound = max_vertices if max_vertices is not None else _vertex_bound()
    if g.n > bound:
        raise ValueError(f"graph has {g.n} vertices, oracle bound is {bound}")
    if len(g.edges) > max_edges:
        raise ValueError(f"graph has {len(g.edges)} edges, oracle bound is {max_edges}")

    key = (g.n, tuple(g.edge_list()))
    cached = _csf_memo.get(key)
    if cached is not None:
        return cached

    n = g.n
    edges = key[1]
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
    _csf_memo.setdefault(key, total)
    return total


def count_proper_colorings(g: Graph, k: int) -> int:
    """Number of proper colorings with palette {1..k}, by direct enumeration.

    Backtracks over vertices in label order, so improper prefixes are pruned;
    every proper coloring is still visited exactly once.  Completely
    independent of the symmetric function route.
    """
    if k < 0:
        raise ValueError("palette size must be >= 0")
    earlier = [[u for u in g.neighbors(v) if u < v] for v in range(g.n)]
    colors = [-1] * g.n

    def walk(v: int) -> int:
        if v == g.n:
            return 1
        total = 0
        for c in range(k):
            if all(colors[u] != c for u in earlier[v]):
                colors[v] = c
                total += walk(v + 1)
        colors[v] = -1
        return total

    return walk(0)


def chromatic_count_check(g: Graph, k: int, max_vertices: int = 8, max_k: int = 5) -> bool:
    """True iff csf(g) specialized at k ones matches the brute-force coloring count.

    Specializing e_i at x_1 = ... = x_k = 1 gives binom(k, i), so the left
    side is sum_lam c_lam prod_i binom(k, lam_i).
    """
    if g.n > max_vertices or k > max_k:
        raise ValueError(f"count check bound exceeded (n={g.n}, k={k})")
    specialized = csf(g).eval_elementary([1] * k)
    return specialized == count_proper_colorings(g, k)


def triple_deletion_check(g: Graph, triangle: tuple[int, int, int]) -> bool:
    """Verify X_G = X_{G-e1} + X_{G-e2} - X_{G-e1-e2} on a triangle's edges.

    e1 = ab and e2 = bc; all three triangle edges must be present.
    """
    a, b, c = triangle
    for u, v in ((a, b), (b, c), (a, c)):
        if not g.has_edge(u, v):
            raise ValueError(f"triangle edge {u}-{v} missing")
    g1 = delete_edge(g, a, b)
    g2 = delete_edge(g, b, c)
    g12 = delete_edge(g1, b, c)
    return csf(g) == csf(g1) + csf(g2) - csf(g12)


def near_triangle_check(g: Graph, v: int, v1: int, v2: int) -> bool:
    """Deletion identity at a vertex v with neighbors v1, v2 and v1v2 not an edge.

    Verifies X_G = X_{(G-vv1)+v1v2} + X_{G-vv2} - X_{(G-vv1-vv2)+v1v2}.
    """
    if not (g.has_edge(v, v1) and g.has_edge(v, v2)):
        raise ValueError("v must be adjacent to both v1 and v2")
    if g.has_edge(v1, v2):
        raise ValueError("v1v2 must be a non-edge")
    left = add_edge(delete_edge(g, v, v1), v1, v2)
    mid = delete_edge(g, v, v2)
    right = add_edge(delete_edge(delete_edge(g, v, v1), v, v2), v1, v2)
    return csf(g) == csf(left) + csf(mid) - csf(right)


def leaf_twin_reduction_check(h: Graph, u: int) -> bool:
    """Check the pendant-twin reduction X_{H'_v} = 2 (X_{H''} - e_2 X_H).

    H' is h plus a pendant vertex v at u; H'' extends H' by a further pendant
    at v; H'_v is H' twinned at v.
    """
    v = h.n
    h1 = Graph(h.n + 1, list(h.edges) + [(u, v)])
    h2 = Graph(h.n + 2, list(h1.edges) + [(v, v + 1)])
    twinned = twin(h1, v)
    return csf(twinned) == (csf(h2) - e(2) * csf(h)) * 2
