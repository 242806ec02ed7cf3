"""Ground-truth chromatic symmetric functions of small graphs.

The oracle groups Stanley's edge-subset sum X_G = sum_S (-1)^{|S|} p_{lam(S)}
by the vertex partition each subset S induces (the bond lattice):
X_G = sum over partitions pi of V into connected blocks of
prod_B c(B) p_{type(pi)}, where c(B) is the signed count of connected spanning
edge sets of G[B].  The work grows with the connected vertex sets and their
independent subsets, at most 3^(n-1) steps, not with 2^{|E|}, so the vertex
count is the oracle's one bound, and it lands directly in symmetric function
form.  Independent cross-checks live alongside it: the proper-coloring count,
which sums over partitions of V into independent sets and never touches
symmetric functions, and the triangle deletion identities.
"""

from __future__ import annotations

from .graphs import Graph, add_edge, delete_edge, twin
from .symfun import SymE, _memo, _part_key, _power_sum_of_key, _sum_of_products, e

DEFAULT_MAX_VERTICES = 14
COUNT_MAX_VERTICES, COUNT_MAX_K = 8, 5  # chromatic_count_check's bounds


def check_vertex_bound(n: int) -> None:
    """ValueError if a graph of n vertices is past the oracle's bound."""
    if n > DEFAULT_MAX_VERTICES:
        raise ValueError(f"graph has {n} vertices, oracle bound is {DEFAULT_MAX_VERTICES}")


_csf_memo: dict[Graph, SymE] = _memo()
_tally_memo: dict[Graph, tuple[int, ...]] = _memo()


def csf(g: Graph) -> SymE:
    """Exact e-expansion of the chromatic symmetric function of g.

    Refuses more than DEFAULT_MAX_VERTICES vertices, before any work: the
    work grows with the connected vertex sets of g, up to about 3^n steps,
    not with 2^{|E|}, so the edge count needs no bound.  Results are
    memoized by graph.
    """
    check_vertex_bound(g.n)
    cached = _csf_memo.get(g)
    if cached is not None:
        return cached

    n = g.n
    nbr = {1 << v: mask for v, mask in enumerate(g.adj)}  # one-bit mask -> its neighbours

    # c[T] for every connected vertex set T, smallest first.  A vertex u with
    # one neighbour in T is on every connected spanning edge set through that
    # edge, so c[T] = -c[T - u].  Otherwise, sorting the edge subsets of G[T]
    # by the block T' that holds min T gives [T is one vertex] = the sum of
    # c[T'] over T' with T - T' independent, and T - T' runs over the
    # independent subsets of T - min T.
    c: dict[int, int] = {}
    layer = dict(nbr)  # T -> neighbours of its vertices
    while layer:
        grown: dict[int, int] = {}
        for t, near in layer.items():
            rest = t
            while rest:
                u = rest & -rest
                if (nbr[u] & t).bit_count() == 1:  # u is a pendant of T
                    c[t] = -c[t ^ u]
                    break
                rest ^= u
            else:
                low = t & -t
                indep = [0]
                rest = t ^ low
                while rest:
                    u = rest & -rest
                    rest ^= u
                    nb = nbr[u]
                    indep += [r | u for r in indep if not r & nb]
                c[t] = (t == low) - sum(c.get(t ^ r, 0) for r in indep[1:])
            rest = near & ~t
            while rest:
                u = rest & -rest
                rest ^= u
                grown.setdefault(t | u, near | nbr[u])
        layer = grown

    # Sum over the partitions of V into blocks with c != 0, the block holding
    # the lowest vertex first.  A partition's code is symfun's packed key of
    # its block sizes (n <= 14 keeps every multiplicity under 64), so adding
    # a block adds the key of its size; equal remaining sets share one sum.
    by_low: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for t, count in c.items():
        if count:
            by_low[(t & -t).bit_length() - 1].append((t, count, _part_key(t.bit_count())))
    sums: dict[int, dict[int, int]] = {0: {0: 1}}

    def partition_sum(left: int) -> dict[int, int]:
        got = sums.get(left)
        if got is None:
            got = {}
            for t, count, step in by_low[(left & -left).bit_length() - 1]:
                if t & left == t:
                    for code, weight in partition_sum(left ^ t).items():
                        got[code + step] = got.get(code + step, 0) + count * weight
            sums[left] = got
        return got

    # count * p_code for every code, summed into one accumulator
    total = _sum_of_products((SymE.const(count), _power_sum_of_key(code))
                             for code, count in partition_sum((1 << n) - 1).items())
    return _csf_memo.setdefault(g, total)


def count_proper_colorings(g: Graph, k: int) -> int:
    """Number of proper colorings with palette {1..k}, by independent-set partitions.

    Uses P(G, k) = sum_j a_j k(k-1)...(k-j+1) (Read, 1968), where a_j counts
    the partitions of V into j independent sets.  One pass tallies a_j for
    every j: a partition of a vertex set S is an independent set I holding
    min S plus a partition of S - I, and equal remaining sets share one
    tally.  The tally is memoized by graph, so every palette size
    reads the same one.  Refuses graphs past DEFAULT_MAX_VERTICES vertices
    before any tally work.  Independent of the symmetric function route.
    """
    if k < 0:
        raise ValueError("palette size must be >= 0")
    check_vertex_bound(g.n)
    tally = _tally_memo.get(g)
    if tally is None:
        tally = _tally_memo.setdefault(g, _independent_partition_tally(g))
    total, falling = 0, 1
    for j, a_j in enumerate(tally):
        total += a_j * falling
        falling *= k - j
    return total


def _independent_partition_tally(g: Graph) -> tuple[int, ...]:
    """(a_0, ..., a_n), a_j the partitions of g's vertices into j independent sets."""
    adj = g.adj
    tallies: dict[int, list[int]] = {0: [1]}

    def tally(left: int) -> list[int]:
        got = tallies.get(left)
        if got is None:
            low = left & -left
            blocks = [low]  # the independent subsets of left holding its lowest vertex
            rest = left & ~low & ~adj[low.bit_length() - 1]
            while rest:
                u = rest & -rest
                rest ^= u
                nb = adj[u.bit_length() - 1]
                blocks += [b | u for b in blocks if not b & nb]
            got = [0] * (left.bit_count() + 1)
            for b in blocks:
                for j, a_j in enumerate(tally(left ^ b)):
                    got[j + 1] += a_j
            tallies[left] = got
        return got

    return tuple(tally((1 << g.n) - 1))


def chromatic_count_check(g: Graph, k: int) -> bool:
    """True iff csf(g) specialized at k ones matches the brute-force coloring count.

    Specializing e_i at x_1 = ... = x_k = 1 gives binom(k, i), so the left
    side is sum_lam c_lam prod_i binom(k, lam_i).  Takes at most
    COUNT_MAX_VERTICES vertices and COUNT_MAX_K colors.
    """
    if k < 0:
        raise ValueError("palette size must be >= 0")
    if g.n > COUNT_MAX_VERTICES or k > COUNT_MAX_K:
        raise ValueError(f"the count check takes at most {COUNT_MAX_VERTICES} vertices "
                         f"and k <= {COUNT_MAX_K} (n={g.n}, k={k})")
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
