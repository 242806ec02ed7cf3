"""Closed forms, generating functions, recurrences, and coefficient formulas
for paths, cycles, their twins, and the auxiliary families.

Most family values are computable by at least two independent routes (closed
identity in path/cycle values, generating function extraction, e-positive
recurrence, or coefficient reassembly).  Six families have one route: moose
(its recurrence) and twin-interior-leaf, flagpole, triangle-path, dgraph and
tadpole (their identities); their only independent check is the oracle in
verify's member sweep, up to 14 vertices in the deep run.  None of the routes
consults the brute-force oracle in csf, so oracle agreement is a genuine
cross-check.

Each family's generating functions and coefficient formulas, each a named
form with its scale, are fields of its FAMILIES entry.

No simple graph realizes X_{C_1} = 0 or X_{C_2} = 2e_2, which the cycle rule
gives, X_{C_{2,v}} = 6e_3, which the twinned-cycle identity and rule give, or
X_{C_{1,v}} = 2e_2, the one pinned value, which no recurrence sum reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from . import powerseries as ps
from .graphs import Graph, cycle, delete_edge, path, twin
from .partitions import (Partition, epsilon, epsilon_minus, make_partition,
                         multiplicities, partitions_of, remove_part, support)
from .powerseries import Series
from .symfun import SymE, _memo, _sum_of_products, e, e_term

# ---------------------------------------------------------------------------
# the recurrence engine, paths and cycles


_ONE = SymE.one()  # shared: SymE values are immutable

# key -> {n: X_n} for the recurrence named key: a family's table name, or
# (name, ell) for the interior twin.  clear_caches() empties this outer dict,
# so no code keeps an inner dict past one call.
_recurrences: dict = _memo()


def _recur(key, n: int, seeds: dict, first: int,
           drive: Callable[[], list[tuple[SymE, int, tuple[int, ...]]]]) -> SymE:
    """X_n of the recurrence X_m = drive(m) + sum_{j=2}^{m-first} (j-1) e_j X_{m-j}
    for m >= first; seeds holds the values the rule does not give.

    drive() gives the drive as rows (c, s, w), each the term w(i) c e_i at
    the part i = m + s: c is a SymE factor and w an integer polynomial in i,
    lowest power first, the weight format of powerseries.WEIGHTED, evaluated
    by ps.weight_at as in ps.e_weighted.  It is called only when a value is
    missing.
    Every recurrence of the paper has this shape: the sum comes from the
    shared denominator D = 1 - sum_j (j-1) e_j z^j, and its weights j - 1
    are nonnegative.
    """
    memo = _recurrences.get(key)
    if memo is None:
        memo = _recurrences[key] = dict(seeds)
    got = memo.get(n)
    if got is not None:
        return got
    rows = drive()
    for m in range(first, n + 1):
        if m not in memo:
            memo[m] = _sum_of_products(
                [*((e_term((j,), j - 1), memo[m - j]) for j in range(2, m - first + 1)),
                 *((e_term((m + s,), ps.weight_at(w, m + s)), c) for c, s, w in rows)])
    return memo[n]


def path_seq(n: int) -> SymE:
    """X of the n-vertex path: n e_n + sum_{j=2}^{n-1} (j-1) e_j X_{P_{n-j}}."""
    FAMILIES["path"].check("path", n, None)
    return _recur("path", n, {0: _ONE}, 1, lambda: [(_ONE, 0, (0, 1))])


def cycle_seq(n: int) -> SymE:
    """X of the n-cycle: n(n-1) e_n + sum_{j=2}^{n-2} (j-1) e_j X_{C_{n-j}}.

    The rule gives 0 and 2e_2 at n = 1, 2; the engine's j = n-1 term is 0.
    """
    FAMILIES["cycle"].check("cycle", n, None)
    return _recur("cycle", n, {}, 1, lambda: [(_ONE, 0, (0, -1, 1))])


# ---------------------------------------------------------------------------
# path twinned at a leaf


def leaf_twin_gf(trunc: int) -> Series:
    """sum_{n>=1} X_{n,v} z^{n+1} = 2(1 - e_2 z^2) * path_gf - 2 - 2 e_1 z."""
    two = Series.monomial(SymE.const(2), 0, trunc)
    shape = Series.one(trunc) - Series.monomial(e(2), 2, trunc)
    return shape * ps.path_gf(trunc) * 2 - two - Series.monomial(e(1) * 2, 1, trunc)


def leaf_twin_gf_half(trunc: int) -> Series:
    """Manifestly e-positive half gf:
    (K + e_1 z G) G_{>=3}/D + e_2 z^2 + sum_{i>=3} i e_i z^i + e_1 z G_{>=3}."""
    g3 = ps.weighted("G", trunc, lo=3)
    e1z = Series.monomial(e(1), 1, trunc)
    return ((ps.weighted("K", trunc) + e1z * ps.weighted("G", trunc)) * g3
            / ps.weighted("D", trunc)
            + Series.monomial(e(2), 2, trunc)
            + ps.weighted("K", trunc, lo=3)
            + e1z * g3)


def leaf_twin_gf_half_alt(trunc: int) -> Series:
    """Denominator-free half gf: path_gf * G_{>=3} + sum_{i>=2} e_i z^i."""
    return ps.path_gf(trunc) * ps.weighted("G", trunc, lo=3) + ps.weighted("E", trunc, lo=2)


# twin_path_leaf, twin_path_both and twin_cycle stay as public entry points
# (the query-mix benchmark's gate and the README example call them); with no
# method, each takes its entry's first route.  Other families use family_value.
def twin_path_leaf(n: int, method: Optional[str] = None) -> SymE:
    """X of the n-path twinned at a leaf."""
    return family_value("twin-path-leaf", n, method=method)


def twin_path_leaf_coeff(lam) -> int:
    """Coefficient of e_lam z^{|lam|} in the leaf-twin gf sum_{n>=1} X_{n,v} z^{n+1}.

    The two general double sums cover everything once length-one remainders
    are handled; the printed short forms, cases a-h, are verify.printed_specials rows.
    """
    lam = make_partition(lam)
    if sum(lam) < 2:
        raise ValueError("leaf-twin coefficients need |lam| >= 2")
    ones = multiplicities(lam).get(1, 0)
    if ones >= 2:
        return 0
    if ones == 1:
        mu = remove_part(lam, 1)
        if len(mu) == 1:
            a = mu[0]
            return 2 * (a - 1) if a >= 3 else 0
        total = 0
        for a in support(mu):
            for b in support(mu):
                if b >= 3:
                    total += (a - 1) * (b - 1) * epsilon_minus(mu, a, b)
        return 2 * total
    if len(lam) == 1:
        k = lam[0]
        return 2 * k if k >= 3 else 2
    total = 0
    for a in support(lam):
        for b in support(lam):
            if b >= 3:
                total += a * (b - 1) * epsilon_minus(lam, a, b)
    return 2 * total


# ---------------------------------------------------------------------------
# path twinned at both leaves


def alpha_poly(trunc: int) -> Series:
    """alpha in 4 both_leaves_gf_quarter = 2 (1 - e_2 z^2) leaf_twin_gf + 2 alpha:
    2 e_2^2 z^4 - (8 e_4 z^4 + 4 e_3 e_1 z^4 + 6 e_3 z^3 + 2 e_2 z^2)."""
    c4 = e_term((2, 2), 2) - e(4) * 8 - e_term((3, 1), 4)
    return (Series.monomial(c4, 4, trunc)
            - Series.monomial(e(3) * 6, 3, trunc)
            - Series.monomial(e(2) * 2, 2, trunc))


def both_leaves_gf_quarter(trunc: int) -> Series:
    """Manifestly e-positive quarter gf for sum_{n>=3} X_{n,v,w} z^{n+2}."""
    g3 = ps.weighted("G", trunc, lo=3)
    e1z = Series.monomial(e(1), 1, trunc)
    return ((ps.weighted("K", trunc) + e1z * ps.weighted("G", trunc)) * g3 * g3
            / ps.weighted("D", trunc)
            + e1z * g3 * g3
            + g3 * ps.weighted("K", trunc, lo=3)
            + e1z * ps.weighted("G", trunc, lo=4)
            + Series.monomial(e(2), 2, trunc) * ps.e_weighted(trunc, 3, (-2, 1))
            + ps.weighted("K", trunc, lo=5))


def both_leaves_gf_quarter_alt(trunc: int) -> Series:
    """Denominator-free quarter gf:
    path_gf G_{>=3}^2 + K_{>=5} + G_{>=3} E_{>=3} + e_1 z G_{>=4} + e_2 z^2 sum (i-2) e_i z^i."""
    g3 = ps.weighted("G", trunc, lo=3)
    return (ps.path_gf(trunc) * g3 * g3
            + ps.weighted("K", trunc, lo=5)
            + g3 * ps.weighted("E", trunc, lo=3)
            + Series.monomial(e(1), 1, trunc) * ps.weighted("G", trunc, lo=4)
            + Series.monomial(e(2), 2, trunc) * ps.e_weighted(trunc, 3, (-2, 1)))


def twin_path_both(n: int, method: Optional[str] = None) -> SymE:
    """X of the n-path twinned at both leaves."""
    return family_value("twin-path-both", n, method=method)


def _is_two_threes_then_twos(lam: Partition) -> bool:
    # shape (3, 3, 2, 2, ..., 2) with at least one 2
    mult = multiplicities(lam)
    return set(mult) == {2, 3} and mult[3] == 2 and mult[2] >= 1


def twin_path_both_coeff(lam) -> Optional[int]:
    """Coefficient of e_lam z^{|lam|} in sum_{n>=3} X_{n,v,w} z^{n+2}.

    The printed closed forms only cover particular shapes; for anything else
    this returns None and the generating function is the route of record.
    """
    lam = make_partition(lam)
    ones = multiplicities(lam).get(1, 0)
    if ones >= 2:
        return 0
    if ones == 1:
        mu = remove_part(lam, 1)
        if len(mu) == 1:
            m = mu[0]
            return 4 * (m - 1) if m >= 4 else None
        if len(mu) == 2:
            i, j = mu
            if j >= 3:
                return 4 * (i - 1) ** 2 if i == j else 8 * (i - 1) * (j - 1)
            return 0
        if _is_two_threes_then_twos(mu):
            return 16
        return None
    if len(lam) == 1:
        k = lam[0]
        return 4 * k if k >= 5 else None
    if len(lam) == 2:
        i, j = lam
        if j == 2:
            return 4 * (i - 2) if i >= 3 else None
        return 4 * (i - 1) * i if i == j else 4 * (j - 1) * i + 4 * (i - 1) * j  # j >= 3
    if _is_two_threes_then_twos(lam):
        return 32
    return None


# ---------------------------------------------------------------------------
# path twinned at an interior vertex


def _path_terms(degrees: range, trunc: int) -> Series:
    """sum_{j in degrees} X_{P_j} z^j, truncated."""
    return Series([path_seq(j) if j in degrees else SymE.zero() for j in range(trunc + 1)],
                  trunc)


def f_poly(ell: int, trunc: int) -> Series:
    """2 + e_1 z - X_{P_{ell-1}} z^{ell-1} (1 - e_2 z^2) - X_{P_ell} z^ell
    - X_{P_{ell+1}} z^{ell+1}; degree ell+1 in z."""
    if ell < 2:
        raise ValueError("f polynomial needs ell >= 2")
    shape = Series.one(trunc) - Series.monomial(e(2), 2, trunc)
    return (Series.monomial(SymE.const(2), 0, trunc)
            + Series.monomial(e(1), 1, trunc)
            - Series.monomial(path_seq(ell - 1), ell - 1, trunc) * shape
            - Series.monomial(path_seq(ell), ell, trunc)
            - Series.monomial(path_seq(ell + 1), ell + 1, trunc))


def f_poly_alt(ell: int, trunc: int) -> Series:
    """Positive-combination rewrite of f_poly:
    sum_{i=3}^{ell+1} (i-2) e_i z^i + 2(D + G_{>=ell+2})
    + sum_{i=1}^{ell-2} (D + G_{>=ell+2-i}) X_{P_i} z^i."""
    if ell < 2:
        raise ValueError("f polynomial needs ell >= 2")
    d = ps.weighted("D", trunc)
    acc = ps.e_weighted(trunc, 3, (-2, 1), hi=ell + 1)
    acc = acc + (d + ps.weighted("G", trunc, lo=ell + 2)) * 2
    for i in range(1, ell - 1):
        acc = acc + ((d + ps.weighted("G", trunc, lo=ell + 2 - i))
                     * Series.monomial(path_seq(i), i, trunc))
    return acc


def g_poly(ell: int, trunc: int) -> Series:
    """-sum_{j=0}^{ell} X_{P_j} z^j - (1 + e_1 z) sum_{j=0}^{ell-2} X_{P_j} z^j
    - (X_{P_{ell+1}} - e_2 X_{P_{ell-1}}) z^{ell+1}."""
    if ell < 2:
        raise ValueError("g polynomial needs ell >= 2")
    head = _path_terms(range(0, ell + 1), trunc)
    short = _path_terms(range(0, ell - 1), trunc)
    one_e1z = Series.one(trunc) + Series.monomial(e(1), 1, trunc)
    tail = Series.monomial(path_seq(ell + 1) - e(2) * path_seq(ell - 1), ell + 1, trunc)
    return -head - one_e1z * short - tail


def interior_gf(ell: int, trunc: int) -> Series:
    """sum_{n>=ell+1} X_{n,ell} z^{n+1} = 2 path_gf f_ell + 2 g_ell,
    evaluated as 2 ((E f_ell)/D + g_ell)."""
    return (ps.weighted("E", trunc) * f_poly(ell, trunc) / ps.weighted("D", trunc)
            + g_poly(ell, trunc)) * 2


def interior_gf_epos_half(ell: int, trunc: int) -> Series:
    """Term-by-term e-positive half gf for the interior twin:
    sum_{i=3}^{ell+1} (i-1) e_i z^i sum_{j=ell-i+2}^{ell-2} X_{P_j} z^j
    + E_{>=ell+2} (1 + sum_{j=0}^{ell-2} X_{P_j} z^j)
    + (w T + E cofactor)/D,
    with w = sum_{i=2}^{ell+1} (i-2) e_i z^i, the cofactor
    2 G_{>=ell+2} + sum_{i=1}^{ell-2} X_{P_i} z^i G_{>=ell+2-i}, and the
    path tail T = D (path_gf - sum_{j=0}^{ell-2} X_{P_j} z^j), whose z^d
    coefficient is 0 for d < ell-1 and, by the path recurrence,
    d e_d + sum_{i=max(2, d-ell+2)}^{d-1} (i-1) e_i X_{P_{d-i}} from d = ell-1 on.

    Empty summation ranges contribute nothing (ell = 2 and 3 drop several
    terms).  Every part is e-positive and D divides once.
    """
    if ell < 2:
        raise ValueError("interior twin needs ell >= 2")
    path_head = _path_terms(range(0, ell - 1), trunc)
    acc = ps.weighted("E", trunc, lo=ell + 2) * (Series.one(trunc) + path_head)
    for i in range(3, ell + 2):
        stair = _path_terms(range(ell - i + 2, ell - 1), trunc)
        acc = acc + Series.monomial(e(i) * (i - 1), i, trunc) * stair
    w = ps.e_weighted(trunc, 2, (-2, 1), hi=ell + 1)
    cofactor = ps.weighted("G", trunc, lo=ell + 2) * 2
    for i in range(1, ell - 1):
        cofactor = cofactor + (Series.monomial(path_seq(i), i, trunc)
                               * ps.weighted("G", trunc, lo=ell + 2 - i))
    tail = Series([SymE.zero()] * (ell - 1) + [
        _sum_of_products([(e_term((d,), d), SymE.one())]
                         + [(e_term((i,), i - 1), path_seq(d - i))
                            for i in range(max(2, d - ell + 2), d)])
        for d in range(ell - 1, trunc + 1)], trunc)
    return acc + (w * tail + ps.weighted("E", trunc) * cofactor) / ps.weighted("D", trunc)


def _interior_identity(n: int, ell: int) -> SymE:
    p = path_seq
    return (p(ell - 1) * p(n - ell + 2) * -2
            + e(1) * p(n) * 2
            + p(n + 1) * 4
            - p(ell) * p(n - ell + 1) * 2
            + e(2) * p(ell - 1) * p(n - ell) * 2
            - p(ell + 1) * p(n - ell) * 2)


def _interior_rows(ell: int) -> list[tuple[SymE, int, tuple[int, ...]]]:
    rows = [(_ONE, 1, (0, 4)), (e(1), 0, (0, 2)),
            (twin_path_leaf(ell, "recurrence"), -ell, (-2, 1))]
    for k in range(1, ell - 1):
        rows += [(e(1) * path_seq(k), -k, (-2, 2)), (path_seq(k), 1 - k, (-4, 4))]
    return rows + [(path_seq(k), 1 - k, (-4, 2)) for k in (ell - 1, ell)]


# ---------------------------------------------------------------------------
# twinned cycle


def twin_cycle_gf(trunc: int) -> Series:
    """sum_{n>=3} X_{C_{n,v}} z^{n+1} =
    2(2 + e_1 z) cycle_gf - 2(3 - e_2 z^2) path_gf + 6(1 + e_1 z) + 2 e_2 z^2 - 6 e_3 z^3."""
    e1z = Series.monomial(e(1), 1, trunc)
    e2z2 = Series.monomial(e(2), 2, trunc)
    return ((Series.monomial(SymE.const(2), 0, trunc) + e1z) * ps.cycle_gf(trunc) * 2
            - (Series.monomial(SymE.const(3), 0, trunc) - e2z2) * ps.path_gf(trunc) * 2
            + (Series.one(trunc) + e1z) * 6
            + e2z2 * 2
            - Series.monomial(e(3) * 6, 3, trunc))


def twin_cycle_gf_half_rewrite(trunc: int) -> Series:
    """Half gf rewritten over the common denominator:
    [F2 + e_1 z F3 + e_2 z^2 (E - 1 - e_1 z) - e_2 z^2]/D + e_2 z^2 - 3 e_3 z^3."""
    e1z = Series.monomial(e(1), 1, trunc)
    e2z2 = Series.monomial(e(2), 2, trunc)
    num = (ps.weighted("F2", trunc) + e1z * ps.weighted("F3", trunc)
           + e2z2 * ps.weighted("E", trunc, lo=2))
    return (num - e2z2) / ps.weighted("D", trunc) + e2z2 - Series.monomial(e(3) * 3, 3, trunc)


def twin_cycle_gf_half(trunc: int) -> Series:
    """Manifestly e-positive half gf:
    sum_{i>=4} (2i^2-5i) e_i z^i
    + [e_1 z F3 + F2 G_{>=3} + e_2 z^2 sum_{i>=3} (2i^2-6i+2) e_i z^i]/D."""
    num = (Series.monomial(e(1), 1, trunc) * ps.weighted("F3", trunc)
           + ps.weighted("F2", trunc) * ps.weighted("G", trunc, lo=3)
           + Series.monomial(e(2), 2, trunc)
           * ps.e_weighted(trunc, 3, (2, -6, 2)))
    return ps.weighted("F2", trunc, lo=4) + num / ps.weighted("D", trunc)


def twin_cycle(n: int, method: Optional[str] = None) -> SymE:
    """X of the n-cycle twinned at a vertex; n = 1 is the pinned convention 2e_2."""
    return family_value("twin-cycle", n, method=method)


def twin_cycle_coeff(lam) -> int:
    """Half the e_lam coefficient of the twinned-cycle value at n = |lam| - 1.

    The graphless n = 2 value 6e_3 is included, so (3,) gives 3.  The half gf
    sum_{n>=3} X_{C_{n,v}} z^{n+1} / 2 starts at z^4, so this is its e_lam
    z^{|lam|} coefficient only for |lam| >= 4.  The case split is exhaustive.
    """
    lam = make_partition(lam)
    k = sum(lam)
    if k < 3:
        raise ValueError("twinned-cycle coefficients need |lam| >= 3")
    if len(lam) == 1:
        return k * (2 * k - 5)
    mult = multiplicities(lam)
    ones = mult.get(1, 0)
    if ones > 1:
        return 0
    if ones == 1:
        mu = remove_part(lam, 1)
        return sum((i - 1) * (i - 3) * epsilon_minus(mu, i)
                   for i in support(mu) if i >= 4)
    twos = mult.get(2, 0)
    if twos == 0:
        return sum((2 * a * a - 5 * a) * epsilon_minus(lam, a) for a in support(lam))
    if twos == len(lam):
        return 0
    total = 0
    for a in support(lam):
        if a < 3:
            continue
        for b in support(lam):
            if b >= 3:
                total += (2 * a * a - 5 * a) * (b - 1) * epsilon_minus(lam, a, b)
    total += sum((2 * c * c - 6 * c + 2) * epsilon_minus(lam, c, 2)
                 for c in support(lam) if c >= 3)
    return total


# ---------------------------------------------------------------------------
# coefficient formulas for paths and cycles


def path_cycle_coeff(which: str, lam) -> Optional[int]:
    """e_lam coefficient of the path or cycle value of size |lam|:
    sum_a a eps(lam - a) for paths, sum_a a(a-1) eps(lam - a) for cycles; the
    path's path-alt form eps(lam) + sum_a eps(lam - a) and, for lam = mu + (1)
    with mu nonempty, its path-one-join form sum_{a>=2} (a-1) eps(mu - a)."""
    lam = make_partition(lam)
    if sum(lam) < 1:
        raise ValueError("coefficient formulas need |lam| >= 1")
    if which == "path":
        return sum(a * epsilon_minus(lam, a) for a in support(lam))
    if which == "cycle":
        return sum(a * (a - 1) * epsilon_minus(lam, a) for a in support(lam))
    if which == "path-alt":
        return epsilon(lam) + sum(epsilon_minus(lam, a) for a in support(lam))
    if which == "path-one-join":
        mu = remove_part(lam, 1) if 1 in lam else ()
        return sum((a - 1) * epsilon_minus(mu, a) for a in support(mu) if a >= 2) if mu else None
    raise ValueError(f"unknown family {which!r}")


# ---------------------------------------------------------------------------
# the family table: graph construction, value and coefficient dispatch, the
# verify sweeps and the CLI help all derive from it


def _canon(name: str) -> str:
    return name.strip().lower().replace("_", "-")


@dataclass(frozen=True)
class FamilySpec:
    """One graph family: its graph, its value routes and where they apply.

    The members are n >= min_n and, for the two-parameter families, ell in
    ells(n).  graph(n, ell) builds a member's graph on n + extra vertices
    from the primitives of graphs: the spine is 0..n-1, added vertices are
    appended in order, and ell is a 1-based spine position.  Below
    pinned_below the value is a pinned convention that no simple graph
    realizes.  routes maps each method to the f(n, ell) that computes a
    member, the first being the default.  gfs maps each name of an equal
    form of the generating function (an e-positive one first if e_positive)
    to (scale, f(trunc, ell)): for n >= gf_from, the z^(n+extra) coefficient of
    scale * f is the member's value, and f is zero below the first member's
    z^(n+extra).  A route may instead name a gfs form: family_value then
    extracts that coefficient from f(n + extra, ell), cut from the deepest
    build of f at that ell so far, and below gf_from it gives the default
    route's value.  coeffs maps each name of a coefficient formula, the
    printed one first, to (scale, f(lam)): for n >= coeff_from, scale * f(lam)
    is the e_lam coefficient of the value at n = |lam| - extra, and None means
    the form does not cover lam.  e_positive marks the families the paper
    claims e-positive.
    """

    graph: Callable[[int, Optional[int]], Graph]
    routes: dict[str, Callable[[int, Optional[int]], SymE] | str]
    min_n: int
    extra: int
    ells: Optional[Callable[[int], range]] = None
    pinned_below: int = 0
    gfs: dict[str, tuple[int, Callable[[int, Optional[int]], Series]]] = field(
        default_factory=dict)
    gf_from: int = 0
    coeffs: dict[str, tuple[int, Callable[[Partition], Optional[int]]]] = field(
        default_factory=dict)
    coeff_from: int = 0
    e_positive: bool = False

    def check(self, name: str, n: int, ell: Optional[int]) -> None:
        """Raise ValueError unless (n, ell) names a member of the family."""
        if (ell is None) != (self.ells is None):
            need = "takes no" if self.ells is None else "needs"
            raise ValueError(f"family {name!r} {need} ell")
        if n < self.min_n:
            raise ValueError(f"family {name!r} needs n >= {self.min_n}, got {n}")
        if ell is not None and ell not in (span := self.ells(n)):
            raise ValueError(f"family {name!r} at n={n} needs "
                             f"{span.start} <= ell <= {span[-1]}, got {ell}")


# The routes call this module's functions by name (path_seq, cycle_seq, the gf
# builders, and family_value for a value of another family), so a wrapper
# installed on the module (a tracer or profiler) sees every call.  A
# recurrence route's seeds are a default argument, built once, which _recur
# copies.  The auxiliary families flagpole, triangle-path, dgraph and tadpole
# carry no e-positivity claim: the stars among the flagpoles are genuine
# counterexamples.
FAMILIES: dict[str, FamilySpec] = {
    "path": FamilySpec(
        lambda n, ell: path(n),
        {"recurrence": lambda n, ell: path_seq(n),
         "gf": "full"},
        min_n=0, extra=0, gfs={"full": (1, lambda N, ell: ps.path_gf(N))},
        coeffs={"printed": (1, lambda lam: path_cycle_coeff("path", lam)),
                "alt": (1, lambda lam: path_cycle_coeff("path-alt", lam)),
                "one-join": (1, lambda lam: path_cycle_coeff("path-one-join", lam))},
        coeff_from=1, e_positive=True),
    "cycle": FamilySpec(
        lambda n, ell: cycle(n),
        {"recurrence": lambda n, ell: cycle_seq(n),
         "gf": "full"},
        min_n=1, extra=0, pinned_below=3,
        gfs={"full": (1, lambda N, ell: ps.cycle_gf(N))}, gf_from=1,
        coeffs={"printed": (1, lambda lam: path_cycle_coeff("cycle", lam))}, coeff_from=1,
        e_positive=True),
    # the clone n of the leaf n-1 (of the only vertex when n = 1)
    "twin-path-leaf": FamilySpec(
        lambda n, ell: twin(path(n), n - 1),
        {"identity": lambda n, ell: path_seq(n + 1) * 2 - e(2) * path_seq(n - 1) * 2,
         "gf": "half",
         "recurrence": lambda n, ell, seeds={1: e(2) * 2}: _recur(
             "twin-path-leaf", n, seeds, 2,
             lambda: [(_ONE, 1, (0, 2)), (e(1), 0, (-2, 2)), (e(2), -1, (-4, 2))])},
        min_n=1, extra=1,
        gfs={"half": (2, lambda N, ell: leaf_twin_gf_half(N)),
             "half-alt": (2, lambda N, ell: leaf_twin_gf_half_alt(N)),
             "full": (1, lambda N, ell: leaf_twin_gf(N))}, gf_from=1,
        coeffs={"printed": (1, lambda lam: twin_path_leaf_coeff(lam))}, coeff_from=1,
        e_positive=True),
    # the clone n of 0, then the clone n+1 of n-1; the identity and the gf
    # start at n = 3, so the identity and the recurrence pin n = 2 (K_4), the
    # gf route falls back to it, and the coefficient formula holds at n = 2 too
    "twin-path-both": FamilySpec(
        lambda n, ell: twin(twin(path(n), 0), n - 1),
        {"identity": lambda n, ell: e(4) * 24 if n == 2 else (
            path_seq(n + 2) - e(2) * path_seq(n) * 2
            + e_term((2, 2)) * path_seq(n - 2)) * 4,
         "gf": "quarter",
         "recurrence": lambda n, ell, seeds={2: e(4) * 24}: _recur(
             "twin-path-both", n, seeds, 3, lambda: [
                 (_ONE, 2, (0, 4)), (e(1), 1, (-4, 4)), (e(3), -1, (-12, 12)),
                 (e_term((3, 1)), -2, (-8, 8)), (e(4), -2, (-16, 16)), (e(2), 0, (-8,)),
                 (e_term((2, 2)), -2, (8, -4)), (e_term((2, 1)), -1, (4, -4))])},
        min_n=2, extra=2,
        gfs={"quarter": (4, lambda N, ell: both_leaves_gf_quarter(N)),
             "quarter-alt": (4, lambda N, ell: both_leaves_gf_quarter_alt(N)),
             "from-leaf": (1, lambda N, ell: (Series.one(N) - Series.monomial(e(2), 2, N))
                           * leaf_twin_gf(N) * 2 + alpha_poly(N) * 2)}, gf_from=3,
        coeffs={"printed": (1, lambda lam: twin_path_both_coeff(lam))}, coeff_from=2,
        e_positive=True),
    # the clone n of spine position ell
    "twin-path-interior": FamilySpec(
        lambda n, ell: twin(path(n), ell - 1),
        {"identity": lambda n, ell: _interior_identity(n, ell),
         "gf": "full",
         "epos-gf": "epos-half",
         "recurrence": lambda n, ell: _recur(("twin-path-interior", ell), n, {}, ell + 1,
                                             lambda: _interior_rows(ell))},
        min_n=3, extra=1, ells=lambda n: range(2, n),
        gfs={"epos-half": (2, lambda N, ell: interior_gf_epos_half(ell, N)),
             "full": (1, lambda N, ell: interior_gf(ell, N))}, gf_from=3,
        e_positive=True),
    # the clone n of spine position ell, then the clone n+1 of the leaf n-1
    "twin-interior-leaf": FamilySpec(
        lambda n, ell: twin(twin(path(n), ell - 1), n - 1),
        {"identity": lambda n, ell: (
            family_value("twin-path-interior", n + 1, ell)
            - e(2) * family_value("twin-path-interior", n - 1, ell)) * 2},
        min_n=4, extra=2, ells=lambda n: range(2, n - 1), e_positive=True),
    # the clone n of 0; the gf starts at n = 3 and the coefficient formula at
    # n = 2, which has no graph
    "twin-cycle": FamilySpec(
        lambda n, ell: twin(cycle(n), 0),
        {"identity": lambda n, ell: e(2) * 2 if n == 1 else (
            cycle_seq(n + 1) * 4 + e(1) * cycle_seq(n) * 2
            - path_seq(n + 1) * 6 + e(2) * path_seq(n - 1) * 2),
         "gf": "half",
         "recurrence": lambda n, ell, seeds={1: e(2) * 2}: _recur(
             "twin-cycle", n, seeds, 2,
             lambda: [(_ONE, 1, (0, -10, 4)), (e(1), 0, (6, -8, 2)), (e(2), -1, (4, -2))])},
        min_n=1, extra=1, pinned_below=3,
        gfs={"half": (2, lambda N, ell: twin_cycle_gf_half(N)),
             "half-rewrite": (2, lambda N, ell: twin_cycle_gf_half_rewrite(N)),
             "full": (1, lambda N, ell: twin_cycle_gf(N))}, gf_from=3,
        coeffs={"printed": (2, lambda lam: twin_cycle_coeff(lam))}, coeff_from=2,
        e_positive=True),
    # leaf n hangs from 0 and leaf n+1 from 1; at n = 2 the cycle degenerates
    # to the edge 0-1 and the graph is the 4-path
    "moose": FamilySpec(
        lambda n, ell: Graph(n + 2, [*(cycle(n) if n > 2 else path(2)).edges,
                                     (0, n), (1, n + 1)]),
        {"recurrence": lambda n, ell: _recur("moose", n, {}, 2, lambda: [
            (_ONE, 2, (0, -3, 1)), (e(1), 1, (2, -6, 2)), (e_term((1, 1)), 0, (2, -3, 1)),
            (e(2), 0, (2,))])},
        min_n=2, extra=2, e_positive=True),
    # the pendant n at spine position ell
    "flagpole": FamilySpec(
        lambda n, ell: Graph(n + 1, [*path(n).edges, (ell - 1, n)]),
        {"identity": lambda n, ell: (path_seq(n + 1) + e(1) * path_seq(n)
                                     - path_seq(ell) * path_seq(n - ell + 1))},
        min_n=1, extra=1, ells=lambda n: range(1, n + 1)),
    # the vertex n over spine positions ell and ell+1
    "triangle-path": FamilySpec(
        lambda n, ell: Graph(n + 1, [*path(n).edges, (ell - 1, n), (ell, n)]),
        {"identity": lambda n, ell: (family_value("flagpole", n, ell) + path_seq(n + 1)
                                     - path_seq(ell + 1) * path_seq(n - ell))},
        min_n=2, extra=1, ells=lambda n: range(1, n)),
    # the twinned cycle without the spine edge 0-(n-1)
    "dgraph": FamilySpec(
        lambda n, ell: delete_edge(twin(cycle(n), 0), 0, n - 1),
        {"identity": lambda n, ell: (cycle_seq(n + 1) * 2 + e(1) * cycle_seq(n)
                                     - path_seq(n + 1) * 2)},
        min_n=3, extra=1),
    # the dgraph without the clone edge 0-n: the cycle 1..n with the pendant 0 at 1
    "tadpole": FamilySpec(
        lambda n, ell: delete_edge(delete_edge(twin(cycle(n), 0), 0, n - 1), 0, n),
        {"identity": lambda n, ell: cycle_seq(n + 1) + e(1) * cycle_seq(n) - path_seq(n + 1)},
        min_n=3, extra=1),
}


def family_spec(name: str) -> FamilySpec:
    """The table entry for a family name; - or _ separators and a twinned-
    prefix are accepted."""
    key = _canon(name)
    if key.startswith("twinned-"):
        key = "twin-" + key[len("twinned-"):]
    if key not in FAMILIES:
        raise ValueError(f"unknown family {name!r}")
    return FAMILIES[key]


def methods_for(name: str) -> tuple[str, ...]:
    """The computation routes available for a family tag."""
    return tuple(family_spec(name).routes)


def family_value(name: str, n: int, ell: Optional[int] = None,
                 method: Optional[str] = None) -> SymE:
    """Value dispatcher: one family tag, one n (and ell), one method.

    The CLI, the three public route functions (twin_path_leaf, twin_path_both,
    twin_cycle) and every identity that reads another family come through
    here, so the domain check, the method lookup and the extraction of a
    route that names a gf form happen in one place.  That extraction reads
    the form's deepest build so far (powerseries.deepest), so a warm process
    builds each form once.
    """
    spec = family_spec(name)
    spec.check(name, n, ell)
    method = _canon(method) if method else next(iter(spec.routes))
    route = spec.routes.get(method)
    if route is None:
        raise ValueError(f"family {name!r} has no method {method!r}")
    if not isinstance(route, str):
        return route(n, ell)
    if n < spec.gf_from:
        return next(iter(spec.routes.values()))(n, ell)
    scale, form = spec.gfs[route]
    return ps.deepest(form, n + spec.extra, ell).extract(n + spec.extra) * scale


def coeff_value(name: str, lam) -> Optional[int]:
    """Coefficient dispatcher for the CLI: the first coeffs form, unscaled;
    None means no printed closed form."""
    spec = family_spec(name)
    if not spec.coeffs:
        raise ValueError(f"no coefficient formulas for family {name!r}")
    lam = make_partition(lam)
    if sum(lam) - spec.extra < spec.coeff_from:
        raise ValueError(f"family {name!r} has coefficient formulas for "
                         f"|lambda| >= {spec.coeff_from + spec.extra}, got {sum(lam)}")
    return next(iter(spec.coeffs.values()))[1](lam)
