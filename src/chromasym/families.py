"""Closed forms, generating functions, recurrences, and coefficient formulas
for paths, cycles, their twins, and the auxiliary families.

Every family value is computable by at least two independent routes (closed
identity in path/cycle values, generating function extraction, e-positive
recurrence, or coefficient reassembly); none of the routes consults the
brute-force oracle in csf, so oracle agreement is a genuine cross-check.

Each family's generating functions and their scales, and the scale of its
coefficient formula, are fields of its FAMILIES entry.

The degenerate conventions X_{C_1} = 0, X_{C_2} = 2e_2, X_{C_{1,v}} = 2e_2,
X_{C_{2,v}} = 6e_3 are pinned constants: no simple graph realizes them, but
the recurrences and coefficient formulas depend on them.
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


def _recur(memo: dict, n: int, seeds: Callable[[], dict], first: int, low: int,
           drive: Callable[[int], SymE]) -> SymE:
    """X_n of the recurrence X_m = drive(m) + sum_{j=2}^{m-low} (j-1) e_j X_{m-j}
    for m >= first; seeds() fills an empty memo with the values the rule does
    not give.

    Every recurrence of the paper has this shape: the sum comes from the
    shared denominator D = 1 - sum_j (j-1) e_j z^j, and its weights j - 1
    are nonnegative.
    """
    got = memo.get(n)
    if got is not None:
        return got
    if not memo:
        memo.update(seeds())
    for m in range(first, n + 1):
        if m not in memo:
            memo[m] = drive(m) + _sum_of_products((e_term((j,), j - 1), memo[m - j])
                                                  for j in range(2, m - low + 1))
    return memo[n]


_path_cache: dict[int, SymE] = _memo()
_cycle_cache: dict[int, SymE] = _memo()


def path_seq(n: int) -> SymE:
    """X of the n-vertex path: n e_n + sum_{j=2}^{n-1} (j-1) e_j X_{P_{n-j}}."""
    got = _path_cache.get(n)
    if got is not None:
        return got
    FAMILIES["path"].check("path", n, None)
    return _recur(_path_cache, n, lambda: {0: SymE.one()}, 1, 1, lambda m: e(m) * m)


def cycle_seq(n: int) -> SymE:
    """X of the n-cycle: n(n-1) e_n + sum_{j=2}^{n-2} (j-1) e_j X_{C_{n-j}}.

    The rule gives the pinned conventions 0 and 2e_2 at n = 1 and 2.
    """
    got = _cycle_cache.get(n)
    if got is not None:
        return got
    FAMILIES["cycle"].check("cycle", n, None)
    return _recur(_cycle_cache, n, dict, 1, 2, lambda m: e(m) * (m * (m - 1)))


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


_leaf_rec_cache: dict[int, SymE] = _memo()


def _leaf_twin_drive(m: int) -> SymE:
    return (e(m + 1) * (2 * (m + 1)) + e(m) * e(1) * (2 * (m - 1))
            + e(m - 1) * e(2) * (2 * (m - 3)))


def twin_path_leaf(n: int, method: str = "identity") -> SymE:
    """X of the n-path twinned at a leaf."""
    return family_value("twin-path-leaf", n, method=method)


def twin_path_leaf_coeff(lam) -> int:
    """Coefficient of e_lam z^{|lam|} in the leaf-twin gf sum_{n>=1} X_{n,v} z^{n+1}.

    The two general double sums cover everything once length-one remainders
    are handled; the short closed forms for small shapes are consequences and
    are asserted against this in the tests.
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


_both_rec_cache: dict[int, SymE] = _memo()


def _both_leaves_drive(m: int) -> SymE:
    return (e(m + 2) * (4 * (m + 2))
            + e(m + 1) * e(1) * (4 * m)
            + e(m - 1) * e(3) * (12 * (m - 2))
            + e(m - 2) * e(3) * e(1) * (8 * (m - 3))
            + e(m - 2) * e(4) * (16 * (m - 3))
            - e(2) * (e(m) * 8 + e(m - 2) * e(2) * (4 * (m - 4))
                      + e(m - 1) * e(1) * (4 * (m - 2))))


def twin_path_both(n: int, method: str = "identity") -> SymE:
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
        if j >= 3:
            return 4 * (i - 1) * i if i == j else 4 * (j - 1) * i + 4 * (i - 1) * j
        return None
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
    sum_{i=3}^{ell} (i-1) e_i z^i sum_{j=ell-i+2}^{ell-2} X_{P_j} z^j
    + ell e_{ell+1} z^{ell+1} sum_{j=1}^{ell-2} X_{P_j} z^j
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
    acc = Series.monomial(e(ell + 1) * ell, ell + 1, trunc) * _path_terms(range(1, ell - 1), trunc)
    for i in range(3, ell + 1):
        stair = _path_terms(range(ell - i + 2, ell - 1), trunc)
        acc = acc + Series.monomial(e(i) * (i - 1), i, trunc) * stair

    acc = acc + ps.weighted("E", trunc, lo=ell + 2)
    acc = acc + ps.weighted("E", trunc, lo=ell + 2) * path_head
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


# one memo per ell, keyed by n
_interior_rec_cache: dict[int, dict[int, SymE]] = _memo()


def _interior_drive(m: int, ell: int) -> SymE:
    acc = e(m + 1) * (4 * (m + 1)) + e(1) * e(m) * (2 * m)
    for j in range(m - ell + 2, m):
        acc = acc + e(1) * e(j) * (2 * (j - 1)) * path_seq(m - j)
    for j in range(m - ell + 3, m + 1):
        acc = acc + e(j) * (4 * (j - 1)) * path_seq(m + 1 - j)
    for j in range(m - ell + 1, m - ell + 3):
        acc = acc + e(j) * (2 * (j - 2)) * path_seq(m + 1 - j)
    return acc + e(m - ell) * (m - ell - 2) * twin_path_leaf(ell)


def twin_path_interior(n: int, ell: int, method: str = "identity") -> SymE:
    """X of the n-path twinned at interior position ell (1-based)."""
    return family_value("twin-path-interior", n, ell, method)


def twin_interior_then_leaf(n: int, ell: int) -> SymE:
    """X of the n-path twinned at interior position ell and then at the leaf n:
    2 (X_{n+1,ell} - e_2 X_{n-1,ell})."""
    return family_value("twin-interior-leaf", n, ell)


# ---------------------------------------------------------------------------
# auxiliary families: flagpole, triangle path, deleted twinned cycles


def flagpole_seq(n: int, ell: int) -> SymE:
    """X of the path with a pendant at position ell:
    X_{P_{n+1}} + e_1 X_{P_n} - X_{P_ell} X_{P_{n-ell+1}}."""
    return family_value("flagpole", n, ell)


def triangle_path_seq(n: int, ell: int) -> SymE:
    """X of the path with a triangle vertex over positions ell, ell+1:
    X_{F_{n,ell}} + X_{P_{n+1}} - X_{P_{ell+1}} X_{P_{n-ell}}."""
    return family_value("triangle-path", n, ell)


def dgraph_seq(n: int) -> SymE:
    """X of the once-deleted twinned cycle: 2 X_{C_{n+1}} + e_1 X_{C_n} - 2 X_{P_{n+1}}."""
    return family_value("dgraph", n)


def tadpole_seq(n: int) -> SymE:
    """X of the cycle with one pendant: X_{C_{n+1}} + e_1 X_{C_n} - X_{P_{n+1}}."""
    return family_value("tadpole", n)


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


_twin_cycle_rec_cache: dict[int, SymE] = _memo()


def _twin_cycle_drive(m: int) -> SymE:
    return (e(m + 1) * (2 * (m + 1) * (2 * m - 3))
            + e(m) * e(1) * (2 * (m - 1) * (m - 3))
            - e(2) * e(m - 1) * (2 * (m - 3)))


def twin_cycle(n: int, method: str = "identity") -> SymE:
    """X of the n-cycle twinned at a vertex; n = 1, 2 are pinned conventions."""
    return family_value("twin-cycle", n, method=method)


def twin_cycle_coeff(lam) -> int:
    """Half the e_lam coefficient of the twinned-cycle value at n = |lam| - 1.

    The n = 2 convention 6e_3 is included, so (3,) gives 3.  The half gf
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
# moose graphs


_moose_rec_cache: dict[int, SymE] = _memo()


def _moose_drive(m: int) -> SymE:
    return (e(m + 2) * ((m + 2) * (m - 1))
            + e(1) * e(m + 1) * (2 * (m * m - m - 1))
            + e_term((1, 1)) * e(m) * ((m - 1) * (m - 2))
            + e(2) * e(m) * 2)


def moose(n: int, method: str = "recurrence") -> SymE:
    """X of the cycle on n vertices with pendant leaves at both ends of one edge.

    The recurrence
    sum_{j=2}^{n-2} (j-1) e_j X_{n-j} + (n+2)(n-1) e_{n+2}
    + 2(n^2-n-1) e_1 e_{n+1} + (n-1)(n-2) e_1^2 e_n + 2 e_2 e_n
    holds from n = 2 on, where the graph degenerates to the 4-path.
    """
    return family_value("moose", n, method=method)


# ---------------------------------------------------------------------------
# coefficient formulas for paths and cycles


def path_cycle_coeff(which: str, lam) -> int:
    """e_lam coefficient of the path or cycle value of size |lam|:
    sum_a a eps(lam - a) for paths, sum_a a(a-1) eps(lam - a) for cycles."""
    lam = make_partition(lam)
    if sum(lam) < 1:
        raise ValueError("coefficient formulas need |lam| >= 1")
    if which == "path":
        return sum(a * epsilon_minus(lam, a) for a in support(lam))
    if which == "cycle":
        return sum(a * (a - 1) * epsilon_minus(lam, a) for a in support(lam))
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
    form of the generating function, the e-positive one first, to
    (scale, f(trunc, ell)): for n >= gf_from, the z^(n+extra) coefficient of
    scale * f is the member's value, and f is zero below the first member's
    z^(n+extra).  A route may instead name a gfs form: family_value then
    extracts that coefficient from f(n + extra, ell), cut from the deepest
    build of f at that ell so far, and below gf_from it gives the default
    route's value.  coeff(lam) is the printed coefficient
    formula: for n >= coeff_from, coeff_scale * coeff(lam) is the e_lam
    coefficient of the value at n = |lam| - extra, and None means no printed
    form.  e_positive marks the families the paper claims e-positive.
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
    coeff: Optional[Callable[[Partition], Optional[int]]] = None
    coeff_from: int = 0
    coeff_scale: int = 1
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


# The routes call this module's functions by name, so a wrapper installed on
# the module (a tracer or profiler) sees every call.  The auxiliary families
# flagpole, triangle-path, dgraph and tadpole carry no e-positivity claim: the
# stars among the flagpoles are genuine counterexamples.
FAMILIES: dict[str, FamilySpec] = {
    "path": FamilySpec(
        lambda n, ell: path(n),
        {"recurrence": lambda n, ell: path_seq(n),
         "gf": "full"},
        min_n=0, extra=0, gfs={"full": (1, lambda N, ell: ps.path_gf(N))},
        coeff=lambda lam: path_cycle_coeff("path", lam), coeff_from=1, e_positive=True),
    "cycle": FamilySpec(
        lambda n, ell: cycle(n),
        {"recurrence": lambda n, ell: cycle_seq(n),
         "gf": "full"},
        min_n=1, extra=0, pinned_below=3,
        gfs={"full": (1, lambda N, ell: ps.cycle_gf(N))}, gf_from=1,
        coeff=lambda lam: path_cycle_coeff("cycle", lam), coeff_from=1, e_positive=True),
    # the clone n of the leaf n-1 (of the only vertex when n = 1)
    "twin-path-leaf": FamilySpec(
        lambda n, ell: twin(path(n), n - 1),
        {"identity": lambda n, ell: path_seq(n + 1) * 2 - e(2) * path_seq(n - 1) * 2,
         "gf": "half",
         "recurrence": lambda n, ell: _recur(_leaf_rec_cache, n, lambda: {1: e(2) * 2},
                                             2, 2, _leaf_twin_drive)},
        min_n=1, extra=1,
        gfs={"half": (2, lambda N, ell: leaf_twin_gf_half(N)),
             "half-alt": (2, lambda N, ell: leaf_twin_gf_half_alt(N)),
             "full": (1, lambda N, ell: leaf_twin_gf(N))}, gf_from=1,
        coeff=lambda lam: twin_path_leaf_coeff(lam), coeff_from=1, e_positive=True),
    # the clone n of 0, then the clone n+1 of n-1; the identity and the gf
    # start at n = 3, so the identity and the recurrence pin n = 2 (K_4), the
    # gf route falls back to it, and the coefficient formula holds at n = 2 too
    "twin-path-both": FamilySpec(
        lambda n, ell: twin(twin(path(n), 0), n - 1),
        {"identity": lambda n, ell: e(4) * 24 if n == 2 else (
            path_seq(n + 2) - e(2) * path_seq(n) * 2
            + e_term((2, 2)) * path_seq(n - 2)) * 4,
         "gf": "quarter",
         "recurrence": lambda n, ell: _recur(_both_rec_cache, n, lambda: {2: e(4) * 24},
                                             3, 3, _both_leaves_drive)},
        min_n=2, extra=2,
        gfs={"quarter": (4, lambda N, ell: both_leaves_gf_quarter(N)),
             "quarter-alt": (4, lambda N, ell: both_leaves_gf_quarter_alt(N)),
             "from-leaf": (1, lambda N, ell: (Series.one(N) - Series.monomial(e(2), 2, N))
                           * leaf_twin_gf(N) * 2 + alpha_poly(N) * 2)}, gf_from=3,
        coeff=lambda lam: twin_path_both_coeff(lam), coeff_from=2, e_positive=True),
    # the clone n of spine position ell
    "twin-path-interior": FamilySpec(
        lambda n, ell: twin(path(n), ell - 1),
        {"identity": lambda n, ell: _interior_identity(n, ell),
         "gf": "full",
         "epos-gf": "epos-half",
         "recurrence": lambda n, ell: _recur(_interior_rec_cache.setdefault(ell, {}), n, dict,
                                             ell + 1, ell + 1,
                                             lambda m: _interior_drive(m, ell))},
        min_n=3, extra=1, ells=lambda n: range(2, n),
        gfs={"epos-half": (2, lambda N, ell: interior_gf_epos_half(ell, N)),
             "full": (1, lambda N, ell: interior_gf(ell, N))}, gf_from=3,
        e_positive=True),
    # the clone n of spine position ell, then the clone n+1 of the leaf n-1
    "twin-interior-leaf": FamilySpec(
        lambda n, ell: twin(twin(path(n), ell - 1), n - 1),
        {"identity": lambda n, ell: (twin_path_interior(n + 1, ell)
                                     - e(2) * twin_path_interior(n - 1, ell)) * 2},
        min_n=4, extra=2, ells=lambda n: range(2, n - 1), e_positive=True),
    # the clone n of 0; the gf starts at n = 3 and the coefficient formula at
    # the n = 2 convention
    "twin-cycle": FamilySpec(
        lambda n, ell: twin(cycle(n), 0),
        {"identity": lambda n, ell: {1: e(2) * 2, 2: e(3) * 6}[n] if n <= 2 else (
            cycle_seq(n + 1) * 4 + e(1) * cycle_seq(n) * 2
            - path_seq(n + 1) * 6 + e(2) * path_seq(n - 1) * 2),
         "gf": "half",
         "recurrence": lambda n, ell: _recur(_twin_cycle_rec_cache, n,
                                             lambda: {1: e(2) * 2}, 2, 2, _twin_cycle_drive)},
        min_n=1, extra=1, pinned_below=3,
        gfs={"half": (2, lambda N, ell: twin_cycle_gf_half(N)),
             "half-rewrite": (2, lambda N, ell: twin_cycle_gf_half_rewrite(N)),
             "full": (1, lambda N, ell: twin_cycle_gf(N))}, gf_from=3,
        coeff=lambda lam: twin_cycle_coeff(lam), coeff_from=2, coeff_scale=2,
        e_positive=True),
    # leaf n hangs from 0 and leaf n+1 from 1; at n = 2 the cycle degenerates
    # to the edge 0-1 and the graph is the 4-path
    "moose": FamilySpec(
        lambda n, ell: Graph(n + 2, [*(cycle(n) if n > 2 else path(2)).edges,
                                     (0, n), (1, n + 1)]),
        {"recurrence": lambda n, ell: _recur(_moose_rec_cache, n, dict, 2, 2, _moose_drive)},
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
        {"identity": lambda n, ell: (flagpole_seq(n, ell) + path_seq(n + 1)
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

    The CLI and every public route function come through here, so the domain
    check, the method lookup and the extraction of a route that names a gf
    form happen in one place.  That extraction reads the form's deepest build
    so far (powerseries.deepest), so a warm process builds each form once.
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
    """Coefficient dispatcher for the CLI; None means no printed closed form."""
    spec = family_spec(name)
    if spec.coeff is None:
        raise ValueError(f"no coefficient formulas for family {name!r}")
    lam = make_partition(lam)
    if sum(lam) - spec.extra < spec.coeff_from:
        raise ValueError(f"family {name!r} has coefficient formulas for "
                         f"|lambda| >= {spec.coeff_from + spec.extra}, got {sum(lam)}")
    return spec.coeff(lam)
