"""Closed forms, generating functions, recurrences, and coefficient formulas
for paths, cycles, their twins, and the auxiliary families.

Every family value is computable by at least two independent routes (closed
identity in path/cycle values, generating function extraction, e-positive
recurrence, or coefficient reassembly); none of the routes consults the
brute-force oracle in csf, so oracle agreement is a genuine cross-check.

Normalizations.  Generating functions follow the conventions used for the
coefficient formulas:

  * leaf twin        sum_{n>=1} X_{n,v} z^{n+1}
  * both leaves      sum_{n>=3} X_{n,v,w} z^{n+2}        (quarter-scaled form)
  * interior twin    sum_{n>=ell+1} X_{n,ell} z^{n+1}    (half-scaled form)
  * twinned cycle    sum_{n>=3} X_{C_{n,v}} z^{n+1}      (half-scaled form)

The degenerate conventions X_{C_1} = 0, X_{C_2} = 2e_2, X_{C_{1,v}} = 2e_2,
X_{C_{2,v}} = 6e_3 are pinned constants: no simple graph realizes them, but
the recurrences and coefficient formulas depend on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from . import graphs
from . import powerseries as ps
from .partitions import (Partition, epsilon, epsilon_minus, make_partition,
                         multiplicities, partitions_of, remove_part, support)
from .powerseries import Series
from .symfun import SymE, e, e_term

# ---------------------------------------------------------------------------
# paths and cycles


_path_cache: dict[int, SymE] = {}
_cycle_cache: dict[int, SymE] = {}


def path_seq(n: int) -> SymE:
    """X of the n-vertex path: n e_n + sum_{j=2}^{n-1} (j-1) e_j X_{P_{n-j}}."""
    if n < 0:
        raise ValueError("path index must be >= 0")
    got = _path_cache.get(n)
    if got is not None:
        return got
    _path_cache.setdefault(0, SymE.one())
    _path_cache.setdefault(1, e(1))
    _path_cache.setdefault(2, e(2) * 2)
    for m in range(3, n + 1):
        if m in _path_cache:
            continue
        acc = e(m) * m
        for j in range(2, m):
            acc = acc + e(j) * (j - 1) * _path_cache[m - j]
        _path_cache.setdefault(m, acc)
    return _path_cache[n]


def cycle_seq(n: int) -> SymE:
    """X of the n-cycle: n(n-1) e_n + sum_{j=2}^{n-2} (j-1) e_j X_{C_{n-j}}.

    n=1 and n=2 are the pinned conventions 0 and 2e_2.
    """
    if n < 1:
        raise ValueError("cycle index must be >= 1")
    got = _cycle_cache.get(n)
    if got is not None:
        return got
    _cycle_cache.setdefault(1, SymE.zero())
    _cycle_cache.setdefault(2, e(2) * 2)
    _cycle_cache.setdefault(3, e(3) * 6)
    for m in range(4, n + 1):
        if m in _cycle_cache:
            continue
        acc = e(m) * (m * (m - 1))
        for j in range(2, m - 1):
            acc = acc + e(j) * (j - 1) * _cycle_cache[m - j]
        _cycle_cache.setdefault(m, acc)
    return _cycle_cache[n]


# ---------------------------------------------------------------------------
# path twinned at a leaf


def leaf_twin_gf(trunc: int) -> Series:
    """sum_{n>=1} X_{n,v} z^{n+1} = 2(1 - e_2 z^2) * path_gf - 2 - 2 e_1 z."""
    two = Series.monomial(SymE.const(2), 0, trunc)
    shape = Series.one(trunc) - Series.monomial(e(2), 2, trunc)
    return shape * ps.path_gf(trunc) * 2 - two - Series.monomial(e(1) * 2, 1, trunc)


def leaf_twin_gf_half(trunc: int) -> Series:
    """Manifestly e-positive half gf:
    K G_{>=3}/D + e_1 z G G_{>=3}/D + e_2 z^2 + sum_{i>=3} i e_i z^i + e_1 z G_{>=3}."""
    inv_d = ps.invert_unit(ps.D(trunc))
    g3 = ps.G_geq(3, trunc)
    e1z = Series.monomial(e(1), 1, trunc)
    return (ps.K(trunc) * g3 * inv_d
            + e1z * ps.G(trunc) * g3 * inv_d
            + Series.monomial(e(2), 2, trunc)
            + ps.e_weighted(trunc, 3, lambda i: i)
            + e1z * g3)


def leaf_twin_gf_half_alt(trunc: int) -> Series:
    """Denominator-free half gf: path_gf * G_{>=3} + sum_{i>=2} e_i z^i."""
    return ps.path_gf(trunc) * ps.G_geq(3, trunc) + ps.E_geq(2, trunc)


_leaf_rec_cache: dict[int, SymE] = {}


def _leaf_twin_recurrence(n: int) -> SymE:
    _leaf_rec_cache.setdefault(1, e(2) * 2)
    _leaf_rec_cache.setdefault(2, e(3) * 6)
    _leaf_rec_cache.setdefault(3, e(4) * 8 + e_term((3, 1), 4))
    for m in range(4, n + 1):
        if m in _leaf_rec_cache:
            continue
        acc = (e(m + 1) * (2 * (m + 1))
               + e(m) * e(1) * (2 * (m - 1))
               + e(m - 1) * e(2) * (2 * (m - 3)))
        for j in range(2, m - 1):
            acc = acc + e(j) * (j - 1) * _leaf_rec_cache[m - j]
        _leaf_rec_cache.setdefault(m, acc)
    return _leaf_rec_cache[n]


def twin_path_leaf(n: int, method: str = "identity") -> SymE:
    """X of the n-path twinned at a leaf."""
    if n < 1:
        raise ValueError("leaf twin needs n >= 1")
    method = _canon_method(method)
    if method == "identity":
        return path_seq(n + 1) * 2 - e(2) * path_seq(n - 1) * 2
    if method == "gf":
        return leaf_twin_gf_half(n + 2).extract(n + 1) * 2
    if method == "recurrence":
        return _leaf_twin_recurrence(n)
    raise ValueError(f"leaf twin has no method {method!r}")


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
    """Correction polynomial linking the both-leaves gf to the leaf-twin gf:
    2 e_2^2 z^4 - (8 e_4 z^4 + 4 e_3 e_1 z^4 + 6 e_3 z^3 + 2 e_2 z^2)."""
    c4 = e_term((2, 2), 2) - e(4) * 8 - e_term((3, 1), 4)
    return (Series.monomial(c4, 4, trunc)
            - Series.monomial(e(3) * 6, 3, trunc)
            - Series.monomial(e(2) * 2, 2, trunc))


def both_leaves_gf_quarter(trunc: int) -> Series:
    """Manifestly e-positive quarter gf for sum_{n>=3} X_{n,v,w} z^{n+2}."""
    inv_d = ps.invert_unit(ps.D(trunc))
    g3 = ps.G_geq(3, trunc)
    e1z = Series.monomial(e(1), 1, trunc)
    return ((ps.K(trunc) + e1z * ps.G(trunc)) * g3 * g3 * inv_d
            + e1z * g3 * g3
            + g3 * ps.e_weighted(trunc, 3, lambda i: i)
            + e1z * ps.e_weighted(trunc, 4, lambda i: i - 1)
            + Series.monomial(e(2), 2, trunc) * ps.e_weighted(trunc, 3, lambda i: i - 2)
            + ps.e_weighted(trunc, 5, lambda i: i))


def both_leaves_gf_quarter_alt(trunc: int) -> Series:
    """Denominator-free quarter gf:
    path_gf G_{>=3}^2 + K_{>=5} + G_{>=3} E_{>=3} + e_1 z G_{>=4} + e_2 z^2 sum (i-2) e_i z^i."""
    g3 = ps.G_geq(3, trunc)
    return (ps.path_gf(trunc) * g3 * g3
            + ps.K_geq(5, trunc)
            + g3 * ps.E_geq(3, trunc)
            + Series.monomial(e(1), 1, trunc) * ps.G_geq(4, trunc)
            + Series.monomial(e(2), 2, trunc) * ps.e_weighted(trunc, 3, lambda i: i - 2))


_both_rec_cache: dict[int, SymE] = {}

_BOTH_INITIAL = {
    2: lambda: e(4) * 24,
    3: lambda: e_term((3, 2), 4) + e_term((4, 1), 12) + e(5) * 20,
    4: lambda: e_term((3, 3), 24) + e_term((4, 2), 8) + e_term((5, 1), 16) + e(6) * 24,
    5: lambda: (e_term((3, 3, 1), 16) + e_term((4, 3), 68) + e_term((5, 2), 12)
                + e_term((6, 1), 20) + e(7) * 28),
}


def _both_leaves_recurrence(n: int) -> SymE:
    for m, build in _BOTH_INITIAL.items():
        _both_rec_cache.setdefault(m, build())
    for m in range(6, n + 1):
        if m in _both_rec_cache:
            continue
        acc = (e(m + 2) * (4 * (m + 2))
               + e(m + 1) * e(1) * (4 * m)
               + e(m - 1) * e(3) * (12 * (m - 2))
               + e(m - 2) * e(3) * e(1) * (8 * (m - 3))
               + e(m - 2) * e(4) * (16 * (m - 3)))
        for j in range(3, m - 2):
            acc = acc + e(j) * (j - 1) * _both_rec_cache[m - j]
        bracket = (_both_rec_cache[m - 2]
                   - e(m) * 8
                   - e(m - 2) * e(2) * (4 * (m - 4))
                   - e(m - 1) * e(1) * (4 * (m - 2)))
        return_val = acc + e(2) * bracket
        _both_rec_cache.setdefault(m, return_val)
    return _both_rec_cache[n]


def twin_path_both(n: int, method: str = "identity") -> SymE:
    """X of the n-path twinned at both leaves."""
    if n < 2:
        raise ValueError("both-leaves twin needs n >= 2")
    method = _canon_method(method)
    if n == 2 and method in ("identity", "gf"):
        return e(4) * 24
    if method == "identity":
        return (path_seq(n + 2) - e(2) * path_seq(n) * 2
                + e_term((2, 2)) * path_seq(n - 2)) * 4
    if method == "gf":
        return both_leaves_gf_quarter(n + 3).extract(n + 2) * 4
    if method == "recurrence":
        return _both_leaves_recurrence(n)
    raise ValueError(f"both-leaves twin has no method {method!r}")


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
    d = ps.D(trunc)
    acc = ps.e_weighted(trunc, 3, lambda i: i - 2, hi=ell + 1)
    acc = acc + (d + ps.G_geq(ell + 2, trunc)) * 2
    for i in range(1, ell - 1):
        acc = acc + (d + ps.G_geq(ell + 2 - i, trunc)) * Series.monomial(path_seq(i), i, trunc)
    return acc


def g_poly(ell: int, trunc: int) -> Series:
    """-sum_{j=0}^{ell} X_{P_j} z^j - (1 + e_1 z) sum_{j=0}^{ell-2} X_{P_j} z^j
    - (X_{P_{ell+1}} - e_2 X_{P_{ell-1}}) z^{ell+1}."""
    if ell < 2:
        raise ValueError("g polynomial needs ell >= 2")
    head = Series.zero(trunc)
    for j in range(0, ell + 1):
        head = head + Series.monomial(path_seq(j), j, trunc)
    short = Series.zero(trunc)
    for j in range(0, ell - 1):
        short = short + Series.monomial(path_seq(j), j, trunc)
    one_e1z = Series.one(trunc) + Series.monomial(e(1), 1, trunc)
    tail = Series.monomial(path_seq(ell + 1) - e(2) * path_seq(ell - 1), ell + 1, trunc)
    return -head - one_e1z * short - tail


def interior_gf(ell: int, trunc: int) -> Series:
    """sum_{n>=ell+1} X_{n,ell} z^{n+1} = 2 path_gf f_ell + 2 g_ell."""
    return (ps.path_gf(trunc) * f_poly(ell, trunc) + g_poly(ell, trunc)) * 2


def interior_epos_f_product(ell: int, trunc: int) -> Series:
    """Cancellation-free rewrite of path_gf * f_ell:
    path_gf sum_{i=3}^{ell+1} (i-2) e_i z^i + 2(E + path_gf G_{>=ell+2})
    + sum_{i=1}^{ell-2} (E + path_gf G_{>=ell+2-i}) X_{P_i} z^i."""
    xp = ps.path_gf(trunc)
    acc = xp * ps.e_weighted(trunc, 3, lambda i: i - 2, hi=ell + 1)
    acc = acc + (ps.E(trunc) + xp * ps.G_geq(ell + 2, trunc)) * 2
    for i in range(1, ell - 1):
        acc = acc + ((ps.E(trunc) + xp * ps.G_geq(ell + 2 - i, trunc))
                     * Series.monomial(path_seq(i), i, trunc))
    return acc


def interior_gf_epos_half(ell: int, trunc: int) -> Series:
    """Term-by-term e-positive half gf for the interior twin.

    Empty summation ranges contribute nothing (ell = 2 and 3 drop several
    terms); the tail sum over path values of index >= ell-1 is realized as
    path_gf minus its head.
    """
    if ell < 2:
        raise ValueError("interior twin needs ell >= 2")
    xp = ps.path_gf(trunc)
    path_head = Series.zero(trunc)  # sum_{i=0}^{ell-2} X_{P_i} z^i
    for i in range(0, ell - 1):
        path_head = path_head + Series.monomial(path_seq(i), i, trunc)

    inner = Series.zero(trunc)  # sum_{i=1}^{ell-2} X_{P_i} z^i
    for i in range(1, ell - 1):
        inner = inner + Series.monomial(path_seq(i), i, trunc)
    acc = Series.monomial(e(ell + 1) * ell, ell + 1, trunc) * inner

    for i in range(3, ell + 1):
        stair = Series.zero(trunc)
        for j in range(0, i - 3):
            stair = stair + Series.monomial(path_seq(ell - 2 - j), ell - 2 - j, trunc)
        acc = acc + Series.monomial(e(i) * (i - 1), i, trunc) * stair

    acc = acc + ps.E_geq(ell + 2, trunc)
    acc = acc + ps.E_geq(ell + 2, trunc) * path_head
    acc = acc + (xp - path_head) * ps.e_weighted(trunc, 2, lambda i: i - 2, hi=ell + 1)
    acc = acc + xp * ps.G_geq(ell + 2, trunc) * 2
    for i in range(1, ell - 1):
        acc = acc + xp * ps.G_geq(ell + 2 - i, trunc) * Series.monomial(path_seq(i), i, trunc)
    return acc


def _interior_identity(n: int, ell: int) -> SymE:
    p = path_seq
    return (p(ell - 1) * p(n - ell + 2) * -2
            + e(1) * p(n) * 2
            + p(n + 1) * 4
            - p(ell) * p(n - ell + 1) * 2
            + e(2) * p(ell - 1) * p(n - ell) * 2
            - p(ell + 1) * p(n - ell) * 2)


_interior_rec_cache: dict[tuple[int, int], SymE] = {}


def _interior_recurrence(n: int, ell: int) -> SymE:
    # the n >= 4 recurrence is self-starting for each ell; only (3, 2) falls
    # outside it and is seeded from the six-term identity
    if (n, ell) == (3, 2):
        return _interior_identity(3, 2)
    for m in range(ell + 1, n + 1):
        if (m, ell) in _interior_rec_cache:
            continue
        if (m, ell) == (3, 2):
            _interior_rec_cache[(3, 2)] = _interior_identity(3, 2)
            continue
        acc = e(m + 1) * (4 * (m + 1)) + e(1) * e(m) * (2 * m)
        for j in range(2, m - ell):
            acc = acc + e(j) * (j - 1) * _interior_rec_cache[(m - j, ell)]
        for j in range(m - ell + 2, m):
            acc = acc + e(1) * e(j) * (2 * (j - 1)) * path_seq(m - j)
        for j in range(m - ell + 3, m + 1):
            acc = acc + e(j) * (4 * (j - 1)) * path_seq(m + 1 - j)
        for j in range(m - ell + 1, m - ell + 3):
            acc = acc + e(j) * (2 * (j - 2)) * path_seq(m + 1 - j)
        acc = acc + e(m - ell) * (m - ell - 2) * twin_path_leaf(ell)
        _interior_rec_cache.setdefault((m, ell), acc)
    return _interior_rec_cache[(n, ell)]


def twin_path_interior(n: int, ell: int, method: str = "identity") -> SymE:
    """X of the n-path twinned at interior position ell (1-based)."""
    if not 2 <= ell <= n - 1:
        raise ValueError(f"interior twin needs 2 <= ell <= n-1, got ({n}, {ell})")
    method = _canon_method(method)
    if method == "identity":
        return _interior_identity(n, ell)
    if method == "gf":
        return interior_gf(ell, n + 2).extract(n + 1)
    if method == "epos-gf":
        return interior_gf_epos_half(ell, n + 2).extract(n + 1) * 2
    if method == "recurrence":
        return _interior_recurrence(n, ell)
    raise ValueError(f"interior twin has no method {method!r}")


def twin_interior_then_leaf(n: int, ell: int) -> SymE:
    """X of the n-path twinned at interior position ell and then at the leaf n:
    2 (X_{n+1,ell} - e_2 X_{n-1,ell})."""
    if n < 4 or not 2 <= ell <= n - 2:
        raise ValueError(f"interior+leaf twin needs n >= 4, 2 <= ell <= n-2, got ({n}, {ell})")
    return (twin_path_interior(n + 1, ell) - e(2) * twin_path_interior(n - 1, ell)) * 2


# ---------------------------------------------------------------------------
# auxiliary families: flagpole, triangle path, deleted twinned cycles


def flagpole_seq(n: int, ell: int) -> SymE:
    """X of the path with a pendant at position ell:
    X_{P_{n+1}} + e_1 X_{P_n} - X_{P_ell} X_{P_{n-ell+1}}."""
    if n < 1 or not 1 <= ell <= n:
        raise ValueError(f"flagpole needs 1 <= ell <= n, got ({n}, {ell})")
    return path_seq(n + 1) + e(1) * path_seq(n) - path_seq(ell) * path_seq(n - ell + 1)


def triangle_path_seq(n: int, ell: int) -> SymE:
    """X of the path with a triangle vertex over positions ell, ell+1:
    X_{F_{n,ell}} + X_{P_{n+1}} - X_{P_{ell+1}} X_{P_{n-ell}}."""
    if n < 2 or not 1 <= ell <= n - 1:
        raise ValueError(f"triangle path needs 1 <= ell <= n-1, got ({n}, {ell})")
    return flagpole_seq(n, ell) + path_seq(n + 1) - path_seq(ell + 1) * path_seq(n - ell)


def dgraph_seq(n: int) -> SymE:
    """X of the once-deleted twinned cycle: 2 X_{C_{n+1}} + e_1 X_{C_n} - 2 X_{P_{n+1}}."""
    if n < 3:
        raise ValueError("dgraph needs n >= 3")
    return cycle_seq(n + 1) * 2 + e(1) * cycle_seq(n) - path_seq(n + 1) * 2


def tadpole_seq(n: int) -> SymE:
    """X of the cycle with one pendant: X_{C_{n+1}} + e_1 X_{C_n} - X_{P_{n+1}}."""
    if n < 3:
        raise ValueError("tadpole needs n >= 3")
    return cycle_seq(n + 1) + e(1) * cycle_seq(n) - path_seq(n + 1)


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
    [F2 + e_1 z F3 + e_2 z^2 (E - 1 - e_1 z)]/D - e_2 z^2/D + e_2 z^2 - 3 e_3 z^3."""
    inv_d = ps.invert_unit(ps.D(trunc))
    e1z = Series.monomial(e(1), 1, trunc)
    e2z2 = Series.monomial(e(2), 2, trunc)
    num = ps.F2(trunc) + e1z * ps.F3(trunc) + e2z2 * ps.E_geq(2, trunc)
    return num * inv_d - e2z2 * inv_d + e2z2 - Series.monomial(e(3) * 3, 3, trunc)


def twin_cycle_gf_half(trunc: int) -> Series:
    """Manifestly e-positive half gf:
    sum_{i>=4} (2i^2-5i) e_i z^i
    + [e_1 z F3 + F2 G_{>=3} + e_2 z^2 sum_{i>=3} (2i^2-6i+2) e_i z^i]/D."""
    inv_d = ps.invert_unit(ps.D(trunc))
    num = (Series.monomial(e(1), 1, trunc) * ps.F3(trunc)
           + ps.F2(trunc) * ps.G_geq(3, trunc)
           + Series.monomial(e(2), 2, trunc)
           * ps.e_weighted(trunc, 3, lambda i: 2 * i * i - 6 * i + 2))
    return ps.e_weighted(trunc, 4, lambda i: 2 * i * i - 5 * i) + num * inv_d


_twin_cycle_rec_cache: dict[int, SymE] = {}


def _twin_cycle_recurrence(n: int) -> SymE:
    _twin_cycle_rec_cache.setdefault(1, e(2) * 2)
    _twin_cycle_rec_cache.setdefault(2, e(3) * 6)
    _twin_cycle_rec_cache.setdefault(3, e(4) * 24)
    _twin_cycle_rec_cache.setdefault(4, e(5) * 50 + e_term((4, 1), 6) + e_term((3, 2), 4))
    for m in range(5, n + 1):
        if m in _twin_cycle_rec_cache:
            continue
        acc = (e(m + 1) * (2 * (m + 1) * (2 * m - 3))
               + e(m) * e(1) * (2 * (m - 1) * (m - 3)))
        for k in range(3, m - 1):
            acc = acc + e(k) * (k - 1) * _twin_cycle_rec_cache[m - k]
        acc = acc + e(2) * (_twin_cycle_rec_cache[m - 2] - e(m - 1) * (2 * (m - 3)))
        _twin_cycle_rec_cache.setdefault(m, acc)
    return _twin_cycle_rec_cache[n]


def twin_cycle(n: int, method: str = "identity") -> SymE:
    """X of the n-cycle twinned at a vertex; n = 1, 2 are pinned conventions."""
    if n < 1:
        raise ValueError("twinned cycle needs n >= 1")
    method = _canon_method(method)
    if n <= 2 and method in ("identity", "gf"):
        return e(2) * 2 if n == 1 else e(3) * 6
    if method == "identity":
        return (cycle_seq(n + 1) * 4 + e(1) * cycle_seq(n) * 2
                - path_seq(n + 1) * 6 + e(2) * path_seq(n - 1) * 2)
    if method == "gf":
        return twin_cycle_gf_half(n + 2).extract(n + 1) * 2
    if method == "recurrence":
        return _twin_cycle_recurrence(n)
    raise ValueError(f"twinned cycle has no method {method!r}")


def twin_cycle_coeff(lam) -> int:
    """Coefficient of e_lam z^{|lam|} in the half gf of the twinned cycle.

    Equals half the e_lam coefficient of the twinned-cycle value at
    n = |lam| - 1, with the n = 1, 2 conventions included.  The case split
    is exhaustive.
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


_moose_rec_cache: dict[int, SymE] = {}

_MOOSE_INITIAL = {
    2: lambda: path_seq(4),
    3: lambda: (e_term((3, 1, 1), 2) + e_term((3, 2), 2)
                + e_term((4, 1), 10) + e(5) * 10),
    4: lambda: (e_term((2, 2, 2), 2) + e_term((3, 2, 1), 2) + e_term((4, 1, 1), 6)
                + e_term((4, 2), 6) + e_term((5, 1), 22) + e(6) * 18),
}


def moose(n: int, method: str = "recurrence") -> SymE:
    """X of the cycle on n vertices with pendant leaves at both ends of one edge.

    n = 2 degenerates to the 4-path.  The recurrence is
    sum_{j=2}^{n-2} (j-1) e_j X_{n-j} + (n+2)(n-1) e_{n+2}
    + 2(n^2-n-1) e_1 e_{n+1} + (n-1)(n-2) e_1^2 e_n + 2 e_2 e_n.
    """
    if n < 2:
        raise ValueError("moose needs n >= 2")
    if _canon_method(method) != "recurrence":
        raise ValueError(f"moose has no method {method!r}")
    for m, build in _MOOSE_INITIAL.items():
        _moose_rec_cache.setdefault(m, build())
    for m in range(5, n + 1):
        if m in _moose_rec_cache:
            continue
        acc = (e(m + 2) * ((m + 2) * (m - 1))
               + e(1) * e(m + 1) * (2 * (m * m - m - 1))
               + e_term((1, 1)) * e(m) * ((m - 1) * (m - 2))
               + e(2) * e(m) * 2)
        for j in range(2, m - 1):
            acc = acc + e(j) * (j - 1) * _moose_rec_cache[m - j]
        _moose_rec_cache.setdefault(m, acc)
    return _moose_rec_cache[n]


# ---------------------------------------------------------------------------
# coefficient formulas for paths and cycles, and the special-value table


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


def coeff_specials_check(max_n: int = 10, max_kr: int = 10) -> list[str]:
    """Verify the table of special coefficients on computed sequences.

    Returns a list of mismatch descriptions (empty when everything agrees):
    [e_n] X_{P_n} = n, [e_{n-1}e_1] X_{P_n} = n-2, [e_n] X_{C_n} = n(n-1) for
    n >= 2; [e_{n-2}e_2] X_{P_n} = 3n-8 and [e_{n-2}e_2] X_{C_n} = n(n-3) for
    n >= 5; [e_k^r] X_{P_{kr}} = k(k-1)^{r-1} and [e_{k^r}] X_{C_{kr}} =
    k(k-1)^r; [e_2^2] X_{C_4} = 2.
    """
    bad: list[str] = []

    def expect(desc: str, got: int, want: int) -> None:
        if got != want:
            bad.append(f"{desc}: got {got}, want {want}")

    for n in range(2, max_n + 1):
        expect(f"[e_{n}] path({n})", path_seq(n).coefficient((n,)), n)
        expect(f"[e_{n-1}e_1] path({n})", path_seq(n).coefficient((n - 1, 1)), n - 2)
        expect(f"[e_{n}] cycle({n})", cycle_seq(n).coefficient((n,)), n * (n - 1))
    for n in range(5, max_n + 1):
        expect(f"[e_{n-2}e_2] path({n})", path_seq(n).coefficient((n - 2, 2)), 3 * n - 8)
        expect(f"[e_{n-2}e_2] cycle({n})", cycle_seq(n).coefficient((n - 2, 2)), n * (n - 3))
    for k in range(2, max_kr + 1):
        for r in range(1, max_kr // k + 1):
            lam = (k,) * r
            expect(f"[e_({k}^{r})] path({k * r})",
                   path_seq(k * r).coefficient(lam), k * (k - 1) ** (r - 1))
            expect(f"[e_({k}^{r})] cycle({k * r})",
                   cycle_seq(k * r).coefficient(lam), k * (k - 1) ** r)
    expect("[e_2^2] cycle(4)", cycle_seq(4).coefficient((2, 2)), 2)
    return bad




# ---------------------------------------------------------------------------
# the family table: value and coefficient dispatch, the verify sweeps and the
# CLI help all derive from it


def _canon_method(method: str) -> str:
    return method.strip().lower().replace("_", "-")


@dataclass(frozen=True)
class FamilySpec:
    """One graph family: its graph, its value routes and where they apply.

    The members are n >= min_n and, for the two-parameter families, ell in
    ells(n); a member's graph graph(n[, ell]) has n + extra vertices.  Below
    pinned_below the value is a pinned convention that no simple graph
    realizes.  value(n, ell, method) computes a member by one of methods, the
    first being the default.  coeff(lam) is the printed coefficient formula,
    and e_positive marks the families the paper claims e-positive.
    """

    graph: Callable[..., graphs.Graph]
    methods: tuple[str, ...]
    value: Callable[[int, Optional[int], str], SymE]
    min_n: int
    extra: int
    ells: Optional[Callable[[int], range]] = None
    pinned_below: int = 0
    coeff: Optional[Callable[[Partition], Optional[int]]] = None
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
        graphs.path, ("recurrence", "gf"),
        lambda n, ell, m: path_seq(n) if m == "recurrence" else ps.path_gf(n).extract(n),
        min_n=0, extra=0, coeff=lambda lam: path_cycle_coeff("path", lam),
        e_positive=True),
    "cycle": FamilySpec(
        graphs.cycle, ("recurrence", "gf"),
        lambda n, ell, m: cycle_seq(n) if m == "recurrence" else ps.cycle_gf(n).extract(n),
        min_n=1, extra=0, pinned_below=3,
        coeff=lambda lam: path_cycle_coeff("cycle", lam), e_positive=True),
    "twin-path-leaf": FamilySpec(
        graphs.twin_path_leaf, ("identity", "gf", "recurrence"),
        lambda n, ell, m: twin_path_leaf(n, m), min_n=1, extra=1,
        coeff=lambda lam: twin_path_leaf_coeff(lam), e_positive=True),
    "twin-path-both": FamilySpec(
        graphs.twin_path_both, ("identity", "gf", "recurrence"),
        lambda n, ell, m: twin_path_both(n, m), min_n=2, extra=2,
        coeff=lambda lam: twin_path_both_coeff(lam), e_positive=True),
    "twin-path-interior": FamilySpec(
        graphs.twin_path_interior, ("identity", "gf", "epos-gf", "recurrence"),
        lambda n, ell, m: twin_path_interior(n, ell, m), min_n=3, extra=1,
        ells=lambda n: range(2, n), e_positive=True),
    "twin-interior-leaf": FamilySpec(
        graphs.twin_interior_leaf, ("identity",),
        lambda n, ell, m: twin_interior_then_leaf(n, ell), min_n=4, extra=2,
        ells=lambda n: range(2, n - 1), e_positive=True),
    "twin-cycle": FamilySpec(
        graphs.twin_cycle, ("identity", "gf", "recurrence"),
        lambda n, ell, m: twin_cycle(n, m), min_n=1, extra=1, pinned_below=3,
        coeff=lambda lam: twin_cycle_coeff(lam), e_positive=True),
    "moose": FamilySpec(
        graphs.moose, ("recurrence",), lambda n, ell, m: moose(n, m),
        min_n=2, extra=2, e_positive=True),
    "flagpole": FamilySpec(
        graphs.flagpole, ("identity",), lambda n, ell, m: flagpole_seq(n, ell),
        min_n=1, extra=1, ells=lambda n: range(1, n + 1)),
    "triangle-path": FamilySpec(
        graphs.triangle_path, ("identity",), lambda n, ell, m: triangle_path_seq(n, ell),
        min_n=2, extra=1, ells=lambda n: range(1, n)),
    "dgraph": FamilySpec(
        graphs.dgraph, ("identity",), lambda n, ell, m: dgraph_seq(n), min_n=3, extra=1),
    "tadpole": FamilySpec(
        graphs.tadpole, ("identity",), lambda n, ell, m: tadpole_seq(n), min_n=3, extra=1),
}


def family_spec(name: str) -> FamilySpec:
    """The table entry for a family name; - or _ separators and a twinned-
    prefix are accepted."""
    key = name.strip().lower().replace("_", "-")
    if key.startswith("twinned-"):
        key = "twin-" + key[len("twinned-"):]
    if key not in FAMILIES:
        raise ValueError(f"unknown family {name!r}")
    return FAMILIES[key]


def methods_for(name: str) -> tuple[str, ...]:
    """The computation routes available for a family tag."""
    return family_spec(name).methods


def family_value(name: str, n: int, ell: Optional[int] = None,
                 method: Optional[str] = None) -> SymE:
    """Value dispatcher for the CLI: one family tag, one n (and ell), one method."""
    spec = family_spec(name)
    spec.check(name, n, ell)
    method = _canon_method(method) if method else spec.methods[0]
    if method not in spec.methods:
        raise ValueError(f"family {name!r} has no method {method!r}")
    return spec.value(n, ell, method)


def coeff_value(name: str, lam) -> Optional[int]:
    """Coefficient dispatcher for the CLI; None means no printed closed form."""
    spec = family_spec(name)
    if spec.coeff is None:
        raise ValueError(f"no coefficient formulas for family {name!r}")
    return spec.coeff(lam)
