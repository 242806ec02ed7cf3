"""Truncated formal power series in z with SymE coefficients.

A Series holds exactly trunc+1 coefficient slots; index d is the z^d
coefficient.  Arithmetic on mismatched truncations silently truncates to the
smaller one, so formula scripts compose freely.  All values are immutable.

The named series are the rows of WEIGHTED: sums sum_{i>=lo} w(i) e_i z^i
whose weight w is an integer polynomial in i.  The elementary generating
function E, its companion denominator D = E - zE', the gap G = 1 - D and
the weighted sums K, F1, F2, F3 are read, and truncated at either end, by
weighted(); they are the building blocks of every generating function
identity in this package.  Every denominator in sight
has constant term 1, so num / f solves f h = num degree by degree, and each
quotient such as path_gf = E/D is one division, not a product with 1/D.
A generating-function form multiplies its sparse factors first and divides
by D once; only the paper-literal cross-check forms multiply path_gf.
"""

from __future__ import annotations

from typing import Optional

from .symfun import SymE, _memo, _sum_of_products, e

# Deepest truncation the CLI computes (series --N, family --n, the coeff
# member n, verify --max-deg): the deepest the benchmark workloads use, past
# which one call takes seconds and grows fast with the depth.  Library
# functions are not capped.
MAX_DEPTH = 36


class Series:
    """Truncated power series with SymE coefficients."""

    __slots__ = ("trunc", "coeffs")

    def __init__(self, coeffs, trunc: Optional[int] = None):
        coeffs = list(coeffs)
        if trunc is None:
            trunc = len(coeffs) - 1
        if trunc < 0:
            raise ValueError("truncation degree must be >= 0")
        if len(coeffs) < trunc + 1:
            coeffs += [SymE.zero()] * (trunc + 1 - len(coeffs))
        self.trunc = trunc
        self.coeffs = tuple(coeffs[: trunc + 1])

    @classmethod
    def one(cls, trunc: int) -> "Series":
        return cls.monomial(SymE.one(), 0, trunc)

    @classmethod
    def monomial(cls, c: SymE, k: int, trunc: int) -> "Series":
        """c * z^k, truncated (drops silently when k > trunc)."""
        coeffs = [SymE.zero()] * (trunc + 1)
        if 0 <= k <= trunc:
            coeffs[k] = c
        return cls(coeffs, trunc)

    def extract(self, n: int) -> SymE:
        """The z^n coefficient."""
        if not 0 <= n <= self.trunc:
            raise IndexError(f"degree {n} outside truncation 0..{self.trunc}")
        return self.coeffs[n]

    def truncate(self, trunc: int) -> "Series":
        if trunc >= self.trunc:
            return self
        return Series(self.coeffs[: trunc + 1], trunc)

    def shift(self, k: int) -> "Series":
        """Multiply by z^k, keeping the same truncation."""
        if k < 0:
            raise ValueError("shift must be nonnegative")
        zero = SymE.zero()
        coeffs = [zero] * min(k, self.trunc + 1) + list(self.coeffs)
        return Series(coeffs[: self.trunc + 1], self.trunc)

    def _pair(self, other: "Series") -> tuple["Series", "Series"]:
        n = min(self.trunc, other.trunc)
        return self.truncate(n), other.truncate(n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self.trunc == other.trunc and self.coeffs == other.coeffs

    def __add__(self, other) -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        a, b = self._pair(other)
        return Series([x + y for x, y in zip(a.coeffs, b.coeffs)], a.trunc)

    def __sub__(self, other) -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        a, b = self._pair(other)
        return Series([x - y for x, y in zip(a.coeffs, b.coeffs)], a.trunc)

    def __neg__(self) -> "Series":
        return Series([-x for x in self.coeffs], self.trunc)

    def __mul__(self, other) -> "Series":
        if isinstance(other, (int, SymE)):
            return Series([c * other for c in self.coeffs], self.trunc)
        if not isinstance(other, Series):
            return NotImplemented
        a, b = self._pair(other)
        left = [(i, c) for i, c in enumerate(a.coeffs) if c]
        right = b.coeffs
        return Series([_sum_of_products((c, right[d - i]) for i, c in left
                                        if i <= d and right[d - i])
                       for d in range(a.trunc + 1)], a.trunc)

    def __truediv__(self, other) -> "Series":
        """self / other for a divisor with constant term exactly 1.

        Solves other * h = self degree by degree:
        h_d = self_d + sum_{i=1}^{d} (-other_i) h_{d-i}.
        """
        if not isinstance(other, Series):
            return NotImplemented
        num, f = self._pair(other)
        if f.coeffs[0] != SymE.one():
            raise ValueError("a divisor needs constant term exactly 1")
        one = SymE.one()
        neg = [(i, -c) for i, c in enumerate(f.coeffs[1:], 1) if c]
        h: list[SymE] = []
        for d, c in enumerate(num.coeffs):
            h.append(_sum_of_products([(c, one)] + [(n, h[d - i]) for i, n in neg
                                                    if i <= d and h[d - i]]))
        return Series(h, num.trunc)

    def __rmul__(self, other) -> "Series":
        if isinstance(other, (int, SymE)):
            return self.__mul__(other)
        return NotImplemented

    def graded_ok(self) -> bool:
        """True when every nonzero z^d coefficient is homogeneous of degree d."""
        return all((not c) or c.homogeneous_degree() == d
                   for d, c in enumerate(self.coeffs))

    def __repr__(self) -> str:
        parts = [f"({c.to_text()})*z^{d}" for d, c in enumerate(self.coeffs) if c]
        return "Series(" + (" + ".join(parts) if parts else "0") + f"; N={self.trunc})"


def invert_unit(f: Series) -> Series:
    """Multiplicative inverse 1/f of a series with constant term exactly 1."""
    return Series.one(f.trunc) / f


# Every named series is a row (lo, weight): sum_{i>=lo} weight(i) e_i z^i,
# the weight an integer polynomial in i given by its coefficients, lowest
# power first.  D = E - zE' = 1 - G is the shared gf denominator, G the
# geometric kernel of 1/D.
WEIGHTED = {
    "E": (0, (1,)),
    "D": (0, (1, -1)),
    "G": (2, (-1, 1)),
    "K": (2, (0, 1)),
    "F1": (3, (0, -2, 1)),      # i(i-2)
    "F2": (3, (0, -5, 2)),      # 2i^2 - 5i
    "F3": (4, (3, -4, 1)),      # (i-1)(i-3)
}


def e_weighted(trunc: int, lo: int, weight: tuple[int, ...],
               hi: Optional[int] = None) -> Series:
    """sum_{i=lo}^{min(hi, trunc)} weight(i) e_i z^i, for the polynomial
    weight(i) = sum_j weight[j] i^j."""
    top = trunc if hi is None else min(hi, trunc)
    coeffs = [SymE.zero()] * (trunc + 1)
    for i in range(max(lo, 0), top + 1):
        w = 0
        for c in reversed(weight):
            w = w * i + c
        if w:
            coeffs[i] = e(i) * w
    return Series(coeffs, trunc)


def weighted(name: str, trunc: int, lo: int = 0, hi: Optional[int] = None) -> Series:
    """The WEIGHTED row name from index max(lo, its own lo) up to hi.

    lo only raises the first index, so a row is never read outside the range
    where it is declared (F2 from 2 would gain -2 e_2 z^2)."""
    first, weight = WEIGHTED[name]
    return e_weighted(trunc, max(first, lo), weight, hi)


def path_gf(trunc: int) -> Series:
    """E/D; the z^n coefficient is the chromatic symmetric function of the n-path."""
    return weighted("E", trunc) / weighted("D", trunc)


def cycle_gf(trunc: int) -> Series:
    """z^2 E''/D; the z^n coefficient is the chromatic symmetric function of the n-cycle."""
    return e_weighted(trunc, 2, (0, -1, 1)) / weighted("D", trunc)


# The k-indexed CLI names: the row each reads and the end that k sets, so
# E_geq(k) = sum_{i>=k} e_i z^i and G_leq(k) = sum_{2<=i<=k} (i-1) e_i z^i.
_K_INDEXED = {"E_geq": ("E", "lo"), "K_geq": ("K", "lo"), "G_geq": ("G", "lo"),
              "G_leq": ("G", "hi")}
_GFS = {"path-gf": path_gf, "cycle-gf": cycle_gf}
SERIES_NAMES = (*WEIGHTED, *_K_INDEXED, *_GFS)
_deepest: dict[tuple, Series] = _memo()


def deepest(build, trunc: int, *args) -> Series:
    """build(trunc, *args), cut from the deepest build of (build, args) so far.

    Only for builders that commute with truncation; the memo keeps one series
    per key, replaced by a deeper request."""
    key = (build, *args)
    series = _deepest.get(key)
    if series is None or series.trunc < trunc:
        series = _deepest[key] = build(trunc, *args)
    return series.truncate(trunc)


def named_series(name: str, trunc: int, k: Optional[int] = None) -> Series:
    """Series lookup for the CLI vocabulary SERIES_NAMES; "_gf" may stand for "-gf".

    path-gf and cycle-gf are cut from the deepest build so far (deepest)."""
    key = name.replace("_gf", "-gf")
    if key not in SERIES_NAMES:
        raise ValueError(f"unknown series {name!r}")
    if key not in _K_INDEXED:
        if k is not None:
            raise ValueError(f"series {name!r} takes no k")
        return deepest(_GFS[key], trunc) if key in _GFS else weighted(key, trunc)
    if k is None:
        raise ValueError(f"series {name!r} needs --k")
    if k < 2:
        raise ValueError("k-indexed series need k >= 2")
    row, end = _K_INDEXED[key]
    return weighted(row, trunc, **{end: k})
