"""Truncated formal power series in z with SymE coefficients.

A Series holds exactly trunc+1 coefficient slots; index d is the z^d
coefficient.  Arithmetic on mismatched truncations silently truncates to the
smaller one, so formula scripts compose freely.  All values are immutable.

The named series here (elementary generating function E, its companion
denominator D = E - zE', the gap G = 1 - D, the weighted sums K, F1, F2, F3
and the tail/head truncations of E, K, G) are the building blocks of every
generating function identity in this package.  Every denominator in sight
has constant term 1, so num / f solves f h = num degree by degree, and each
quotient such as path_gf = E/D is one division, not a product with 1/D.
A generating-function form multiplies its sparse factors first and divides
by D once; only the paper-literal cross-check forms, and the interior epos
half near ell = trunc, multiply path_gf.
"""

from __future__ import annotations

from typing import Callable, Optional

from .symfun import SymE, _sum_of_products, e

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


def e_weighted(trunc: int, lo: int, weight: Callable[[int], int],
               hi: Optional[int] = None) -> Series:
    """sum_{i=lo}^{min(hi, trunc)} weight(i) * e_i z^i."""
    top = trunc if hi is None else min(hi, trunc)
    coeffs = [SymE.zero()] * (trunc + 1)
    for i in range(max(lo, 0), top + 1):
        w = weight(i)
        if w:
            coeffs[i] = e(i) * w
    return Series(coeffs, trunc)


def E(trunc: int) -> Series:
    """sum_{i>=0} e_i z^i (generating function of the elementary basis)."""
    return e_weighted(trunc, 0, lambda i: 1)


def D(trunc: int) -> Series:
    """E - zE' = 1 - sum_{i>=2} (i-1) e_i z^i; the shared gf denominator."""
    return Series.one(trunc) - G(trunc)


def G(trunc: int) -> Series:
    """sum_{i>=2} (i-1) e_i z^i = 1 - D; geometric kernel of 1/D."""
    return e_weighted(trunc, 2, lambda i: i - 1)


def K(trunc: int) -> Series:
    """sum_{i>=2} i e_i z^i."""
    return e_weighted(trunc, 2, lambda i: i)


def F1(trunc: int) -> Series:
    """sum_{i>=3} i(i-2) e_i z^i."""
    return e_weighted(trunc, 3, lambda i: i * (i - 2))


def F2(trunc: int) -> Series:
    """sum_{i>=3} (2i^2-5i) e_i z^i."""
    return e_weighted(trunc, 3, lambda i: 2 * i * i - 5 * i)


def F3(trunc: int) -> Series:
    """sum_{i>=4} (i-1)(i-3) e_i z^i."""
    return e_weighted(trunc, 4, lambda i: (i - 1) * (i - 3))


def _need_k(k: int) -> None:
    if k < 2:
        raise ValueError("k-indexed series need k >= 2")


def E_geq(k: int, trunc: int) -> Series:
    """sum_{i>=k} e_i z^i."""
    _need_k(k)
    return e_weighted(trunc, k, lambda i: 1)


def K_geq(k: int, trunc: int) -> Series:
    """sum_{i>=k} i e_i z^i."""
    _need_k(k)
    return e_weighted(trunc, k, lambda i: i)


def G_geq(k: int, trunc: int) -> Series:
    """sum_{i>=k} (i-1) e_i z^i."""
    _need_k(k)
    return e_weighted(trunc, k, lambda i: i - 1)


def G_leq(k: int, trunc: int) -> Series:
    """sum_{2<=i<=k} (i-1) e_i z^i = G - G_geq(k+1)."""
    _need_k(k)
    return e_weighted(trunc, 2, lambda i: i - 1, hi=k)


def cycle_numerator(trunc: int) -> Series:
    """z^2 E'' = sum_{i>=2} i(i-1) e_i z^i."""
    return e_weighted(trunc, 2, lambda i: i * (i - 1))


def z_E_prime(trunc: int) -> Series:
    """zE' = sum_{i>=1} i e_i z^i."""
    return e_weighted(trunc, 1, lambda i: i)


def path_gf(trunc: int) -> Series:
    """E/D; the z^n coefficient is the chromatic symmetric function of the n-path."""
    return E(trunc) / D(trunc)


def cycle_gf(trunc: int) -> Series:
    """z^2 E''/D; the z^n coefficient is the chromatic symmetric function of the n-cycle."""
    return cycle_numerator(trunc) / D(trunc)


_PLAIN = {
    "E": E, "D": D, "G": G, "K": K, "F1": F1, "F2": F2, "F3": F3,
    "path-gf": path_gf, "cycle-gf": cycle_gf,
}
_K_INDEXED = {"E_geq": E_geq, "K_geq": K_geq, "G_geq": G_geq, "G_leq": G_leq}


def named_series(name: str, trunc: int, k: Optional[int] = None) -> Series:
    """Series lookup for the CLI vocabulary (E, D, G, K, F1..F3, *_geq, G_leq, path-gf, cycle-gf)."""
    key = name.replace("_gf", "-gf")
    if key in _PLAIN:
        if k is not None:
            raise ValueError(f"series {name!r} takes no k")
        return _PLAIN[key](trunc)
    if key in _K_INDEXED:
        if k is None:
            raise ValueError(f"series {name!r} needs --k")
        return _K_INDEXED[key](k, trunc)
    raise ValueError(f"unknown series {name!r}")
