"""Exact arithmetic in the elementary symmetric function basis.

A SymE value is a finite integer linear combination of monomials
e_lam = e_{lam_1} e_{lam_2} ....  Coefficients are Python ints, so
everything is arbitrary precision.  Values are immutable once built.

Internally each monomial is keyed by one packed integer: the part size p
owns the 7-bit field at bit 7*(p-1), which holds its multiplicity in lam.
The key 0 is the empty partition, which carries the constant term.  The key
of a multiset union is the sum of the keys, so a product adds keys and never
sorts.  A part may repeat at most 63 times; a value, product or e_term that
would repeat one 64 or more times raises OverflowError.  Keys are decoded
back to partitions at the edges (items, coefficient, rendering), so the
public API and every rendering work on partitions.
"""

from __future__ import annotations

import json
from functools import cache, lru_cache, reduce
from operator import or_
from typing import Iterator, Optional, Sequence

from .partitions import Partition, make_partition, multiplicities

_FIELD = 7  # bits per part size; the top bit of a field stays clear
_MAX_REPEAT = (1 << _FIELD - 1) - 1  # 63
_REPEAT_ERROR = "a part repeats 64 or more times"


def _part_key(p: int) -> int:
    """Key of the one-part partition (p,); keys of multisets add."""
    return 1 << _FIELD * (p - 1)


def _pack(lam: Partition) -> int:
    """Key of a canonical partition; OverflowError past 63 repeats."""
    key = 0
    for p, m in multiplicities(lam).items():
        if m > _MAX_REPEAT:
            raise OverflowError(_REPEAT_ERROR)
        key |= m << _FIELD * (p - 1)
    return key


@lru_cache(maxsize=4096)  # renders decode the same few keys again and again
def _unpack(key: int) -> Partition:
    """The canonical partition (weakly decreasing tuple) of a key."""
    parts: list[int] = []
    mask = (1 << _FIELD) - 1
    p = 1
    while key:
        m = key & mask
        if m:
            parts += [p] * m
        key >>= _FIELD
        p += 1
    parts.reverse()
    return tuple(parts)


@cache
def _guard(fields: int) -> int:
    """The top bit of each of the lowest `fields` fields."""
    return sum(1 << _FIELD * i + _FIELD - 1 for i in range(fields))


def _check_repeats(keys) -> None:
    """OverflowError if a key holds a field of 64 or more.

    Every stored field is at most 63, so the sum of two never carries out of
    its field, and its top bit is set exactly when it reached 64.
    """
    union = reduce(or_, keys, 0)
    if union & _guard(-(-union.bit_length() // _FIELD)):
        raise OverflowError(_REPEAT_ERROR)


class SymE:
    """Sparse integer combination of e_lam monomials."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Optional[dict] = None):
        if terms is None:
            self._terms = {}
            return
        clean: dict[int, int] = {}
        for lam, c in terms.items():
            if not isinstance(c, int):
                raise TypeError(f"coefficient {c!r} is not an int")
            if c:
                key = _pack(make_partition(lam))
                clean[key] = clean.get(key, 0) + c
        # two spellings of one partition add up, and may cancel
        self._terms = {key: c for key, c in clean.items() if c}

    @classmethod
    def _raw(cls, clean_terms: dict) -> "SymE":
        # internal: terms already keyed by packed partitions and zero-free
        out = object.__new__(cls)
        out._terms = clean_terms
        return out

    @classmethod
    def zero(cls) -> "SymE":
        return cls._raw({})

    @classmethod
    def const(cls, c: int) -> "SymE":
        return cls._raw({0: c} if c else {})

    @classmethod
    def one(cls) -> "SymE":
        return cls.const(1)

    def items(self) -> Iterator[tuple[Partition, int]]:
        return ((_unpack(key), c) for key, c in self._terms.items())

    def coefficient(self, lam) -> int:
        try:
            key = _pack(make_partition(lam))
        except OverflowError:  # no stored term repeats a part 64 times
            return 0
        return self._terms.get(key, 0)

    def _sorted_items(self) -> list[tuple[Partition, int]]:
        """(partition, coefficient) pairs by degree, then reverse-lexicographically.

        Within one degree a larger key is a lexicographically larger
        partition, since the fields of larger parts are the higher digits.
        """
        keys = sorted(self._terms, key=lambda key: (sum(_unpack(key)), -key))
        return [(_unpack(key), self._terms[key]) for key in keys]

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymE):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __neg__(self) -> "SymE":
        return SymE._raw({key: -c for key, c in self._terms.items()})

    def __add__(self, other) -> "SymE":
        return self._plus(other, 1)

    def __sub__(self, other) -> "SymE":
        return self._plus(other, -1)

    def _plus(self, other, sign: int) -> "SymE":
        """self + sign * other: copies the larger operand's terms and loops over the smaller's."""
        if not isinstance(other, SymE):
            return NotImplemented
        if len(self._terms) >= len(other._terms):
            out, small = dict(self._terms), other._terms
        else:  # -other is a new dict: a large other is negated once, not copied again
            out, small, sign = dict(other._terms) if sign > 0 else (-other)._terms, self._terms, 1
        for key, c in small.items():
            s = out.get(key, 0) + sign * c
            if s:
                out[key] = s
            else:  # c != 0, so key was in out
                del out[key]
        return SymE._raw(out)

    def __mul__(self, other) -> "SymE":
        if isinstance(other, int):  # values are immutable, so x * 1 is x itself
            return self if other == 1 else SymE._raw(
                {key: c * other for key, c in self._terms.items()} if other else {})
        if not isinstance(other, SymE):
            return NotImplemented
        if len(self._terms) > len(other._terms):  # fewer terms in the outer loop
            self, other = other, self
        return _sum_of_products(((self, other),))

    __rmul__ = __mul__

    def homogeneous_degree(self) -> Optional[int]:
        """Common degree of all terms, or None if mixed; 0 for the zero value."""
        degrees = {sum(lam) for lam, _ in self.items()}
        if not degrees:
            return 0
        if len(degrees) > 1:
            return None
        return degrees.pop()

    def negative_term(self) -> Optional[tuple[Partition, int]]:
        """The first negative pair of _sorted_items, or None without sorting."""
        if min(self._terms.values(), default=0) >= 0:
            return None
        for lam, c in self._sorted_items():
            if c < 0:
                return (lam, c)
        return None

    def is_e_positive(self) -> bool:
        return self.negative_term() is None

    def eval_elementary(self, xs: Sequence[int]) -> int:
        """Value after substituting e_i -> i-th elementary symmetric polynomial of xs."""
        top = -(-max(self._terms, default=0).bit_length() // _FIELD)  # largest part
        evals = elementary_values(xs, top)
        total = 0
        for lam, c in self.items():
            prod = c
            for p in lam:
                prod *= evals[p]
                if not prod:
                    break
            total += prod
        return total

    def to_text(self) -> str:
        if not self._terms:
            return "0"
        chunks: list[str] = []
        for lam, c in self._sorted_items():
            mag = abs(c)
            if lam:
                body = "e[" + ",".join(map(str, lam)) + "]"
                piece = body if mag == 1 else f"{mag}*{body}"
            else:
                piece = str(mag)
            if not chunks:
                chunks.append(piece if c > 0 else "-" + piece)
            else:
                chunks.append(("+ " if c > 0 else "- ") + piece)
        return " ".join(chunks)

    def to_json_obj(self) -> list[dict]:
        """Canonically ordered [{"partition": [...], "coeff": "<int as str>"}]."""
        return [
            {"partition": list(lam), "coeff": str(c)}
            for lam, c in self._sorted_items()
        ]

    @classmethod
    def from_json_obj(cls, data) -> "SymE":
        terms: dict[Partition, int] = {}
        for entry in data:
            lam = make_partition(entry["partition"])
            terms[lam] = terms.get(lam, 0) + int(entry["coeff"])
        return cls(terms)

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())

    @classmethod
    def from_json(cls, text: str) -> "SymE":
        return cls.from_json_obj(json.loads(text))

    def __repr__(self) -> str:
        return f"SymE({self.to_text()})"


def _sum_of_products(pairs) -> SymE:
    """Sum of x * y over the (x, y) pairs of SymE values, in one dict.

    The first non-empty product fills the dict with one comprehension, the
    first term of x times every term of y (distinct keys), so callers pass
    their largest product first, a one-term x before a dense y.  Zeros are
    dropped at the end, only if there is one: equality and hashing compare
    zero-free dicts.  The key of e_lam * e_mu is the sum of their keys; the
    keys are checked for a part repeated 64 times once, after the loop.
    """
    out: dict[int, int] = {}
    for x, y in pairs:
        rows, cols = x._terms.items(), y._terms.items()
        if not out and rows and cols:  # the first non-empty product; out never empties
            rows = iter(rows)
            lam, a = next(rows)
            out = {lam + mu: a * b for mu, b in cols}
            get = out.get
        for lam, a in rows:
            for mu, b in cols:
                key = lam + mu
                out[key] = get(key, 0) + a * b
    _check_repeats(out)
    if 0 in out.values():
        out = {key: c for key, c in out.items() if c}
    return SymE._raw(out)


def e(i: int) -> SymE:
    """The elementary symmetric function e_i (e_0 = 1)."""
    if i < 0:
        raise ValueError("e_i needs i >= 0")
    if i == 0:
        return SymE.one()
    return SymE._raw({_part_key(i): 1})


def e_term(lam, coeff: int = 1) -> SymE:
    """coeff * e_lam as a SymE value."""
    if coeff == 0:
        return SymE.zero()
    return SymE._raw({_pack(make_partition(lam)): coeff})


def elementary_values(xs: Sequence[int], upto: int) -> list[int]:
    """[e_0(xs), ..., e_upto(xs)] on the concrete values xs, exactly."""
    vals = [0] * (upto + 1)
    vals[0] = 1
    for x in xs:
        for i in range(min(upto, len(xs)), 0, -1):
            vals[i] += x * vals[i - 1]
    return vals


_MEMOS: list[dict] = []


def _memo() -> dict:
    """A new, empty module-level result memo, registered so that
    chromasym.clear_caches() empties it with all the others."""
    memo: dict = {}
    _MEMOS.append(memo)
    return memo


_power_sum_memo: dict[int, SymE] = _memo()  # packed key of lam -> p_lam, p_n included


def power_sum_to_e(n: int) -> SymE:
    """Power sum p_n expanded in the e-basis via the Newton recurrence.

    p_n = sum_{i=1}^{n-1} (-1)^{i-1} e_i p_{n-i} + (-1)^{n-1} n e_n.
    Read from the one power-sum table, under the key of (n,).
    """
    if n < 1:
        raise ValueError("power sum index must be >= 1")
    return _power_sum_of_key(_part_key(n))


def power_sum_lambda_to_e(lam) -> SymE:
    """Product prod_i p_{lam_i} expanded in the e-basis."""
    return _power_sum_of_key(_pack(make_partition(lam)))


def _power_sum_of_key(key: int) -> SymE:
    """prod_i p_{lam_i} for the partition lam packed as key; memoized by key.

    The only reader and writer of _power_sum_memo.  A new one-part key (n,)
    fills p_1..p_n by the Newton recurrence, looping over the missing p_m.
    Any other new key costs one product: p_lam = p_{lam - p} * p_p, where p
    is the smallest part of lam (its field holds the lowest set bit of the key).
    """
    if not key:
        return SymE.one()
    cached = _power_sum_memo.get(key)
    if cached is not None:
        return cached
    p = ((key & -key).bit_length() - 1) // _FIELD + 1
    if key != _part_key(p):
        acc = _power_sum_of_key(key - _part_key(p)) * _power_sum_of_key(_part_key(p))
        return _power_sum_memo.setdefault(key, acc)
    for m in range(1, p + 1):
        if _part_key(m) not in _power_sum_memo:
            _power_sum_memo[_part_key(m)] = e(m) * ((-1) ** (m - 1) * m) + _sum_of_products(
                (e_term((i,), (-1) ** (i - 1)), _power_sum_memo[_part_key(m - i)])
                for i in range(1, m))
    return _power_sum_memo[key]
