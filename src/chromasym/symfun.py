"""Exact arithmetic in the elementary symmetric function basis.

A SymE value is a finite integer linear combination of monomials
e_lam = e_{lam_1} e_{lam_2} ....  Keys are canonical partitions; the key ()
carries the constant term (e_empty = 1).  Coefficients are Python ints, so
everything is arbitrary precision.  Values are immutable once built.
"""

from __future__ import annotations

import json
from typing import Iterator, Optional, Sequence

from .partitions import Partition, make_partition, union


def _term_order(lam: Partition) -> tuple:
    # degree first, then reverse-lexicographic within a degree
    return (sum(lam), tuple(-p for p in lam))


class SymE:
    """Sparse integer combination of e_lam monomials."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Optional[dict] = None):
        if terms is None:
            self._terms = {}
            return
        clean: dict[Partition, int] = {}
        for lam, c in terms.items():
            if not isinstance(c, int):
                raise TypeError(f"coefficient {c!r} is not an int")
            if c:
                clean[make_partition(lam)] = c
        self._terms = clean

    @classmethod
    def _raw(cls, clean_terms: dict) -> "SymE":
        # internal: terms already canonical and zero-free
        out = object.__new__(cls)
        out._terms = clean_terms
        return out

    @classmethod
    def zero(cls) -> "SymE":
        return cls._raw({})

    @classmethod
    def const(cls, c: int) -> "SymE":
        return cls._raw({(): c} if c else {})

    @classmethod
    def one(cls) -> "SymE":
        return cls.const(1)

    def items(self) -> Iterator[tuple[Partition, int]]:
        return iter(self._terms.items())

    def coefficient(self, lam) -> int:
        return self._terms.get(make_partition(lam), 0)

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
        return SymE._raw({lam: -c for lam, c in self._terms.items()})

    def __add__(self, other) -> "SymE":
        if not isinstance(other, SymE):
            return NotImplemented
        out = dict(self._terms)
        for lam, c in other._terms.items():
            s = out.get(lam, 0) + c
            if s:
                out[lam] = s
            else:
                out.pop(lam, None)
        return SymE._raw(out)

    def __sub__(self, other) -> "SymE":
        if not isinstance(other, SymE):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "SymE":
        if isinstance(other, int):
            if other == 0:
                return SymE.zero()
            return SymE._raw({lam: c * other for lam, c in self._terms.items()})
        if not isinstance(other, SymE):
            return NotImplemented
        out: dict[Partition, int] = {}
        for lam, a in self._terms.items():
            for mu, b in other._terms.items():
                key = union(lam, mu)
                s = out.get(key, 0) + a * b
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return SymE._raw(out)

    __rmul__ = __mul__

    def homogeneous_degree(self) -> Optional[int]:
        """Common degree of all terms, or None if mixed; 0 for the zero value."""
        degrees = {sum(lam) for lam in self._terms}
        if not degrees:
            return 0
        if len(degrees) > 1:
            return None
        return degrees.pop()

    def negative_term(self) -> Optional[tuple[Partition, int]]:
        """One (partition, coefficient) pair with negative coefficient, or None."""
        for lam in sorted(self._terms, key=_term_order):
            if self._terms[lam] < 0:
                return (lam, self._terms[lam])
        return None

    def is_e_positive(self) -> bool:
        return self.negative_term() is None

    def eval_elementary(self, xs: Sequence[int]) -> int:
        """Value after substituting e_i -> i-th elementary symmetric polynomial of xs."""
        top = max((lam[0] for lam in self._terms if lam), default=0)
        evals = elementary_values(xs, top)
        total = 0
        for lam, c in self._terms.items():
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
        for lam in sorted(self._terms, key=_term_order):
            c = self._terms[lam]
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
            {"partition": list(lam), "coeff": str(self._terms[lam])}
            for lam in sorted(self._terms, key=_term_order)
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


def e(i: int) -> SymE:
    """The elementary symmetric function e_i (e_0 = 1)."""
    if i < 0:
        raise ValueError("e_i needs i >= 0")
    if i == 0:
        return SymE.one()
    return SymE._raw({(i,): 1})


def e_term(lam, coeff: int = 1) -> SymE:
    """coeff * e_lam as a SymE value."""
    if coeff == 0:
        return SymE.zero()
    return SymE._raw({make_partition(lam): coeff})


def elementary_values(xs: Sequence[int], upto: int) -> list[int]:
    """[e_0(xs), ..., e_upto(xs)] on the concrete values xs, exactly."""
    vals = [0] * (upto + 1)
    vals[0] = 1
    for x in xs:
        for i in range(min(upto, len(xs)), 0, -1):
            vals[i] += x * vals[i - 1]
    return vals


_power_sum_memo: dict[int, SymE] = {1: e(1)}


def power_sum_to_e(n: int) -> SymE:
    """Power sum p_n expanded in the e-basis via the Newton recurrence.

    p_n = sum_{i=1}^{n-1} (-1)^{i-1} e_i p_{n-i} + (-1)^{n-1} n e_n.
    Memoized.
    """
    if n < 1:
        raise ValueError("power sum index must be >= 1")
    cached = _power_sum_memo.get(n)
    if cached is not None:
        return cached
    for m in range(2, n + 1):
        if m in _power_sum_memo:
            continue
        acc = e(m) * ((-1) ** (m - 1) * m)
        for i in range(1, m):
            term = e(i) * _power_sum_memo[m - i]
            acc = acc + term * ((-1) ** (i - 1))
        _power_sum_memo.setdefault(m, acc)
    return _power_sum_memo[n]


_power_sum_lam_memo: dict[Partition, SymE] = {}


def power_sum_lambda_to_e(lam) -> SymE:
    """Product prod_i p_{lam_i} expanded in the e-basis."""
    key = make_partition(lam)
    cached = _power_sum_lam_memo.get(key)
    if cached is not None:
        return cached
    acc = SymE.one()
    for p in key:
        acc = acc * power_sum_to_e(p)
    _power_sum_lam_memo.setdefault(key, acc)
    return acc
