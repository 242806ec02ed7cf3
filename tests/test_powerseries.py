import hashlib
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from chromasym import families
from chromasym import powerseries as ps
from chromasym.csf import csf
from chromasym.graphs import path
from chromasym.partitions import epsilon, partitions_of
from chromasym.powerseries import Series, invert_unit, named_series
from chromasym.symfun import SymE, e, e_term


def test_series_construction_pads():
    s = Series([SymE.one()], trunc=3)
    assert s.trunc == 3
    assert s.extract(0) == SymE.one()
    assert s.extract(3) == SymE.zero()


def test_extract_out_of_range():
    s = Series.one(4)
    with pytest.raises(IndexError):
        s.extract(5)
    with pytest.raises(IndexError):
        s.extract(-1)


def test_mul_difference_of_squares():
    one_plus = Series.one(2) + Series.monomial(e(1), 1, 2)
    one_minus = Series.one(2) - Series.monomial(e(1), 1, 2)
    prod = one_plus * one_minus
    assert prod.extract(0) == SymE.one()
    assert prod.extract(1) == SymE.zero()
    assert prod.extract(2) == -e_term((1, 1))


def test_add_denominator_and_gap_gives_one():
    total = ps.weighted("D", 8) + ps.weighted("G", 8)
    assert total == Series.one(8)


def test_mismatched_truncations_shrink():
    a = Series.one(10)
    b = Series.one(4)
    assert (a + b).trunc == 4
    assert (a * b).trunc == 4


def test_invert_unit_definition():
    inv = invert_unit(ps.weighted("D", 12))
    assert inv * ps.weighted("D", 12) == Series.one(12)
    assert invert_unit(Series.one(6)) == Series.one(6)


def test_invert_unit_with_a_linear_term():
    # 1/(1 - e_1 z) = sum_d e_1^d z^d, and a unit with terms in every degree
    geometric = invert_unit(Series.one(7) - Series.monomial(e(1), 1, 7))
    assert geometric.coeffs == tuple(e_term((1,) * d) for d in range(8))
    f = Series([SymE.one(), e(1) * 3, e(2) - e_term((1, 1)), e(3) * 5, e_term((2, 1), -2)])
    assert invert_unit(f) * f == Series.one(4)
    assert invert_unit(Series.one(0)) == Series.one(0)


def test_invert_unit_rejects_non_unit():
    with pytest.raises(ValueError):
        invert_unit(ps.weighted("G", 6))
    with pytest.raises(ValueError):
        invert_unit(Series.one(6) * 2)


def test_inverse_denominator_coefficients_are_epsilon():
    inv = invert_unit(ps.weighted("D", 10))
    assert inv.extract(5).coefficient((3, 2)) == epsilon((3, 2)) == 4
    for n in range(0, 11):
        coeff = inv.extract(n)
        for lam in partitions_of(n):
            assert coeff.coefficient(lam) == epsilon(lam)


def test_named_series_values():
    assert ps.weighted("G", 5).extract(3) == e(3) * 2
    assert ps.weighted("F2", 5).extract(3) == e(3) * 3
    assert ps.weighted("G", 5, lo=4).extract(3) == SymE.zero()
    assert ps.weighted("E", 5).extract(2) == e(2)
    assert ps.weighted("D", 5).extract(1) == SymE.zero()
    assert ps.weighted("K", 5).extract(2) == e(2) * 2
    assert ps.weighted("F3", 6).extract(4) == e(4) * 3
    assert ps.weighted("F1", 6).extract(3) == e(3) * 3


def test_g_leq_plus_tail_is_g():
    for k in (2, 3, 4, 7):
        assert ps.weighted("G", 9, hi=k) + ps.weighted("G", 9, lo=k + 1) == ps.weighted("G", 9)


def test_weighted_rows():
    assert list(ps.WEIGHTED) == ["E", "D", "G", "K", "F1", "F2", "F3"]
    for name, (lo, weight) in ps.WEIGHTED.items():
        series = ps.weighted(name, 9)
        for i in range(10):
            w = sum(c * i ** j for j, c in enumerate(weight)) if i >= lo else 0
            assert series.extract(i) == e(i) * w, (name, i)
    # a row is never read below its own first index
    assert ps.weighted("F2", 8, lo=2) == ps.weighted("F2", 8)
    assert ps.weighted("F2", 8, lo=4).extract(3) == SymE.zero()
    assert ps.weighted("K", 8, lo=3, hi=5).coeffs[3:7] == (e(3) * 3, e(4) * 4, e(5) * 5,
                                                          SymE.zero())


def _shifted(lo, weight):
    """The coefficients in t of weight(lo + t), lowest power first."""
    return [sum(c * comb(j, m) * lo ** (j - m) for j, c in enumerate(weight) if j >= m)
            for m in range(len(weight))]


def test_weighted_rows_are_e_positive_for_every_i():
    # weight(lo + t) with no negative coefficient in t is >= 0 for every
    # i >= lo, not only below a truncation
    for name, (lo, weight) in ps.WEIGHTED.items():
        shifted = _shifted(lo, weight)
        for t in range(6):
            assert sum(c * t ** m for m, c in enumerate(shifted)) == \
                sum(c * (lo + t) ** j for j, c in enumerate(weight))
        if name != "D":
            assert all(c >= 0 for c in shifted), (name, shifted)
    # D = 1 - G is the one row with negative weights, and the check sees it
    assert _shifted(*ps.WEIGHTED["D"]) == [1, -1]


def test_k_indexed_series_reject_small_k():
    for name in ("E_geq", "K_geq", "G_geq", "G_leq"):
        with pytest.raises(ValueError, match="k >= 2"):
            named_series(name, 5, k=1)


def test_path_gf_first_values():
    gf = ps.path_gf(6)
    assert gf.extract(0) == SymE.one()
    assert gf.extract(1) == e(1)
    assert gf.extract(3) == e_term((2, 1)) + e(3) * 3


def test_path_gf_matches_oracle_at_six():
    assert ps.path_gf(6).extract(6) == csf(path(6))


def test_cycle_gf_first_values():
    gf = ps.cycle_gf(5)
    assert gf.extract(3) == e(3) * 6
    assert gf.extract(2) == e(2) * 2
    assert gf.extract(0) == SymE.zero()


def test_grading_of_named_series():
    for name in ("E", "D", "G", "K", "F1", "F2", "F3", "path-gf", "cycle-gf"):
        assert named_series(name, 9).graded_ok(), name
    assert invert_unit(ps.weighted("D", 9)).graded_ok()


def test_named_series_dispatch():
    assert named_series("G_geq", 6, k=3) == ps.weighted("G", 6, lo=3)
    assert named_series("G_leq", 6, k=3) == ps.weighted("G", 6, hi=3)
    assert named_series("F2", 6) == ps.weighted("F2", 6)
    assert named_series("path-gf", 5) == ps.path_gf(5)
    assert named_series("path_gf", 5) == ps.path_gf(5)
    with pytest.raises(ValueError):
        named_series("nope", 5)
    with pytest.raises(ValueError):
        named_series("G_geq", 5)
    with pytest.raises(ValueError):
        named_series("E", 5, k=3)


def test_scalar_multiplication():
    s = ps.weighted("G", 4) * 3
    assert s.extract(2) == e(2) * 3
    t = ps.weighted("G", 4) * e(1)
    assert t.extract(2) == e_term((2, 1))
    u = 2 * ps.weighted("G", 4)
    assert u.extract(3) == e(3) * 4


def _pair_product(x, y):
    """x * y by a plain loop over the term pairs, without SymE.__mul__."""
    terms = {}
    for lam, a in x.items():
        for mu, b in y.items():
            key = tuple(sorted(lam + mu, reverse=True))
            terms[key] = terms.get(key, 0) + a * b
    return SymE(terms)


def _cauchy_product(a, b):
    n = min(a.trunc, b.trunc)
    out = []
    for d in range(n + 1):
        acc = SymE.zero()
        for i in range(d + 1):
            acc = acc + a.coeffs[i] * b.coeffs[d - i]
        out.append(acc)
    return Series(out, n)


# few small parts, so that products of different pairs often share a key
_sparse_syme = st.dictionaries(
    st.sampled_from([(), (1,), (2,), (1, 1), (3,), (2, 1), (4, 2), (3, 3, 1)]),
    st.integers(min_value=-3, max_value=3), max_size=4).map(SymE)


@st.composite
def _sparse_series(draw):
    """Mixed-degree coefficients, empty slots, any truncation up to 7."""
    trunc = draw(st.integers(min_value=0, max_value=7))
    slots = st.one_of(st.just(SymE.zero()), _sparse_syme)
    return Series(draw(st.lists(slots, max_size=trunc + 1)), trunc)


def _times_z(s):
    """z s, cut at the truncation of s."""
    return Series([SymE.zero(), *s.coeffs[:-1]], s.trunc)


@settings(derandomize=True)
@given(_sparse_series(), _sparse_series(), st.booleans())
def test_series_mul_matches_cauchy_sum(a, b, cancel):
    if cancel:
        # (1 + z) a times (1 - z) b: most pair products cancel in the sum
        a, b = a + _times_z(a), b - _times_z(b)
    prod = a * b
    expected = _cauchy_product(a, b)
    assert prod == expected
    assert hash(prod.coeffs) == hash(expected.coeffs)
    assert prod.trunc == min(a.trunc, b.trunc)
    for coeff in prod.coeffs:
        assert all(c != 0 for _, c in coeff.items())
    for x, y in zip(a.coeffs, b.coeffs):
        assert x * y == _pair_product(x, y)


@pytest.mark.parametrize("n", range(15))
def test_invert_unit_of_denominator(n):
    assert invert_unit(ps.weighted("D", n)) * ps.weighted("D", n) == Series.one(n)


@st.composite
def _mostly_empty_series(draw):
    """Nonzero coefficients at a few degrees only, and sometimes at none."""
    trunc = draw(st.integers(min_value=0, max_value=9))
    slots = draw(st.dictionaries(st.integers(min_value=0, max_value=trunc), _sparse_syme,
                                 max_size=3))
    return Series([slots.get(d, SymE.zero()) for d in range(trunc + 1)], trunc)


def _double_loop_product(a, b):
    """a * b by summing every coefficient pair, without Series.__mul__ or SymE.__mul__."""
    n = min(a.trunc, b.trunc)
    out = [SymE.zero()] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] = out[i + j] + _pair_product(a.coeffs[i], b.coeffs[j])
    return Series(out, n)


@settings(derandomize=True)
@given(_mostly_empty_series(), _mostly_empty_series())
def test_series_mul_with_empty_coefficients_matches_double_loop(a, b):
    assert a * b == _double_loop_product(a, b)
    assert b * a == _double_loop_product(b, a)
    for zero in (Series([], a.trunc), Series([], a.trunc + 3), Series([], 0)):
        assert a * zero == zero * a == Series([], min(a.trunc, zero.trunc))


def test_series_mul_with_empty_coefficients_examples():
    gap = Series.monomial(e(2), 2, 9) + Series.monomial(e(5), 5, 9)
    lone = Series.monomial(e_term((2, 1), 3), 3, 6)
    assert gap * lone == lone * gap == _double_loop_product(gap, lone)
    assert (gap * lone).trunc == 6
    assert (gap * lone).coeffs[5] == e_term((2, 2, 1), 3)
    assert gap * Series([], 4) == Series([], 4)


@st.composite
def _unit_series(draw):
    """Constant term exactly 1 and sparse, mixed-degree terms above it."""
    trunc = draw(st.integers(min_value=0, max_value=8))
    rest = draw(st.lists(_sparse_syme, min_size=trunc, max_size=trunc))
    return Series([SymE.one()] + rest, trunc)


@settings(derandomize=True, max_examples=60)
@given(_unit_series(), _sparse_series())
def test_division_solves_the_product(f, num):
    q = num / f
    assert q.trunc == min(num.trunc, f.trunc)
    assert q * f == num.truncate(q.trunc)
    assert Series.one(f.trunc) / f == invert_unit(f)


_NUMERATORS = ([(name, None) for name in ("E", "D", "G", "K", "F1", "F2", "F3",
                                           "path-gf", "cycle-gf")]
               + [(name, k) for name in ("E_geq", "K_geq", "G_geq", "G_leq") for k in (2, 3, 5)])


@pytest.mark.parametrize("name, k", _NUMERATORS)
def test_division_by_denominator_matches_inverse_product(name, k):
    N = 14
    num = named_series(name, N, k)
    assert num.trunc == N
    d = ps.weighted("D", N)
    assert num / d == num * invert_unit(d)


def test_division_rejects_non_unit_divisor():
    for divisor in (ps.weighted("G", 6), ps.weighted("E", 6) * 2, Series([], 6), -Series.one(6)):
        with pytest.raises(ValueError):
            Series.one(6) / divisor
        with pytest.raises(ValueError):
            ps.weighted("E", 6) / divisor
    with pytest.raises(TypeError):
        Series.one(6) / 2


# sha256 of the to_json of every coefficient, z^0 to z^36, one per line
_DEPTH_36_DIGESTS = {
    ps.path_gf: "a5704433c2a81f11a6e0b34bffe148b37e69b9d6335d70d17cd7edd6707640d0",
    families.twin_cycle_gf_half: "f7e24f6201267f16a6f8b627e7e7b1077dd9c774d651a6809bdabaf383cf09d5",
}


@pytest.mark.parametrize("build", _DEPTH_36_DIGESTS, ids=lambda build: build.__name__)
def test_depth_36_values_are_pinned(build):
    series = build(36)
    text = "\n".join(c.to_json() for c in series.coeffs)
    assert hashlib.sha256(text.encode()).hexdigest() == _DEPTH_36_DIGESTS[build]


def test_scaling_by_one_returns_the_series_itself():
    s = ps.weighted("F2", 8) + Series.monomial(e(1), 1, 8)
    assert s * 1 is s and 1 * s is s
    assert s * 2 == s + s and s * -1 == -s
    assert s * e(1) == s * Series.monomial(e(1), 0, 8)
