import json

import pytest
from hypothesis import given, settings, strategies as st

import chromasym
from chromasym.partitions import partitions_of
from chromasym.symfun import (SymE, _sum_of_products, e, e_term, elementary_values,
                              power_sum_lambda_to_e, power_sum_to_e)


def syme_strategy():
    partition = st.integers(min_value=0, max_value=8).flatmap(
        lambda n: st.sampled_from(partitions_of(n)))
    pair = st.tuples(partition, st.integers(min_value=-9, max_value=9))
    return st.lists(pair, max_size=5).map(
        lambda pairs: sum((e_term(lam, c) for lam, c in pairs), SymE.zero()))


# --- dense multivariate expansion, the independent oracle for the Newton route


def poly_mul(p, q, nvars):
    out = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def elementary_poly(i, nvars):
    from itertools import combinations
    out = {}
    for chosen in combinations(range(nvars), i):
        expo = [0] * nvars
        for v in chosen:
            expo[v] = 1
        out[tuple(expo)] = 1
    return out


def power_sum_poly(n, nvars):
    out = {}
    for v in range(nvars):
        expo = [0] * nvars
        expo[v] = n
        out[tuple(expo)] = 1
    return out


def expand_syme(f, nvars):
    total = {}
    for lam, c in f.items():
        prod = {tuple([0] * nvars): c}
        for p in lam:
            prod = poly_mul(prod, elementary_poly(p, nvars), nvars)
        for k, v in prod.items():
            total[k] = total.get(k, 0) + v
    return {k: v for k, v in total.items() if v}


def test_power_sum_two_expands_correctly():
    # derived by expanding both sides in 3 variables
    assert expand_syme(power_sum_to_e(2), 3) == power_sum_poly(2, 3)
    assert power_sum_to_e(2) == e_term((1, 1)) - e(2) * 2


def test_power_sum_three_expands_correctly():
    # derived by expanding both sides in 4 variables
    assert expand_syme(power_sum_to_e(3), 4) == power_sum_poly(3, 4)
    assert power_sum_to_e(3) == e_term((1, 1, 1)) - e_term((2, 1), 3) + e(3) * 3


def test_power_sum_one():
    assert power_sum_to_e(1) == e(1)


@pytest.mark.parametrize("n", range(1, 9))
def test_power_sum_specializations(n):
    for xs in (tuple(range(1, n + 1)), tuple(range(2, n + 2)),
               tuple((-1) ** i * (i + 1) for i in range(n))):
        assert power_sum_to_e(n).eval_elementary(xs) == sum(x ** n for x in xs)


def test_power_sum_lambda():
    assert power_sum_lambda_to_e((1, 1)) == e_term((1, 1))
    assert power_sum_lambda_to_e((2,)) == e_term((1, 1)) - e(2) * 2
    assert power_sum_lambda_to_e((2, 1)) == e_term((1, 1, 1)) - e_term((2, 1), 2)
    assert power_sum_lambda_to_e(()) == SymE.one()


def test_power_sum_lambda_is_the_product_of_its_parts():
    # each key is built from the key minus its smallest part: the memo
    # order may not matter, so visit partitions cold in both orders
    lams = [lam for n in range(11) for lam in partitions_of(n)]
    for order in (lams, lams[::-1]):
        chromasym.clear_caches()
        for lam in order:
            want = SymE.one()
            for p in lam:
                want = want * power_sum_to_e(p)
            assert power_sum_lambda_to_e(lam) == want, lam


def test_power_sum_table_is_the_same_in_either_fill_order():
    # one table holds p_n and p_lam alike: filling it from a product first or
    # from the p_n first leaves the same keys and values
    from chromasym import symfun
    calls = [lambda: power_sum_lambda_to_e((5, 3, 1))]
    calls += [lambda k=k: power_sum_to_e(k) for k in range(1, 9)]
    tables = []
    for order in (calls, calls[::-1]):
        chromasym.clear_caches()
        for call in order:
            call()
        tables.append(dict(symfun._power_sum_memo))
    assert tables[0] == tables[1]
    assert set(tables[0]) == ({symfun._part_key(k) for k in range(1, 9)}
                              | {symfun._pack((5, 3)), symfun._pack((5, 3, 1))})


def test_add_cancellation():
    assert e(2) * 2 + e(2) * -2 == SymE.zero()
    assert not (e(2) * 2 - e(2) * 2)


def test_add_and_double():
    p2 = e(2) * 2  # two-vertex path value
    assert p2 + p2 == e(2) * 4
    assert (e(1) + e(2) * 2).coefficient((1,)) == 1


def test_mul_merges_partitions():
    assert e(2) * e(3) == e_term((3, 2))
    assert (e(2) * 2) * (e(2) * 2) == e_term((2, 2), 4)
    assert e(2) * e(1) == e_term((2, 1))


def test_coefficient():
    f = e_term((2, 1)) + e(3) * 3
    assert f.coefficient((3,)) == 3
    assert f.coefficient((2, 1)) == 1
    assert (e(2) * 2).coefficient((1, 1)) == 0


def test_e_positivity_and_witness():
    pos = e_term((2, 2), 2) + e_term((3, 1), 2) + e(4) * 4
    assert pos.is_e_positive()
    assert pos.negative_term() is None
    neg = e(3) - e_term((2, 1))
    assert not neg.is_e_positive()
    assert neg.negative_term() == ((2, 1), -1)
    assert SymE.zero().is_e_positive()


def test_homogeneous_degree():
    assert (e(3) * 5).homogeneous_degree() == 3
    assert (e_term((2, 1)) + e(3)).homogeneous_degree() == 3
    assert (e(1) + e(2)).homogeneous_degree() is None
    assert SymE.zero().homogeneous_degree() == 0
    assert SymE.one().homogeneous_degree() == 0


def test_elementary_values():
    assert elementary_values([1, 1, 1], 3) == [1, 3, 3, 1]
    assert elementary_values([2, 3], 3) == [1, 5, 6, 0]


def test_eval_elementary():
    f = e_term((2, 1), 2)  # 2 e_2 e_1 at (1,2,3): 2 * 11 * 6
    assert f.eval_elementary([1, 2, 3]) == 2 * 11 * 6


@settings(max_examples=60)
@given(syme_strategy(), syme_strategy(), syme_strategy())
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + SymE.zero() == a
    assert a * SymE.one() == a


@given(syme_strategy(), syme_strategy())
def test_mul_grading(a, b):
    allowed = {sum(la) + sum(lb) for la, _ in a.items() for lb, _ in b.items()}
    assert all(sum(lam) in allowed for lam, _ in (a * b).items())


def test_big_coefficients_stay_exact():
    f = e(2) * (10 ** 30) * e(2) * (10 ** 30)
    assert f.coefficient((2, 2)) == 10 ** 60


def test_text_rendering():
    val = e(4) * 4 + e_term((3, 1), 2) + e_term((2, 2), 2)
    assert val.to_text() == "4*e[4] + 2*e[3,1] + 2*e[2,2]"
    assert SymE.zero().to_text() == "0"
    assert SymE.one().to_text() == "1"
    assert (e(3) - e_term((2, 1))).to_text() == "e[3] - e[2,1]"
    assert (SymE.const(-2) + e(1)).to_text() == "-2 + e[1]"


def test_json_round_trip():
    val = e(4) * 4 + e_term((3, 1), -2) + SymE.const(7)
    data = json.loads(val.to_json())
    assert all(isinstance(entry["coeff"], str) for entry in data)
    assert SymE.from_json(val.to_json()) == val


@given(syme_strategy())
def test_json_round_trip_random(f):
    assert SymE.from_json(f.to_json()) == f


def test_two_spellings_of_one_partition_add_up():
    cases = [({(2, 1): 1, (1, 2): 5}, e_term((2, 1), 6), "6*e[2,1]"),
             ({(2, 1): 1, (1, 2): 0}, e_term((2, 1)), "e[2,1]"),
             ({(2, 1): 1, (1, 2): -1}, SymE.zero(), "0"),
             ({(): 2, (3, 1, 2): 4, (2, 3, 1): -4}, SymE.const(2), "2")]
    for terms, want, text in cases:
        assert SymE(terms) == want
        assert SymE(terms).to_text() == text
        assert len(SymE(terms)) == len(want)
        entries = [{"partition": list(lam), "coeff": str(c)} for lam, c in terms.items()]
        assert SymE.from_json_obj(entries) == SymE(terms)


def test_text_rendering_orders_repeated_parts():
    val = (SymE.const(5) - e(1) * 3 + e_term((4, 1, 1)) - e_term((2, 2, 2))
           + e_term((2, 2, 1, 1), 4) + e_term((3, 1, 1, 1)) - e_term((1,) * 6, 6)
           + e_term((3, 3, 1, 1, 1), 2) + e_term((5, 3, 1)))
    assert val.to_text() == ("5 - 3*e[1] + e[4,1,1] + e[3,1,1,1] - e[2,2,2] + 4*e[2,2,1,1]"
                             " - 6*e[1,1,1,1,1,1] + e[5,3,1] + 2*e[3,3,1,1,1]")
    assert val.negative_term() == ((1,), -3)
    assert (val - e(1) * -3).negative_term() == ((2, 2, 2), -1)


# --- products against a reference written over partition tuples

wide_partition = st.lists(st.integers(min_value=1, max_value=40), max_size=9).map(
    lambda parts: tuple(sorted(parts, reverse=True)))
wide_terms = st.dictionaries(wide_partition, st.integers(min_value=-9, max_value=9).filter(bool),
                             max_size=6)


def reference_mul(a, b):
    out = {}
    for lam, x in a.items():
        for mu, y in b.items():
            key = tuple(sorted(lam + mu, reverse=True))
            out[key] = out.get(key, 0) + x * y
    return {lam: c for lam, c in out.items() if c}


@settings(max_examples=80)
@given(st.lists(st.tuples(wide_terms, wide_terms), max_size=4))
def test_products_match_the_tuple_reference(term_pairs):
    pairs = [(SymE(x), SymE(y)) for x, y in term_pairs]
    want: dict = {}
    for x, y in term_pairs:
        assert dict((SymE(x) * SymE(y)).items()) == reference_mul(x, y)
        for lam, c in reference_mul(x, y).items():
            want[lam] = want.get(lam, 0) + c
    assert dict(_sum_of_products(pairs).items()) == {lam: c for lam, c in want.items() if c}


def _reference_sum(products):
    """The zero-free sum of reference_mul over (x, y) pairs of term dicts."""
    want: dict = {}
    for x, y in products:
        for lam, c in reference_mul(x, y).items():
            want[lam] = want.get(lam, 0) + c
    return {lam: c for lam, c in want.items() if c}


# the factors that contribute nothing: an empty x, an empty y, or both
_EMPTY_PRODUCTS = [(SymE.zero(), e(1)), (e(2), SymE.zero()), (SymE.zero(), SymE.zero())]


@settings(derandomize=True, max_examples=80)
@given(st.integers(min_value=0, max_value=3), st.lists(st.tuples(wide_terms, wide_terms), max_size=3),
       st.booleans())
def test_sum_of_products_fills_from_its_first_nonempty_product(empties, term_pairs, cancel):
    # leading empty products, then live ones; with cancel, a last product
    # that exactly cancels the first live one
    live = list(term_pairs)
    if cancel and live:
        x, y = live[0]
        live.append(({lam: -c for lam, c in x.items()}, y))
    got = _sum_of_products(_EMPTY_PRODUCTS[:empties] + [(SymE(x), SymE(y)) for x, y in live])
    assert dict(got.items()) == _reference_sum(live)
    assert 0 not in dict(got.items()).values()
    if cancel and len(term_pairs) == 1:
        assert got == SymE.zero()


def test_sum_of_products_edge_cases():
    assert _sum_of_products([]) == SymE.zero()
    assert _sum_of_products(_EMPTY_PRODUCTS) == SymE.zero()
    x, y = e(1) + e(2) * 3, e(2) - e_term((1, 1))
    assert _sum_of_products(_EMPTY_PRODUCTS + [(x, y), (-x, y)]) == SymE.zero()
    assert _sum_of_products([(x, y), (e(3), e(3)), (x, -y)]) == e_term((3, 3))
    repeats = "a part repeats 64 or more times"
    with pytest.raises(OverflowError, match=repeats):  # one product, all in the first fill
        _sum_of_products([(e_term((5,) * 32), e_term((5,) * 32))])
    with pytest.raises(OverflowError, match=repeats):
        _sum_of_products(_EMPTY_PRODUCTS + [(e_term((1,) * 63), e(1) + e(2))])
    with pytest.raises(OverflowError, match=repeats):  # the first fill is fine, the loop is not
        _sum_of_products([(e(2) + e_term((1,) * 63), e(1))])


# --- sums of operands of very different sizes

_FIRST_PARTITIONS = [lam for n in range(12) for lam in partitions_of(n)]  # 195 of them


@st.composite
def lopsided_operands(draw):
    """(big, small): up to 195 terms against one, the one often on a term of big."""
    coeffs = draw(st.lists(st.integers(min_value=-3, max_value=3),
                           min_size=len(_FIRST_PARTITIONS), max_size=len(_FIRST_PARTITIONS)))
    big = SymE(dict(zip(_FIRST_PARTITIONS, coeffs)))
    lam = draw(st.sampled_from(_FIRST_PARTITIONS + [(12,)]))
    c = big.coefficient(lam)
    small = e_term(lam, draw(st.sampled_from([k for k in (-c, c, 1, -2) if k])))
    return big, small


@settings(derandomize=True, max_examples=60)
@given(lopsided_operands(), st.booleans())
def test_add_and_sub_of_lopsided_operands(operands, big_first):
    a, b = operands if big_first else operands[::-1]
    before = (list(a.items()), list(b.items()))
    total = a + b
    assert total == b + a
    assert dict(total.items()) == {lam: c for lam in set(dict(a.items())) | set(dict(b.items()))
                                   if (c := a.coefficient(lam) + b.coefficient(lam))}
    assert a - b == -(b - a)
    assert total - b == a and total - a == b
    assert a - a == SymE.zero() and b + (-b) == SymE.zero()
    for value in (total, b + a, a - b, b - a, total - b, total - a, a - a):
        assert 0 not in dict(value.items()).values()
    assert (list(a.items()), list(b.items())) == before


@pytest.mark.parametrize("lam, c", [((1,), 1), ((3, 1), -2), ((12,), 5), ((), 7)])
def test_products_of_lopsided_operands_in_either_order(lam, c):
    big_terms = {mu: (-1) ** i * (i + 1) for i, mu in enumerate(_FIRST_PARTITIONS)}
    big, small = SymE(big_terms), e_term(lam, c)
    assert len(big) >= 100
    want = reference_mul(big_terms, {lam: c})
    assert dict((small * big).items()) == want
    assert dict((big * small).items()) == want
    assert dict(big.items()) == big_terms and dict(small.items()) == {lam: c}


def test_multiplying_by_one_returns_the_value_itself():
    f = e(2) * 3 - e_term((1, 1))
    assert f * 1 is f and 1 * f is f
    assert f * 2 == f + f and f * 0 == SymE.zero() and not f * 0


@given(wide_terms)
def test_items_coefficients_and_json_round_trip(terms):
    f = SymE(terms)
    assert dict(f.items()) == terms
    assert len(f) == len(terms)
    for lam, c in terms.items():
        assert f.coefficient(lam) == c
        assert f.coefficient(lam[::-1]) == c
    assert f.coefficient((41,)) == 0
    assert SymE.from_json(f.to_json()) == f


def test_a_part_repeats_at_most_63_times():
    repeats = "a part repeats 64 or more times"
    with pytest.raises(OverflowError, match=repeats):
        e_term((1,) * 63) * e(1)
    with pytest.raises(OverflowError, match=repeats):
        SymE({(1,) * 64: 1})
    with pytest.raises(OverflowError, match=repeats):
        e_term((2,) * 128)  # would carry into the field of 3 unchecked
    with pytest.raises(OverflowError, match=repeats):
        _sum_of_products([(e(2), e(3)), (e_term((40,) * 32), e_term((40,) * 32))])
    assert (e_term((1,) * 62) * e(1)) == e_term((1,) * 63)
    assert e_term((1,) * 63).coefficient((1,) * 63) == 1
    assert e_term((1,) * 63).coefficient((1,) * 64) == 0


def test_constructor_rejects_bad_coeffs():
    with pytest.raises(TypeError):
        SymE({(2,): 1.5})
    with pytest.raises(ValueError):
        SymE({(0,): 1})


def test_e_rejects_negative_index():
    with pytest.raises(ValueError):
        e(-1)
    assert e(0) == SymE.one()
