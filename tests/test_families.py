import dataclasses
import random
from collections import Counter

import pytest

import chromasym
from chromasym import families as fam
from chromasym import powerseries as ps
from chromasym import symfun
from chromasym import verify
from chromasym.csf import csf
from chromasym.graphs import cycle, family, path, twin
from chromasym.partitions import partitions_of
from chromasym.symfun import SymE, e, e_term


def test_path_seq_values():
    assert fam.path_seq(0) == SymE.one()
    assert fam.path_seq(1) == e(1)
    assert fam.path_seq(2) == e(2) * 2
    assert fam.path_seq(3) == e_term((2, 1)) + e(3) * 3
    assert fam.path_seq(7) == csf(path(7))


def test_cycle_seq_values():
    assert fam.cycle_seq(1) == SymE.zero()
    assert fam.cycle_seq(2) == e(2) * 2
    assert fam.cycle_seq(3) == e(3) * 6
    assert fam.cycle_seq(4) == e_term((2, 2), 2) + e(4) * 12
    for n in range(3, 9):
        assert fam.cycle_seq(n) == csf(cycle(n))


def test_gf_extraction_matches_recurrences():
    xp = ps.path_gf(10)
    xc = ps.cycle_gf(10)
    for n in range(0, 11):
        assert xp.extract(n) == fam.path_seq(n)
        if n >= 1:
            assert xc.extract(n) == fam.cycle_seq(n)


def test_recurrences_independent_of_call_order_and_warm_memos():
    calls = ([("path", n, None) for n in range(0, 21)]
             + [("cycle", n, None) for n in range(1, 21)]
             + [("twin-path-leaf", n, None) for n in range(1, 21)]
             + [("twin-path-both", n, None) for n in range(2, 21)]
             + [("twin-cycle", n, None) for n in range(1, 21)]
             + [("twin-path-interior", n, ell) for n in range(3, 17) for ell in range(2, n)]
             + [("moose", n, None) for n in range(2, 21)])
    rng = random.Random(2024)
    xp, xc = ps.path_gf(20), ps.cycle_gf(20)

    def independent(name, n, ell):
        if name in ("path", "cycle"):
            return (xp if name == "path" else xc).extract(n)
        if name == "moose":  # its only route, in increasing n from a cold memo
            return fam.family_value(name, n)
        return fam.family_value(name, n, ell, "identity")

    chromasym.clear_caches()
    want = {call: independent(*call) for call in calls}
    chromasym.clear_caches()
    for _ in ("cold", "warm"):
        rng.shuffle(calls)
        for name, n, ell in calls:
            got = fam.family_value(name, n, ell, "recurrence")
            assert got == want[name, n, ell], (name, n, ell)


# --- leaf twin


def test_twin_path_leaf_fixture_values():
    assert fam.twin_path_leaf(1) == e(2) * 2
    assert fam.twin_path_leaf(2) == e(3) * 6
    assert fam.twin_path_leaf(3) == e(4) * 8 + e_term((3, 1), 4)
    assert fam.twin_path_leaf(4) == (e_term((3, 2), 8) + e_term((4, 1), 6)
                                     + e(5) * 10)


@pytest.mark.parametrize("n", range(1, 8))
def test_twin_path_leaf_methods_agree(n):
    first = fam.twin_path_leaf(n, "identity")
    assert fam.twin_path_leaf(n, "gf") == first
    assert fam.twin_path_leaf(n, "recurrence") == first


def test_twin_path_leaf_matches_oracle():
    for n in range(1, 8):
        assert fam.twin_path_leaf(n) == csf(family("twin-path-leaf", n))


def test_twin_path_leaf_positive_sum_form():
    # alternate positive expansion: 2(n+1)e_{n+1} + 2 sum_{j=3}^n (j-1) e_j P_{n+1-j}
    for n in range(4, 9):
        alt = e(n + 1) * (2 * (n + 1))
        for j in range(3, n + 1):
            alt = alt + e(j) * (2 * (j - 1)) * fam.path_seq(n + 1 - j)
        assert alt == fam.twin_path_leaf(n)


def test_twin_path_leaf_coeff_examples():
    assert fam.twin_path_leaf_coeff((5,)) == 10
    assert fam.twin_path_leaf_coeff((3, 2, 2)) == 8
    assert fam.twin_path_leaf_coeff((2, 2, 2)) == 0
    assert fam.twin_path_leaf_coeff((2,)) == 2
    with pytest.raises(ValueError):
        fam.twin_path_leaf_coeff((1,))


def test_twin_path_leaf_coeff_matches_gf():
    gf = fam.leaf_twin_gf(9)
    for n in range(2, 10):
        coeff = gf.extract(n)
        for lam in partitions_of(n):
            assert fam.twin_path_leaf_coeff(lam) == coeff.coefficient(lam), lam


# --- both leaves


def test_twin_path_both_fixture_values():
    assert fam.twin_path_both(2) == e(4) * 24
    assert fam.twin_path_both(5) == (e_term((3, 3, 1), 16) + e_term((4, 3), 68)
                                     + e_term((5, 2), 12) + e_term((6, 1), 20)
                                     + e(7) * 28)


@pytest.mark.parametrize("n", range(2, 8))
def test_twin_path_both_methods_agree(n):
    first = fam.twin_path_both(n, "identity")
    assert fam.twin_path_both(n, "gf") == first
    assert fam.twin_path_both(n, "recurrence") == first


def test_twin_path_both_matches_oracle():
    for n in range(2, 7):
        assert fam.twin_path_both(n) == csf(family("twin-path-both", n))


def test_twin_path_both_coeff_examples():
    assert fam.twin_path_both_coeff((5,)) == 20
    assert fam.twin_path_both_coeff((3, 3, 2)) == 32
    assert fam.twin_path_both_coeff((4, 4, 1)) == 36
    assert fam.twin_path_both_coeff((3, 3, 2, 1)) == 16
    assert fam.twin_path_both_coeff((2, 1, 1)) == 0
    assert fam.twin_path_both_coeff((4,)) is None


def test_twin_path_both_coeff_matches_gf_where_defined():
    quarter = fam.both_leaves_gf_quarter(9)
    for n in range(1, 10):
        coeff = quarter.extract(n) * 4
        for lam in partitions_of(n):
            got = fam.twin_path_both_coeff(lam)
            if got is not None:
                assert got == coeff.coefficient(lam), lam


def test_alpha_consistency():
    n = 10
    one = ps.Series.one(n)
    e2z2 = ps.Series.monomial(e(2), 2, n)
    lhs = fam.both_leaves_gf_quarter(n) * 4
    rhs = fam.leaf_twin_gf(n) * (one - e2z2) * 2 + fam.alpha_poly(n) * 2
    assert lhs == rhs


# --- interior twin


def test_interior_twin_smallest_case():
    assert fam.family_value("twin-path-interior", 3, 2) == csf(family("twin-path-interior", 3, 2))
    assert fam.family_value("twin-path-interior", 3, 2) == e(4) * 16 + e_term((3, 1), 2)


@pytest.mark.parametrize("n,ell", [(n, ell) for n in range(3, 8)
                                   for ell in range(2, n)])
def test_interior_twin_methods_agree(n, ell):
    first = fam.family_value("twin-path-interior", n, ell, "identity")
    for method in ("gf", "epos-gf", "recurrence"):
        assert fam.family_value("twin-path-interior", n, ell, method) == first, method


def test_interior_twin_matches_oracle():
    for n in range(3, 8):
        for ell in range(2, n):
            graph = family("twin-path-interior", n, ell)
            assert fam.family_value("twin-path-interior", n, ell) == csf(graph)


def test_interior_twin_symmetry():
    # twinning position ell and position n+1-ell give isomorphic graphs
    for n in range(4, 9):
        for ell in range(2, n):
            assert (fam.family_value("twin-path-interior", n, ell)
                    == fam.family_value("twin-path-interior", n, n + 1 - ell))


def test_interior_twin_rejects_leaf_positions():
    with pytest.raises(ValueError):
        fam.family_value("twin-path-interior", 5, 1)
    with pytest.raises(ValueError):
        fam.family_value("twin-path-interior", 5, 5)


def test_f_poly_matches_its_positive_form():
    for ell in range(2, 9):
        assert fam.f_poly(ell, ell + 2) == fam.f_poly_alt(ell, ell + 2)


@pytest.mark.parametrize("ell", range(2, 13))
def test_interior_epos_half_gf_is_the_half_gf(ell):
    # the one quotient by D at every depth from ell + 2 to 20, ell near the
    # depth included, against the paper-literal path_gf f_ell + g_ell
    for trunc in range(ell + 2, 21):
        half = fam.interior_gf_epos_half(ell, trunc)
        assert half == ps.path_gf(trunc) * fam.f_poly(ell, trunc) + fam.g_poly(ell, trunc), trunc
        assert fam.interior_gf(ell, trunc) == half * 2, trunc
        for degree, coeff in enumerate(half.coeffs):
            assert coeff.is_e_positive(), (trunc, degree, coeff.negative_term())


def _gf_forms():
    for name, spec in fam.FAMILIES.items():
        for form in spec.gfs:
            for ell in (range(2, 7) if spec.ells else (None,)):
                yield name, form, ell


@pytest.mark.parametrize("name,form,ell", list(_gf_forms()))
def test_gf_forms_commute_with_truncation(name, form, ell):
    # family_value extracts the z^m coefficient of a form built at depth m,
    # which is right only if a deeper build truncates to the shallower one
    build = fam.FAMILIES[name].gfs[form][1]
    series = [build(trunc, ell) for trunc in range(17)]
    for deep in range(1, 17):
        for shallow in range(deep):
            assert series[deep].truncate(shallow) == series[shallow], (deep, shallow)


def _gf_route_asks():
    """(name, n, ell, method) of every gf route at the ells verify checks,
    n from 12 down to the family's gf_from."""
    for name, spec in fam.FAMILIES.items():
        for method, route in spec.routes.items():
            if isinstance(route, str):
                for ell in verify.GF_ELLS if spec.ells else (None,):
                    for n in range(12, spec.gf_from - 1, -1):
                        if ell is None or ell in spec.ells(n):
                            yield name, n, ell, method


def test_gf_routes_build_each_form_once_in_either_order(monkeypatch):
    # a gf route cuts its coefficient from the deepest build of its form so
    # far: asked from n = 12 down, each (form, ell) is built once, and asking
    # upwards from cold memos gives the same values
    builds = {}

    def counted(key, build):
        def run(N, ell):
            builds[key + (ell,)] = builds.get(key + (ell,), 0) + 1
            return build(N, ell)
        return run

    for name, spec in list(fam.FAMILIES.items()):
        gfs = {form: (scale, counted((name, form), build))
               for form, (scale, build) in spec.gfs.items()}
        monkeypatch.setitem(fam.FAMILIES, name, dataclasses.replace(spec, gfs=gfs))
    asks = list(_gf_route_asks())
    chromasym.clear_caches()
    down = {ask: fam.family_value(*ask) for ask in asks}
    assert builds == {(name, fam.FAMILIES[name].routes[method], ell): 1
                      for name, _, ell, method in asks}
    assert down == {ask: fam.family_value(*ask[:3]) for ask in asks}

    chromasym.clear_caches()
    assert {ask: fam.family_value(*ask) for ask in reversed(asks)} == down


def test_a_swapped_gf_builder_is_never_served_a_stale_series(monkeypatch):
    half = fam.family_value("twin-cycle", 6, method="gf")
    fam.family_value("twin-cycle", 8, method="gf")  # a deeper build of the half
    # the full form declared as the half, at the half's scale 2
    cyc = fam.FAMILIES["twin-cycle"]
    swapped = dict(cyc.gfs, half=(2, cyc.gfs["full"][1]))
    monkeypatch.setitem(fam.FAMILIES, "twin-cycle", dataclasses.replace(cyc, gfs=swapped))
    assert fam.family_value("twin-cycle", 6, method="gf") == half * 2


def test_interior_forms_divide_by_d_once(monkeypatch):
    # work bound: one quotient by D costs about one path_gf, while multiplying
    # path_gf by the cofactors costs 2.2-3.6 times that at depth 24
    pairs = [0]
    plain = symfun._sum_of_products

    def counting(products):
        products = list(products)
        pairs[0] += sum(len(x._terms) * len(y._terms) for x, y in products)
        return plain(products)

    for module in (symfun, ps, fam):
        monkeypatch.setattr(module, "_sum_of_products", counting)

    def work(build):
        fam.path_seq(26)  # the path memo is filled outside the count
        pairs[0] = 0
        build()
        return pairs[0]

    path_work = work(lambda: ps.path_gf(24))
    for ell in range(3, 9):
        assert work(lambda: fam.interior_gf_epos_half(ell, 24)) <= 2 * path_work, ell
        assert work(lambda: fam.interior_gf(ell, 24)) <= 2 * path_work, ell
    # near ell = trunc the path tail T = D (path_gf - head) is short, so the
    # epos half's one quotient costs less (0.5-1.4 times path_gf at ell 21-23)
    for ell in range(21, 24):
        assert work(lambda: fam.interior_gf_epos_half(ell, 24)) <= 2 * path_work, ell


@pytest.mark.parametrize("name", [name for name, spec in fam.FAMILIES.items()
                                  if spec.e_positive and spec.gfs])
def test_epos_forms_are_written_as_evaluated(monkeypatch, name):
    # the e-positive form is built from e-positive parts by sums, products
    # and one quotient by D, with nothing subtracted or negated on the way
    def refuse(*args):
        raise AssertionError("an e-positive form subtracts")

    divisors = []
    divide = ps.Series.__truediv__

    def recording(num, den):
        divisors.append(den)
        return divide(num, den)

    monkeypatch.setattr(ps.Series, "__sub__", refuse)
    monkeypatch.setattr(ps.Series, "__neg__", refuse)
    monkeypatch.setattr(ps.Series, "__truediv__", recording)
    spec = fam.FAMILIES[name]
    build = next(iter(spec.gfs.values()))[1]
    for trunc in (3, 14, 24):
        for ell in (range(2, 13) if spec.ells else (None,)):
            divisors.clear()
            build(trunc, ell)
            assert divisors == [ps.weighted("D", trunc)], (trunc, ell)


def test_recurrences_do_not_consult_the_identities(monkeypatch):
    # on cold memos no recurrence reaches an identity route: the seeds pin what
    # the rule does not give, and the interior drive reads the leaf twin's recurrence
    members = [(name, n, ell) for name, spec in fam.FAMILIES.items() if "recurrence" in spec.routes
               for n in range(spec.min_n, 13) for ell in (spec.ells(n) if spec.ells else (None,))]
    want = {member: fam.family_value(*member) for member in members}

    def refuse(*args):
        raise AssertionError("a recurrence consulted an identity")

    chromasym.clear_caches()
    monkeypatch.setattr(fam, "_interior_identity", refuse)
    for name in ("twin-path-leaf", "twin-path-both", "twin-cycle"):
        monkeypatch.setitem(fam.FAMILIES[name].routes, "identity", refuse)
    for (name, n, ell), value in want.items():
        assert fam.family_value(name, n, ell, "recurrence") == value, (name, n, ell)


@pytest.fixture
def cold_memos():
    chromasym.clear_caches()
    yield
    chromasym.clear_caches()  # a bent recurrence leaves wrong values in its memo


# every recurrence: one per family that has one, the interior twin's at ell 2..12
RECURRENCES = [(name, ell) for name, spec in fam.FAMILIES.items() if "recurrence" in spec.routes
               for ell in (range(2, 13) if spec.ells else (None,))]


def _drive_rows(monkeypatch, name, ell):
    """(key, first, rows) of the recurrence route of name at ell, on cold memos."""
    calls = []
    recur = fam._recur

    def recording(key, n, seeds, first, drive):
        calls.append((key, first, drive))
        return recur(key, n, seeds, first, drive)

    chromasym.clear_caches()
    with monkeypatch.context() as m:
        m.setattr(fam, "_recur", recording)
        fam.family_value(name, ell + 1 if ell else fam.FAMILIES[name].min_n, ell, "recurrence")
    key, first, drive = calls[0]  # the route's own recurrence comes first
    return key, first, drive()


def _independent(name, n, ell):
    if name in ("path", "cycle"):
        return (ps.path_gf if name == "path" else ps.cycle_gf)(n).extract(n)
    if name == "moose":  # its only route
        return csf(family(name, n))
    return fam.family_value(name, n, ell, "identity")


@pytest.mark.parametrize("name,ell", RECURRENCES)
def test_every_drive_row_is_graded(monkeypatch, cold_memos, name, ell):
    # the row c e_{m+s} lands in X_m, of degree m + extra
    _, _, rows = _drive_rows(monkeypatch, name, ell)
    assert rows
    for c, s, w in rows:
        assert c.homogeneous_degree() + s == fam.FAMILIES[name].extra, (c, s, w)


@pytest.mark.parametrize("name,ell", RECURRENCES)
def test_every_drive_row_carries_weight(monkeypatch, cold_memos, name, ell):
    # one more in any row's constant coefficient moves the recurrence off an
    # independent route within three members
    target, first, rows = _drive_rows(monkeypatch, name, ell)
    members = range(first, first + 3)
    want = [_independent(name, n, ell) for n in members]
    recur = fam._recur

    def values(drive_rows):
        def bending(key, n, seeds, first, drive):
            return recur(key, n, seeds, first, (lambda: drive_rows) if key == target else drive)

        chromasym.clear_caches()
        with monkeypatch.context() as m:
            m.setattr(fam, "_recur", bending)
            return [fam.family_value(name, n, ell, "recurrence") for n in members]

    assert values(rows) == want
    for r, (c, s, w) in enumerate(rows):
        assert values([*rows[:r], (c, s, (w[0] + 1, *w[1:])), *rows[r + 1:]]) != want, (c, s, w)


def test_the_series_suite_checks_each_recurrence_as_deep_as_the_forms(monkeypatch, cold_memos):
    # a leaf-twin drive row weighted (i-1)(i-2)...(i-10) at i = m + 1 is wrong
    # only from m = 10 on: past the member sweep's n <= 8, inside the gf forms'
    # n <= 11
    late = (1,)
    for t in range(1, 11):  # times (i - t), lowest power first
        late = tuple(a - t * b for a, b in zip((0, *late), (*late, 0)))
    recur = fam._recur

    def bent(key, n, seeds, first, drive):
        if key == "twin-path-leaf":
            return recur(key, n, seeds, first, lambda: [*drive(), (SymE.one(), 1, late)])
        return recur(key, n, seeds, first, drive)

    monkeypatch.setattr(fam, "_recur", bent)
    assert all(r.status == "pass" for r in verify.family_sweep_check(9))
    assert [r.case for r in verify.series_identities_check(12) if r.status != "pass"] == [
        "twin-path-leaf-gf:recurrence:n=10", "twin-path-leaf-gf:recurrence:n=11"]


def test_g_poly_cancellation():
    # everything in g cancels against the product: low-degree coefficients of
    # 2 path_gf f_ell are exactly -2 times those of g_ell
    for ell in range(2, 7):
        prod = (ps.path_gf(ell + 1) * fam.f_poly(ell, ell + 1)) * 2
        gl = fam.g_poly(ell, ell + 1)
        for d in range(0, ell + 2):
            assert prod.extract(d) == gl.extract(d) * -2


def test_interior_then_leaf():
    for n, ell in ((4, 2), (5, 3), (6, 2)):
        value = fam.family_value("twin-interior-leaf", n, ell)
        assert value == csf(family("twin-interior-leaf", n, ell))
        assert value.is_e_positive()
    with pytest.raises(ValueError):
        fam.family_value("twin-interior-leaf", 4, 3)


# --- auxiliary families


def test_flagpole_at_end_is_path():
    for n in range(1, 8):
        assert fam.family_value("flagpole", n, 1) == fam.path_seq(n + 1)
        assert fam.family_value("flagpole", n, n) == fam.path_seq(n + 1)


def test_tadpole_identity_value():
    want = fam.cycle_seq(4) + e(1) * fam.cycle_seq(3) - fam.path_seq(4)
    assert fam.family_value("tadpole", 3) == want


def test_aux_families_match_oracle():
    for n in range(3, 7):
        assert fam.family_value("dgraph", n) == csf(family("dgraph", n))
        assert fam.family_value("tadpole", n) == csf(family("tadpole", n))
    for n in range(2, 7):
        for ell in range(1, n):
            graph = family("triangle-path", n, ell)
            assert fam.family_value("triangle-path", n, ell) == csf(graph)
    for n in range(1, 7):
        for ell in range(1, n + 1):
            assert fam.family_value("flagpole", n, ell) == csf(family("flagpole", n, ell))


# --- twinned cycle


def test_twin_cycle_fixture_values():
    assert fam.twin_cycle(1) == e(2) * 2
    assert fam.twin_cycle(2) == e(3) * 6
    assert fam.twin_cycle(3) == e(4) * 24
    assert fam.twin_cycle(4) == e(5) * 50 + e_term((4, 1), 6) + e_term((3, 2), 4)


@pytest.mark.parametrize("n", range(1, 8))
def test_twin_cycle_methods_agree(n):
    first = fam.twin_cycle(n, "recurrence")
    assert fam.twin_cycle(n, "identity") == first
    assert fam.twin_cycle(n, "gf") == first


def test_twin_cycle_matches_oracle():
    for n in range(3, 8):
        assert fam.twin_cycle(n) == csf(twin(cycle(n), 0))


def test_twin_cycle_e_positive():
    for n in range(1, 11):
        assert fam.twin_cycle(n, "recurrence").is_e_positive()


def test_twin_cycle_coeff_examples():
    assert fam.twin_cycle_coeff((5,)) == 25
    assert fam.twin_cycle_coeff((2, 2)) == 0
    assert fam.twin_cycle_coeff((4, 1)) == 3
    with pytest.raises(ValueError):
        fam.twin_cycle_coeff((2,))


def test_twin_cycle_coeff_matches_sequence():
    for n in range(2, 9):
        value = fam.twin_cycle(n)
        for lam in partitions_of(n + 1):
            assert 2 * fam.twin_cycle_coeff(lam) == value.coefficient(lam), lam


# --- moose


def test_moose_fixture_values():
    assert fam.family_value("moose", 2) == e_term((2, 2), 2) + e_term((3, 1), 2) + e(4) * 4
    assert fam.family_value("moose", 2) == fam.path_seq(4)
    assert fam.family_value("moose", 4) == (e_term((2, 2, 2), 2) + e_term((3, 2, 1), 2)
                            + e_term((4, 1, 1), 6) + e_term((4, 2), 6)
                            + e_term((5, 1), 22) + e(6) * 18)


def test_moose_recurrence_reproduces_stored_initial():
    # the printed n=4 value is the one the recurrence derives
    m = 4
    acc = (e(m + 2) * ((m + 2) * (m - 1))
           + e(1) * e(m + 1) * (2 * (m * m - m - 1))
           + e_term((1, 1)) * e(m) * ((m - 1) * (m - 2))
           + e(2) * e(m) * 2)
    for j in range(2, m - 1):
        acc = acc + e(j) * (j - 1) * fam.family_value("moose", m - j)
    assert acc == fam.family_value("moose", 4)


def test_moose_matches_oracle():
    for n in range(2, 8):
        assert fam.family_value("moose", n) == csf(family("moose", n))


def test_moose_e_positive():
    for n in range(2, 11):
        assert fam.family_value("moose", n).is_e_positive()


# --- coefficient formulas for paths and cycles


def test_path_coeff_examples():
    assert fam.path_cycle_coeff("path", (5, 1)) == 4
    assert fam.path_cycle_coeff("path", (2, 2, 2)) == 2
    assert fam.path_cycle_coeff("cycle", (4, 2)) == 18
    assert ps.cycle_gf(6).extract(6).coefficient((4, 2)) == 18


def test_path_cycle_coeff_full_sweep():
    for n in range(1, 10):
        pval = fam.path_seq(n)
        cval = fam.cycle_seq(n)
        for lam in partitions_of(n):
            assert fam.path_cycle_coeff("path", lam) == pval.coefficient(lam)
            assert fam.path_cycle_coeff("cycle", lam) == cval.coefficient(lam)


_COEFF_GROUPS = {"path-coefficients": 442, "cycle-coefficients": 184,
                 "twin-path-leaf-coefficients": 223, "twin-path-both-coefficients": 107,
                 "twin-cycle-coefficients": 135}


def test_coeff_specials_clean():
    # one group per family with formulas; each of the 58 path and cycle rows
    # and the 43 leaf-twin rows is checked on the printed formula and on the
    # value, beside every form on every partition up to size 10
    results = verify.coefficient_sweeps_check()
    assert sorted((r.case, r.status, r.expected) for r in results) == sorted(
        (case, "pass", f"{count} checks") for case, count in _COEFF_GROUPS.items())
    rows = Counter(name for name, _, _, _ in verify.printed_specials(10))
    assert (rows["path"] + rows["cycle"], rows["twin-path-leaf"]) == (58, 43)
    for max_size in (3, 10, 14):
        rows = [(name, lam) for name, _, lam, _ in verify.printed_specials(max_size)]
        assert len(rows) == len(set(rows))  # each claim once
        assert max(sum(lam) for _, lam in rows) == max_size


def test_coeff_specials_catch_a_wrong_special(monkeypatch):
    # a wrong e_2^2 in X_{C_4} fails the cycle group on the value, as a form
    # check and as the special, never on the formula; the twinned cycle's
    # identity reads X_{C_4} at n = 3 and 4, so its group sees it too
    right = fam.cycle_seq
    monkeypatch.setattr(fam, "cycle_seq",
                        lambda n: right(n) + e_term((2, 2)) if n == 4 else right(n))
    results = {r.case: (r.expected, r.actual) for r in verify.coefficient_sweeps_check()
               if r.status != "pass"}
    assert {case: got for case, got in results.items()
            if case.startswith("cycle-coefficients:")} == {
        "cycle-coefficients:printed:(2, 2)": ("3", "2"),
        "cycle-coefficients:e_(k^r):(2, 2):value": ("2", "3")}
    assert {case.partition(":")[0] for case in results} == {
        "cycle-coefficients", "twin-cycle-coefficients"}


def test_coeff_specials_examples():
    assert fam.cycle_seq(6).coefficient((6,)) == 30
    assert fam.path_seq(6).coefficient((3, 3)) == 6
    assert fam.cycle_seq(4).coefficient((2, 2)) == 2


# --- dispatchers


def test_family_value_dispatch():
    assert fam.family_value("twinned-cycle", 4) == fam.twin_cycle(4)
    assert fam.family_value("twin_path_interior", 5, 2, "GF") == \
        fam.family_value("twin-path-interior", 5, 2, "gf")
    assert fam.family_value("path", 6) == fam.path_seq(6)
    with pytest.raises(ValueError):
        fam.family_value("path", 6, 2)
    with pytest.raises(ValueError):
        fam.family_value("flagpole", 6)
    with pytest.raises(ValueError):
        fam.family_value("moose", 6, method="gf")
    with pytest.raises(ValueError):
        fam.family_value("no-such", 6)


def test_route_functions_default_to_the_first_route(monkeypatch):
    # a sentinel route put first in each entry is what the wrapper returns
    # without a method: the default is declared once, by the table's order
    sentinel = SymE.const(7)
    for name, route in (("twin-path-leaf", fam.twin_path_leaf),
                        ("twin-path-both", fam.twin_path_both),
                        ("twin-cycle", fam.twin_cycle)):
        spec = fam.FAMILIES[name]
        routes = {"sentinel": lambda n, ell: sentinel, **spec.routes}
        monkeypatch.setitem(fam.FAMILIES, name, dataclasses.replace(spec, routes=routes))
        assert route(4) is sentinel, name
        assert route(4, "identity") == fam.family_value(name, 4, method="recurrence"), name


def test_route_functions_share_the_table_domain():
    # one out-of-domain member per family: the route function and the
    # dispatcher reject it with the same message
    cases = {
        "path": (lambda: fam.path_seq(-1), -1, None),
        "cycle": (lambda: fam.cycle_seq(0), 0, None),
        "twin-path-leaf": (lambda: fam.twin_path_leaf(0), 0, None),
        "twin-path-both": (lambda: fam.twin_path_both(1, "gf"), 1, None),
        "twin-path-interior": (lambda: fam.family_value("twin-path-interior", 5, 5), 5, 5),
        "twin-interior-leaf": (lambda: fam.family_value("twin-interior-leaf", 5, 4), 5, 4),
        "twin-cycle": (lambda: fam.twin_cycle(0), 0, None),
        "moose": (lambda: fam.family_value("moose", 1), 1, None),
        "flagpole": (lambda: fam.family_value("flagpole", 3, 0), 3, 0),
        "triangle-path": (lambda: fam.family_value("triangle-path", 1, 1), 1, 1),
        "dgraph": (lambda: fam.family_value("dgraph", 2), 2, None),
        "tadpole": (lambda: fam.family_value("tadpole", 2), 2, None),
    }
    assert set(cases) == set(fam.FAMILIES)
    for name, (route, n, ell) in cases.items():
        with pytest.raises(ValueError) as by_route:
            route()
        with pytest.raises(ValueError) as by_table:
            fam.family_value(name, n, ell)
        with pytest.raises(ValueError) as by_graph:
            family(name, n, ell)
        assert str(by_route.value) == str(by_table.value), name
        assert str(by_graph.value) == str(by_table.value), name
        assert str(by_route.value).startswith(f"family {name!r}")
    with pytest.raises(ValueError, match="has no method 'gf'"):
        fam.family_value("moose", 4, method="gf")


def test_named_routes_are_gf_forms_of_their_entry():
    for name, spec in fam.FAMILIES.items():
        default, *others = spec.routes.values()
        assert callable(default), name  # the value below gf_from
        for route in others:
            assert callable(route) or route in spec.gfs, (name, route)
        if spec.gfs:
            assert spec.gf_from >= spec.min_n, name


def test_coeff_value_dispatch():
    assert fam.coeff_value("twinned-cycle", (5,)) == 25
    assert fam.coeff_value("path", (5, 1)) == 4
    assert fam.coeff_value("twin-path-both", (4,)) is None
    with pytest.raises(ValueError):
        fam.coeff_value("moose", (5,))


def test_family_instances_inventory():
    from chromasym.verify import family_instances

    want = {"path": 10, "cycle": 9, "twin-path-leaf": 8, "twin-path-both": 6,
            "twin-path-interior": 21, "twin-interior-leaf": 10, "twin-cycle": 8,
            "moose": 6, "flagpole": 36, "triangle-path": 28, "dgraph": 6,
            "tadpole": 6}
    members = list(family_instances(9))
    counts = {}
    for name, n, ell, label, graph in members:
        assert label.startswith(f"{name}:n=")
        params = label.partition(":")[2]
        counts[name] = counts.get(name, 0) + 1
        args = dict(kv.split("=") for kv in params.split(","))
        assert (int(args["n"]), int(args["ell"]) if "ell" in args else None) == (n, ell)
        if graph is None:
            continue
        assert graph == family(name, n, ell)
        assert graph.n == n + fam.FAMILIES[name].extra
        assert graph.n <= 9
    assert counts == want
    assert set(counts) == set(fam.FAMILIES)
    assert len(members) == 154
    assert sum(graph is not None for *_, graph in members) == 150
