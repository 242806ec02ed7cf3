import pytest

from chromasym import families as fam
from chromasym import powerseries as ps
from chromasym.csf import csf
from chromasym.graphs import (cycle, family, moose, path, twin,
                              twin_interior_leaf, twin_path_both,
                              twin_path_interior, twin_path_leaf)
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
        assert fam.twin_path_leaf(n) == csf(twin_path_leaf(n))


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
        assert fam.twin_path_both(n) == csf(twin_path_both(n))


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
    assert fam.twin_path_interior(3, 2) == csf(twin_path_interior(3, 2))
    assert fam.twin_path_interior(3, 2) == e(4) * 16 + e_term((3, 1), 2)


@pytest.mark.parametrize("n,ell", [(n, ell) for n in range(3, 8)
                                   for ell in range(2, n)])
def test_interior_twin_methods_agree(n, ell):
    first = fam.twin_path_interior(n, ell, "identity")
    for method in ("gf", "epos-gf", "recurrence"):
        assert fam.twin_path_interior(n, ell, method) == first, method


def test_interior_twin_matches_oracle():
    for n in range(3, 8):
        for ell in range(2, n):
            assert fam.twin_path_interior(n, ell) == csf(twin_path_interior(n, ell))


def test_interior_twin_symmetry():
    # twinning position ell and position n+1-ell give isomorphic graphs
    for n in range(4, 9):
        for ell in range(2, n):
            assert fam.twin_path_interior(n, ell) == fam.twin_path_interior(n, n + 1 - ell)


def test_interior_twin_rejects_leaf_positions():
    with pytest.raises(ValueError):
        fam.twin_path_interior(5, 1)
    with pytest.raises(ValueError):
        fam.twin_path_interior(5, 5)


def test_f_poly_matches_its_positive_form():
    for ell in range(2, 9):
        assert fam.f_poly(ell, ell + 2) == fam.f_poly_alt(ell, ell + 2)


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
        value = fam.twin_interior_then_leaf(n, ell)
        assert value == csf(twin_interior_leaf(n, ell))
        assert value.is_e_positive()
    with pytest.raises(ValueError):
        fam.twin_interior_then_leaf(4, 3)


# --- auxiliary families


def test_flagpole_at_end_is_path():
    for n in range(1, 8):
        assert fam.flagpole_seq(n, 1) == fam.path_seq(n + 1)
        assert fam.flagpole_seq(n, n) == fam.path_seq(n + 1)


def test_tadpole_identity_value():
    want = fam.cycle_seq(4) + e(1) * fam.cycle_seq(3) - fam.path_seq(4)
    assert fam.tadpole_seq(3) == want


def test_aux_families_match_oracle():
    for n in range(3, 7):
        assert fam.dgraph_seq(n) == csf(family("dgraph", n))
        assert fam.tadpole_seq(n) == csf(family("tadpole", n))
    for n in range(2, 7):
        for ell in range(1, n):
            assert fam.triangle_path_seq(n, ell) == csf(family("triangle-path", n, ell))
    for n in range(1, 7):
        for ell in range(1, n + 1):
            assert fam.flagpole_seq(n, ell) == csf(family("flagpole", n, ell))


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
    assert fam.moose(2) == e_term((2, 2), 2) + e_term((3, 1), 2) + e(4) * 4
    assert fam.moose(2) == fam.path_seq(4)
    assert fam.moose(4) == (e_term((2, 2, 2), 2) + e_term((3, 2, 1), 2)
                            + e_term((4, 1, 1), 6) + e_term((4, 2), 6)
                            + e_term((5, 1), 22) + e(6) * 18)


def test_moose_recurrence_reproduces_stored_initial():
    # the n=4 value is both pinned and derivable from the recurrence
    m = 4
    acc = (e(m + 2) * ((m + 2) * (m - 1))
           + e(1) * e(m + 1) * (2 * (m * m - m - 1))
           + e_term((1, 1)) * e(m) * ((m - 1) * (m - 2))
           + e(2) * e(m) * 2)
    for j in range(2, m - 1):
        acc = acc + e(j) * (j - 1) * fam.moose(m - j)
    assert acc == fam.moose(4)


def test_moose_matches_oracle():
    for n in range(2, 8):
        assert fam.moose(n) == csf(moose(n))


def test_moose_e_positive():
    for n in range(2, 11):
        assert fam.moose(n).is_e_positive()


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


def test_coeff_specials_clean():
    assert fam.coeff_specials_check(10, 10) == []


def test_coeff_specials_examples():
    assert fam.cycle_seq(6).coefficient((6,)) == 30
    assert fam.path_seq(6).coefficient((3, 3)) == 6
    assert fam.cycle_seq(4).coefficient((2, 2)) == 2


# --- dispatchers


def test_family_value_dispatch():
    assert fam.family_value("twinned-cycle", 4) == fam.twin_cycle(4)
    assert fam.family_value("twin-path-interior", 5, 2, "gf") == \
        fam.twin_path_interior(5, 2, "gf")
    assert fam.family_value("path", 6) == fam.path_seq(6)
    with pytest.raises(ValueError):
        fam.family_value("path", 6, 2)
    with pytest.raises(ValueError):
        fam.family_value("flagpole", 6)
    with pytest.raises(ValueError):
        fam.family_value("moose", 6, method="gf")
    with pytest.raises(ValueError):
        fam.family_value("no-such", 6)


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
    for label, graph, methods in members:
        name, _, params = label.partition(":")
        counts[name] = counts.get(name, 0) + 1
        assert tuple(methods) == fam.methods_for(name)
        if graph is None:
            continue
        args = dict(kv.split("=") for kv in params.split(","))
        ell = int(args["ell"]) if "ell" in args else None
        assert graph == family(name, int(args["n"]), ell)
        assert graph.n <= 9
    assert counts == want
    assert set(counts) == set(fam.FAMILIES)
    assert len(members) == 154
    assert sum(graph is not None for _, graph, _ in members) == 150
