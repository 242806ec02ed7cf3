"""Verification sweeps: every identity, fixture, and cross-check in one place.

Each check returns a list of CaseResult records.  The CLI `verify`
subcommand groups them into suites; the acceptance test module runs the same
functions with the pinned bounds.  All sweeps are deterministic (the ring-law
sampler takes an explicit seed).
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from math import comb

from . import families as fam
from . import graphs
from . import powerseries as ps
from .csf import (chromatic_count_check, csf, leaf_twin_reduction_check,
                  near_triangle_check, triple_deletion_check)
from .partitions import (epsilon, epsilon_minus, multiplicities, partitions_of,
                         remove_part, support, union)
from .powerseries import Series
from .symfun import SymE, e, e_term

EPSILON_TABLE = {
    (): 1,
    (2,): 1, (3,): 2, (4,): 3, (2, 2): 1, (5,): 4, (3, 2): 4,
    (6,): 5, (4, 2): 6, (3, 3): 4, (2, 2, 2): 1,
    (7,): 6, (5, 2): 8, (4, 3): 12, (3, 2, 2): 6,
    (8,): 7, (6, 2): 10, (5, 3): 16, (4, 4): 9, (4, 2, 2): 9,
    (3, 3, 2): 12, (2, 2, 2, 2): 1,
}


@dataclass
class CaseResult:
    suite: str
    case: str
    status: str
    expected: str
    actual: str

    def to_json_obj(self) -> dict:
        return asdict(self)


class Collector:
    """Accumulates atomic comparisons and coalesces clean groups."""

    def __init__(self, suite: str):
        self.suite = suite
        self.results: list[CaseResult] = []

    def group(self, case: str):
        return _Group(self, case)

    def extend(self, other: "Collector") -> None:
        self.results.extend(other.results)


class _Group:
    def __init__(self, collector: Collector, case: str):
        self.collector = collector
        self.case = case
        self.total = 0
        self.failures: list[CaseResult] = []

    def check(self, label: str, actual, expected) -> None:
        self.total += 1
        if actual != expected:
            self.failures.append(CaseResult(
                self.collector.suite, f"{self.case}:{label}", "fail",
                repr(expected), repr(actual)))

    def check_true(self, label: str, ok: bool, detail: str = "") -> None:
        self.total += 1
        if not ok:
            self.failures.append(CaseResult(
                self.collector.suite, f"{self.case}:{label}", "fail",
                "true", detail or "false"))

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            return False
        if self.failures:
            self.collector.results.extend(self.failures)
        else:
            note = f"{self.total} checks"
            self.collector.results.append(
                CaseResult(self.collector.suite, self.case, "pass", note, note))
        return False


# ---------------------------------------------------------------------------
# partition checks


def epsilon_table_check() -> list[CaseResult]:
    col = Collector("partitions")
    with col.group("epsilon-table") as g:
        for lam, want in EPSILON_TABLE.items():
            g.check(str(lam), epsilon(lam), want)
    return col.results


def epsilon_properties_check(max_size: int = 12, max_union: int = 10) -> list[CaseResult]:
    col = Collector("partitions")
    with col.group("epsilon-closed-forms") as g:
        for n in range(1, 41):
            g.check(f"single-part-{n}", epsilon((n,)), n - 1)
        for k in range(1, 13):
            g.check(f"all-twos-{k}", epsilon((2,) * k), 1)
        for n in range(0, max_size + 1):
            for lam in partitions_of(n):
                g.check_true(f"vanish-iff-one:{lam}",
                             (epsilon(lam) == 0) == (1 in lam),
                             f"epsilon({lam}) = {epsilon(lam)}")
    with col.group("epsilon-scaling") as g:
        for n in range(1, max_size + 1):
            for lam in partitions_of(n):
                if 1 in lam:
                    continue
                mult = multiplicities(lam)
                for j in support(lam):
                    g.check(f"{lam},j={j}",
                            (j - 1) * epsilon_minus(lam, j) * len(lam),
                            mult[j] * epsilon(lam))
    with col.group("epsilon-removal") as g:
        for n in range(1, max_size + 1):
            for lam in partitions_of(n):
                g.check(str(lam), epsilon(lam),
                        sum((j - 1) * epsilon_minus(lam, j) for j in support(lam)))
    with col.group("epsilon-union") as g:
        for total in range(0, max_union + 1):
            for n in range(0, total + 1):
                for lam in partitions_of(n):
                    for mu in partitions_of(total - n):
                        both = union(lam, mu)
                        mult = multiplicities(both)
                        mlam = multiplicities(lam)
                        lhs = epsilon(lam) * epsilon(mu) * comb(len(both), len(lam))
                        rhs = epsilon(both)
                        for j, m in mult.items():
                            rhs *= comb(m, mlam.get(j, 0))
                        g.check(f"{lam}|{mu}", lhs, rhs)
    return col.results


def _partition_count_oracle(n: int) -> int:
    # independent route: count by largest allowed part with a nested-loop DP
    table = [[0] * (n + 1) for _ in range(n + 1)]
    for cap in range(n + 1):
        table[cap][0] = 1
    for cap in range(1, n + 1):
        for m in range(1, n + 1):
            table[cap][m] = table[cap - 1][m]
            if m >= cap:
                table[cap][m] += table[cap][m - cap]
    return table[n][n]


def enumeration_check(max_size: int = 12) -> list[CaseResult]:
    col = Collector("partitions")
    with col.group("enumeration") as g:
        for n in range(0, max_size + 1):
            plist = partitions_of(n)
            g.check(f"count-{n}", len(plist), _partition_count_oracle(n))
            g.check(f"distinct-{n}", len(set(plist)), len(plist))
            g.check(f"sorted-revlex-{n}", plist, sorted(plist, reverse=True))
            g.check_true(f"sums-{n}", all(sum(lam) == n for lam in plist))
    return col.results


# ---------------------------------------------------------------------------
# SymE / series checks


def _random_syme(rng: random.Random) -> SymE:
    terms = {}
    for _ in range(rng.randint(0, 5)):
        deg = rng.randint(0, 8)
        lam = rng.choice(partitions_of(deg))
        terms[lam] = terms.get(lam, 0) + rng.randint(-9, 9)
    return SymE(terms)


def ring_laws_check(seed: int = 0, rounds: int = 40) -> list[CaseResult]:
    rng = random.Random(seed)
    col = Collector("series")
    with col.group("ring-laws") as g:
        for i in range(rounds):
            a, b, c = (_random_syme(rng) for _ in range(3))
            g.check(f"assoc-add-{i}", (a + b) + c, a + (b + c))
            g.check(f"assoc-mul-{i}", (a * b) * c, a * (b * c))
            g.check(f"comm-add-{i}", a + b, b + a)
            g.check(f"comm-mul-{i}", a * b, b * a)
            g.check(f"distrib-{i}", a * (b + c), a * b + a * c)
            prod = a * b
            allowed = {da + db for la, _ in a.items() for lb, _ in b.items()
                       for da, db in [(sum(la), sum(lb))]}
            g.check_true(f"grading-{i}",
                         all(sum(lam) in allowed for lam, _ in prod.items()))
    return col.results


def newton_check(max_n: int = 8) -> list[CaseResult]:
    col = Collector("series")
    with col.group("newton-powersums") as g:
        from .symfun import power_sum_to_e
        for n in range(1, max_n + 1):
            points = [tuple(range(1, n + 1)),
                      tuple(range(2, n + 2)),
                      tuple((-1) ** i * (i + 1) for i in range(n))]
            for xs in points:
                expanded = power_sum_to_e(n).eval_elementary(xs)
                direct = sum(x ** n for x in xs)
                g.check(f"p{n}@{xs}", expanded, direct)
    return col.results


def series_identities_check(trunc: int = 12) -> list[CaseResult]:
    col = Collector("series")
    N = trunc
    one = Series.one(N)
    e1z = Series.monomial(e(1), 1, N)
    e2z2 = Series.monomial(e(2), 2, N)
    d = ps.D(N)
    inv_d = ps.invert_unit(d)
    xp = ps.path_gf(N)
    xc = ps.cycle_gf(N)

    with col.group("gf-vs-denominator") as g:
        g.check("path*D=E", xp * d, ps.E(N))
        g.check("cycle*D=z2E''", xc * d, ps.cycle_numerator(N))
        g.check("invD*D=1", inv_d * d, one)
        for n in range(0, N + 1):
            g.check(f"path-z^{n}", xp.extract(n), fam.path_seq(n))
            if n >= 1:
                g.check(f"cycle-z^{n}", xc.extract(n), fam.cycle_seq(n))

    with col.group("inverse-denominator-epsilon") as g:
        for n in range(0, min(10, N) + 1):
            coeff = inv_d.extract(n)
            for lam in partitions_of(n):
                g.check(f"eps-{lam}", coeff.coefficient(lam), epsilon(lam))

    with col.group("epos-combos") as g:
        z2e = ps.cycle_numerator(N)
        zep = ps.z_E_prime(N)
        g.check("combo-1", z2e - zep + e1z, ps.F1(N))
        g.check("combo-2", z2e * 2 - zep * 3 + e1z * 3 + e2z2 * 2, ps.F2(N))
        g.check("combo-3", z2e - zep * 3 + ps.E(N) * 3 + e2z2,
                Series.monomial(SymE.const(3), 0, N) + ps.F3(N))
        for name, val in (("1", ps.F1(N)), ("2", ps.F2(N)), ("3", ps.F3(N))):
            g.check_true(f"combo-{name}-epos",
                         all(c.is_e_positive() for c in val.coeffs))

    with col.group("epos-numerators") as g:
        g.check("path-minus-head", (xp - one - e1z) * d, ps.K(N) + e1z * ps.G(N))
        g.check("cycle-combination",
                ((one + e1z) * xc - xp + one + e1z) * d,
                (one + e1z) * ps.F1(N) + e1z * (ps.E(N) - one - e1z))

    with col.group("path-gf-split") as g:
        g.check("K/D+e1zG/D+1+e1z",
                ps.K(N) * inv_d + e1z * ps.G(N) * inv_d + one + e1z, xp)

    with col.group("truncation-splits") as g:
        for k in (2, 3, 4):
            lhs = (one - ps.G_leq(k, N)) * inv_d
            g.check(f"reciprocal-k{k}", lhs, one + ps.G_geq(k + 1, N) * inv_d)
            g.check(f"path-k{k}", xp * (one - ps.G_leq(k, N)),
                    ps.E(N) + xp * ps.G_geq(k + 1, N))
            g.check(f"split-k{k}", ps.G_leq(k, N) + ps.G_geq(k + 1, N), ps.G(N))

    with col.group("leaf-twin-gf-forms") as g:
        full = fam.leaf_twin_gf(N)
        half = fam.leaf_twin_gf_half(N)
        alt = fam.leaf_twin_gf_half_alt(N)
        g.check("half-vs-alt", half, alt)
        g.check("half*2-vs-full", half * 2, full)
        for n in range(1, N):
            g.check(f"vs-identity-n{n}", full.extract(n + 1),
                    fam.twin_path_leaf(n, "identity"))

    with col.group("both-leaves-gf-forms") as g:
        quarter = fam.both_leaves_gf_quarter(N)
        g.check("quarter-vs-alt", quarter, fam.both_leaves_gf_quarter_alt(N))
        g.check("alpha-consistency", quarter * 4,
                fam.leaf_twin_gf(N) * (one - e2z2) * 2 + fam.alpha_poly(N) * 2)
        for n in range(3, N - 1):
            g.check(f"vs-identity-n{n}", quarter.extract(n + 2) * 4,
                    fam.twin_path_both(n, "identity"))

    with col.group("interior-f-forms") as g:
        for ell in range(2, 9):
            g.check(f"f{ell}-alt", fam.f_poly(ell, ell + 2),
                    fam.f_poly_alt(ell, ell + 2))

    with col.group("interior-gf-epos") as g:
        for ell in (2, 3, 4):
            fl = fam.f_poly(ell, N)
            g.check(f"f-product-ell{ell}", xp * fl,
                    fam.interior_epos_f_product(ell, N))
            g.check(f"half-gf-ell{ell}", fam.interior_gf_epos_half(ell, N),
                    xp * fl + fam.g_poly(ell, N))
            for n in range(ell + 1, N):
                g.check(f"vs-identity-ell{ell}-n{n}",
                        fam.interior_gf(ell, N).extract(n + 1),
                        fam.twin_path_interior(n, ell, "identity"))

    with col.group("interior-cancellation") as g:
        for ell in range(2, 7):
            low = (ps.path_gf(ell + 1) * fam.f_poly(ell, ell + 1)) * 2
            gl = fam.g_poly(ell, ell + 1)
            for degree in range(0, ell + 2):
                g.check(f"ell{ell}-z^{degree}", low.extract(degree),
                        gl.extract(degree) * -2)

    with col.group("twin-cycle-gf") as g:
        full = fam.twin_cycle_gf(N)
        g.check("rewrite*2-vs-full", fam.twin_cycle_gf_half_rewrite(N) * 2, full)
        g.check("epos*2-vs-full", fam.twin_cycle_gf_half(N) * 2, full)
        for n in range(3, N):
            g.check(f"vs-identity-n{n}", full.extract(n + 1),
                    fam.twin_cycle(n, "identity"))

    with col.group("grading") as g:
        named = {"E": ps.E(N), "D": ps.D(N), "G": ps.G(N), "K": ps.K(N),
                 "F1": ps.F1(N), "F2": ps.F2(N), "F3": ps.F3(N),
                 "1/D": inv_d, "path-gf": xp, "cycle-gf": xc,
                 "leaf-twin": fam.leaf_twin_gf(N),
                 "both-leaves": fam.both_leaves_gf_quarter(N),
                 "twin-cycle": fam.twin_cycle_gf_half(N)}
        for name, series in named.items():
            g.check_true(f"{name}", series.graded_ok())
    return col.results


# ---------------------------------------------------------------------------
# family sweeps


def family_instances(max_vertices: int = 9):
    """Yield (label, graph-or-None, {method: callable}) for every family member
    whose graph has at most max_vertices vertices (plus graphless conventions)."""
    for name, spec in fam.FAMILIES.items():
        for n in range(spec.min_n, max_vertices - spec.extra + 1):
            for ell in spec.ells(n) if spec.ells else (None,):
                label = f"{name}:n={n}" if ell is None else f"{name}:n={n},ell={ell}"
                graph = graphs.family(name, n, ell) if n >= spec.pinned_below else None
                yield (label, graph,
                       {m: (lambda n=n, ell=ell, m=m, value=spec.value: value(n, ell, m))
                        for m in spec.methods})


def family_sweep_check(max_vertices: int = 9) -> list[CaseResult]:
    """Method agreement and oracle agreement for every family instance."""
    col = Collector("families")
    with col.group("method-and-oracle-agreement") as g:
        for label, graph, methods in family_instances(max_vertices):
            values = {m: build() for m, build in methods.items()}
            first = next(iter(values.values()))
            for m, val in values.items():
                g.check(f"{label}:{m}", val, first)
            if graph is not None:
                g.check(f"{label}:oracle", csf(graph), first)
    with col.group("coefficient-reassembly") as g:
        for n in range(1, min(max_vertices, 9) + 1):
            got = SymE({lam: fam.path_cycle_coeff("path", lam)
                        for lam in partitions_of(n)})
            g.check(f"path:n={n}", got, fam.path_seq(n))
            got = SymE({lam: fam.path_cycle_coeff("cycle", lam)
                        for lam in partitions_of(n)})
            g.check(f"cycle:n={n}", got, fam.cycle_seq(n))
        for n in range(1, max_vertices - 1):
            got = SymE({lam: fam.twin_path_leaf_coeff(lam)
                        for lam in partitions_of(n + 1)})
            g.check(f"twin-path-leaf:n={n}", got, fam.twin_path_leaf(n))
        for n in range(2, max_vertices - 1):
            got = SymE({lam: 2 * fam.twin_cycle_coeff(lam)
                        for lam in partitions_of(n + 1)})
            g.check(f"twin-cycle:n={n}", got, fam.twin_cycle(n))
    return col.results


def e_positivity_check(trunc: int = 12, max_vertices: int = 9) -> list[CaseResult]:
    col = Collector("families")
    with col.group("family-values-epos") as g:
        for label, _, methods in family_instances(max_vertices):
            if not fam.FAMILIES[label.split(":")[0]].e_positive:
                continue
            val = next(iter(methods.values()))()
            witness = val.negative_term()
            g.check_true(label, witness is None, f"negative term {witness}")
    with col.group("gf-coefficients-epos") as g:
        expansions = {
            "leaf-twin-half": fam.leaf_twin_gf_half(trunc),
            "both-leaves-quarter": fam.both_leaves_gf_quarter(trunc),
            "twin-cycle-half": fam.twin_cycle_gf_half(trunc),
            "interior-half-ell2": fam.interior_gf_epos_half(2, trunc),
            "interior-half-ell3": fam.interior_gf_epos_half(3, trunc),
            "interior-half-ell4": fam.interior_gf_epos_half(4, trunc),
        }
        for name, series in expansions.items():
            for degree, coeff in enumerate(series.coeffs):
                witness = coeff.negative_term()
                g.check_true(f"{name}:z^{degree}", witness is None,
                             f"negative term {witness}")
    return col.results


def coefficient_sweeps_check(max_size: int = 9, grid: int = 10) -> list[CaseResult]:
    col = Collector("families")
    xp = ps.path_gf(max_size)
    xc = ps.cycle_gf(max_size)
    with col.group("path-cycle-coeffs") as g:
        for n in range(1, max_size + 1):
            pcoeff = xp.extract(n)
            ccoeff = xc.extract(n) if n >= 2 else fam.cycle_seq(n)
            for lam in partitions_of(n):
                want_p = pcoeff.coefficient(lam)
                g.check(f"path:{lam}", fam.path_cycle_coeff("path", lam), want_p)
                g.check(f"path-alt:{lam}",
                        epsilon(lam) + sum(epsilon_minus(lam, a) for a in support(lam)),
                        want_p)
                if 1 in lam and len(lam) >= 2:
                    mu = remove_part(lam, 1)
                    g.check(f"path-one-join:{lam}",
                            sum((a - 1) * epsilon_minus(mu, a)
                                for a in support(mu) if a >= 2),
                            want_p)
                g.check(f"cycle:{lam}", fam.path_cycle_coeff("cycle", lam),
                        ccoeff.coefficient(lam))
        for n in range(2, max_size + 1):
            g.check(f"path-special-(n):{n}",
                    fam.path_cycle_coeff("path", (n,)), n)
            g.check(f"path-special-(n-1,1):{n}",
                    fam.path_cycle_coeff("path", (n - 1, 1)), n - 2)
        for k in range(1, max_size // 2 + 1):
            g.check(f"path-special-2^{k}",
                    fam.path_cycle_coeff("path", (2,) * k), 2)
            if 2 * k + 1 <= max_size:
                g.check(f"path-special-2^{k}-1",
                        fam.path_cycle_coeff("path", (2,) * k + (1,)), 1)

    leaf_gf = fam.leaf_twin_gf(max_size)
    with col.group("leaf-twin-coeffs") as g:
        for n in range(2, max_size + 1):
            coeff = leaf_gf.extract(n)
            for lam in partitions_of(n):
                g.check(f"{lam}", fam.twin_path_leaf_coeff(lam),
                        coeff.coefficient(lam))
        # printed short forms as consequences of the general sums
        for k in range(3, max_size + 1):
            g.check(f"case-a:{k}", fam.twin_path_leaf_coeff((k,)), 2 * k)
        g.check("case-a:2", fam.twin_path_leaf_coeff((2,)), 2)
        for k in range(4, max_size + 1):
            g.check(f"case-b:{k}", fam.twin_path_leaf_coeff((k - 1, 1)), 2 * (k - 2))
        for k in range(5, max_size + 1):
            g.check(f"case-c:{k}", fam.twin_path_leaf_coeff((k - 2, 2)), 4 * (k - 3))
        for i in range(3, max_size + 1):
            for j in range(3, i):
                if i + j <= max_size:
                    g.check(f"case-d:{i},{j}", fam.twin_path_leaf_coeff((i, j)),
                            2 * (2 * i * j - i - j))
            if 2 * i <= max_size:
                g.check(f"case-e:{i}", fam.twin_path_leaf_coeff((i, i)),
                        2 * i * (i - 1))
        for k in range(2, (max_size - 3) // 2 + 1):
            g.check(f"case-f:{k}", fam.twin_path_leaf_coeff((3,) + (2,) * k), 8)
            if 3 + 2 * k + 1 <= max_size:
                g.check(f"case-f1:{k}",
                        fam.twin_path_leaf_coeff((3,) + (2,) * k + (1,)), 4)
        for k in range(1, (max_size - 1) // 2 + 1):
            g.check(f"case-g-zero:{k}",
                    fam.twin_path_leaf_coeff((2,) * k + (1,)), 0)
        for k in range(2, max_size // 2 + 1):
            g.check(f"case-h-zero:{k}", fam.twin_path_leaf_coeff((2,) * k), 0)

    both_gf = fam.both_leaves_gf_quarter(max_size)
    with col.group("both-leaves-coeffs") as g:
        for n in range(1, max_size + 1):
            coeff = both_gf.extract(n) * 4
            for lam in partitions_of(n):
                got = fam.twin_path_both_coeff(lam)
                if got is not None:
                    g.check(f"{lam}", got, coeff.coefficient(lam))

    with col.group("twin-cycle-coeffs") as g:
        for n in range(3, max_size + 1):
            value = fam.twin_cycle(n - 1)
            for lam in partitions_of(n):
                g.check(f"{lam}", 2 * fam.twin_cycle_coeff(lam),
                        value.coefficient(lam))

    with col.group("coefficient-specials") as g:
        for line in fam.coeff_specials_check(grid, grid):
            g.check_true(line, False, line)
        g.check_true("table", True)
    return col.results


# ---------------------------------------------------------------------------
# oracle checks


def _fixture_rows():
    T = e_term
    rows = [
        ("path:1", graphs.path(1), lambda: fam.path_seq(1), e(1)),
        ("path:2", graphs.path(2), lambda: fam.path_seq(2), e(2) * 2),
        ("path:3", graphs.path(3), lambda: fam.path_seq(3), T((2, 1)) + e(3) * 3),
        ("cycle:2", None, lambda: fam.cycle_seq(2), e(2) * 2),
        ("cycle:3", graphs.cycle(3), lambda: fam.cycle_seq(3), e(3) * 6),
        ("twin-path-leaf:1", graphs.twin_path_leaf(1),
         lambda: fam.twin_path_leaf(1), e(2) * 2),
        ("twin-path-leaf:2", graphs.twin_path_leaf(2),
         lambda: fam.twin_path_leaf(2), e(3) * 6),
        ("twin-path-leaf:3", graphs.twin_path_leaf(3),
         lambda: fam.twin_path_leaf(3), e(4) * 8 + T((3, 1), 4)),
        ("twin-path-leaf:4", graphs.twin_path_leaf(4),
         lambda: fam.twin_path_leaf(4), T((3, 2), 8) + T((4, 1), 6) + e(5) * 10),
        ("twin-path-both:2", graphs.twin_path_both(2),
         lambda: fam.twin_path_both(2), e(4) * 24),
        ("twin-path-both:3", graphs.twin_path_both(3),
         lambda: fam.twin_path_both(3), T((3, 2), 4) + T((4, 1), 12) + e(5) * 20),
        ("twin-path-both:4", graphs.twin_path_both(4),
         lambda: fam.twin_path_both(4),
         T((3, 3), 24) + T((4, 2), 8) + T((5, 1), 16) + e(6) * 24),
        ("twin-path-both:5", graphs.twin_path_both(5),
         lambda: fam.twin_path_both(5),
         T((3, 3, 1), 16) + T((4, 3), 68) + T((5, 2), 12) + T((6, 1), 20) + e(7) * 28),
        ("twin-cycle:1", None, lambda: fam.twin_cycle(1), e(2) * 2),
        ("twin-cycle:2", None, lambda: fam.twin_cycle(2), e(3) * 6),
        ("twin-cycle:3", graphs.twin_cycle(3), lambda: fam.twin_cycle(3), e(4) * 24),
        ("twin-cycle:4", graphs.twin_cycle(4), lambda: fam.twin_cycle(4),
         e(5) * 50 + T((4, 1), 6) + T((3, 2), 4)),
        ("moose:2", graphs.moose(2), lambda: fam.moose(2),
         T((2, 2), 2) + T((3, 1), 2) + e(4) * 4),
        ("moose:3", graphs.moose(3), lambda: fam.moose(3),
         T((3, 1, 1), 2) + T((3, 2), 2) + T((4, 1), 10) + e(5) * 10),
        ("moose:4", graphs.moose(4), lambda: fam.moose(4),
         T((2, 2, 2), 2) + T((3, 2, 1), 2) + T((4, 1, 1), 6) + T((4, 2), 6)
         + T((5, 1), 22) + e(6) * 18),
    ]
    return rows


def fixtures_check() -> list[CaseResult]:
    col = Collector("oracle")
    with col.group("fixtures") as g:
        for label, graph, value, want in _fixture_rows():
            g.check(f"{label}:family", value(), want)
            if graph is not None:
                g.check(f"{label}:oracle", csf(graph), want)
        g.check("empty-graph", csf(graphs.path(0)), SymE.one())
        g.check("twin-P2-is-triangle", csf(graphs.twin(graphs.path(2), 0)),
                e(3) * 6)
    return col.results


def structural_check(max_vertices: int = 9, count_vertices: int = 8,
                     max_k: int = 5) -> list[CaseResult]:
    col = Collector("oracle")
    inventory = [(label, graph) for label, graph, _ in family_instances(max_vertices)
                 if graph is not None]

    with col.group("homogeneity") as g:
        for label, graph in inventory:
            value = csf(graph)
            g.check(f"{label}", value.homogeneous_degree(), graph.n)

    with col.group("triple-deletion") as g:
        for label, graph in inventory:
            for tri in graphs.triangles(graph):
                g.check_true(f"{label}:{tri}", triple_deletion_check(graph, tri))

    with col.group("near-triangle") as g:
        for n in range(3, min(6, max_vertices) + 1):
            g.check_true(f"path:{n}", near_triangle_check(graphs.path(n), 1, 0, 2))
        for n in range(4, min(6, max_vertices) + 1):
            g.check_true(f"cycle:{n}", near_triangle_check(graphs.cycle(n), 1, 0, 2))

    with col.group("leaf-twin-reduction") as g:
        for m in range(1, 7):
            g.check_true(f"path:{m}",
                         leaf_twin_reduction_check(graphs.path(m), m - 1))

    with col.group("multiplicativity") as g:
        pairs = [(graphs.path(a), graphs.path(b)) for a, b in
                 ((1, 1), (2, 3), (3, 3), (4, 5), (2, 6))]
        pairs += [(graphs.cycle(3), graphs.path(4)), (graphs.cycle(4), graphs.cycle(5)),
                  (graphs.twin_path_leaf(3), graphs.path(3))]
        for gg, hh in pairs:
            g.check(f"{gg!r}|{hh!r}",
                    csf(graphs.disjoint_union(gg, hh)),
                    csf(gg) * csf(hh))

    with col.group("coloring-counts") as g:
        for label, graph in inventory:
            if graph.n > count_vertices:
                continue
            for k in range(1, max_k + 1):
                g.check_true(f"{label}:k={k}",
                             chromatic_count_check(graph, k, count_vertices, max_k))

    with col.group("twin-edge-count") as g:
        for label, graph in inventory:
            if graph.n == 0:
                continue
            tg = graphs.twin(graph, 0)
            g.check(f"{label}:v=0", len(tg.edges),
                    len(graph.edges) + len(graph.neighbors(0)) + 1)
    return col.results


# ---------------------------------------------------------------------------
# suite runner


SUITES = ("partitions", "series", "families", "oracle")


def run_suites(names, max_n: int = 9, max_deg: int = 12, seed: int = 0) -> list[CaseResult]:
    """Run the selected suites (or all) and return sorted case results."""
    wanted = list(SUITES) if "all" in names else [n for n in SUITES if n in names]
    unknown = set(names) - set(SUITES) - {"all"}
    if unknown:
        raise ValueError(f"unknown suites: {sorted(unknown)}")
    results: list[CaseResult] = []
    if "partitions" in wanted:
        results += epsilon_table_check()
        results += epsilon_properties_check(min(12, max_deg), 10)
        results += enumeration_check(max_deg)
    if "series" in wanted:
        results += ring_laws_check(seed)
        results += newton_check()
        results += series_identities_check(max_deg)
    if "families" in wanted:
        results += family_sweep_check(max_n)
        results += e_positivity_check(max_deg, max_n)
        results += coefficient_sweeps_check(min(9, max_n), 10)
    if "oracle" in wanted:
        results += fixtures_check()
        results += structural_check(max_n, min(8, max_n), 5)
    results.sort(key=lambda r: (r.suite, r.case))
    return results
