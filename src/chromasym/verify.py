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
from .csf import (COUNT_MAX_K, COUNT_MAX_VERTICES, DEFAULT_MAX_VERTICES,
                  chromatic_count_check, csf, leaf_twin_reduction_check,
                  near_triangle_check, triple_deletion_check)
from .partitions import (epsilon, epsilon_minus, multiplicities, partitions_of,
                         remove_part, support, union)
from .powerseries import MAX_DEPTH, Series
from .symfun import SymE, e, e_term

EPSILON_TABLE = {
    (): 1,
    (2,): 1, (3,): 2, (4,): 3, (2, 2): 1, (5,): 4, (3, 2): 4,
    (6,): 5, (4, 2): 6, (3, 3): 4, (2, 2, 2): 1,
    (7,): 6, (5, 2): 8, (4, 3): 12, (3, 2, 2): 6,
    (8,): 7, (6, 2): 10, (5, 3): 16, (4, 4): 9, (4, 2, 2): 9,
    (3, 3, 2): 12, (2, 2, 2, 2): 1,
}

EPSILON_UNION_MAX = 10  # these bounds do not scale with --max-n or --max-deg
RING_LAW_ROUNDS = 40
NEWTON_MAX_N = 8
SPECIALS_MAX = 10  # largest n, and largest k*r, of the coefficient specials


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


def epsilon_properties_check(max_size: int = 12) -> list[CaseResult]:
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
        for total in range(0, EPSILON_UNION_MAX + 1):
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


def ring_laws_check(seed: int = 0) -> list[CaseResult]:
    rng = random.Random(seed)
    col = Collector("series")
    with col.group("ring-laws") as g:
        for i in range(RING_LAW_ROUNDS):
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


def newton_check() -> list[CaseResult]:
    col = Collector("series")
    with col.group("newton-powersums") as g:
        from .symfun import power_sum_to_e
        for n in range(1, NEWTON_MAX_N + 1):
            points = [tuple(range(1, n + 1)),
                      tuple(range(2, n + 2)),
                      tuple((-1) ** i * (i + 1) for i in range(n))]
            for xs in points:
                expanded = power_sum_to_e(n).eval_elementary(xs)
                direct = sum(x ** n for x in xs)
                g.check(f"p{n}@{xs}", expanded, direct)
    return col.results


# the two-parameter families' generating functions are checked at these ell
GF_ELLS = range(2, 7)


def series_identities_check(trunc: int = 12) -> list[CaseResult]:
    col = Collector("series")
    N = trunc
    one = Series.one(N)
    e1z = Series.monomial(e(1), 1, N)
    e2z2 = Series.monomial(e(2), 2, N)
    d = ps.weighted("D", N)
    inv_d = ps.invert_unit(d)
    xp = ps.path_gf(N)
    xc = ps.cycle_gf(N)
    z2e = ps.e_weighted(N, 2, (0, -1, 1))  # z^2 E''

    with col.group("gf-vs-denominator") as g:
        g.check("path*D=E", xp * d, ps.weighted("E", N))
        g.check("cycle*D=z2E''", xc * d, z2e)
        g.check("invD*D=1", inv_d * d, one)

    with col.group("inverse-denominator-epsilon") as g:
        for n in range(0, min(10, N) + 1):
            coeff = inv_d.extract(n)
            for lam in partitions_of(n):
                g.check(f"eps-{lam}", coeff.coefficient(lam), epsilon(lam))

    with col.group("epos-combos") as g:
        zep = ps.e_weighted(N, 1, (0, 1))  # z E'
        g.check("combo-1", z2e - zep + e1z, ps.weighted("F1", N))
        g.check("combo-2", z2e * 2 - zep * 3 + e1z * 3 + e2z2 * 2, ps.weighted("F2", N))
        g.check("combo-3", z2e - zep * 3 + ps.weighted("E", N) * 3 + e2z2,
                Series.monomial(SymE.const(3), 0, N) + ps.weighted("F3", N))
        for i in (1, 2, 3):
            g.check_true(f"combo-{i}-epos",
                         all(c.is_e_positive() for c in ps.weighted(f"F{i}", N).coeffs))

    with col.group("epos-numerators") as g:
        g.check("path-minus-head", (xp - one - e1z) * d,
                ps.weighted("K", N) + e1z * ps.weighted("G", N))
        g.check("cycle-combination",
                ((one + e1z) * xc - xp + one + e1z) * d,
                (one + e1z) * ps.weighted("F1", N) + e1z * (ps.weighted("E", N) - one - e1z))

    with col.group("truncation-splits") as g:
        for k in (2, 3, 4):
            head, tail = ps.weighted("G", N, hi=k), ps.weighted("G", N, lo=k + 1)
            lhs = (one - head) * inv_d
            g.check(f"reciprocal-k{k}", lhs, one + tail * inv_d)
            g.check(f"path-k{k}", xp * (one - head), ps.weighted("E", N) + xp * tail)
            g.check(f"split-k{k}", head + tail, ps.weighted("G", N))

    with col.group("interior-f-forms") as g:
        for ell in range(2, 9):
            g.check(f"f{ell}-alt", fam.f_poly(ell, ell + 2),
                    fam.f_poly_alt(ell, ell + 2))

    for name, spec in fam.FAMILIES.items():
        if not spec.gfs:
            continue
        for ell in GF_ELLS if spec.ells else (None,):
            label = name if ell is None else f"{name}-ell{ell}"
            forms = {form: (scale, series(N, ell)) for form, (scale, series) in spec.gfs.items()}
            first, (first_scale, first_series) = next(iter(forms.items()))
            members = [n for n in range(spec.gf_from, N - spec.extra + 1)
                       if ell is None or ell in spec.ells(n)]
            low = members[0] + spec.extra if members else N + 1  # each form is 0 below z^low
            with col.group(f"{label}-gf") as g:
                for form, (scale, series) in forms.items():
                    g.check_true(f"{form}-graded", series.graded_ok())
                    g.check(f"{form}-zero-below-z^{low}", series.coeffs[:low],
                            (SymE.zero(),) * low)
                    if form != first:
                        g.check(f"{form}-vs-{first}", series * scale, first_series * first_scale)
                for degree, coeff in enumerate(first_series.coeffs):
                    witness = coeff.negative_term()
                    g.check_true(f"{first}-epos-z^{degree}", witness is None,
                                 f"negative term {witness}")
                for n in members:
                    value = fam.family_value(name, n, ell)
                    for form, (scale, series) in forms.items():
                        g.check(f"{form}:n={n}", series.extract(n + spec.extra) * scale, value)

    with col.group("grading") as g:
        for name in ps.WEIGHTED:
            g.check_true(name, ps.weighted(name, N).graded_ok())
        g.check_true("1/D", inv_d.graded_ok())
    return col.results


# ---------------------------------------------------------------------------
# family sweeps


def family_instances(max_vertices: int = 9):
    """Yield (name, n, ell, label, graph-or-None) for every family member whose
    graph has at most max_vertices vertices (plus graphless conventions)."""
    for name, spec in fam.FAMILIES.items():
        for n in range(spec.min_n, max_vertices - spec.extra + 1):
            for ell in spec.ells(n) if spec.ells else (None,):
                label = f"{name}:n={n}" if ell is None else f"{name}:n={n},ell={ell}"
                graph = graphs.family(name, n, ell) if n >= spec.pinned_below else None
                yield name, n, ell, label, graph


def family_sweep_check(max_vertices: int = 9) -> list[CaseResult]:
    """Method and oracle agreement, and e-positivity where claimed, of every member."""
    col = Collector("families")
    with col.group("method-and-oracle-agreement") as g, col.group("family-values-epos") as pos:
        for name, n, ell, label, graph in family_instances(max_vertices):
            spec = fam.FAMILIES[name]
            values = {m: fam.family_value(name, n, ell, m) for m in spec.routes}
            first = next(iter(values.values()))
            for m, val in values.items():
                g.check(f"{label}:{m}", val, first)
            if graph is not None:
                g.check(f"{label}:oracle", csf(graph), first)
            if spec.e_positive:
                witness = first.negative_term()
                pos.check_true(label, witness is None, f"negative term {witness}")
    return col.results


def coeff_specials_check() -> list[CaseResult]:
    """Verify the table of special coefficients on computed sequences.

    One check each for [e_n] X_{P_n} = n, [e_{n-1}e_1] X_{P_n} = n-2,
    [e_n] X_{C_n} = n(n-1) for n >= 2; [e_{n-2}e_2] X_{P_n} = 3n-8 and
    [e_{n-2}e_2] X_{C_n} = n(n-3) for n >= 5; [e_k^r] X_{P_{kr}} =
    k(k-1)^{r-1} and [e_{k^r}] X_{C_{kr}} = k(k-1)^r; [e_2^2] X_{C_4} = 2.
    """
    col = Collector("families")
    with col.group("coefficient-specials") as g:
        path, cycle = fam.path_seq, fam.cycle_seq
        for n in range(2, SPECIALS_MAX + 1):
            g.check(f"[e_{n}] path({n})", path(n).coefficient((n,)), n)
            g.check(f"[e_{n-1}e_1] path({n})", path(n).coefficient((n - 1, 1)), n - 2)
            g.check(f"[e_{n}] cycle({n})", cycle(n).coefficient((n,)), n * (n - 1))
        for n in range(5, SPECIALS_MAX + 1):
            g.check(f"[e_{n-2}e_2] path({n})", path(n).coefficient((n - 2, 2)), 3 * n - 8)
            g.check(f"[e_{n-2}e_2] cycle({n})", cycle(n).coefficient((n - 2, 2)), n * (n - 3))
        for k in range(2, SPECIALS_MAX + 1):
            for r in range(1, SPECIALS_MAX // k + 1):
                lam = (k,) * r
                g.check(f"[e_({k}^{r})] path({k * r})",
                        path(k * r).coefficient(lam), k * (k - 1) ** (r - 1))
                g.check(f"[e_({k}^{r})] cycle({k * r})",
                        cycle(k * r).coefficient(lam), k * (k - 1) ** r)
        g.check("[e_2^2] cycle(4)", cycle(4).coefficient((2, 2)), 2)
    return col.results


def coefficient_sweeps_check(max_size: int = 9) -> list[CaseResult]:
    col = Collector("families")
    with col.group("coefficient-formulas") as g:
        for name, spec in fam.FAMILIES.items():
            if spec.coeff is None:
                continue
            for n in range(spec.coeff_from, max_size - spec.extra + 1):
                value = fam.family_value(name, n)
                for lam in partitions_of(n + spec.extra):
                    got = spec.coeff(lam)
                    if got is not None:
                        g.check(f"{name}:{lam}", spec.coeff_scale * got, value.coefficient(lam))

    with col.group("path-short-forms") as g:
        for n in range(1, max_size + 1):
            value = fam.path_seq(n)
            for lam in partitions_of(n):
                want = value.coefficient(lam)
                g.check(f"path-alt:{lam}",
                        epsilon(lam) + sum(epsilon_minus(lam, a) for a in support(lam)),
                        want)
                if 1 in lam and len(lam) >= 2:
                    mu = remove_part(lam, 1)
                    g.check(f"path-one-join:{lam}",
                            sum((a - 1) * epsilon_minus(mu, a)
                                for a in support(mu) if a >= 2),
                            want)
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

    # printed short forms as consequences of the general sums
    with col.group("leaf-twin-short-forms") as g:
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
    return col.results + coeff_specials_check()


# ---------------------------------------------------------------------------
# oracle checks


# the printed small values, (family, n) -> X; members below the family's
# pinned_below have no graph and are checked against the family route only
FIXTURES = {
    ("path", 1): e(1),
    ("path", 2): e(2) * 2,
    ("path", 3): e_term((2, 1)) + e(3) * 3,
    ("cycle", 2): e(2) * 2,
    ("cycle", 3): e(3) * 6,
    ("twin-path-leaf", 1): e(2) * 2,
    ("twin-path-leaf", 2): e(3) * 6,
    ("twin-path-leaf", 3): e(4) * 8 + e_term((3, 1), 4),
    ("twin-path-leaf", 4): e_term((3, 2), 8) + e_term((4, 1), 6) + e(5) * 10,
    ("twin-path-both", 2): e(4) * 24,
    ("twin-path-both", 3): e_term((3, 2), 4) + e_term((4, 1), 12) + e(5) * 20,
    ("twin-path-both", 4): (e_term((3, 3), 24) + e_term((4, 2), 8) + e_term((5, 1), 16)
                            + e(6) * 24),
    ("twin-path-both", 5): (e_term((3, 3, 1), 16) + e_term((4, 3), 68) + e_term((5, 2), 12)
                            + e_term((6, 1), 20) + e(7) * 28),
    ("twin-cycle", 1): e(2) * 2,
    ("twin-cycle", 2): e(3) * 6,
    ("twin-cycle", 3): e(4) * 24,
    ("twin-cycle", 4): e(5) * 50 + e_term((4, 1), 6) + e_term((3, 2), 4),
    ("moose", 2): e_term((2, 2), 2) + e_term((3, 1), 2) + e(4) * 4,
    ("moose", 3): e_term((3, 1, 1), 2) + e_term((3, 2), 2) + e_term((4, 1), 10) + e(5) * 10,
    ("moose", 4): (e_term((2, 2, 2), 2) + e_term((3, 2, 1), 2) + e_term((4, 1, 1), 6)
                   + e_term((4, 2), 6) + e_term((5, 1), 22) + e(6) * 18),
}


def fixtures_check() -> list[CaseResult]:
    col = Collector("oracle")
    with col.group("fixtures") as g:
        for (name, n), want in FIXTURES.items():
            g.check(f"{name}:{n}:family", fam.family_value(name, n), want)
            if n >= fam.FAMILIES[name].pinned_below:
                g.check(f"{name}:{n}:oracle", csf(graphs.family(name, n)), want)
        g.check("empty-graph", csf(graphs.path(0)), SymE.one())
        g.check("twin-P2-is-triangle", csf(graphs.twin(graphs.path(2), 0)),
                e(3) * 6)
    return col.results


def structural_check(max_vertices: int = 9) -> list[CaseResult]:
    col = Collector("oracle")
    inventory = [(label, graph) for _, _, _, label, graph in family_instances(max_vertices)
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
                  (graphs.family("twin-path-leaf", 3), graphs.path(3))]
        for gg, hh in pairs:
            g.check(f"{gg!r}|{hh!r}",
                    csf(graphs.disjoint_union(gg, hh)),
                    csf(gg) * csf(hh))

    with col.group("coloring-counts") as g:
        for label, graph in inventory:
            if graph.n > COUNT_MAX_VERTICES:
                continue
            for k in range(1, COUNT_MAX_K + 1):
                g.check_true(f"{label}:k={k}", chromatic_count_check(graph, k))

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


def check_bounds(max_n: int, max_deg: int) -> None:
    """ValueError unless max_n and max_deg are within the bounds verify runs at."""
    # below these floors some groups check nothing and would pass vacuously
    if max_n < 3:
        raise ValueError(f"--max-n must be >= 3, got {max_n}")
    if max_deg < 2:
        raise ValueError(f"--max-deg must be >= 2, got {max_deg}")
    # above these ceilings the oracle or the CLI would refuse the work
    if max_n > DEFAULT_MAX_VERTICES:
        raise ValueError(f"--max-n must be <= {DEFAULT_MAX_VERTICES}, got {max_n}")
    if max_deg > MAX_DEPTH:
        raise ValueError(f"--max-deg must be <= {MAX_DEPTH}, got {max_deg}")


def run_suites(names, max_n: int = 9, max_deg: int = 12, seed: int = 0) -> list[CaseResult]:
    """Run the selected suites (or all; a string names one) and return sorted results."""
    if isinstance(names, str):
        names = [names]
    wanted = list(SUITES) if "all" in names else [n for n in SUITES if n in names]
    unknown = set(names) - set(SUITES) - {"all"}
    if unknown:
        raise ValueError(f"unknown suites: {sorted(unknown)}")
    check_bounds(max_n, max_deg)
    results: list[CaseResult] = []
    if "partitions" in wanted:
        results += epsilon_table_check()
        results += epsilon_properties_check(min(12, max_deg))
        results += enumeration_check(max_deg)
    if "series" in wanted:
        results += ring_laws_check(seed)
        results += newton_check()
        results += series_identities_check(max_deg)
    if "families" in wanted:
        results += family_sweep_check(max_n)
        results += coefficient_sweeps_check(max_n)
    if "oracle" in wanted:
        results += fixtures_check()
        results += structural_check(max_n)
    results.sort(key=lambda r: (r.suite, r.case))
    return results
