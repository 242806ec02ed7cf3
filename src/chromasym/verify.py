"""Verification sweeps: every identity, fixture, and cross-check in one place.

Each check returns a list of CaseResult records with an empty suite; the
CLI `verify` subcommand runs them through run_suites, which stamps each with
its suite from SUITES.  All sweeps are deterministic (the ring-law sampler
takes an explicit seed).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache
from math import comb

from . import families as fam
from . import graphs
from . import powerseries as ps
from .csf import (COUNT_MAX_K, COUNT_MAX_VERTICES, DEFAULT_MAX_VERTICES,
                  chromatic_count_check, csf, leaf_twin_reduction_check,
                  near_triangle_check, triple_deletion_check)
from .partitions import epsilon, epsilon_minus, multiplicities, partitions_of, support, union
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
SPECIALS_MAX = 10  # the printed specials run to size max(--max-n, SPECIALS_MAX)


@dataclass
class CaseResult:
    suite: str
    case: str
    status: str
    expected: str
    actual: str


class _Group:
    """Appends to results one row per failed comparison, holding the repr of
    both values compared, or one pass row."""

    def __init__(self, results: list[CaseResult], case: str):
        self.results = results
        self.case = case
        self.total = 0
        self.failures: list[CaseResult] = []

    def check(self, label: str, actual, expected) -> None:
        self.total += 1
        if actual != expected:
            self.failures.append(CaseResult(
                "", f"{self.case}:{label}", "fail",
                repr(expected), repr(actual)))

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:  # a raising check adds no row: a crash never reads as a pass
            self.results.extend(self.failures or [CaseResult(
                "", self.case, "pass", f"{self.total} checks", f"{self.total} checks")])


# ---------------------------------------------------------------------------
# partition checks


def epsilon_table_check() -> list[CaseResult]:
    results: list[CaseResult] = []
    with _Group(results, "epsilon-table") as g:
        for lam, want in EPSILON_TABLE.items():
            g.check(str(lam), epsilon(lam), want)
    return results


def epsilon_properties_check(max_size: int = 12) -> list[CaseResult]:
    results: list[CaseResult] = []
    with (_Group(results, "epsilon-closed-forms") as g,
          _Group(results, "epsilon-scaling") as scaling,
          _Group(results, "epsilon-removal") as removal):
        for n in range(1, 41):
            g.check(f"single-part-{n}", epsilon((n,)), n - 1)
        for k in range(1, 13):
            g.check(f"all-twos-{k}", epsilon((2,) * k), 1)
        for n in range(0, max_size + 1):
            for lam in partitions_of(n):
                g.check(f"vanish-iff-one:{lam}", epsilon(lam) == 0, 1 in lam)
                if n:  # epsilon(()) = 1 against an empty sum
                    removal.check(str(lam), epsilon(lam),
                                  sum((j - 1) * epsilon_minus(lam, j) for j in support(lam)))
                if 1 in lam:
                    continue
                mult = multiplicities(lam)
                for j in support(lam):
                    scaling.check(f"{lam},j={j}",
                                  (j - 1) * epsilon_minus(lam, j) * len(lam),
                                  mult[j] * epsilon(lam))
    with _Group(results, "epsilon-union") as g:
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
    return results


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
    results: list[CaseResult] = []
    with _Group(results, "enumeration") as g:
        for n in range(0, max_size + 1):
            plist = partitions_of(n)
            g.check(f"count-{n}", len(plist), _partition_count_oracle(n))
            g.check(f"distinct-{n}", len(set(plist)), len(plist))
            g.check(f"sorted-revlex-{n}", plist, sorted(plist, reverse=True))
            g.check(f"sums-{n}", {sum(lam) for lam in plist}, {n})
    return results


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
    results: list[CaseResult] = []
    with _Group(results, "ring-laws") as g:
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
            g.check(f"grading-{i}", {sum(lam) for lam, _ in prod.items()} - allowed, set())
    return results


def newton_check() -> list[CaseResult]:
    results: list[CaseResult] = []
    with _Group(results, "newton-powersums") as g:
        from .symfun import power_sum_to_e
        for n in range(1, NEWTON_MAX_N + 1):
            points = [tuple(range(1, n + 1)),
                      tuple(range(2, n + 2)),
                      tuple((-1) ** i * (i + 1) for i in range(n))]
            for xs in points:
                expanded = power_sum_to_e(n).eval_elementary(xs)
                direct = sum(x ** n for x in xs)
                g.check(f"p{n}@{xs}", expanded, direct)
    return results


# the two-parameter families' generating functions are checked at these ell
GF_ELLS = range(2, 7)


def series_identities_check(trunc: int = 12) -> list[CaseResult]:
    results: list[CaseResult] = []
    N = trunc
    one = Series.one(N)
    e1z = Series.monomial(e(1), 1, N)
    e2z2 = Series.monomial(e(2), 2, N)
    d = ps.weighted("D", N)
    inv_d = ps.invert_unit(d)
    xp = ps.path_gf(N)
    xc = ps.cycle_gf(N)
    z2e = ps.e_weighted(N, 2, (0, -1, 1))  # z^2 E''

    with _Group(results, "gf-vs-denominator") as g:
        g.check("path*D=E", xp * d, ps.weighted("E", N))
        g.check("cycle*D=z2E''", xc * d, z2e)
        g.check("invD*D=1", inv_d * d, one)

    with _Group(results, "inverse-denominator-epsilon") as g:
        for n in range(0, min(10, N) + 1):
            coeff = inv_d.extract(n)
            for lam in partitions_of(n):
                g.check(f"eps-{lam}", coeff.coefficient(lam), epsilon(lam))

    with _Group(results, "epos-combos") as g:
        zep = ps.e_weighted(N, 1, (0, 1))  # z E'
        g.check("combo-1", z2e - zep + e1z, ps.weighted("F1", N))
        g.check("combo-2", z2e * 2 - zep * 3 + e1z * 3 + e2z2 * 2, ps.weighted("F2", N))
        g.check("combo-3", z2e - zep * 3 + ps.weighted("E", N) * 3 + e2z2,
                Series.monomial(SymE.const(3), 0, N) + ps.weighted("F3", N))
        for i in (1, 2, 3):
            g.check(f"combo-{i}-epos",
                    [t for c in ps.weighted(f"F{i}", N).coeffs if (t := c.negative_term())], [])

    with _Group(results, "epos-numerators") as g:
        g.check("path-minus-head", (xp - one - e1z) * d,
                ps.weighted("K", N) + e1z * ps.weighted("G", N))
        g.check("cycle-combination",
                ((one + e1z) * xc - xp + one + e1z) * d,
                (one + e1z) * ps.weighted("F1", N) + e1z * (ps.weighted("E", N) - one - e1z))

    with _Group(results, "truncation-splits") as g:
        for k in (2, 3, 4):
            head, tail = ps.weighted("G", N, hi=k), ps.weighted("G", N, lo=k + 1)
            lhs = (one - head) * inv_d
            g.check(f"reciprocal-k{k}", lhs, one + tail * inv_d)
            g.check(f"path-k{k}", xp * (one - head), ps.weighted("E", N) + xp * tail)
            g.check(f"split-k{k}", head + tail, ps.weighted("G", N))

    with _Group(results, "interior-f-forms") as g:
        for ell in range(2, 9):
            g.check(f"f{ell}-alt", fam.f_poly(ell, ell + 2),
                    fam.f_poly_alt(ell, ell + 2))

    for name, spec in fam.FAMILIES.items():
        if not spec.gfs:
            continue
        # every further route but a gf one, which reads a form checked here
        routes = [r for r, how in [*spec.routes.items()][1:] if not isinstance(how, str)]
        for ell in GF_ELLS if spec.ells else (None,):
            label = name if ell is None else f"{name}-ell{ell}"
            # built here, not through ps.deepest: keeping every form doubled the deep run's peak RSS
            forms = {form: (scale, series(N, ell)) for form, (scale, series) in spec.gfs.items()}
            first, (first_scale, first_series) = next(iter(forms.items()))
            members = [n for n in range(spec.gf_from, N - spec.extra + 1)
                       if ell is None or ell in spec.ells(n)]
            low = members[0] + spec.extra if members else N + 1  # each form is 0 below z^low
            with _Group(results, f"{label}-gf") as g:
                for form, (scale, series) in forms.items():
                    g.check(f"{form}-graded", series.graded_ok(), True)
                    g.check(f"{form}-zero-below-z^{low}", series.coeffs[:low],
                            (SymE.zero(),) * low)
                    if form != first:
                        g.check(f"{form}-vs-{first}", series * scale, first_series * first_scale)
                if spec.e_positive:
                    for degree, coeff in enumerate(first_series.coeffs):
                        g.check(f"{first}-epos-z^{degree}", coeff.negative_term(), None)
                for n in members:
                    value = fam.family_value(name, n, ell)
                    for form, (scale, series) in forms.items():
                        g.check(f"{form}:n={n}", series.extract(n + spec.extra) * scale, value)
                    for route in routes:
                        g.check(f"{route}:n={n}", fam.family_value(name, n, ell, route), value)

    with _Group(results, "grading") as g:
        for name in ps.WEIGHTED:
            g.check(name, ps.weighted(name, N).graded_ok(), True)
        g.check("1/D", inv_d.graded_ok(), True)
    return results


# ---------------------------------------------------------------------------
# family sweeps


def family_instances(max_vertices: int = 9):
    """Yield (name, n, ell, label, graph-or-None) for every family member whose
    graph has at most max_vertices vertices (plus graphless conventions)."""
    for name, spec in fam.FAMILIES.items():
        for n in range(max_vertices - spec.extra, spec.min_n - 1, -1):  # deepest first
            for ell in spec.ells(n) if spec.ells else (None,):
                label = f"{name}:n={n}" if ell is None else f"{name}:n={n},ell={ell}"
                graph = graphs.family(name, n, ell) if n >= spec.pinned_below else None
                yield name, n, ell, label, graph


def family_sweep_check(max_vertices: int = 9) -> list[CaseResult]:
    """Method and oracle agreement, and e-positivity where claimed, of every member."""
    results: list[CaseResult] = []
    with (_Group(results, "method-and-oracle-agreement") as g,
          _Group(results, "family-values-epos") as pos):
        for name, n, ell, label, graph in family_instances(max_vertices):
            spec = fam.FAMILIES[name]
            values = {m: fam.family_value(name, n, ell, m) for m in spec.routes}
            first = next(iter(values.values()))
            for m, val in values.items():
                g.check(f"{label}:{m}", val, first)
            if graph is not None:
                g.check(f"{label}:oracle", csf(graph), first)
            if spec.e_positive:
                pos.check(label, first.negative_term(), None)
    return results


def printed_specials(max_size: int):
    """Yield (family, shape, lam, value), once each, for the special e_lam
    coefficients the paper prints for paths, cycles and the leaf twin (its
    cases a-h), |lam| <= max_size, at the member n = |lam| - extra."""
    leaf = "twin-path-leaf"
    for n in range(2, max_size + 1):
        yield "path", "e_n", (n,), n
        yield "path", "e_(n-1)e_1", (n - 1, 1), n - 2
        yield "cycle", "e_n", (n,), n * (n - 1)
        yield leaf, "case-a", (n,), 2 * n if n >= 3 else 2
        if n >= 4:
            yield leaf, "case-b", (n - 1, 1), 2 * (n - 2)
        if n >= 5:
            yield "path", "e_(n-2)e_2", (n - 2, 2), 3 * n - 8
            yield "cycle", "e_(n-2)e_2", (n - 2, 2), n * (n - 3)
            yield leaf, "case-c", (n - 2, 2), 4 * (n - 3)
        for j in range(3, (n + 1) // 2):  # i = n - j > j
            yield leaf, "case-d", (n - j, j), 2 * (2 * (n - j) * j - n)
    for k in range(2, max_size // 2 + 1):
        for r in range(2, max_size // k + 1):  # r = 1 is e_n
            yield "path", "e_(k^r)", (k,) * r, k * (k - 1) ** (r - 1)
            yield "cycle", "e_(k^r)", (k,) * r, k * (k - 1) ** r
        if k >= 3:
            yield leaf, "case-e", (k, k), 2 * k * (k - 1)
    for k in range(1, max_size // 2 + 1):  # shapes with k parts equal to 2
        if 2 * k < max_size:
            yield leaf, "case-g-zero", (2,) * k + (1,), 0
            if k >= 2:  # k = 1 is e_(n-1)e_1
                yield "path", "e_(2^k)e_1", (2,) * k + (1,), 1
        if k >= 2:
            yield leaf, "case-h-zero", (2,) * k, 0
            if 2 * k + 3 <= max_size:
                yield leaf, "case-f", (3,) + (2,) * k, 8
            if 2 * k + 4 <= max_size:
                yield leaf, "case-f1", (3,) + (2,) * k + (1,), 4


def coefficient_sweeps_check(max_size: int = 9) -> list[CaseResult]:
    """One group per family with coefficient formulas, up to size top =
    max(max_size, SPECIALS_MAX): every form against the value's e_lam
    coefficients, and each printed special on the first form and on the value."""
    results: list[CaseResult] = []
    top = max(max_size, SPECIALS_MAX)
    rows = list(printed_specials(top))
    value = cache(fam.family_value)
    for name, spec in fam.FAMILIES.items():
        if not spec.coeffs:
            continue
        with _Group(results, f"{name}-coefficients") as g:
            for n in range(spec.coeff_from, top - spec.extra + 1):
                member = value(name, n)
                for lam in partitions_of(n + spec.extra):
                    for form, (scale, coeff) in spec.coeffs.items():
                        got = coeff(lam)
                        if got is not None:
                            g.check(f"{form}:{lam}", scale * got, member.coefficient(lam))
            scale, printed = next(iter(spec.coeffs.values()))
            for _, shape, lam, want in (row for row in rows if row[0] == name):
                g.check(f"{shape}:{lam}:formula", scale * printed(lam), want)
                g.check(f"{shape}:{lam}:value",
                        value(name, sum(lam) - spec.extra).coefficient(lam), want)
    return results


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
    results: list[CaseResult] = []
    with _Group(results, "fixtures") as g:
        for (name, n), want in FIXTURES.items():
            g.check(f"{name}:{n}:family", fam.family_value(name, n), want)
            if n >= fam.FAMILIES[name].pinned_below:
                g.check(f"{name}:{n}:oracle", csf(graphs.family(name, n)), want)
        g.check("empty-graph", csf(graphs.path(0)), SymE.one())
        g.check("twin-P2-is-triangle", csf(graphs.twin(graphs.path(2), 0)),
                e(3) * 6)
    return results


def structural_check(max_vertices: int = 9) -> list[CaseResult]:
    results: list[CaseResult] = []
    with (_Group(results, "homogeneity") as homog, _Group(results, "triple-deletion") as triple,
          _Group(results, "coloring-counts") as counts,
          _Group(results, "twin-edge-count") as twins):
        for _, _, _, label, graph in family_instances(max_vertices):
            if graph is None:
                continue
            homog.check(label, csf(graph).homogeneous_degree(), graph.n)
            for tri in graphs.triangles(graph):
                triple.check(f"{label}:{tri}", triple_deletion_check(graph, tri), True)
            if graph.n <= COUNT_MAX_VERTICES:
                for k in range(1, COUNT_MAX_K + 1):
                    counts.check(f"{label}:k={k}", chromatic_count_check(graph, k), True)
            if graph.n:
                twins.check(f"{label}:v=0", len(graphs.twin(graph, 0).edges),
                            len(graph.edges) + len(graph.neighbors(0)) + 1)

    with _Group(results, "near-triangle") as g:
        for n in range(3, min(6, max_vertices) + 1):
            g.check(f"path:{n}", near_triangle_check(graphs.path(n), 1, 0, 2), True)
        for n in range(4, min(6, max_vertices) + 1):
            g.check(f"cycle:{n}", near_triangle_check(graphs.cycle(n), 1, 0, 2), True)

    with _Group(results, "leaf-twin-reduction") as g:
        for m in range(1, 7):
            g.check(f"path:{m}", leaf_twin_reduction_check(graphs.path(m), m - 1), True)

    with _Group(results, "multiplicativity") as g:
        pairs = [(graphs.path(a), graphs.path(b)) for a, b in
                 ((1, 1), (2, 3), (3, 3), (4, 5), (2, 6))]
        pairs += [(graphs.cycle(3), graphs.path(4)), (graphs.cycle(4), graphs.cycle(5)),
                  (graphs.family("twin-path-leaf", 3), graphs.path(3))]
        for gg, hh in pairs:
            g.check(f"{gg!r}|{hh!r}",
                    csf(graphs.disjoint_union(gg, hh)),
                    csf(gg) * csf(hh))
    return results


# ---------------------------------------------------------------------------
# suite runner


# suite name -> f(max_n, max_deg, seed) running its checks, the one place a
# check's suite is declared.  Each lambda looks its checks up by name when
# called, so a wrapper installed on this module (a tracer) sees every call.
SUITES = {
    "partitions": lambda max_n, max_deg, seed: (
        epsilon_table_check() + epsilon_properties_check(min(12, max_deg))
        + enumeration_check(max_deg)),
    "series": lambda max_n, max_deg, seed: (
        ring_laws_check(seed) + newton_check() + series_identities_check(max_deg)),
    "families": lambda max_n, max_deg, seed: (
        family_sweep_check(max_n) + coefficient_sweeps_check(max_n)),
    "oracle": lambda max_n, max_deg, seed: fixtures_check() + structural_check(max_n),
}


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
    unknown = set(names) - set(SUITES) - {"all"}
    if unknown:
        raise ValueError(f"unknown suites: {sorted(unknown)}")
    if not names:  # no checks would run, and no rows read as no failures
        raise ValueError("no suites selected")
    check_bounds(max_n, max_deg)
    results: list[CaseResult] = []
    for suite, run in SUITES.items():
        if suite in names or "all" in names:
            for r in run(max_n, max_deg, seed):
                r.suite = suite
                results.append(r)
    results.sort(key=lambda r: (r.suite, r.case))
    return results
