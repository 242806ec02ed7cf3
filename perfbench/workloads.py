"""The four benchmark workloads: inputs from a seed, the timed operations, and
the correctness gates.

A workload is built from the loaded chromasym modules (a dict keyed by the
short module name) and the seed.  ``ops`` are zero-argument callables that
look the program's functions up at call time, so the tracer's wrappers are
used when they are installed.  Each op returns a value; ``render`` turns it
into the canonical text whose digest is compared between repetitions, and
``gate`` checks the values against independent routes outside the timed
region, returning one message per failed op.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import traceback

MODULES = ("partitions", "symfun", "powerseries", "graphs", "csf", "families",
           "verify", "cli")


class OpError:
    """An op that raised instead of returning; always fails the gate."""

    def __init__(self, exc: BaseException):
        self.text = "".join(traceback.format_exception(exc)).strip()

    def __repr__(self) -> str:
        return f"exception: {self.text.splitlines()[-1]}"


def run_cli(cli, argv) -> tuple:
    """(exit code, stdout, stderr) of one in-process ``chromasym`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors exit 2
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def render(value) -> str:
    """Canonical text of an op's value, for comparing repetitions."""
    if isinstance(value, (tuple, OpError)):
        return repr(value)
    if hasattr(value, "coeffs"):  # Series
        return "|".join(c.to_json() for c in value.coeffs)
    return value.to_json()


# ---------------------------------------------------------------------------
# verify-all: the whole proof check, dominated by the coloring counter


class VerifyAll:
    """``chromasym verify --suite all`` at the pinned bounds, one call."""

    MIN_GROUPS = 38

    def __init__(self, mods, seed: int):
        self.mods = mods
        self.argv = ("verify", "--suite", "all", "--max-n", "9", "--max-deg", "12",
                     "--seed", str(seed), "--json")
        self.labels = ["verify --suite all"]

    def ops(self):
        cli = self.mods["cli"]
        return [lambda: run_cli(cli, self.argv)]

    def gate(self, values) -> dict[int, str]:
        if isinstance(values[0], OpError):
            return {0: repr(values[0])}
        code, out, err = values[0]
        if code != 0 or "Traceback" in err:
            return {0: f"exit {code}: {err.strip()[-200:]}"}
        report = json.loads(out)
        failing = [c for c in report["cases"] if c["status"] != "pass"]
        if report["failed"] != 0 or failing:
            return {0: f"{report['failed']} groups failed"}
        if len(report["cases"]) < self.MIN_GROUPS:
            return {0: f"only {len(report['cases'])} groups"}
        return {}



# ---------------------------------------------------------------------------
# oracle-dense: the 2^|E| oracle on 12-14 vertex twinned paths and cycles


class OracleDense:
    """csf() on seven distinct graphs with a fixed (n, |E|) profile.

    Each graph is a path or cycle with 1-3 twinned vertices.  The seed picks
    which vertices are twinned; twinned vertices are
    pairwise non-adjacent in the base, so each interior (degree-2) twin adds
    three edges and a leaf twin two, whatever the seed.
    """

    # (base, base size, leaf twins, interior twins) -> (n, |E|)
    PROFILE = (("cycle", 11, 0, 1),   # (12, 14)
               ("path", 12, 0, 1),    # (13, 14)
               ("cycle", 12, 0, 1),   # (13, 15)
               ("cycle", 10, 0, 2),   # (12, 16)
               ("path", 12, 1, 1),    # (14, 16)
               ("path", 10, 1, 2),    # (13, 17)
               ("cycle", 12, 0, 2))   # (14, 18)

    def __init__(self, mods, seed: int):
        self.mods = mods
        rng = random.Random(seed)
        graphs = mods["graphs"]
        self.graphs, self.labels, self.named = [], [], []
        for base, m, leaves, interior in self.PROFILE:
            twins = self._pick(rng, base, m, leaves, interior)
            g = graphs.cycle(m) if base == "cycle" else graphs.path(m)
            for v in twins:
                g = graphs.twin(g, v)
            self.graphs.append(g)
            self.labels.append(f"{base}:{m} twin{twins} n={g.n} |E|={len(g.edges)}")
            self.named.append(self._family(base, m, twins))

    @staticmethod
    def _pick(rng, base, m, leaves, interior) -> list[int]:
        while True:
            if base == "cycle":
                picked = rng.sample(range(m), interior)
                near = lambda a, b: (a - b) % m in (0, 1, m - 1)
            else:
                picked = [rng.choice((0, m - 1)) for _ in range(leaves)]
                picked += rng.sample(range(1, m - 1), interior)
                near = lambda a, b: abs(a - b) <= 1
            if all(not near(a, b) for i, a in enumerate(picked) for b in picked[:i]):
                return picked

    @staticmethod
    def _family(base, m, twins):
        """(family, n, ell) when the graph is a named family member, else None."""
        if base == "cycle" and len(twins) == 1:
            return ("twin-cycle", m, None)
        if base == "path" and len(twins) == 1:
            return ("twin-path-interior", m, twins[0] + 1)
        if base == "path" and len(twins) == 2 and twins[0] in (0, m - 1):
            # interior twin at 1-based ell counted from the far end of the leaf
            leaf, v = twins
            return ("twin-interior-leaf", m, v + 1 if leaf == m - 1 else m - v)
        return None

    def ops(self):
        csf = self.mods["csf"]
        return [lambda g=g: csf.csf(g) for g in self.graphs]

    def gate(self, values) -> dict[int, str]:
        csf, families = self.mods["csf"], self.mods["families"]
        bad = {}
        for i, (g, value, named) in enumerate(zip(self.graphs, values, self.named)):
            if isinstance(value, OpError):
                bad[i] = repr(value)
                continue
            if value.homogeneous_degree() != g.n:
                bad[i] = f"not homogeneous of degree {g.n}"
                continue
            for k in (2, 3):
                want = csf.count_proper_colorings(g, k)
                if value.eval_elementary([1] * k) != want:
                    bad[i] = f"specialisation at {k} ones != {want} colorings"
            if named:
                name, n, ell = named
                for method in families.methods_for(name):
                    if families.family_value(name, n, ell, method) != value:
                        bad[i] = f"{name} route {method} disagrees"
        return bad


# ---------------------------------------------------------------------------
# series-deep: generating functions at a deep truncation, no oracle


class SeriesDeep:
    """Seven generating functions at truncation N (six families, the interior
    one at two positions), checked coefficient by coefficient against the
    recurrence and identity routes.

    The seed picks the interior position ell in {2, 3}; the interior gf is
    taken at ell and at 8 - ell, whose costs add to nearly the same total for
    either choice.
    """

    N = 36

    def __init__(self, mods, seed: int):
        self.mods = mods
        ell = random.Random(seed).choice((2, 3))
        self.ells = (ell, 8 - ell)
        self.labels = (["path_gf", "cycle_gf", "leaf_twin_gf_half",
                        "both_leaves_gf_quarter", "twin_cycle_gf_half"]
                       + [f"interior_gf_epos_half(ell={ell})" for ell in self.ells])

    def ops(self):
        ps, fam, N = self.mods["powerseries"], self.mods["families"], self.N
        return ([lambda: ps.path_gf(N), lambda: ps.cycle_gf(N),
                 lambda: fam.leaf_twin_gf_half(N), lambda: fam.both_leaves_gf_quarter(N),
                 lambda: fam.twin_cycle_gf_half(N)]
                + [lambda ell=ell: fam.interior_gf_epos_half(ell, N) for ell in self.ells])

    def _expected(self, index):
        """[(degree, scale, family, n, ell, methods)] for the op's coefficients."""
        N = self.N
        both = ("identity", "recurrence")
        if index == 0:
            return [(n, 1, "path", n, None, ("recurrence",)) for n in range(N + 1)]
        if index == 1:
            return [(n, 1, "cycle", n, None, ("recurrence",)) for n in range(1, N + 1)]
        if index == 2:
            return [(n + 1, 2, "twin-path-leaf", n, None, both) for n in range(1, N)]
        if index == 3:
            return [(n + 2, 4, "twin-path-both", n, None, both) for n in range(3, N - 1)]
        if index == 4:
            return [(n + 1, 2, "twin-cycle", n, None, both) for n in range(3, N)]
        ell = self.ells[index - 5]
        return [(n + 1, 2, "twin-path-interior", n, ell, both) for n in range(ell + 1, N)]

    def gate(self, values) -> dict[int, str]:
        families = self.mods["families"]
        bad = {}
        for i, series in enumerate(values):
            if isinstance(series, OpError):
                bad[i] = repr(series)
                continue
            if series.trunc != self.N or not series.graded_ok():
                bad[i] = "wrong truncation or a coefficient of the wrong degree"
                continue
            if i >= 2 and any(c.negative_term() for c in series.coeffs):
                bad[i] = "e-positive half gf has a negative coefficient"
                continue
            for degree, scale, name, n, ell, methods in self._expected(i):
                got = series.extract(degree) * scale
                wrong = [m for m in methods
                         if families.family_value(name, n, ell, m) != got]
                if wrong:
                    bad[i] = f"z^{degree} disagrees with {name} n={n} routes {wrong}"
                    break
        return bad


# ---------------------------------------------------------------------------
# query-mix: thousands of small CLI calls in one warm process


class QueryMix:
    """About 3000 ``cli.main`` calls drawn from a fixed pool per query class.

    The class sizes are fixed and each pool is small enough that nearly every
    distinct query is drawn, so the memo misses and their cost are almost the
    same for every seed; the seed chooses the draws and their order.
    """

    SIZES = {"csf": 900, "check": 450, "family": 750, "coeff": 450,
             "series": 300, "usage": 150}

    def __init__(self, mods, seed: int):
        self.mods = mods
        rng = random.Random(seed)
        pools = self._pools(rng)
        self.queries = [rng.choice(pools[cls]) for cls, size in self.SIZES.items()
                        for _ in range(size)]  # (argv, expectation)
        rng.shuffle(self.queries)
        self.labels = [" ".join(argv) for argv, _ in self.queries]

    @staticmethod
    def _members(max_vertices: int):
        """(family, n, ell, vertex count) for small named family graphs."""
        out = []
        for n in range(1, max_vertices + 1):
            out.append(("path", n, None, n))
        for n in range(3, max_vertices + 1):
            out.append(("cycle", n, None, n))
            out.append(("dgraph", n, None, n + 1))
            out.append(("tadpole", n, None, n + 1))
            for ell in range(2, n):
                out.append(("twin-path-interior", n, ell, n + 1))
        for n in range(1, max_vertices):
            out.append(("twin-path-leaf", n, None, n + 1))
            if n >= 3:
                out.append(("twin-cycle", n, None, n + 1))
            for ell in range(1, n + 1):
                out.append(("flagpole", n, ell, n + 1))
            for ell in range(1, n):
                out.append(("triangle-path", n, ell, n + 1))
        for n in range(2, max_vertices - 1):
            out.append(("twin-path-both", n, None, n + 2))
            out.append(("moose", n, None, n + 2))
        for n in range(4, max_vertices - 1):
            for ell in range(2, n - 1):
                out.append(("twin-interior-leaf", n, ell, n + 2))
        return [m for m in out if m[3] <= max_vertices]

    @staticmethod
    def _spec(name, n, ell) -> str:
        return f"{name}:{n}" if ell is None else f"{name}:{n},{ell}"

    def _pools(self, rng):
        csf = []
        for name, n, ell, _ in self._members(9):
            csf.append((("csf", "--graph", self._spec(name, n, ell)), ("value", name, n, ell)))
        for n in range(3, 9):
            v = rng.randrange(n)
            csf.append((("csf", "--graph", f"twin(cycle:{n},{v})"), ("value", "twin-cycle", n, None)))
            csf.append((("csf", "--graph", f"twin(path:{n},{n - 1})", "--json"),
                        ("value", "twin-path-leaf", n, None)))
            v = rng.randrange(1, n - 1)
            csf.append((("csf", "--graph", f"twin(path:{n},{v})"),
                        ("value", "twin-path-interior", n, v + 1)))

        check = []
        for name, n, ell, size in self._members(8):
            if size < 5:
                continue
            for k in ((2, 3, 4) if size <= 6 else (2, 3)):
                check.append((("csf", "--graph", self._spec(name, n, ell),
                               "--check-colorings", str(k)), ("ok",)))

        family = []
        for name, n, ell, _ in self._members(10):
            argv = ("family", "--name", name, "--n", str(n), "--method", "all")
            if ell is not None:
                argv += ("--ell", str(ell))
            family.append((argv, ("oracle", name, n, ell)))

        partitions = self.mods["partitions"]
        coeff = []
        for name, low in (("path", 3), ("cycle", 3), ("twin-path-leaf", 3),
                          ("twin-cycle", 3), ("twin-path-both", 5)):
            for size in range(low, 10):
                for lam in partitions.partitions_of(size):
                    coeff.append((("coeff", "--family", name, "--lambda",
                                   ",".join(map(str, lam))), ("coeff", name, lam)))

        series = [(("series", "--name", kind, "--N", "12", "--extract", str(n)),
                   ("value", kind[:-3], n, None))
                  for kind in ("path-gf", "cycle-gf") for n in range(1, 13)]

        usage = [(("csf", "--graph", "path:15"), ("usage",)),
                 (("csf", "--graph", "cycle:16"), ("usage",)),
                 (("csf", "--graph", "twin(path:4,7)"), ("usage",)),
                 (("csf", "--graph", "heptagon:9"), ("usage",)),
                 (("coeff", "--family", "path", "--lambda", "3,x"), ("usage",)),
                 (("coeff", "--family", "moose", "--lambda", "3,2"), ("usage",)),
                 (("family", "--name", "flagpole", "--n", "5"), ("usage",)),
                 (("family", "--name", "path", "--n", "4", "--method", "oracle"), ("usage",)),
                 (("series", "--name", "path-gf", "--N", "12", "--extract", "13"), ("usage",)),
                 (("series", "--name", "G_geq", "--N", "12"), ("usage",)),
                 (("family", "--name", "cycle", "--n", "x"), ("usage",))]
        return {"csf": csf, "check": check, "family": family, "coeff": coeff,
                "series": series, "usage": usage}

    def ops(self):
        cli = self.mods["cli"]
        return [lambda argv=argv: run_cli(cli, argv) for argv, _ in self.queries]

    def _want(self, expect) -> tuple:
        """(exit code, exact stdout or None, SymE value or None) for an expectation."""
        families, graphs, csf = self.mods["families"], self.mods["graphs"], self.mods["csf"]
        kind = expect[0]
        if kind == "usage":
            return 2, "", None
        if kind == "ok":
            return 0, "ok\n", None
        if kind == "value":
            _, name, n, ell = expect
            return 0, None, families.family_value(name, n, ell)
        if kind == "oracle":
            _, name, n, ell = expect
            return 0, None, csf.csf(graphs.family(name, n, ell))
        _, name, lam = expect
        size = sum(lam)
        if name == "path":
            return 0, f"{families.path_seq(size).coefficient(lam)}\n", None
        if name == "cycle":
            return 0, f"{families.cycle_seq(size).coefficient(lam)}\n", None
        if name == "twin-path-leaf":
            full = families.twin_path_leaf(size - 1, "recurrence").coefficient(lam)
            return 0, f"{full}\n", None
        if name == "twin-cycle":
            full = families.twin_cycle(size - 1, "recurrence").coefficient(lam)
            return 0, f"{full // 2}\n", None
        full = families.twin_path_both(size - 2, "recurrence").coefficient(lam)
        return 0, (f"{full}\n", "not covered by the printed closed forms\n"), None

    def gate(self, values) -> dict[int, str]:
        symfun = self.mods["symfun"]
        bad, wants, first = {}, {}, {}
        for i, ((argv, expect), value) in enumerate(zip(self.queries, values)):
            if isinstance(value, OpError):
                bad[i] = repr(value)
                continue
            # every repeat of a query must print what its first call printed
            if first.setdefault(argv, value) != value:
                bad[i] = "repeat of a query printed a different answer"
                continue
            if expect not in wants:
                wants[expect] = self._want(expect)
            code, out, value_want = wants[expect]
            got_code, got_out, got_err = value
            if got_code != code or "Traceback" in got_err:
                bad[i] = f"exit {got_code}, expected {code}: {got_err.strip()[-200:]}"
            elif code == 2 and not got_err.startswith(("error:", "usage:")):
                bad[i] = "usage error without a message"
            elif isinstance(out, tuple):
                if got_out not in out:
                    bad[i] = f"printed {got_out!r}"
            elif out is not None:
                if got_out != out:
                    bad[i] = f"printed {got_out!r}, expected {out!r}"
            elif "--json" in argv:
                got = symfun.SymE.from_json_obj(json.loads(got_out)["value"])
                if got != value_want:
                    bad[i] = "JSON value differs from the independent route"
            elif got_out != value_want.to_text() + "\n":
                bad[i] = f"printed {got_out.strip()!r}, expected {value_want.to_text()!r}"
        return bad


def counts(load, values) -> dict[str, int]:
    """Groups and atomic checks in a verify report (zero for other workloads)."""
    if not isinstance(load, VerifyAll) or load.gate(values):
        return {"verify.groups": 0, "verify.cases": 0}
    cases = json.loads(values[0][1])["cases"]
    return {"verify.groups": len(cases),
            "verify.cases": sum(int(c["expected"].split()[0]) for c in cases)}


CLASSES = {"verify-all": VerifyAll, "oracle-dense": OracleDense,
           "series-deep": SeriesDeep, "query-mix": QueryMix}
