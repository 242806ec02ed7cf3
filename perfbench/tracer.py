"""Span tracer that wraps chromasym's public functions from outside.

Only the traced child process installs it.  Every wrapped call records a
span ``[name, start_ns, end_ns, parent, thread_id, tag]`` in memory; the
spans are summarised into per-layer metrics and written out once, after the
timed region.

Functions are reached through ``sys.modules``: ``import chromasym.csf``
yields the *function* ``csf``, because the package re-exports it under the
module's name.  Every module global that is bound to a wrapped function is
rebound, so call sites that imported the function by name (``cli`` and
``verify`` bind ``csf``; the package binds ``parse_graph``...) go through
the wrapper too.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import threading
import time

from workloads import MODULES

VERIFY_CHECKS = (
    "epsilon_table_check", "epsilon_properties_check", "enumeration_check",
    "ring_laws_check", "newton_check", "series_identities_check",
    "family_sweep_check", "e_positivity_check", "coefficient_sweeps_check",
    "fixtures_check", "structural_check",
)

ROUTES = ("identity", "gf", "epos-gf", "recurrence")

# families functions whose route does not come from a `method` argument
_FIXED_ROUTE = {
    "path_seq": "recurrence", "cycle_seq": "recurrence",
    "flagpole_seq": "identity", "triangle_path_seq": "identity",
    "dgraph_seq": "identity", "tadpole_seq": "identity",
    "twin_interior_then_leaf": "identity",
    "leaf_twin_gf": "gf", "leaf_twin_gf_half": "gf",
    "both_leaves_gf_quarter": "gf", "interior_gf": "gf",
    "twin_cycle_gf": "gf", "twin_cycle_gf_half": "gf",
    "interior_gf_epos_half": "epos-gf",
}
# families functions taking (n, [ell,] method) with the given default method
_METHOD_ROUTE = {
    "twin_path_leaf": (1, "identity"), "twin_path_both": (1, "identity"),
    "twin_path_interior": (2, "identity"), "twin_cycle": (1, "identity"),
    "moose": (1, "recurrence"),
}
_COEFF = ("path_cycle_coeff", "twin_path_leaf_coeff", "twin_path_both_coeff",
          "twin_cycle_coeff", "coeff_value")


def _canon(method: str) -> str:
    return method.strip().lower().replace("_", "-")


class Tracer:
    """Collects spans from every thread; parents are tracked per thread."""

    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self._local = threading.local()
        self._main_ident = threading.main_thread().ident
        self._main_stack: list = []
        self._local.stack = self._main_stack  # constructed on the main thread

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, tag=None):
        """Wrap fn so each call records a span; tag(args, kwargs) annotates it."""
        spans = self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif threading.get_ident() != self._main_ident and self._main_stack:
                # pool workers hang under the span that is waiting for them
                parent = self._main_stack[-1]
            else:
                parent = None
            span = [name, 0, 0, parent, threading.get_ident(),
                    tag(args, kwargs) if tag else None]
            spans.append(span)
            stack.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap the benchmark's layer boundaries in the loaded chromasym modules."""
        mods = {m: importlib.import_module(f"chromasym.{m}") for m in MODULES}
        targets: list[tuple[str, object, object]] = []  # (span name, function, tag)

        def add(module: str, func: str, span: str | None = None, tag=None):
            # a function a later version drops simply reads 0
            if callable(getattr(mods[module], func, None)):
                targets.append((span or f"{module}.{func}", getattr(mods[module], func), tag))

        add("partitions", "partitions_of")
        add("partitions", "parse_partition")
        add("symfun", "power_sum_to_e", "symfun.power_sum")
        add("symfun", "power_sum_lambda_to_e", "symfun.power_sum")
        for func in ("invert_unit", "path_gf", "cycle_gf", "named_series"):
            add("powerseries", func)
        add("graphs", "parse_graph")
        add("csf", "csf", "csf.oracle",
            lambda a, k: (a[0].n, tuple(a[0].edge_list())))
        add("csf", "count_proper_colorings", "csf.colorings")
        add("csf", "chromatic_count_check")
        for func, route in _FIXED_ROUTE.items():
            add("families", func, tag=lambda a, k, r=route: r)
        for func, (pos, default) in _METHOD_ROUTE.items():
            add("families", func, tag=lambda a, k, p=pos, d=default:
                _canon(k.get("method", a[p] if len(a) > p else d)))
        add("families", "family_value", tag=self._family_value_route(mods["families"]))
        for func in _COEFF:
            add("families", func, "families.coeff")
        for func in VERIFY_CHECKS + ("run_suites",):
            add("verify", func)
        add("cli", "main")
        add("cli", "build_parser")

        replacement = {id(fn): self.wrap(span, fn, tag) for span, fn, tag in targets}
        originals = {id(fn): fn for _, fn, _ in targets}
        package = importlib.import_module("chromasym")
        for module in list(mods.values()) + [package]:
            for attr, value in list(vars(module).items()):
                if id(value) in replacement and originals[id(value)] is value:
                    setattr(module, attr, replacement[id(value)])

        sym = mods["symfun"].SymE
        pairs = lambda a, k: len(a[0]) * (len(a[1]) if isinstance(a[1], sym) else 1)
        sym.__mul__, sym.__rmul__ = (self.wrap("symfun.mul", sym.__mul__, pairs),
                                     self.wrap("symfun.mul", sym.__rmul__, pairs))
        series = mods["powerseries"].Series
        series.__mul__ = self.wrap("powerseries.series_mul", series.__mul__)

    @staticmethod
    def _family_value_route(families):
        def tag(args, kwargs):
            method = kwargs.get("method", args[3] if len(args) > 3 else None)
            if method:
                return _canon(method)
            name = kwargs.get("name", args[0] if args else "")
            try:
                return families.methods_for(name)[0]
            except ValueError:
                return None
        return tag

    # ------------------------------------------------------------------
    # summary

    def summary(self) -> dict[str, float]:
        """Per-layer metrics from the recorded spans (seconds, counts, ratios)."""
        spans = [s for s in self.spans if s[2]]
        children: dict[int, list] = {}
        for s in spans:
            if s[3] is not None:
                children.setdefault(id(s[3]), []).append(s)

        def covered(span) -> int:
            # union of child intervals clipped to the span; children on other
            # threads (the verify pool) overlap each other, same-thread ones nest
            total, edge = 0, span[1]
            for _, start, end, *_ in sorted(children.get(id(span), ()), key=lambda c: c[1]):
                start, end = max(start, edge), min(end, span[2])
                if end > start:
                    total += end - start
                    edge = end
            return total

        def outermost(s, group) -> bool:
            p = s[3]
            while p is not None:
                if group(p):
                    return False
                p = p[3]
            return True

        def seconds(group) -> float:
            return sum(s[2] - s[1] for s in spans if group(s) and outermost(s, group)) / 1e9

        def named(name):
            return lambda s: s[0] == name

        def count(name) -> int:
            return sum(1 for s in spans if s[0] == name)

        out: dict[str, float] = {}
        self_ns = dict.fromkeys(MODULES, 0)
        for s in spans:
            self_ns[s[0].split(".")[0]] += s[2] - s[1] - covered(s)
        for module in MODULES:
            out[f"{module}.self_s"] = self_ns[module] / 1e9

        out["csf.colorings_calls"] = count("csf.colorings")
        out["csf.colorings_s"] = seconds(named("csf.colorings"))
        seen: set = set()
        repeats = subsets = 0
        for s in spans:
            if s[0] == "csf.oracle":
                if s[5] in seen:
                    repeats += 1
                else:
                    seen.add(s[5])
                    subsets += 1 << len(s[5][1])
        calls = count("csf.oracle")
        out["csf.oracle_calls"] = calls
        out["csf.oracle_s"] = seconds(named("csf.oracle"))
        out["csf.oracle_repeat_ratio"] = repeats / calls if calls else 0.0
        out["csf.subsets"] = subsets

        out["symfun.mul_calls"] = count("symfun.mul")
        out["symfun.mul_s"] = seconds(named("symfun.mul"))
        out["symfun.mul_term_pairs"] = sum(s[5] for s in spans if s[0] == "symfun.mul")
        out["symfun.power_sum_s"] = seconds(named("symfun.power_sum"))

        out["powerseries.series_mul_calls"] = count("powerseries.series_mul")
        out["powerseries.series_mul_s"] = seconds(named("powerseries.series_mul"))
        out["powerseries.invert_unit_calls"] = count("powerseries.invert_unit")
        out["powerseries.invert_unit_s"] = seconds(named("powerseries.invert_unit"))

        routed = lambda s: s[0].startswith("families.") and s[5] in ROUTES
        for route in ROUTES:
            out[f"families.{route}_s"] = sum(
                s[2] - s[1] for s in spans
                if routed(s) and s[5] == route and outermost(s, routed)) / 1e9
        out["families.coeff_s"] = seconds(named("families.coeff"))

        for check in VERIFY_CHECKS:
            out[f"verify.{check}_s"] = seconds(named(f"verify.{check}"))

        out["cli.main_s"] = seconds(named("cli.main"))
        out["cli.build_parser_s"] = seconds(named("cli.build_parser"))
        out["graphs.parse_graph_s"] = seconds(named("graphs.parse_graph"))
        out["partitions.partitions_of_s"] = seconds(named("partitions.partitions_of"))
        out["trace.spans"] = len(spans)
        out["trace.threads"] = len({s[4] for s in spans})
        return out

    def write(self, path) -> None:
        """Write the spans as gzipped TSV: id, parent id, thread, name, start_ns, end_ns."""
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with gzip.open(path, "wt") as fh:
            fh.write("id\tparent\tthread\tname\tstart_ns\tend_ns\n")
            for i, s in enumerate(self.spans):
                parent = ids[id(s[3])] if s[3] is not None else -1
                fh.write(f"{i}\t{parent}\t{s[4]}\t{s[0]}\t{s[1]}\t{s[2]}\n")
