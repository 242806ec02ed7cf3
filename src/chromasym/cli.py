"""Command-line front end.

Subcommands: csf, series, family, coeff, verify.  Output is the canonical
text rendering unless --json is given; big integers are serialized as
strings in JSON so downstream consumers never overflow.  Exit codes: 0 on
success, 1 on verification failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict

from . import families, graphs, powerseries, verify
from .csf import chromatic_count_check, csf
from .partitions import format_partition, parse_partition
from .powerseries import MAX_DEPTH
from .symfun import SymE

USAGE_ERROR = 2


def _print_value(value: SymE, as_json: bool, meta: dict | None = None) -> None:
    if as_json:
        obj = dict(meta or {})
        obj["value"] = value.to_json_obj()
        print(json.dumps(obj))
    else:
        print(value.to_text())


def _cmd_csf(args) -> int:
    graph = graphs.parse_graph(args.graph)
    if args.check_colorings is not None:
        ok = chromatic_count_check(graph, args.check_colorings)
        if args.json:
            print(json.dumps({"graph": args.graph, "k": args.check_colorings,
                              "colorings_match": ok}))
        else:
            print("ok" if ok else "MISMATCH")
        return 0 if ok else 1
    value = csf(graph)
    _print_value(value, args.json, {"graph": args.graph, "n": graph.n})
    return 0


def _cmd_series(args) -> int:
    if not 0 <= args.N <= MAX_DEPTH:
        raise ValueError(f"--N must be between 0 and {MAX_DEPTH}, got {args.N}")
    series = powerseries.named_series(args.name, args.N, args.k)
    if args.extract is not None:
        value = series.extract(args.extract)
        _print_value(value, args.json,
                     {"series": args.name, "N": args.N, "degree": args.extract})
        return 0
    if args.json:
        obj = {"series": args.name, "N": series.trunc,
               "coefficients": [c.to_json_obj() for c in series.coeffs]}
        print(json.dumps(obj))
    else:
        print(f"# {args.name}, truncated at N={series.trunc}")
        for degree, coeff in enumerate(series.coeffs):
            print(f"z^{degree}: {coeff.to_text()}")
    return 0


def _cmd_family(args) -> int:
    if args.n > MAX_DEPTH:
        raise ValueError(f"--n must be <= {MAX_DEPTH}, got {args.n}")
    name = args.name
    every = families._canon(args.method) == "all"
    methods = families.methods_for(name) if every else (args.method,)
    values = {m: families.family_value(name, args.n, args.ell, m) for m in methods}
    first = next(iter(values.values()))
    disagree = [m for m, v in values.items() if v != first]
    if disagree:
        print(f"method disagreement: {disagree}", file=sys.stderr)
        return 1
    shown = {"methods": list(methods)} if every else {"method": args.method}  # as typed
    _print_value(first, args.json, {"family": name, "n": args.n, "ell": args.ell, **shown})
    return 0


def _cmd_coeff(args) -> int:
    lam = parse_partition(args.lam)
    spec = families.family_spec(args.family)
    if spec.coeffs and sum(lam) - spec.extra > MAX_DEPTH:  # else coeff_value says no formulas
        raise ValueError(f"--lambda must be of size at most {MAX_DEPTH + spec.extra} "
                         f"(n <= {MAX_DEPTH}), got {sum(lam)}")
    value = families.coeff_value(args.family, lam)
    if args.json:
        print(json.dumps({"family": args.family,
                          "partition": format_partition(lam),
                          "coeff": None if value is None else str(value)}))
    else:
        print("not covered by the printed closed forms" if value is None else value)
    return 0


def _cmd_verify(args) -> int:
    # the bounds, then that --out opens, before any check runs: a usage error
    # costs no work, and an existing report is kept until the new one is built
    verify.check_bounds(args.max_n, args.max_deg)
    try:
        if args.out:
            open(args.out, "a").close()
    except OSError as exc:
        raise ValueError(f"cannot write --out: {exc}") from None
    results = verify.run_suites(args.suite, max_n=args.max_n, max_deg=args.max_deg,
                                seed=args.seed)
    failures = [r for r in results if r.status != "pass"]
    report = {
        "suites": args.suite,
        "max_n": args.max_n,
        "max_deg": args.max_deg,
        "seed": args.seed,
        "cases": [asdict(r) for r in results],
        "failed": len(failures),
    }
    if args.out:
        with open(args.out, "w") as out:
            json.dump(report, out, indent=2)
    if args.json:
        print(json.dumps(report))
    else:
        for r in results:
            if r.status == "pass":
                print(f"pass  {r.suite}/{r.case} ({r.expected})")
        for r in failures[:20]:
            print(f"FAIL  {r.suite}/{r.case}: expected {r.expected}, got {r.actual}")
        if len(failures) > 20:
            print(f"... and {len(failures) - 20} more failures")
        print(f"{len(results) - len(failures)} groups passed, {len(failures)} failed")
    return 1 if failures else 0


class _HelpFormatter(argparse.HelpFormatter):
    """Wraps help text at spaces only, so hyphenated family names stay whole."""

    def _split_lines(self, text, width):
        import textwrap  # as in argparse: only printing help pays for the import

        text = self._whitespace_matcher.sub(" ", text).strip()
        return textwrap.wrap(text, width, break_on_hyphens=False,
                             break_long_words=False)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chromasym",
        description="Exact chromatic symmetric functions in the elementary basis.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_csf = sub.add_parser("csf", formatter_class=_HelpFormatter,
                           help="e-expansion of a graph's chromatic symmetric function")
    p_csf.add_argument("--graph", required=True,
                       help="graph spec, e.g. path:7, twin(cycle:6,0), g:n=3;edges=0-1,1-2")
    p_csf.add_argument("--check-colorings", type=int, metavar="K",
                       help="instead of printing, compare against the K-coloring count")
    p_csf.add_argument("--json", action="store_true")
    p_csf.set_defaults(func=_cmd_csf)

    p_series = sub.add_parser("series", formatter_class=_HelpFormatter,
                              help="print a named series or one coefficient")
    p_series.add_argument("--name", required=True, help=", ".join(powerseries.SERIES_NAMES))
    p_series.add_argument("--N", type=int, default=12, help="truncation degree (default 12)")
    p_series.add_argument("--k", type=int, help="cutoff for the k-indexed families")
    p_series.add_argument("--extract", type=int, metavar="n", help="print only the z^n coefficient")
    p_series.add_argument("--json", action="store_true")
    p_series.set_defaults(func=_cmd_series)

    p_family = sub.add_parser("family", formatter_class=_HelpFormatter,
                              help="family value by any implemented method")
    p_family.add_argument("--name", required=True, help=", ".join(families.FAMILIES))
    p_family.add_argument("--n", type=int, required=True)
    p_family.add_argument("--ell", type=int)
    routes = dict.fromkeys(m for spec in families.FAMILIES.values() for m in spec.routes)
    p_family.add_argument("--method", default="all",
                          help=", ".join([*routes, "all"]) + " (default all)")
    p_family.add_argument("--json", action="store_true")
    p_family.set_defaults(func=_cmd_family)

    p_coeff = sub.add_parser("coeff", formatter_class=_HelpFormatter,
                             help="closed-form e-coefficient for a family")
    p_coeff.add_argument("--family", required=True,
                         help=", ".join(k for k, s in families.FAMILIES.items() if s.coeffs))
    p_coeff.add_argument("--lambda", dest="lam", required=True,
                         help='partition, e.g. "5,2"; "0" is the empty partition')
    p_coeff.add_argument("--json", action="store_true")
    p_coeff.set_defaults(func=_cmd_coeff)

    p_verify = sub.add_parser("verify", formatter_class=_HelpFormatter,
                              help="run the verification suites")
    p_verify.add_argument("--suite", action="append", required=True,
                          choices=list(verify.SUITES) + ["all"],
                          help="may be repeated; 'all' runs everything")
    p_verify.add_argument("--max-n", type=int, default=9,
                          help="largest graph size for oracle sweeps (default 9)")
    p_verify.add_argument("--max-deg", type=int, default=12,
                          help="series truncation / partition size cap (default 12)")
    p_verify.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    p_verify.add_argument("--out", help="also write the JSON report to this file")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=_cmd_verify)
    parser.commands = sub.choices  # name -> subcommand parser, read by main
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first main() call, not at import.  parse_args keeps no
    # state in the parser, and the help formatter reads the terminal width
    # each time help is printed, so one parser, with its subcommand parsers
    # in parser.commands, serves every call.
    return build_parser()


def main(argv=None) -> int:
    """Run one command line (sys.argv[1:] when argv is None); return its exit code.

    A call that starts with a subcommand's name is parsed once, by that
    subcommand's parser, so a usage error after it prints that subcommand's
    usage.  Anything else (no arguments, -h, an unknown command) goes to the
    top-level parser.  Usage errors and help exit through SystemExit.
    """
    if argv is None:
        argv = sys.argv[1:]
    parser = _parser()
    command = parser.commands.get(argv[0]) if argv else None
    args = command.parse_args(argv[1:]) if command else parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
