"""chromasym benchmark: one workload, measured end to end or traced by layer.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 28 --trace 0

Run from the root of a source checkout.  Each repetition of the workload runs
in a fresh interpreter (cold module memos), one at a time: a closed loop with
one client.  The first repetition's answers are checked against independent
routes; later repetitions must print the same answers.  Set-up time is also
sampled in a few set-up-only interpreters.

Prints a table of metrics with units, a line of run metadata, and as the last
line one JSON object {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are the
per-layer ones from traced repetitions, plus the tracing overhead.  Exits 0
when every answer is correct, 1 when one is not, 2 when the checkout or the
arguments are unusable.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import CLASSES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
# a run must end within 180 s: no repetition starts after DEADLINE_S, and
# every child is killed once CHILD_TIMEOUT_S have passed since the run began
DEADLINE_S = 150
CHILD_TIMEOUT_S = 170
EXTRA_UNITS = {"failed_ratio": "ratio", "repetitions": "count", "trace.untraced_wall_s": "s"}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    env = dict(os.environ)
    # csf re-reads the vertex bound on every call; an outside value would
    # change the work.  The child puts the checkout's src first itself.
    for var in ("CHROMASYM_MAX_N", "PYTHONPATH", "PYTHONSTARTUP"):
        env.pop(var, None)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, mode: str, gate: bool, spans: Path | None, timeout: float) -> dict | None:
    cmd = [sys.executable, str(HERE / "child.py"), str(ROOT), args.workload,
           str(args.seed), mode, "1" if gate else "0"]
    if spans:
        cmd.append(str(spans))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        print(f"perfbench: {mode} child timed out", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: {mode} child exited {proc.returncode}\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    record = json.loads(lines[-1])
    if not Path(record["package"]).resolve().is_relative_to(ROOT / "src"):
        fail(f"child imported chromasym from {record['package']}, not this checkout")
    return record


def commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "chromasym").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def tail(values: list[float], q: float = 0.99) -> float:
    """Nearest-rank q-quantile, lowered so that ten samples stay beyond it.

    With too few samples for that (under 21) it is the median.
    """
    ordered = sorted(values)
    rank = min(math.ceil(q * len(ordered)), len(ordered) - 10)
    if rank < math.ceil(len(ordered) / 2):
        return statistics.median(ordered)
    return ordered[rank - 1]


def repetitions(args, out_dir: Path, started: float) -> list:
    """(mode, record or None) for each repetition run within --seconds.

    The first repetition is untraced and gated; with --trace 1 untraced and
    traced repetitions alternate, at least one of each.
    """
    remaining = lambda: CHILD_TIMEOUT_S - (time.monotonic() - started)
    need = {"run", "trace"} if args.trace else {"run"}
    spans = out_dir / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
    reps: list[tuple[str, dict | None]] = []
    budget_start = time.monotonic()
    last = 0.0
    while True:
        used = time.monotonic() - budget_start
        if (time.monotonic() - started > DEADLINE_S
                or need <= {m for m, _ in reps} and used + last > args.seconds):
            return reps
        mode = "trace" if args.trace and reps and reps[-1][0] == "run" else "run"
        t = time.monotonic()
        record = run_child(args, mode, gate=not reps,
                           spans=spans if mode == "trace" else None, timeout=remaining())
        last = time.monotonic() - t
        reps.append((mode, record))
        if record is None:
            return reps


def count_failures(reps) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages): the gated first repetition's verdicts,
    then every later answer compared with the first by digest."""
    reference = reps[0][1]
    attempted = failed = 0
    problems = []
    for mode, record in reps:
        if record is None:
            attempted += 1
            failed += 1
            problems.append(f"a {mode} repetition crashed")
            continue
        attempted += len(record["digests"])
        if record is reference:
            failed += len(record["bad"])
            problems += [f"op {i}: {msg}" for i, msg in sorted(record["bad"].items())[:10]]
        elif reference is not None:
            moved = sum(a != b for a, b in zip(record["digests"], reference["digests"]))
            failed += moved
            if moved:
                problems.append(f"{moved} answers changed between repetitions ({mode})")
    return attempted, failed, problems


def end_to_end(workload: str, setups: list[dict], runs: list[dict]) -> dict[str, float]:
    # a query is one CLI call on query-mix; on the batch workloads it is the
    # whole repetition, which is what a user of them waits for
    if workload == "query-mix":
        latencies_ms = [x * 1000 for r in runs for x in r["lat_s"]]
    else:
        latencies_ms = [r["wall_s"] * 1000 for r in runs]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in setups + runs),
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "peak_rss_mib": statistics.median(r["rss_mib"] for r in runs),
        "query_p50_ms": statistics.median(latencies_ms),
        "query_p99_ms": tail(latencies_ms),
    }


def per_layer(runs: list[dict], traced: list[dict]) -> dict[str, float]:
    values = {name: statistics.median(r["layers"][name] for r in traced)
              for name in traced[0]["layers"]}
    values["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                  - statistics.median(r["wall_s"] for r in runs))
    return values


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(CLASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "chromasym" / "__init__.py").is_file():
        fail(f"no chromasym sources under {ROOT / 'src'}; run from a source checkout")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}

    started = time.monotonic()
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    setups = []
    for _ in range(SETUP_PROBES):
        record = run_child(args, "setup", False, None, CHILD_TIMEOUT_S)
        if record is None:
            fail("set-up failed")
        setups.append(record)
    reps = repetitions(args, out_dir, started)

    attempted, failed, problems = count_failures(reps)
    runs = [r for m, r in reps if m == "run" and r is not None]
    traced = [r for m, r in reps if m == "trace" and r is not None]
    for problem in problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)

    values: dict[str, float] = {}
    extra: dict[str, float] = {"failed_ratio": failed / attempted}
    if runs and not args.trace:
        values = end_to_end(args.workload, setups, runs)
        extra["repetitions"] = len(runs)
    elif runs and traced:
        values = per_layer(runs, traced)
        extra["repetitions"] = len(traced)
        extra["trace.untraced_wall_s"] = statistics.median(r["wall_s"] for r in runs)
    else:
        failed = max(failed, 1)
    if values and set(values) != set(units):
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    for name, value in sorted({**extra, **values}.items()):
        unit = units.get(name, EXTRA_UNITS.get(name, ""))
        print(f"{name:40s} {value:>16.6g} {unit}")

    meta = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit(), "source_sha256": source_digest()}
    print("meta " + json.dumps(meta))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    walls = {mode: [r["wall_s"] for m, r in reps if m == mode and r] for mode in ("run", "trace")}
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, **result, "table": {**extra, **values},
                    "setup_samples_s": [r["setup_s"] for r in setups],
                    "repetition_wall_s": walls}, indent=1))
    print(json.dumps(result))
    sys.exit(0 if failed == 0 else 1)


if __name__ == "__main__":
    main()
