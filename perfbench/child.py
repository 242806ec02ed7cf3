"""One repetition of one workload, in a fresh interpreter.

Run by run.py, never by hand:

    python3 perfbench/child.py ROOT WORKLOAD SEED MODE GATE [SPANS_PATH]

MODE is ``setup`` (import and build the inputs, then stop), ``run`` or
``trace`` (also install the span tracer).  GATE 1 checks every answer after
the timed region.  The last line of stdout is one JSON record.
"""

import sys
import time

_T0 = time.perf_counter()


def main() -> None:
    root, workload, seed, mode, gate = sys.argv[1:6]
    sys.path[:0] = [f"{root}/src", f"{root}/perfbench"]
    import importlib

    import workloads

    mods = {m: importlib.import_module(f"chromasym.{m}") for m in workloads.MODULES}
    load = workloads.CLASSES[workload](mods, int(seed))
    ops = load.ops()
    setup_s = time.perf_counter() - _T0

    import hashlib
    import json
    import resource

    package = sys.modules["chromasym"].__file__
    record = {"setup_s": setup_s, "package": package}
    if mode == "setup":
        print(json.dumps(record))
        return

    tracer = None
    if mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        tracer.active = True

    values, latencies = [], []
    clock = time.perf_counter
    start = clock()
    for op in ops:
        t = clock()
        try:
            value = op()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            value = workloads.OpError(exc)
        latencies.append(clock() - t)
        values.append(value)
    wall_s = clock() - start
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.active = False

    record.update(wall_s=wall_s, lat_s=latencies, rss_mib=rss_mib,
                  digests=[hashlib.sha256(workloads.render(v).encode()).hexdigest()[:16]
                           for v in values])
    if gate == "1":
        record["bad"] = {str(i): f"{load.labels[i]}: {msg}"
                         for i, msg in load.gate(values).items()}
    if tracer:
        record["layers"] = {**tracer.summary(), **workloads.counts(load, values)}
        if len(sys.argv) > 6:
            tracer.write(sys.argv[6])
    print(json.dumps(record))


if __name__ == "__main__":
    main()
