"""One benchmark process: set up a workload, run its timed loop, check it.

run.py starts this file in a fresh interpreter with a clean environment.
The clock for set-up starts before `import multifractal` and stops when the
workload's inputs exist. With --setup-only the process stops there.

Otherwise one client runs tasks back to back (a closed loop) for --seconds,
finishing the task in flight. Outputs are checked by the workload's oracles
after the clock stops, so checks do not count as work. With --trace 1 each
input runs twice in a row, once traced and once not, alternating which goes
first; per-layer metrics come from the traced half, and the ratio of the
two halves' task rates is the tracing overhead.

The last line of stdout is one JSON object for run.py.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("spectrum", "symbolic", "geometry", "cli")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def tail(latencies):
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples above it, or the maximum when there are fewer."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def machine_tag() -> str:
    import numpy
    import scipy
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count()
    return (f"machine nproc={cpus} python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy.__version__}")


def timed_loop(wl, inputs, seconds, tracer):
    """Run tasks until `seconds` have passed; returns (records, elapsed)."""
    records = []
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        if tracer is None:
            index, traced = i, False
        else:  # pairs of one input, traced half first on odd pairs
            index, traced = i // 2, (i % 2) != (i // 2) % 2
        inp = inputs[index % len(inputs)]
        if traced:
            tracer.enabled = True
            tracer.begin_task(i)
        t = time.perf_counter()
        try:
            out = wl.run(inp, traced)
        except Exception:  # an unexpected raise is a failed task
            out = RuntimeError(traceback.format_exc())
        latency = time.perf_counter() - t
        if traced:
            tracer.enabled = False
            if not isinstance(out, Exception):
                wl.record(tracer, out)
            tracer.end_task()
        records.append((index, traced, latency, out))
        i += 1
        if time.perf_counter() >= deadline and (tracer is None or i % 2 == 0):
            return records, time.perf_counter() - start


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = time.perf_counter()
    import workloads
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.make_inputs(args.seed)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import multifractal
    src = (HERE.parent / "src").resolve()
    if src not in Path(multifractal.__file__).resolve().parents:
        print(f"multifractal was imported from {multifractal.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2

    wl.run(inputs[0])  # warm-up: first-call costs a user pays once
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        workloads.install(tracer)
    records, elapsed = timed_loop(wl, inputs, args.seconds, tracer)
    # for cli the work runs in child processes: the largest one counts
    usage = resource.RUSAGE_CHILDREN if wl.name == "cli" \
        else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0

    failed, problems = 0, []
    first = {}
    for index, _, _, out in records:
        inp = inputs[index % len(inputs)]
        found = [("raised", str(out))] if isinstance(out, Exception) \
            else wl.check(inp, out)
        if found:
            failed += 1
            problems.extend(f"task {index}: {name}: {detail}"
                            for name, detail in found[:2])
        first.setdefault(index, out)
    lines = [machine_tag(),
             f"workload {wl.name} seed {args.seed} trace {args.trace}: closed "
             f"loop, 1 client, {len(records)} tasks in {elapsed:.3f} s"]
    if wl.digest_tasks:
        recs = []
        for index in range(wl.digest_tasks):
            out = first[index] if index in first else wl.run(inputs[index])
            recs.append(None if isinstance(out, Exception)
                        else wl.digest_record(inputs[index], out))
        lines.append(f"digest.{wl.name} {workloads.digest(recs)} over inputs "
                     f"0..{wl.digest_tasks - 1}")
    lines.extend(problems[:10])

    metrics = {}
    if tracer is None:
        latencies = [lat * 1e3 for _, _, lat, _ in records]
        value, pct, beyond = tail(latencies)
        metrics["tasks_per_s"] = (len(records) / elapsed, "1/s")
        metrics["task_p50_ms"] = (statistics.median(latencies), "ms")
        metrics["task_tail_ms"] = (value, "ms")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        lines.append(f"task_tail_ms is p{pct:.2f} of {len(latencies)} "
                     f"samples, {beyond} beyond it")
    else:
        busy = {True: 0.0, False: 0.0}
        count = {True: 0, False: 0}
        for _, traced, lat, _ in records:
            busy[traced] += lat
            count[traced] += 1
        traced_rate = count[True] / busy[True]
        metrics.update(workloads.layer_metrics(tracer, count[True]))
        metrics["trace.tasks_per_s"] = (traced_rate, "1/s")
        metrics["trace.overhead_frac"] = (
            count[False] / busy[False] / traced_rate - 1.0, "frac")
        spans = workloads.OUT / f"spans-{wl.name}-seed{args.seed}.json"
        tracer.write_spans(spans)
        lines.append(f"{len(tracer.spans)} spans written to "
                     f"{spans.relative_to(HERE.parent)}")
    lines.append(f"failed_frac {failed / len(records)} frac ({failed} failed "
                 f"of {len(records)} attempted)")
    print(json.dumps({
        "setup_s": setup_s, "correct": failed == 0,
        "attempted": len(records), "failed": failed, "lines": lines,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
