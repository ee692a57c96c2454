"""Benchmark of the multifractal package: one workload, one seed, one run.

    python3 perfbench/run.py --workload spectrum --seed 1 --seconds 25 \
        --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a checkout; the package is imported from ./src and
nothing is installed. Every workload runs in fresh interpreters that this
script starts one at a time, with MFA_THREADS removed and the BLAS/OpenMP
thread pools pinned to one thread:

- one warm-up interpreter that only sets up (it compiles the bytecode a
  user's installation already has);
- SETUPS - 1 more set-up-only interpreters, plus the measuring one, whose
  set-up times give the median `setup_s` (untraced runs only);
- the measuring interpreter (worker.py), which runs the closed loop.

Every metric is printed by name with its unit; the last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones. The exit code is 0 only when every oracle check passed.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("spectrum", "symbolic", "geometry", "cli")
SETUPS = 5
DEADLINE_S = 170.0  # every run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    pass


def clean_env() -> dict:
    env = dict(os.environ)
    env.pop("MFA_THREADS", None)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def worker(args, deadline: float, *extra) -> dict:
    """Run worker.py once; returns its JSON line."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the measuring run")
    # its own session, so a timeout also ends the CLI processes it started
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, cwd=ROOT, env=clean_env(),
                          start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(
                f"worker did not finish within {remaining:.0f} s") from exc
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}:\n"
                         f"{stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def run_workload(args, deadline: float) -> dict:
    setups = []
    if not args.trace:
        worker(args, deadline, "--setup-only")  # warm-up, not counted
        for _ in range(SETUPS - 1):
            setups.append(worker(args, deadline, "--setup-only")["setup_s"])
    result = worker(args, deadline)
    metrics = result["metrics"]
    if not args.trace:
        setups.append(result["setup_s"])
        setup = {"value": statistics.median(setups), "unit": "s"}
        metrics = {"setup_s": setup, **metrics}
    for line in result["lines"]:
        print(line)
    if setups:
        print(f"setup_s samples {' '.join(f'{v:.4f}' for v in setups)} s "
              f"(median of {len(setups)} fresh interpreters)")
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "multifractal" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'multifractal'}; run "
              f"from a checkout of the repository", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    results = {}
    try:
        for name in names:
            args.workload = name
            results[name] = run_workload(args, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {n: r["metrics"] for n, r in results.items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
