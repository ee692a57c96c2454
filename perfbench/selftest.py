"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Checks, from the root of a checkout:
1. the same seed generates identical inputs, and another seed other ones;
2. each oracle check passes on a real task and flags a planted wrong value
   (a perturbed enclosure, an f off by 1e-6, a wrong count, a bad exit);
3. BENCHMARK.json keeps its contract, and every metric that a one-second
   run of each workload emits, traced and untraced, is declared there with
   the same unit and a name matching [A-Za-z0-9_.-]+.
Prints one line per failed expectation and exits 1 if there was any.
"""

import copy
import json
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
os.environ["PYTHONPATH"] = str(ROOT / "src")  # for the CLI subprocesses

import workloads as W  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
FAILURES = []


def expect(ok: bool, what: str) -> None:
    if not ok:
        FAILURES.append(what)
        print(f"FAIL {what}", flush=True)


def test_inputs_are_seeded():
    for name, wl in W.WORKLOADS.items():
        first, again, other = (repr(wl.make_inputs(seed))
                               for seed in (7, 7, 8))
        expect(first == again, f"{name}: seed 7 gave different inputs twice")
        expect(first != other, f"{name}: seeds 7 and 8 gave the same inputs")


def planted(wl, inp, res, plant, check_name: str) -> None:
    """Apply plant to a copy of a passing result; the named check must fire."""
    bad = copy.deepcopy(res)
    plant(bad)
    names = {name for name, _ in wl.check(inp, bad)}
    expect(check_name in names,
           f"{wl.name}: check {check_name!r} missed its planted value "
           f"(flagged {sorted(names)})")


def set_item(key, index, value):
    def plant(res):
        res[key][index] = value(res[key][index])
    return plant


def test_spectrum_checks():
    wl = W.WORKLOADS["spectrum"]
    inp = wl.make_inputs(7)[0]
    res = wl.run(inp)
    expect(wl.check(inp, res) == [], f"spectrum: clean task flagged "
                                     f"{wl.check(inp, res)}")
    planted(wl, inp, res, set_item("tau", W.Q1, lambda v: v + 1e-9), "tau1")
    planted(wl, inp, res, set_item("tau", 20, lambda v: v + 1.0), "convex")
    planted(wl, inp, res, set_item("f", 0, lambda v: v + 1e-3), "legendre")
    planted(wl, inp, res, set_item("f", W.PEAK, lambda v: v + 1e-6), "peak")
    planted(wl, inp, res, set_item("f_bar", 0, lambda v: v + 1e-6), "f_bar")


def test_geometry_checks():
    wl = W.WORKLOADS["geometry"]
    inputs = wl.make_inputs(7)
    s1, uniform, gapped = inputs[0], inputs[1], inputs[2]
    runs = {kind: (inp, wl.run(inp)) for kind, inp in
            (("S1", s1), ("UNIFORM", uniform), ("gapped", gapped))}
    for kind, (inp, res) in runs.items():
        flagged = wl.check(inp, res)
        expect(flagged == [], f"geometry: clean {kind} task flagged {flagged}")
    inp, res = runs["gapped"]
    planted(wl, inp, res, set_item(
        "rows", 5, lambda row: (row[0], row[2] + 1e-3, row[2])), "order")
    big = res["rows"][0][2] + 1e-6
    planted(wl, inp, res, set_item("rows", -1, lambda row: (row[0], big, big)),
            "monotone")
    inp, res = runs["UNIFORM"]
    planted(wl, inp, res, set_item(
        "balls", 0, lambda b: (b[0] - 1e-9, b[1], b[2])), "uniform")
    inp, res = runs["S1"]
    planted(wl, inp, res, set_item(
        "balls", 0, lambda b: (b[0] - 1e-11, b[1], b[2])), "s1_dyadic")


def test_symbolic_checks():
    wl = W.WORKLOADS["symbolic"]
    inputs = wl.make_inputs(7)
    inp = inputs[1]  # S1 at n = 128: the construction succeeds
    res = wl.run(inp)
    flagged = wl.check(inp, res)
    expect(res["refused"] is None and flagged == [],
           f"symbolic: clean task refused or flagged {flagged}")
    planted(wl, inp, res, set_item("dims", 0, lambda v: 10.0), "sandwich")
    planted(wl, inp, res, lambda r: r.update(estimate=r["estimate"] + 0.05),
            "greedy")
    planted(wl, inp, res, lambda r: r.update(refused=(0.9, 0.8)), "refusal")
    key = inp[:2]
    true_count = wl._full_counts[key]
    wl._full_counts[key] = true_count + 1  # the library miscounting blocks
    planted(wl, inp, res, lambda r: None, "block_count")
    wl._full_counts[key] = true_count


def test_cli_checks():
    wl = W.WORKLOADS["cli"]
    inp = wl.make_inputs(7)[0]
    res = wl.run(inp)
    expect(wl.check(inp, res) == [], f"cli: clean task flagged "
                                     f"{wl.check(inp, res)}")
    planted(wl, inp, res, lambda r: r.update(code=1), "exit")
    planted(wl, inp, res, lambda r: r.update(
        stderr="Traceback (most recent call last):\n"), "traceback")
    planted(wl, inp, res, lambda r: r.update(stdout=r["stdout"] + b"0"),
            "stdout")


def test_benchmark_json_and_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, "BENCHMARK.json: keys")
    names = [w["name"] for w in spec["workloads"]]
    expect(names == list(W.WORKLOADS), f"BENCHMARK.json: workloads {names}")
    declared = {}
    for section in ("end_to_end", "per_layer"):
        declared[section] = {m["name"]: m["unit"] for m in spec[section]}
        for m in spec[section]:
            expect(NAME.fullmatch(m["name"]) is not None,
                   f"bad name {m['name']}")
            expect(m["better"] in ("higher", "lower"), f"{m['name']}: better")
            if section == "end_to_end":
                expect(0 < m["bound"] <= 0.25, f"{m['name']}: bound")
    expect(declared["end_to_end"].get("setup_s") == "s", "setup_s missing")
    design = json.loads((HERE / "design.json").read_text())
    expect(list(design["workloads"]) == names, "design.json: workloads")
    expect(set(design["per_layer"]) == set(declared["per_layer"]),
           "design.json: per-layer metrics differ from BENCHMARK.json")
    for metric, moves in design["per_layer"].items():
        for workload, targets in moves.items():
            expect(workload in names
                   and set(targets) <= set(declared["end_to_end"]),
                   f"design.json: {metric} maps to {workload}: {targets}")
    for name in names:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [*spec["command"], "--workload", name, "--seed", "3",
                   "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=180)
            what = f"{name} --trace {trace}"
            expect(proc.returncode == 0, f"{what}: exit {proc.returncode}: "
                                         f"{proc.stderr[-500:]}")
            if proc.returncode:
                continue
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(last) == {"correct", "attempted", "failed", "metrics"},
                   f"{what}: result keys {sorted(last)}")
            expect(last["correct"] and last["failed"] == 0, f"{what}: failed")
            emitted = {k: v["unit"] for k, v in last["metrics"].items()}
            differ = sorted(set(emitted.items())
                            ^ set(declared[section].items()))
            expect(not differ, f"{what}: emitted and declared metrics or "
                               f"units differ: {differ}")
            for k, v in last["metrics"].items():
                expect(NAME.fullmatch(k) is not None, f"{what}: name {k}")
                expect(isinstance(v["value"], (int, float)),
                       f"{what}: {k} value")


def main() -> int:
    for test in (test_inputs_are_seeded, test_spectrum_checks,
                 test_geometry_checks, test_symbolic_checks, test_cli_checks,
                 test_benchmark_json_and_emitted_metrics):
        print(f"{test.__name__} ...", flush=True)
        test()
    print(f"{len(FAILURES)} failed expectation(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
