"""`python -m multifractal.cli` with its stages timed, for the traced run.

Behaves like the console entry point: same stdout, stderr and exit code.
Its last stderr line is `PERFBENCH_PROBE {json}`, mapping each per-layer
metric name to the (start, end) perf_counter pair of that stage. On Linux
perf_counter reads the system-wide monotonic clock, so the parent can place
these spans inside its own.
"""

import json
import sys
import time

start = time.perf_counter()
from multifractal import cli  # noqa: E402
from multifractal.errors import UsageError  # noqa: E402

stages = {"cli.import_s": (start, time.perf_counter())}
load_system = cli.load_system


def timed_load_system(source):
    t = time.perf_counter()
    try:
        return load_system(source)
    finally:
        stages["system.load_system.busy_s"] = (t, time.perf_counter())


def main() -> int:
    cli.load_system = timed_load_system
    t = time.perf_counter()
    try:
        config = cli.parse_config(sys.argv[1:])
    except UsageError as exc:
        print(f"UsageError: {exc}", file=sys.stderr)
        return 2
    finally:
        stages["cli.parse_config.busy_s"] = (t, time.perf_counter())
    t = time.perf_counter()
    code = cli.run(config)
    stages["cli.run.busy_s"] = (t, time.perf_counter())
    return code


if __name__ == "__main__":
    code = main()
    sys.stdout.flush()
    print("PERFBENCH_PROBE " + json.dumps(stages), file=sys.stderr)
    sys.exit(code)
