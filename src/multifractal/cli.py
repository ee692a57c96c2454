"""Command-line front end.

Exit codes: 0 success, 1 computational error (reported as "ErrorName: cause"
on stderr), 2 usage error. Output is byte-stable for a fixed config.

Each subcommand is declared once, in `_build_parser`: its handler, its
output formats, and its arguments, whose argparse types parse and check
each value, so handlers receive numbers, arrays and tuples.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import re
import sys

import numpy as np

from .errors import MultifractalError, UsageError
from .geometry1d import (
    assouad_scan,
    ball_measure,
    doubling_scan,
    non_doubling_witness,
)
from .spectrum import spectrum_table
from .symbolic import (
    abundance_report,
    assouad_estimate,
    greedy_word,
    moran_construct,
    moran_dimension,
    window_sups,
)
from .system import COUNT_CAP, Word, load_system, word_stats
from .tables import emit_object, emit_table

# largest grid count, word or spine length taken from argv, before allocation
MAX_COUNT = COUNT_CAP


class _HelpShown(Exception):
    """-h or --help printed its help; main returns 0."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); raise instead
        raise UsageError(message)

    def exit(self, status=0, message=None):  # reached only by -h / --help
        raise _HelpShown


def parse_linear_grid(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid {spec!r} is not of the form lo:hi:count")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise UsageError(f"bad grid {spec!r}: {exc}") from exc
    if not 0 <= count <= MAX_COUNT:
        raise UsageError(f"grid count must lie in [0, {MAX_COUNT}]")
    # an infinite end or span leaves a NaN in the grid; solve_tau refuses it
    with np.errstate(invalid="ignore", over="ignore"):
        return np.linspace(lo, hi, count)


_SCALE_RE = re.compile(
    r"^\s*([0-9eE.+-]+)\s*\^\s*\(\s*-\s*k\s*\)\s*,\s*k\s*=\s*(\d+)\s*\.\.\s*(\d+)\s*$")


def parse_scale_grid(spec: str) -> np.ndarray:
    """Either 'base^(-k), k=k0..k1' or a comma-separated list of radii."""
    match = _SCALE_RE.match(spec)
    if match:
        base = float(match.group(1))
        k0, k1 = int(match.group(2)), int(match.group(3))
        if base <= 1.0 or k1 < k0:
            raise UsageError(f"bad scale grid {spec!r}")
        if k1 - k0 >= MAX_COUNT:
            raise UsageError(f"scale grid {spec!r} exceeds {MAX_COUNT} scales")
        return base ** -np.arange(k0, k1 + 1, dtype=float)
    try:
        return np.array([float(tok) for tok in spec.split(",") if tok.strip()])
    except ValueError as exc:
        raise UsageError(f"bad scale grid {spec!r}: {exc}") from exc


def _checked(kind, test, rule):
    """An argparse type: kind(text), refused unless test(value) holds.

    Tests are one-sided where NaN must pass on to the library's own
    DomainError: "positive" refuses v <= 0, not everything but v > 0.
    """
    def convert(text):
        value = kind(text)
        if not test(value):
            raise argparse.ArgumentTypeError(f"{text!r} must be {rule}")
        return value
    convert.__name__ = kind.__name__  # argparse names it in "invalid ... value"
    return convert


_POSITIVE = _checked(float, lambda v: not v <= 0, "positive")
_COUNT = _checked(int, lambda v: v >= 1, "a positive integer")
_LENGTH = _checked(int, lambda v: 1 <= v <= MAX_COUNT, f"in [1, {MAX_COUNT}]")


def _window_range(spec: str) -> tuple[int, int]:
    lo, hi = (int(v) for v in spec.split(":"))  # ValueError unless two ints
    if not 1 <= lo <= hi:
        raise argparse.ArgumentTypeError("windows must satisfy 1 <= n_lo <= n_hi")
    return lo, hi


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-s", "--system", required=True,
                        help="path to a system JSON file")
    common.add_argument("-o", "--output", default=None,
                        help="output path (default: stdout)")

    parser = _Parser(prog="multifractal",
                     description="multifractal spectra, symbolic estimators, "
                                 "and rigorous 1D ball-measure scans")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help, formats=("csv", "json")):
        p = sub.add_parser(name, parents=[common], help=help)
        p.add_argument("--format", choices=formats, default=formats[0])
        p.set_defaults(run=run)
        return p

    p = command("spectrum", _run_spectrum,
                "tabulate q, tau, alpha, f, f_bar over a q grid")
    p.add_argument("--q-grid", type=parse_linear_grid, default="-10:10:201",
                   help="lo:hi:count")

    p = command("assouad-word", _run_assouad_word,
                "sliding-window Assouad estimate along a word")
    p.add_argument("--word", type=_checked(str, bool, "nonempty"),
                   required=True,
                   help="digit string; repeated periodically if --length "
                        "exceeds it")
    p.add_argument("--length", type=_LENGTH, default=None)
    p.add_argument("--windows", type=_window_range, default="100:1000",
                   help="window length range n_lo:n_hi")
    p.add_argument("--per-window", action="store_true",
                   help="emit one row per window length instead of a summary")

    p = command("greedy", _run_greedy,
                "construct the word chasing a target exponent")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--length", type=_LENGTH, default=1000)

    p = command("moran", _run_moran,
                "interleaved Moran construction and stage dimensions",
                formats=("json",))
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--epsilon", type=_POSITIVE, required=True)
    p.add_argument("--n", type=_COUNT, required=True, help="block length")
    p.add_argument("--stages", type=_COUNT, default=20)

    p = command("ball", _run_ball, "rigorous enclosure of mu(B(x, r))")
    p.add_argument("-x", type=float, required=True)
    p.add_argument("-r", type=_POSITIVE, required=True)
    p.add_argument("--tol", type=_POSITIVE, default=1e-12)
    p.add_argument("--depth-cap", type=_COUNT, default=None)

    p = command("doubling-scan", _run_doubling_scan,
                "doubling-ratio intervals over a scale grid")
    p.add_argument("-x", type=float, required=True)
    p.add_argument("--gamma", type=_checked(float, lambda v: not v <= 1,
                                            "above 1"), default=2.0)
    p.add_argument("--scales", type=parse_scale_grid,
                   default="2^(-k), k=1..40")
    p.add_argument("--rel-tol", type=_POSITIVE, default=1e-9)

    p = command("assouad-scan", _run_assouad_scan,
                "certified pointwise Assouad lower bound at x")
    p.add_argument("-x", type=float, required=True)
    p.add_argument("--scales", type=parse_scale_grid,
                   default="2^(-k), k=1..40")
    p.add_argument("--min-ratio", type=_checked(float, lambda v: not v < 1,
                                                "at least 1"), default=4.0)
    p.add_argument("--rel-tol", type=_POSITIVE, default=1e-9)

    p = command("witness", _run_witness,
                "search for a non-doubling witness pair", formats=("json",))
    p.add_argument("--n-target", type=_POSITIVE, required=True)
    p.add_argument("--depth-cap", type=_COUNT, default=32)

    p = command("abundance", _run_abundance,
                "finite-n abundance diagnostics for a tail word")
    p.add_argument("--n", type=_COUNT, required=True)
    p.add_argument("--delta", type=_checked(float, lambda v: 0 < v <= 1,
                                            "in (0, 1]"), required=True)
    p.add_argument("--kappa", default="12")

    return parser


def parse_config(argv) -> argparse.Namespace:
    """Parsed and checked argv; `run` is the subcommand's handler."""
    argv = list(argv)
    # argparse mistakes a leading-minus grid value for a flag; join with '='
    joined = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--q-grid" and i + 1 < len(argv):
            joined.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            joined.append(tok)
            i += 1
    ns = _build_parser().parse_args(joined)
    if not os.path.isfile(ns.system):
        raise UsageError(f"system file {ns.system!r} not found")
    if ns.command == "moran" and ns.n * ns.stages > MAX_COUNT:
        raise UsageError(
            f"the spine, n * stages letters, must not exceed {MAX_COUNT}")
    return ns


def _run_spectrum(sys_, ns):
    rows = [dataclasses.asdict(row) for row in spectrum_table(sys_, ns.q_grid)]
    emit_table(rows, ns.format, ns.output,
               header=["q", "tau", "alpha", "f", "f_bar"])


def _run_assouad_word(sys_, ns):
    word = Word.from_string(ns.word)
    if ns.length is not None and ns.length > len(word):
        word = Word.periodic(word, ns.length)
    lo, hi = ns.windows
    if ns.per_window:
        rows = [{"n": n, "sup_ratio": float(s)} for n, s in
                enumerate(window_sups(sys_, word, ns.windows), start=lo)]
        emit_table(rows, ns.format, ns.output)
    else:
        est = assouad_estimate(sys_, word, ns.windows)
        emit_table([{"length": len(word), "window_lo": lo, "window_hi": hi,
                     "estimate": est.estimate}], ns.format, ns.output)


def _run_greedy(sys_, ns):
    word = greedy_word(sys_, ns.alpha, ns.length)
    stats = word_stats(sys_, word)
    emit_table([{"alpha": ns.alpha, "length": len(word), "word": str(word),
                 "prefix_ratio": stats.ratio}], ns.format, ns.output)


def _run_moran(sys_, ns):
    spec = moran_construct(sys_, ns.alpha, ns.epsilon, ns.n, ns.stages)
    obj = spec.to_json_dict()
    obj["s_k"] = [moran_dimension(spec, k) for k in range(1, ns.stages + 1)]
    emit_object(obj, ns.output)


def _run_ball(sys_, ns):
    b = ball_measure(sys_, ns.x, ns.r, ns.tol, ns.depth_cap)
    emit_table([{"x": ns.x, "r": ns.r, "lower": b.lower, "upper": b.upper,
                 "depth_used": b.depth_used,
                 "straddle_mass": b.straddle_mass}], ns.format, ns.output)


def _run_doubling_scan(sys_, ns):
    scan = doubling_scan(sys_, ns.x, ns.gamma, ns.scales, rel_tol=ns.rel_tol)
    rows = [{"r": row.r, "lower": row.lower, "upper": row.upper,
             "ratio_lower": row.ratio_lower, "ratio_upper": row.ratio_upper}
            for row in scan.rows]
    emit_table(rows, ns.format, ns.output,
               header=["r", "lower", "upper", "ratio_lower", "ratio_upper"])


def _run_assouad_scan(sys_, ns):
    value = assouad_scan(sys_, ns.x, ns.scales, min_ratio=ns.min_ratio,
                         rel_tol=ns.rel_tol)
    emit_table([{"x": ns.x, "estimate": value, "n_scales": len(ns.scales)}],
               ns.format, ns.output)


def _run_witness(sys_, ns):
    pair = non_doubling_witness(sys_, ns.n_target, ns.depth_cap)
    if pair is None:
        emit_object({"found": False, "n_target": ns.n_target,
                     "depth_cap": ns.depth_cap}, ns.output)
    else:
        obj = {"found": True, "n_target": ns.n_target}
        obj.update(pair.to_json_dict(sys_))
        emit_object(obj, ns.output)


def _run_abundance(sys_, ns):
    rep = abundance_report(sys_, ns.n, ns.delta, ns.kappa or None)
    emit_table([{"n": rep.n, "delta": rep.delta, "kappa": rep.kappa,
                 "a1_min_ratio": rep.a1_min_ratio,
                 "a2_delta_dense": rep.a2_delta_dense}], ns.format, ns.output)


def run(config: argparse.Namespace) -> int:
    try:
        config.run(load_system(config.system), config)
        return 0
    except MultifractalError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    try:
        config = parse_config(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"UsageError: {exc}", file=sys.stderr)
        return 2
    except _HelpShown:
        return 0
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
