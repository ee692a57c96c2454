"""Command-line front end.

Exit codes: 0 success, 1 computational error (reported as "ErrorName: cause"
on stderr), 2 usage error. Output is byte-stable for a fixed config.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass

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
)
from .system import Word, load_system, word_stats
from .tables import emit_object, emit_table

_JSON_ONLY = {"moran", "witness"}
# largest grid count, word or spine length taken from argv, before allocation
MAX_COUNT = 10 ** 7


@dataclass
class RunConfig:
    command: str
    system_path: str
    params: argparse.Namespace
    output: str | None
    format: str


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); raise instead
        raise UsageError(message)


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


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-s", "--system", required=True,
                        help="path to a system JSON file")
    common.add_argument("-o", "--output", default=None,
                        help="output path (default: stdout)")
    common.add_argument("--format", choices=("csv", "json"), default=None)

    parser = _Parser(prog="multifractal",
                     description="multifractal spectra, symbolic estimators, "
                                 "and rigorous 1D ball-measure scans")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", parents=[common],
                       help="tabulate q, tau, alpha, f, f_bar over a q grid")
    p.add_argument("--q-grid", default="-10:10:201", help="lo:hi:count")

    p = sub.add_parser("assouad-word", parents=[common],
                       help="sliding-window Assouad estimate along a word")
    p.add_argument("--word", required=True,
                   help="digit string; repeated periodically if --length "
                        "exceeds it")
    p.add_argument("--length", type=int, default=None)
    p.add_argument("--windows", default="100:1000",
                   help="window length range n_lo:n_hi")
    p.add_argument("--per-window", action="store_true",
                   help="emit one row per window length instead of a summary")

    p = sub.add_parser("greedy", parents=[common],
                       help="construct the word chasing a target exponent")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--length", type=int, default=1000)

    p = sub.add_parser("moran", parents=[common],
                       help="interleaved Moran construction and stage dimensions")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--n", type=int, required=True, help="block length")
    p.add_argument("--stages", type=int, default=20)

    p = sub.add_parser("ball", parents=[common],
                       help="rigorous enclosure of mu(B(x, r))")
    p.add_argument("-x", type=float, required=True)
    p.add_argument("-r", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--depth-cap", type=int, default=None)

    p = sub.add_parser("doubling-scan", parents=[common],
                       help="doubling-ratio intervals over a scale grid")
    p.add_argument("-x", type=float, required=True)
    p.add_argument("--gamma", type=float, default=2.0)
    p.add_argument("--scales", default="2^(-k), k=1..40")
    p.add_argument("--rel-tol", type=float, default=1e-9)

    p = sub.add_parser("assouad-scan", parents=[common],
                       help="certified pointwise Assouad lower bound at x")
    p.add_argument("-x", type=float, required=True)
    p.add_argument("--scales", default="2^(-k), k=1..40")
    p.add_argument("--min-ratio", type=float, default=4.0)
    p.add_argument("--rel-tol", type=float, default=1e-9)

    p = sub.add_parser("witness", parents=[common],
                       help="search for a non-doubling witness pair")
    p.add_argument("--n-target", type=float, required=True)
    p.add_argument("--depth-cap", type=int, default=32)

    p = sub.add_parser("abundance", parents=[common],
                       help="finite-n abundance diagnostics for a tail word")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--kappa", default="12")

    return parser


def _check_domains(ns: argparse.Namespace) -> None:
    cmd = ns.command

    def bad(msg):
        raise UsageError(msg)

    if (getattr(ns, "length", None) or 0) > MAX_COUNT:
        bad(f"length must not exceed {MAX_COUNT}")
    if cmd == "spectrum":
        parse_linear_grid(ns.q_grid)
    elif cmd == "assouad-word":
        if not ns.word:
            bad("word must be nonempty")
        if ns.length is not None and ns.length < 1:
            bad("length must be positive")
        lo_hi = ns.windows.split(":")
        if len(lo_hi) != 2:
            bad("windows must be n_lo:n_hi")
        try:
            lo, hi = int(lo_hi[0]), int(lo_hi[1])
        except ValueError:
            bad("windows must be integers")
        if lo < 1 or hi < lo:
            bad("window range must satisfy 1 <= n_lo <= n_hi")
    elif cmd == "greedy":
        if ns.length < 1:
            bad("length must be positive")
    elif cmd == "moran":
        if ns.epsilon <= 0:
            bad("epsilon must be positive")
        if ns.n < 1 or ns.stages < 1:
            bad("n and stages must be positive")
        if ns.n * ns.stages > MAX_COUNT:
            bad(f"the spine, n * stages letters, must not exceed {MAX_COUNT}")
    elif cmd == "ball":
        if ns.r <= 0 or ns.tol <= 0:
            bad("r and tol must be positive")
        if ns.depth_cap is not None and ns.depth_cap < 1:
            bad("depth-cap must be positive")
    elif cmd == "doubling-scan":
        if ns.gamma <= 1:
            bad("gamma must exceed 1")
        if ns.rel_tol <= 0:
            bad("rel-tol must be positive")
        parse_scale_grid(ns.scales)
    elif cmd == "assouad-scan":
        if ns.min_ratio < 1:
            bad("min-ratio must be at least 1")
        if ns.rel_tol <= 0:
            bad("rel-tol must be positive")
        parse_scale_grid(ns.scales)
    elif cmd == "witness":
        if ns.n_target <= 0:
            bad("n-target must be positive")
        if ns.depth_cap < 1:
            bad("depth-cap must be positive")
    elif cmd == "abundance":
        if ns.n < 1:
            bad("n must be positive")
        if not 0 < ns.delta <= 1:
            bad("delta must lie in (0, 1]")


def parse_config(argv) -> RunConfig:
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
    fmt = ns.format
    if ns.command in _JSON_ONLY:
        if fmt == "csv":
            raise UsageError(f"{ns.command} emits JSON only")
        fmt = "json"
    elif fmt is None:
        fmt = "csv"
    _check_domains(ns)
    return RunConfig(ns.command, ns.system, ns, ns.output, fmt)


def _run_spectrum(sys_, config):
    qs = parse_linear_grid(config.params.q_grid)
    table = spectrum_table(sys_, qs)
    emit_table(table.as_records(), config.format, config.output,
               header=["q", "tau", "alpha", "f", "f_bar"])


def _run_assouad_word(sys_, config):
    ns = config.params
    word = Word.from_string(ns.word)
    if ns.length is not None and ns.length > len(word):
        word = Word.periodic(word, ns.length)
    lo, hi = (int(v) for v in ns.windows.split(":"))
    est = assouad_estimate(sys_, word, (lo, hi))
    if ns.per_window:
        rows = [{"n": int(n), "sup_ratio": float(s)}
                for n, s in zip(est.ns, est.per_n_sup)]
        emit_table(rows, config.format, config.output)
    else:
        emit_table([{"length": len(word), "window_lo": lo, "window_hi": hi,
                     "estimate": est.estimate}], config.format, config.output)


def _run_greedy(sys_, config):
    ns = config.params
    word = greedy_word(sys_, ns.alpha, ns.length)
    stats = word_stats(sys_, word)
    emit_table([{"alpha": ns.alpha, "length": len(word), "word": str(word),
                 "prefix_ratio": stats.ratio}], config.format, config.output)


def _run_moran(sys_, config):
    ns = config.params
    spec = moran_construct(sys_, ns.alpha, ns.epsilon, ns.n, ns.stages)
    obj = spec.to_json_dict()
    obj["s_k"] = [moran_dimension(spec, k) for k in range(1, ns.stages + 1)]
    emit_object(obj, config.output)


def _run_ball(sys_, config):
    ns = config.params
    b = ball_measure(sys_, ns.x, ns.r, ns.tol, ns.depth_cap)
    emit_table([{"x": ns.x, "r": ns.r, "lower": b.lower, "upper": b.upper,
                 "depth_used": b.depth_used,
                 "straddle_mass": b.straddle_mass}],
               config.format, config.output)


def _run_doubling_scan(sys_, config):
    ns = config.params
    scan = doubling_scan(sys_, ns.x, ns.gamma, parse_scale_grid(ns.scales),
                         rel_tol=ns.rel_tol)
    rows = [{"r": row.r, "lower": row.lower, "upper": row.upper,
             "ratio_lower": row.ratio_lower, "ratio_upper": row.ratio_upper}
            for row in scan.rows]
    emit_table(rows, config.format, config.output,
               header=["r", "lower", "upper", "ratio_lower", "ratio_upper"])


def _run_assouad_scan(sys_, config):
    ns = config.params
    scales = parse_scale_grid(ns.scales)
    value = assouad_scan(sys_, ns.x, scales, min_ratio=ns.min_ratio,
                         rel_tol=ns.rel_tol)
    emit_table([{"x": ns.x, "estimate": value, "n_scales": len(scales)}],
               config.format, config.output)


def _run_witness(sys_, config):
    ns = config.params
    pair = non_doubling_witness(sys_, ns.n_target, ns.depth_cap)
    if pair is None:
        emit_object({"found": False, "n_target": ns.n_target,
                     "depth_cap": ns.depth_cap}, config.output)
    else:
        obj = {"found": True, "n_target": ns.n_target}
        obj.update(pair.to_json_dict(sys_))
        emit_object(obj, config.output)


def _run_abundance(sys_, config):
    ns = config.params
    rep = abundance_report(sys_, ns.n, ns.delta, ns.kappa or None)
    emit_table([{"n": rep.n, "delta": rep.delta, "kappa": rep.kappa,
                 "a1_min_ratio": rep.a1_min_ratio,
                 "a2_delta_dense": rep.a2_delta_dense}],
               config.format, config.output)


_HANDLERS = {
    "spectrum": _run_spectrum,
    "assouad-word": _run_assouad_word,
    "greedy": _run_greedy,
    "moran": _run_moran,
    "ball": _run_ball,
    "doubling-scan": _run_doubling_scan,
    "assouad-scan": _run_assouad_scan,
    "witness": _run_witness,
    "abundance": _run_abundance,
}


def run(config: RunConfig) -> int:
    try:
        sys_ = load_system(config.system_path)
        _HANDLERS[config.command](sys_, config)
        return 0
    except UsageError as exc:
        print(f"UsageError: {exc}", file=sys.stderr)
        return 2
    except MultifractalError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    try:
        config = parse_config(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"UsageError: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
