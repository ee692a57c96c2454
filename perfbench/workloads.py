"""The benchmark's four workloads: inputs, tasks, oracle checks and digests.

Every workload is a closed loop with one client: the worker runs the next
task only when the previous one has returned. Inputs are made from the seed
alone, so the same seed gives the same inputs. Tasks call the library
through its module objects (`sp.f_of_alpha`, not a name bound at import),
so the tracer's wrappers see the benchmark's calls as well as the
library's own nested ones.

Oracle checks are independent of the code they check: identities of the
L^q spectrum, closed-form ball masses, exact integer counts, and the
in-process CLI run for the subprocess output. Each check returns a list of
(check name, detail) problems; an empty list means the task passed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from multifractal import cli as mcli
from multifractal import geometry1d as geo
from multifractal import spectrum as sp
from multifractal import symbolic as sy
from multifractal.errors import NeedLargerN
from multifractal.system import WeightedSystem, Word, alpha_bounds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

S1 = WeightedSystem((1 / 3, 2 / 3), (0.5, 0.5), (0.0, 0.5))
UNIFORM = WeightedSystem((0.5, 0.5), (0.5, 0.5), (0.0, 0.5))
M3 = WeightedSystem((0.2, 0.3, 0.5), (0.25, 0.3, 0.35), (0.0, 0.3, 0.65))
M4 = WeightedSystem((0.1, 0.2, 0.3, 0.4), (0.2, 0.2, 0.25, 0.25),
                    (0.0, 0.25, 0.5, 0.75))
NAMED = {"S1": S1, "UNIFORM": UNIFORM, "M3": M3, "M4": M4}

# Pools are longer than a run at the seed's speed, so a run sees fresh
# inputs; a faster program cycles through them again.
POOL = 600


def random_system(rng: np.random.Generator, m: int) -> WeightedSystem:
    """Gapped OSC system shaped like the test suite's generator, m fixed."""
    p = rng.dirichlet(np.ones(m) * 2.0)
    p = np.clip(p, 0.02, None)
    p = p / p.sum()
    r = rng.uniform(0.05, (1.0 / m) * 0.98, size=m)
    gaps = rng.dirichlet(np.ones(m)) * (1.0 - r.sum())
    t = np.concatenate([[0.0], np.cumsum(r[:-1] + gaps[:-1])])
    return WeightedSystem(tuple(p.tolist()), tuple(r.tolist()),
                          tuple(t.tolist()))


def _hex(values) -> str:
    return ",".join(float(v).hex() for v in values)


def digest(records) -> str:
    h = hashlib.sha256()
    for rec in records:
        h.update(repr(rec).encode())
        h.update(b"\n")
    return "sha256:" + h.hexdigest()[:16]


class Workload:
    name = ""
    digest_tasks = 0  # the digest covers results of the first inputs

    def make_inputs(self, seed: int) -> list:
        raise NotImplementedError

    def run(self, inp, traced: bool = False):
        raise NotImplementedError

    def check(self, inp, result) -> list:
        raise NotImplementedError

    def digest_record(self, inp, result):
        return None

    def record(self, tracer, result) -> None:
        """Add what the tracer's wrappers cannot see to a traced task."""


# spectrum -----------------------------------------------------------------

# q = 0 and q = 1 are exact table points; equal spacing for the convexity check
TABLE_Q = np.arange(-40, 41) / 4.0
Q0, Q1 = 40, 44
# shaped like spectrum.default_q_grid: dense core plus geometric tails
LEGENDRE_GRID = np.unique(np.concatenate([
    -np.geomspace(25.0, sp.Q_CAP, 33)[1:],
    np.linspace(-25.0, 25.0, 401),
    np.geomspace(25.0, sp.Q_CAP, 33)[1:]]))
# f is evaluated at alpha(q) for grid points q spanning [-100, 100]; the grid
# minimum then sits at q itself, so the grid Legendre value is a sharp oracle
ALPHA_Q = tuple(float(LEGENDRE_GRID[np.argmin(abs(LEGENDRE_GRID - t))])
                for t in (-100, -20, -4, -1, 0, 1, 4, 20, 100))
PEAK = ALPHA_Q.index(0.0)
LEGENDRE_TOL = 1e-4   # criterion 02
PEAK_TOL = 1e-8       # criterion 02
TAU1_TOL = 1e-10      # criterion 01
CONVEX_TOL = -1e-9    # criterion 01


class Spectrum(Workload):
    name = "spectrum"

    def make_inputs(self, seed):
        rng = np.random.default_rng([seed, 1])
        return [S1] + [random_system(rng, 2 + i % 3) for i in range(POOL - 1)]

    def run(self, s, traced=False):
        table = sp.spectrum_table(s, TABLE_Q)
        alphas = [sp.alpha_of_q(s, q) for q in ALPHA_Q]
        f = [sp.f_of_alpha(s, a) for a in alphas]
        fb = [sp.f_bar(s, a) for a in alphas]
        grid = sp.legendre_numeric(s, np.array(alphas), LEGENDRE_GRID)
        return {"tau": [row.tau for row in table], "alphas": alphas, "f": f,
                "f_bar": fb, "legendre": grid.tolist()}

    def check(self, s, res):
        problems = []
        tau = np.asarray(res["tau"])
        if not abs(tau[Q1]) <= TAU1_TOL:
            problems.append(("tau1", f"|tau(1)| = {abs(tau[Q1]):.3e}"))
        second = np.diff(tau, 2)
        if not second.min() >= CONVEX_TOL:
            problems.append(("convex", f"min second difference "
                                       f"{second.min():.3e}"))
        gap = np.abs(np.asarray(res["f"]) - np.asarray(res["legendre"]))
        if not gap.max() <= LEGENDRE_TOL:
            problems.append(("legendre", f"max |f - grid Legendre| "
                                         f"{gap.max():.3e}"))
        peak = abs(res["f"][PEAK] - tau[Q0])
        if not peak <= PEAK_TOL:
            problems.append(("peak", f"|f(alpha(0)) - tau(0)| = {peak:.3e}"))
        alpha0 = res["alphas"][PEAK]
        want = [fv if a <= alpha0 else tau[Q0]
                for a, fv in zip(res["alphas"], res["f"])]
        off = max(abs(a - b) for a, b in zip(res["f_bar"], want))
        if not off <= PEAK_TOL:
            problems.append(("f_bar", f"f_bar off its envelope by {off:.3e}"))
        return problems


# symbolic -----------------------------------------------------------------

PAIRS = (("S1", 64), ("S1", 128), ("S1", 256), ("M3", 24), ("M3", 48),
         ("M4", 16), ("M4", 24))
EPS = 0.1
STAGES = 8
WORD_LENGTH = 4000
WINDOWS = (500, 1000)
GREEDY_TOL = 0.02
SANDWICH_SLACK = 1e-9  # criterion 07
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class Symbolic(Workload):
    name = "symbolic"
    digest_tasks = 2 * len(PAIRS)

    def __init__(self):
        self._full_counts = {}
        self._f_bar = {}

    def make_inputs(self, seed):
        # Whether a construction is refused, which skips the stage
        # dimensions, depends on alpha. A golden-ratio sequence from a seeded
        # start spreads each pair's alphas evenly, so every seed gives each
        # pair about the same share of refusals.
        offsets = np.random.default_rng([seed, 2]).uniform(size=len(PAIRS))
        inputs = []
        for i in range(POOL):
            visit, pair = divmod(i, len(PAIRS))
            name, n = PAIRS[pair]
            u = (offsets[pair] + visit * GOLDEN) % 1.0
            lo, hi = alpha_bounds(NAMED[name])
            inputs.append((name, n, lo + (0.15 + 0.8 * float(u)) * (hi - lo)))
        return inputs

    def run(self, inp, traced=False):
        name, n, alpha = inp
        s = NAMED[name]
        gamma = sy.gamma_n_alpha(s, n, alpha)
        res = {"rows": len(gamma.rows), "block_count": gamma.block_count,
               "refused": None, "stage_lengths": None, "dims": None}
        try:
            spec = sy.moran_construct(s, alpha, EPS, n, STAGES)
        except NeedLargerN as exc:
            res["refused"] = (exc.achieved, exc.required)
        else:
            res["stage_lengths"] = spec.stage_lengths
            res["dims"] = [sy.moran_dimension(spec, k)
                           for k in range(1, STAGES + 1)]
        word = sy.greedy_word(s, alpha, WORD_LENGTH)
        res["estimate"] = sy.assouad_estimate(s, word, WINDOWS).estimate
        return res

    def check(self, inp, res):
        name, n, alpha = inp
        s = NAMED[name]
        problems = []
        if (name, n) not in self._full_counts:
            self._full_counts[name, n] = sy.block_alphabet(s, n).block_count
        full = self._full_counts[name, n]
        if full != s.m ** n:
            problems.append(("block_count", f"{full} unfiltered blocks, "
                                            f"expected m^n = {s.m ** n}"))
        if res["refused"] is not None:
            achieved, required = res["refused"]
            if not achieved <= required:
                problems.append(("refusal", f"refused although {achieved} > "
                                            f"{required}"))
        else:
            if inp not in self._f_bar:
                self._f_bar[inp] = sp.f_bar(s, alpha)
            fb = self._f_bar[inp]
            lo, hi = min(res["dims"]), max(res["dims"])
            if not (lo > fb - EPS and hi <= fb + SANDWICH_SLACK):
                problems.append(("sandwich", f"stage dims [{lo}, {hi}] leave "
                                             f"({fb - EPS}, {fb}]"))
        dev = abs(res["estimate"] - alpha)
        if not dev <= GREEDY_TOL:
            problems.append(("greedy", f"|estimate - alpha| = {dev:.4f}"))
        return problems

    def digest_record(self, inp, res):
        return (inp[0], inp[1], inp[2].hex(), res["block_count"], res["rows"],
                res["stage_lengths"])


# geometry -----------------------------------------------------------------

SCALES = tuple(0.5 ** k for k in range(1, 21))
GAMMA = 2.0  # gamma * r is the next larger dyadic radius: shared work
QUERIES = 8
# A touching-system task costs about three gapped ones. Two of every three
# tasks touch, so the median task sits inside the touching cluster rather
# than on the edge between the two.
KINDS = ("S1", "UNIFORM", "gapped")
UNIFORM_TOL = 1e-10   # criterion 08
DYADIC_TOL = 1e-12    # criterion 08
SUM_SLACK = 1e-12     # float summation order between two enclosures


def _random_point(rng, s: WeightedSystem) -> float:
    """Fixed point of a seeded random word: a point of the attractor.

    Constant words are redrawn: on S1 and UNIFORM their fixed points are 0
    and 1, where a scan costs a fifth of what it costs elsewhere, and such a
    cheap cluster would put the median task on a cliff edge.
    """
    while True:
        word = rng.integers(1, s.m + 1, size=int(rng.integers(6, 17)))
        if word.min() != word.max():
            return geo.fixed_point(s, Word(word))


def s1_dyadic_mass(x: float, r: float) -> float:
    """mu_S1(B(x, r)) for dyadic x = j / 2^a and r = 2^-k with k >= a.

    The ball is two level-k dyadic cells; a cell's mass is (1/3)^zeros *
    (2/3)^ones over the k binary digits of its left end.
    """
    k = -int(math.log2(r))
    total = 0.0
    for left in (Fraction(x) - Fraction(r), Fraction(x)):
        if left < 0 or left + Fraction(r) > 1:
            continue
        index = int(left * 2 ** k)
        ones = bin(index).count("1")
        total += (1 / 3) ** (k - ones) * (2 / 3) ** ones
    return total


class Geometry(Workload):
    name = "geometry"
    digest_tasks = 6 * len(KINDS)

    def make_inputs(self, seed):
        rng = np.random.default_rng([seed, 3])
        inputs = []
        for i in range(POOL):
            kind = KINDS[i % len(KINDS)]
            s = NAMED[kind] if kind in NAMED else \
                random_system(rng, int(rng.integers(2, 5)))
            x = _random_point(rng, s)
            queries = []
            for _ in range(QUERIES):
                if kind == "S1":
                    a = int(rng.integers(1, 9))
                    j = 2 * int(rng.integers(0, 2 ** (a - 1))) + 1
                    k = int(rng.integers(a, 29))
                    qx, r = j / 2 ** a, 2.0 ** -k
                    tol = 10.0 ** -int(rng.integers(9, 13))
                elif kind == "UNIFORM":
                    qx = float(rng.uniform())
                    r = float(10 ** rng.uniform(-4, math.log10(0.2)))
                    tol = 10.0 ** -int(rng.integers(11, 13))
                else:
                    qx = _random_point(rng, s)
                    r = float(10 ** rng.uniform(-6, math.log10(0.2)))
                    tol = 10.0 ** -int(rng.integers(9, 13))
                queries.append((qx, r, tol))
            inputs.append((kind, s, x, tuple(queries)))
        return inputs

    def run(self, inp, traced=False):
        _, s, x, queries = inp
        scan = geo.doubling_scan(s, x, GAMMA, SCALES)
        value = geo.assouad_scan(s, x, SCALES)
        balls = [geo.ball_measure(s, qx, r, tol) for qx, r, tol in queries]
        return {"rows": [(row.r, row.lower, row.upper) for row in scan.rows],
                "assouad": value,
                "balls": [(b.lower, b.upper, b.depth_used) for b in balls]}

    def check(self, inp, res):
        kind, s, x, queries = inp
        problems = []
        enclosures = [(x, r, lo, up) for r, lo, up in res["rows"]] + \
            [(qx, r, lo, up) for (qx, r, _), (lo, up, _) in
             zip(queries, res["balls"])]
        for cx, r, lo, up in enclosures:
            if not lo <= up:
                problems.append(("order", f"lower {lo} > upper {up} at "
                                          f"x={cx}, r={r}"))
        if kind == "UNIFORM":
            for i, (cx, r, lo, up) in enumerate(enclosures):
                length = min(1.0, cx + r) - max(0.0, cx - r)
                inside = lo - SUM_SLACK <= length <= up + SUM_SLACK
                tight = i < len(res["rows"]) or max(
                    abs(lo - length), abs(up - length)) <= UNIFORM_TOL
                if not (inside and tight):
                    problems.append(("uniform", f"[{lo}, {up}] vs length "
                                                f"{length} at x={cx}, r={r}"))
        if kind == "S1":
            for (qx, r, _), (lo, up, _) in zip(queries, res["balls"]):
                exact = s1_dyadic_mass(qx, r)
                if not max(abs(lo - exact), abs(up - exact)) <= DYADIC_TOL:
                    problems.append(("s1_dyadic", f"[{lo}, {up}] vs {exact} "
                                                  f"at x={qx}, r={r}"))
        # rows run from the largest radius down: lower(r) <= upper(R), r < R
        rows = res["rows"]
        for i, (big_r, _, big_up) in enumerate(rows):
            for small_r, small_lo, _ in rows[i + 1:]:
                if not small_lo <= big_up + SUM_SLACK:
                    problems.append(("monotone", f"lower({small_r}) = "
                                                 f"{small_lo} > upper({big_r})"
                                                 f" = {big_up}"))
        if not math.isfinite(res["assouad"]):
            problems.append(("order", "assouad_scan bound is not finite"))
        return problems

    def digest_record(self, inp, res):
        return (_hex(v for row in res["rows"] for v in row[1:]),
                res["assouad"].hex(),
                tuple((lo.hex(), up.hex(), depth)
                      for lo, up, depth in res["balls"]))


# cli ----------------------------------------------------------------------

CYCLES = 40
PROBE = HERE / "cli_probe.py"


def s1_json() -> str:
    """The README's example system file, byte for byte in its values."""
    return json.dumps({"probs": [0.3333333333333333, 0.6666666666666666],
                       "ratios": [0.5, 0.5], "translations": [0.0, 0.5]})


class Cli(Workload):
    name = "cli"

    def __init__(self):
        self._expected = {}

    def make_inputs(self, seed):
        rng = np.random.default_rng([seed, 4])
        path = OUT / "cli" / "s1.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(s1_json() + "\n", encoding="utf-8")
        sfile = str(path)

        def variant():
            return {
                "ball": ["-x", repr(float(rng.uniform(0.05, 0.95))), "-r",
                         repr(float(rng.uniform(0.01, 0.3))), "--tol", "1e-9"],
                "assouad-scan": ["-x", repr(_random_point(rng, S1)),
                                 "--scales", "2^(-k), k=1..40"],
                "doubling-scan": ["-x", repr(_random_point(rng, S1)),
                                  "--gamma", "16",
                                  "--scales", "2^(-k), k=1..30"],
                "greedy": ["--alpha", repr(float(rng.uniform(0.7, 1.5))),
                           "--length", "1000"],
            }

        fixed = {
            "spectrum": ["--q-grid", "-5:5:64"],
            "witness": ["--n-target", "64"],
            "moran": ["--alpha", "1.0", "--epsilon", "0.1", "--n", "128",
                      "--stages", "10"],
            "assouad-word": ["--word", "12", "--length", "10000",
                             "--windows", "2000:4000"],
            "abundance": ["--n", "8", "--delta", "0.25", "--kappa", "12"],
        }
        variants = [variant(), variant()]
        inputs = []
        for cycle in range(CYCLES):
            params = dict(fixed, **variants[cycle % 2])
            commands = sorted(params)
            rng.shuffle(commands)
            inputs.extend((cmd, "-s", sfile, *params[cmd]) for cmd in commands)
        return inputs

    def run(self, argv, traced=False):
        cmd = [sys.executable, str(PROBE)] if traced else \
            [sys.executable, "-m", "multifractal.cli"]
        start = time.perf_counter()
        proc = subprocess.run(cmd + list(argv), capture_output=True,
                              cwd=ROOT, timeout=120)
        end = time.perf_counter()
        stderr = proc.stderr.decode("utf-8", "replace")
        probe = None
        if traced:
            lines = stderr.splitlines()
            if lines and lines[-1].startswith("PERFBENCH_PROBE "):
                probe = json.loads(lines[-1].split(" ", 1)[1])
                stderr = "\n".join(lines[:-1])
        return {"code": proc.returncode, "stdout": proc.stdout,
                "stderr": stderr, "start": start, "end": end, "probe": probe}

    def record(self, tracer, res):
        """Fold one traced process's own timings into the tracer."""
        tracer.add_span("cli.process", res["start"], res["end"])
        tracer.counts["cli.process_s"] += res["end"] - res["start"]
        for key, (start, end) in (res["probe"] or {}).items():
            tracer.add_span(key, start, end)
            tracer.counts[key] += end - start

    def expected(self, argv) -> bytes:
        if argv not in self._expected:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                mcli.main(list(argv))
            self._expected[argv] = out.getvalue().encode("utf-8")
        return self._expected[argv]

    def check(self, argv, res):
        problems = []
        if res["code"] != 0:
            problems.append(("exit", f"exit code {res['code']}"))
        if "Traceback" in res["stderr"]:
            problems.append(("traceback", res["stderr"][-200:]))
        if res["stdout"] != self.expected(argv):
            problems.append(("stdout", "subprocess stdout differs from the "
                                       "in-process run"))
        return problems


WORKLOADS = {w.name: w for w in (Spectrum(), Symbolic(), Geometry(), Cli())}


# tracing ------------------------------------------------------------------

SPECTRUM_FNS = ("solve_tau", "alpha_of_q", "q_of_alpha", "f_of_alpha",
                "f_bar", "spectrum_table", "legendre_numeric")
SYMBOLIC_FNS = ("gamma_n_alpha", "moran_construct", "moran_dimension",
                "greedy_word", "assouad_estimate")
GEOMETRY_FNS = ("ball_measure", "doubling_scan", "assouad_scan")
CLI_METRICS = ("cli.import_s", "system.load_system.busy_s",
               "cli.parse_config.busy_s", "cli.run.busy_s", "cli.process_s")


def _grid_points(tr, args, kwargs, result, exc):
    grid = args[2] if len(args) > 2 else kwargs.get("q_grid")
    tr.counts["spectrum.legendre_numeric.grid_points"] += \
        len(sp.default_q_grid() if grid is None else grid)


def _table_rows(tr, args, kwargs, result, exc):
    if result is not None:
        tr.counts["spectrum.spectrum_table.rows"] += len(result)


def _kept(tr, args, kwargs, result, exc):
    if result is not None:
        m, n = args[0].m, args[1]
        tr.counts["symbolic.gamma_n_alpha.kept"] += len(result.rows)
        tr.counts["symbolic.gamma_n_alpha.candidates"] += \
            math.comb(n + m - 1, m - 1)


def _refused(tr, args, kwargs, result, exc):
    tr.counts["symbolic.moran_construct.attempts"] += 1
    if isinstance(exc, NeedLargerN):
        tr.counts["symbolic.moran_construct.refused"] += 1


def _windows(tr, args, kwargs, result, exc):
    if result is not None:
        length = len(args[1])
        tr.counts["symbolic.assouad_estimate.windows"] += \
            int(sum(length - n + 1 for n in result.ns))


def _ball(tr, args, kwargs, result, exc):
    if result is not None:
        tr.counts["geometry1d.ball_measure.depth_used"] += result.depth_used
        key = "geometry1d.ball_measure.straddle_mass_max"
        tr.counts[key] = max(tr.counts[key], result.straddle_mass)


def _certified(tr, args, kwargs, result, exc):
    if result is not None:
        tr.counts["geometry1d.doubling_scan.rows"] += len(result.rows)
        tr.counts["geometry1d.doubling_scan.certified"] += sum(
            math.isfinite(row.ratio_lower) for row in result.rows)


OBSERVERS = {"legendre_numeric": _grid_points, "spectrum_table": _table_rows,
             "gamma_n_alpha": _kept, "moran_construct": _refused,
             "assouad_estimate": _windows, "ball_measure": _ball,
             "doubling_scan": _certified}


def install(tracer) -> None:
    for module, layer, names in ((sp, "spectrum", SPECTRUM_FNS),
                                 (sy, "symbolic", SYMBOLIC_FNS),
                                 (geo, "geometry1d", GEOMETRY_FNS)):
        for name in names:
            tracer.install(module, name, layer, OBSERVERS.get(name))


def layer_metrics(tracer, tasks: int) -> dict:
    """Every per-layer metric of the traced run, per traced task or call."""
    c, per = tracer.counts, max(tasks, 1)

    def ratio(num, den):
        return c[num] / c[den] if c[den] else 0.0

    out = {}
    for layer, names in (("spectrum", SPECTRUM_FNS),
                         ("symbolic", SYMBOLIC_FNS),
                         ("geometry1d", GEOMETRY_FNS)):
        for name in names:
            key = f"{layer}.{name}"
            out[f"{key}.calls"] = (tracer.calls[key] / per, "count/task")
            out[f"{key}.busy_s"] = (tracer.busy[key] / per, "s/task")
    calls = tracer.calls
    out["spectrum.legendre_numeric.grid_points"] = (
        c["spectrum.legendre_numeric.grid_points"]
        / max(calls["spectrum.legendre_numeric"], 1), "count/call")
    out["spectrum.spectrum_table.rows"] = (
        c["spectrum.spectrum_table.rows"]
        / max(calls["spectrum.spectrum_table"], 1), "count/call")
    out["symbolic.gamma_n_alpha.kept_frac"] = (
        ratio("symbolic.gamma_n_alpha.kept",
              "symbolic.gamma_n_alpha.candidates"), "frac")
    out["symbolic.moran_construct.refused_frac"] = (
        ratio("symbolic.moran_construct.refused",
              "symbolic.moran_construct.attempts"), "frac")
    out["symbolic.assouad_estimate.windows"] = (
        c["symbolic.assouad_estimate.windows"]
        / max(calls["symbolic.assouad_estimate"], 1), "count/call")
    out["geometry1d.ball_measure.depth_used_mean"] = (
        c["geometry1d.ball_measure.depth_used"]
        / max(calls["geometry1d.ball_measure"], 1), "count")
    out["geometry1d.ball_measure.straddle_mass_max"] = (
        c["geometry1d.ball_measure.straddle_mass_max"], "frac")
    out["geometry1d.doubling_scan.certified_frac"] = (
        ratio("geometry1d.doubling_scan.certified",
              "geometry1d.doubling_scan.rows"), "frac")
    for key in CLI_METRICS:
        out[key] = (c[key] / per, "s/task")
    return out
