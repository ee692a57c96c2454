"""Acceptance gate: twelve end-to-end checks, one printed line each.

Every test prints exactly one ACCEPTANCE line (PASS or FAIL with a short
reason) before asserting, so the suite's state is readable from the log
even under output capture. Tolerances are fixed literals here, never
derived from library internals.

Criterion 7 checks the Moran sandwich where the construction's contract
allows it. The paper's lower bound is a limit: for each eps some block
length n gives stage dimensions in (f_bar - eps, f_bar], and
moran_construct refuses with NeedLargerN while the length-n alphabet
carries no more than f_bar - eps/2. The test walks n = 16, 32, 64, 128,
256 and counts that alphabet itself with binomial coefficients. At n = 16
it reaches 0.7968 and 0.8664 at alpha = 0.9 and 1.0, short of 0.8739 and
0.9541, so those refusals are asserted. The sandwich is then asserted at
the first accepted length: 256, 128 and 16 for alpha = 0.9, 1.0 and 1.2.
"""

import itertools
import math

import numpy as np
import pytest

from multifractal import (
    NeedLargerN,
    Word,
    alpha_of_q,
    assouad_estimate,
    assouad_scan,
    ball_measure,
    doubling_scan,
    f_bar,
    f_of_alpha,
    fixed_point,
    greedy_word,
    legendre_numeric,
    load_system,
    moran_construct,
    moran_dimension,
    non_doubling_witness,
    solve_tau,
    type_class_log_count,
)
from multifractal.spectrum import _f_both

from conftest import make_equal_ratio_system, make_random_system

S1 = load_system({"probs": [1.0 / 3.0, 2.0 / 3.0], "ratios": [0.5, 0.5],
                  "translations": [0.0, 0.5]})
UNIFORM = load_system({"probs": [0.5, 0.5], "ratios": [0.5, 0.5],
                       "translations": [0.0, 0.5]})

A_MIN = 0.5849625007211563
A_MAX = 1.5849625007211563
MORAN_LADDER = (16, 32, 64, 128, 256)
SEED = 20260814


@pytest.fixture
def report(capsys):
    def _report(num: int, ok: bool, detail: str = "") -> None:
        with capsys.disabled():
            line = f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'}"
            if detail:
                line += f" ({detail})"
            print(line, flush=True)
    return _report


def compositions(total, parts):
    """All ordered nonnegative integer splits of total into parts."""
    for cuts in itertools.combinations(range(total + parts - 1), parts - 1):
        prev, counts = -1, []
        for c in cuts:
            counts.append(c - prev - 1)
            prev = c
        counts.append(total + parts - 2 - prev)
        yield tuple(counts)


def test_criterion_01_spectrum_identities(report):
    rng = np.random.default_rng(SEED)
    grid = np.linspace(-10.0, 10.0, 200)
    worst_tau1 = 0.0
    worst_convex = np.inf
    for _ in range(100):
        sys_ = make_random_system(rng)
        worst_tau1 = max(worst_tau1, abs(solve_tau(sys_, 1.0)))
        taus = np.array([solve_tau(sys_, q) for q in grid])
        worst_convex = min(worst_convex, float(np.diff(taus, 2).min()))
    eq_rng = np.random.default_rng(1)
    worst_tau0 = 0.0
    for _ in range(100):
        sys_ = make_equal_ratio_system(eq_rng)
        closed = math.log(sys_.m) / math.log(1.0 / sys_.ratios[0])
        worst_tau0 = max(worst_tau0, abs(solve_tau(sys_, 0.0) - closed))
    ok = worst_tau1 <= 1e-10 and worst_tau0 <= 1e-10 and worst_convex >= -1e-9
    report(1, ok, f"|tau(1)| <= {worst_tau1:.1e}, closed-form dev {worst_tau0:.1e}, "
                  f"min 2nd diff {worst_convex:.1e}")
    assert worst_tau1 <= 1e-10
    assert worst_tau0 <= 1e-10
    assert worst_convex >= -1e-9


def test_criterion_02_legendre_oracle(report):
    rng = np.random.default_rng(SEED)
    systems = [S1] + [make_random_system(rng) for _ in range(20)]
    worst = 0.0
    worst_peak = 0.0
    for sys_ in systems:
        alphas = np.linspace(alpha_of_q(sys_, 100.0), alpha_of_q(sys_, -100.0), 64)
        direct = np.array([f_of_alpha(sys_, a) for a in alphas])
        oracle = legendre_numeric(sys_, alphas)
        worst = max(worst, float(np.abs(direct - oracle).max()))
        peak = abs(f_of_alpha(sys_, alpha_of_q(sys_, 0.0)) - solve_tau(sys_, 0.0))
        worst_peak = max(worst_peak, peak)
    ok = worst <= 1e-4 and worst_peak <= 1e-8
    report(2, ok, f"max |f - grid Legendre| {worst:.1e}, "
                  f"max |f(alpha(0)) - tau(0)| {worst_peak:.1e}")
    assert worst <= 1e-4
    assert worst_peak <= 1e-8


def test_criterion_03_explicit_formula_consistency(report):
    rng = np.random.default_rng(SEED)
    systems = [S1] + [make_random_system(rng) for _ in range(20)]
    worst = 0.0
    for sys_ in systems:
        alphas = np.linspace(alpha_of_q(sys_, 100.0), alpha_of_q(sys_, -100.0), 64)
        for a in alphas:
            legendre, quotient, _, _ = _f_both(sys_, float(a))
            worst = max(worst, abs(legendre - quotient))
    ok = worst <= 1e-8
    report(3, ok, f"max internal route disagreement {worst:.1e}")
    assert worst <= 1e-8


def test_criterion_04_method_of_types(report):
    checks = 0
    ok = True
    for m in (2, 3, 4):
        for n in range(1, 61):
            for comp in compositions(n, m):
                tc = type_class_log_count(comp)
                checks += 1
                if not (tc.lower - 1e-12 <= tc.exact_log <= tc.upper + 1e-12):
                    ok = False
    report(4, ok, f"{checks} (n, type) entropy sandwiches, n <= 60, m <= 4")
    assert ok
    assert checks > 600_000


def test_criterion_05_periodic_word_estimator(report):
    periods = ["1", "2", "12", "112", "122", "1112", "1122", "1222"]
    preperiods = ["", "1", "2", "11", "12", "21", "22"]
    length = 10_000
    worst = 0.0
    for per in periods:
        n1, n2 = per.count("1"), per.count("2")
        limit = (n1 * math.log(3.0) + n2 * math.log(1.5)) \
            / (len(per) * math.log(2.0))
        for pre in preperiods:
            word = Word.periodic(per, length)
            if pre:
                word = Word.from_string(pre) + word
            est = assouad_estimate(S1, word, (2000, 4000))
            worst = max(worst, abs(est.estimate - limit))
    ok = worst <= 5e-3
    report(5, ok, f"max |estimate - pattern limit| {worst:.1e} over 56 words")
    assert worst <= 5e-3


def test_criterion_06_greedy_words(report):
    length = 100_000
    worst = 0.0
    for alpha in (0.7, 0.9, 1.0, 1.2, 1.4):
        w = greedy_word(S1, alpha, length)
        est = assouad_estimate(S1, w, (20_000, 22_000))
        worst = max(worst, abs(est.estimate - alpha))
    ok = worst <= 0.02
    report(6, ok, f"max |estimate - alpha| {worst:.1e}")
    assert worst <= 0.02


def filtered_dimension(alpha: float, n: int) -> float:
    """Dimension of S1's length-n blocks with exponent <= alpha, by counting.

    A word with k ones has exponent A_MIN + k/n and ratio 2^-n, and there
    are C(n, k) such words, so the kept blocks have dimension log2(count)/n.
    """
    count = sum(math.comb(n, k) for k in range(n + 1) if A_MIN + k / n <= alpha)
    return math.log2(count) / n


def test_criterion_07_moran_sandwich(report):
    eps = 0.05
    failures = []
    accepted = {}
    for alpha in (0.9, 1.0, 1.2):
        fb = f_bar(S1, alpha)
        required = fb - eps / 2.0
        for n in MORAN_LADDER:
            counted = filtered_dimension(alpha, n)
            try:
                spec_ = moran_construct(S1, alpha, eps, n, stages=20)
            except NeedLargerN as exc:
                if counted > required:
                    failures.append(f"alpha={alpha}, n={n}: refused, but the "
                                    f"count gives {counted:.4f} > {required:.4f}")
                if (abs(exc.achieved - counted) > 1e-12
                        or abs(exc.required - required) > 1e-12):
                    failures.append(
                        f"alpha={alpha}, n={n}: refusal reports "
                        f"{exc.achieved:.13f} / {exc.required:.13f}, count "
                        f"gives {counted:.13f} / {required:.13f}")
                continue
            if counted <= required:
                failures.append(f"alpha={alpha}, n={n}: accepted, but the "
                                f"count gives {counted:.4f} <= {required:.4f}")
            s_ks = [moran_dimension(spec_, k) for k in range(1, 21)]
            lo, hi = min(s_ks), max(s_ks)
            if not (lo > fb - eps and hi <= fb + 1e-9):
                failures.append(f"alpha={alpha}, n={n}: stage dims "
                                f"[{lo:.4f}, {hi:.4f}] leave "
                                f"[{fb - eps:.4f}, {fb:.4f}]")
            accepted[alpha] = n
            break
    if accepted != {0.9: 256, 1.0: 128, 1.2: 16}:
        failures.append(f"first accepted lengths {accepted}, "
                        f"expected 256, 128, 16")
    ok = not failures
    report(7, ok, "; ".join(failures) if failures else
           "refusals match the binomial count; sandwich holds at n = "
           + ", ".join(f"{n} (alpha {a})" for a, n in accepted.items()))
    assert ok, "; ".join(failures)


def test_criterion_08_ball_measure_oracle(report):
    worst_width = 0.0
    worst_err = 0.0
    for k in range(1, 21):
        pairs = (
            (ball_measure(S1, 0.0, 0.5 ** k, tol=1e-9), 3.0 ** -k),
            (ball_measure(S1, 0.5, 0.5 ** k, tol=1e-9),
             (1.0 / 3.0) * (2.0 / 3.0) ** (k - 1)
             + (2.0 / 3.0) * (1.0 / 3.0) ** (k - 1)),
        )
        for mb, exact in pairs:
            worst_width = max(worst_width, mb.upper - mb.lower)
            worst_err = max(worst_err, abs(mb.lower - exact),
                            abs(mb.upper - exact))
    rng = np.random.default_rng(7)
    worst_uniform = 0.0
    for _ in range(10_000):
        x = float(rng.uniform(0.0, 1.0))
        r = float(rng.uniform(1e-4, 0.2))
        mb = ball_measure(UNIFORM, x, r, tol=1e-11)
        length = min(1.0, x + r) - max(0.0, x - r)
        worst_uniform = max(worst_uniform, abs(mb.lower - length),
                            abs(mb.upper - length))
    ok = worst_width <= 1e-12 and worst_err <= 1e-12 and worst_uniform <= 1e-10
    report(8, ok, f"dyadic width {worst_width:.1e} / err {worst_err:.1e}, "
                  f"uniform dev {worst_uniform:.1e} over 1e4 queries")
    assert worst_width <= 1e-12
    assert worst_err <= 1e-12
    assert worst_uniform <= 1e-10


def test_criterion_09_canonical_points(report):
    scales = [0.5 ** k for k in range(1, 51)]
    at_zero = assouad_scan(S1, 0.0, scales, min_ratio=2.0 ** 40)
    quarter = assouad_scan(S1, 0.25, scales, min_ratio=2.0 ** 40)
    three_q = assouad_scan(S1, 0.75, scales, min_ratio=2.0 ** 40)
    runs = [1, 3, 6, 10, 15, 21, 28, 36, 45]
    x_runs = sum(0.5 ** t for t in runs)
    scan = doubling_scan(S1, x_runs, 16.0, [0.5 ** k for k in range(1, 31)])
    ok = (abs(at_zero - 1.58496) <= 0.02
          and quarter <= 0.585 + 0.05
          and three_q <= 0.585 + 0.05
          and scan.max_ratio_lower > 100.0)
    report(9, ok, f"x=0: {at_zero:.5f}; dyadics {quarter:.4f}, {three_q:.4f}; "
                  f"growing-runs ratio {scan.max_ratio_lower:.1f}")
    assert abs(at_zero - 1.58496) <= 0.02
    assert quarter <= 0.585 + 0.05
    assert three_q <= 0.585 + 0.05
    assert scan.max_ratio_lower > 100.0


def test_criterion_10_witness_family(report):
    failures = []
    for e in range(1, 11):
        target = float(2 ** e)
        pair = non_doubling_witness(S1, target, depth_cap=12)
        if pair is None:
            failures.append(f"2^{e}: not found")
            continue
        depth = max(len(pair.i), len(pair.j))
        if pair.mass_ratio < target * (1.0 - 1e-9) or depth > 12:
            failures.append(f"2^{e}: ratio {pair.mass_ratio:.3f} at depth {depth}")
        if abs(pair.mass_ratio / target - 1.0) > 1e-9:
            failures.append(f"2^{e}: ratio off the analytic family value")
    ok = not failures
    report(10, ok, "pairs hit the 2^(k-1) family values up to 2^10, depth <= 12"
           if ok else "; ".join(failures))
    assert ok, "; ".join(failures)


def test_criterion_11_bounded_points_stay_below_alpha_max(report):
    rng = np.random.default_rng(SEED)
    xs = rng.uniform(0.0, 1.0, size=200)
    scales = [0.5 ** k for k in range(1, 26)]
    bound = A_MAX + 0.05
    bounded = 0
    worst = -np.inf
    violations = 0
    for x in xs:
        scan = doubling_scan(S1, float(x), 2.0, scales)
        if not scan.max_ratio_lower <= 16.0:
            continue
        bounded += 1
        value = assouad_scan(S1, float(x), scales, min_ratio=2.0 ** 15)
        worst = max(worst, value)
        if value > bound:
            violations += 1
    ok = violations == 0 and bounded > 0
    report(11, ok, f"{bounded}/200 doubling-bounded points, "
                   f"max certified bound {worst:.4f} <= {bound:.4f}")
    assert violations == 0
    assert bounded > 0


def test_criterion_12_symbolic_geometric_agreement(report):
    kappa = "12"
    frees = (["".join(t) for t in itertools.product("12", repeat=2)]
             + ["".join(t) for t in itertools.product("12", repeat=3)]
             + ["".join(t) for t in itertools.product("12", repeat=4)][:8])
    scales = [0.5 ** k for k in range(3, 49)]
    worst = 0.0
    for free in frees:
        wstr = free + kappa
        symbolic = assouad_estimate(
            S1, Word.periodic(wstr, 10_000), (1000, 4000)).estimate
        x = fixed_point(S1, Word.from_string(wstr))
        geometric = assouad_scan(S1, x, scales, min_ratio=2.0 ** 40)
        worst = max(worst, abs(symbolic - geometric))
    ok = worst <= 0.05
    report(12, ok, f"max |symbolic - geometric| {worst:.4f} over 20 words")
    assert worst <= 0.05
