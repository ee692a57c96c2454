"""Tests for type counts, block alphabets, greedy words, and Moran stages.

Small-n block alphabets are cross-checked against direct enumeration of
{1..m}^n, grouped by type, so the type-level bookkeeping is never trusted
blind.
"""

import gc
import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multifractal import (
    BudgetError,
    DomainError,
    EmptyAlphabetError,
    NeedLargerN,
    PrefixTooShort,
    RangeError,
    SizeCapError,
    TypeRow,
    WindowRangeError,
    Word,
    abundance_report,
    assouad_estimate,
    block_alphabet,
    cylinder_interval,
    fixed_point,
    gamma_n_alpha,
    greedy_word,
    local_dim_prefixes,
    moran_construct,
    moran_dimension,
    subshift_dimension,
    type_class_log_count,
    window_sups,
    word_stats,
)
from multifractal import symbolic
from multifractal.symbolic import _compositions, _kappa_counts, _multinomial
from multifractal.system import (
    WeightedSystem,
    alpha_bounds,
    logsumexp,
    lse_root,
    word_log_arrays,
)

from conftest import make_random_system

A_MIN = 0.5849625007211563
A_MAX = 1.5849625007211563
ALPHA_AT_0 = 1.0849625007211563
F_AT_1 = 0.9790700349724247


def f_oracle(alpha: float) -> float:
    """Closed-form spectrum for the canonical system, from direct counting.

    A word of length n with k ones has exponent A_MIN + k/n and there are
    C(n, k) such words, each covering an interval of size 2^-n, so the
    spectrum at alpha = A_MIN + w is the binary entropy of w in bits.
    """
    w = alpha - A_MIN
    return -(w * math.log2(w) + (1.0 - w) * math.log2(1.0 - w))


M3 = WeightedSystem((0.2, 0.3, 0.5), (0.25, 0.3, 0.35), (0.0, 0.3, 0.65))
M4 = WeightedSystem((0.1, 0.2, 0.3, 0.4), (0.2, 0.2, 0.25, 0.25),
                    (0.0, 0.25, 0.5, 0.75))


def symbol_counts(digits, m):
    """Counts of the symbols 1..m in a word written as a digit string."""
    return tuple(digits.count(str(i)) for i in range(1, m + 1))


def entropy_over_lyapunov(sys_, counts):
    """H(q) / lambda(q) for the frequencies q of a type, with 0 log 0 = 0."""
    q = np.asarray(counts, dtype=float) / sum(counts)
    seen = q[q > 0.0]
    return float((seen @ np.log(seen)) / (q @ sys_.log_ratios))


def recursive_compositions(total, parts):
    """Compositions of total into parts, head first: the lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in recursive_compositions(total - head, parts - 1):
            yield (head,) + rest


def row_loop_alphabet(sys_, n, alpha, kappa):
    """The per-row type walk that block_alphabet's array walk replaced.

    One numpy dot product per type, the exponent cut per row, and the count
    from factorials: (counts, count, log_p, log_r, ratio) per kept type.
    """
    m = sys_.m
    kc = symbol_counts(kappa or "", m)
    free = n - sum(kc)
    lp, lr = np.asarray(sys_.log_probs), np.asarray(sys_.log_ratios)
    rows = []
    for comp in recursive_compositions(free, m):
        counts = tuple(c + k for c, k in zip(comp, kc))
        arr = np.asarray(counts, dtype=float)
        log_p = float(arr @ lp)
        log_r = float(arr @ lr)
        ratio = log_p / log_r
        if alpha is not None and ratio > alpha + 1e-12:
            continue
        count = math.factorial(free) // math.prod(map(math.factorial, comp))
        rows.append((counts, count, log_p, log_r, ratio))
    return rows


def loop_greedy_word(sys_, alpha, length):
    """greedy_word's earlier loop: the next letter picked per step, by tuple."""
    sr = sys_.symbol_ratios
    hi, lo = ((int(i) + 1, float(sys_.log_probs[i]), float(sys_.log_ratios[i]))
              for i in (np.argmax(sr), np.argmin(sr)))
    if alpha >= alpha_bounds(sys_)[1] - 1e-12:
        return [hi[0]] * length
    symbols = [hi[0]]
    log_p, log_r = hi[1], hi[2]
    while len(symbols) < length:
        nxt = hi if log_p / log_r < alpha else lo
        symbols.append(nxt[0])
        log_p += nxt[1]
        log_r += nxt[2]
    return symbols


def random_weighted_system(m, rng):
    """m maps with weights clipped away from 0 and ratios summing below 1."""
    p = np.clip(rng.dirichlet(np.full(m, 2.0)), 0.02, None)
    return WeightedSystem(tuple((p / p.sum()).tolist()),
                          tuple(rng.uniform(0.05, 0.98 / m, m).tolist()))


def per_length_scan(sys_, word, n_lo, n_hi):
    """window_sups, one window length at a time."""
    lp, lr = word_log_arrays(sys_, word)
    cp = np.concatenate([[0.0], np.cumsum(lp)])
    cr = np.concatenate([[0.0], np.cumsum(lr)])
    return np.array([np.max((cp[n:] - cp[:-n]) / (cr[n:] - cr[:-n]))
                     for n in range(n_lo, n_hi + 1)])


WORD_KINDS = ("random", "greedy", "periodic", "constant")


def scan_word(kind, sys_, rng, length):
    """A word of the given kind: uniform letters, a greedy chase of a seeded
    alpha, a short seeded pattern repeated, or one letter repeated."""
    if kind == "greedy":
        lo, hi = alpha_bounds(sys_)
        return greedy_word(sys_, lo + rng.uniform(0.1, 0.9) * (hi - lo),
                           length)
    if kind == "periodic":
        pattern = Word(rng.integers(1, sys_.m + 1, rng.integers(1, 6)))
        return Word.periodic(pattern, length)
    if kind == "constant":
        return Word.constant(int(rng.integers(1, sys_.m + 1)), length)
    return Word(rng.integers(1, sys_.m + 1, length))


def top_quartile(size):
    """First row of the window range that the estimate reads."""
    return size - max(1, size - (3 * size) // 4)


@st.composite
def window_cases(draw):
    """(m, seed, word length, n_lo, n_hi), often with only 1 to 3 lengths."""
    length = draw(st.integers(1, 3000))
    n_lo = draw(st.integers(1, length))
    span = draw(st.one_of(st.integers(0, 2), st.integers(0, length - n_lo)))
    return (draw(st.integers(2, 4)), draw(st.integers(0, 2 ** 32 - 1)),
            length, n_lo, min(n_lo + span, length))


def block_chase_spine(sys_, alpha, n, stages):
    """Moran spine chased block by block over the whole length-n shift.

    The rows of largest and smallest exponent are the constant blocks hi^n
    and lo^n; each step appends hi^n while the running exponent, summed over
    whole blocks, is below alpha, and lo^n otherwise.
    """
    rows = block_alphabet(sys_, n, None).rows
    chase = []
    for row in (max(rows, key=lambda r: r.ratio),
                min(rows, key=lambda r: r.ratio)):
        assert n in row.counts, "an extreme row must be a constant block"
        chase.append(([row.counts.index(n) + 1] * n, row.log_p, row.log_r))
    hi, lo = chase
    if alpha >= max(r.ratio for r in rows) - 1e-12:
        return Word(hi[0] * stages)
    symbols = list(hi[0])
    log_p, log_r = hi[1], hi[2]
    while len(symbols) < stages * n:
        nxt = hi if log_p / log_r < alpha else lo
        symbols += nxt[0]
        log_p += nxt[1]
        log_r += nxt[2]
    return Word(symbols)


def brute_blocks(sys_, n, alpha=None, kappa=""):
    """Filter {1..m}^(n-|kappa|) + kappa by exponent, one word at a time."""
    free = n - len(kappa)
    tail = [int(c) for c in kappa]
    kept = []
    for tup in itertools.product(range(1, sys_.m + 1), repeat=free):
        w = Word(list(tup) + tail)
        if alpha is None or word_stats(sys_, w).ratio <= alpha + 1e-12:
            kept.append(str(w))
    return sorted(kept)


def by_type(words, m):
    """Words grouped by type: {symbol counts: number of words}."""
    return dict(Counter(symbol_counts(w, m) for w in words))


def type_counts(gamma):
    return {row.counts: row.count for row in gamma.rows}


class TestKappaCounts:
    def test_counts_of_tail(self):
        assert _kappa_counts(Word.from_string("1221"), 2) == (2, 2)

    def test_counts_padded_to_m(self):
        assert _kappa_counts(Word.from_string("11"), 3) == (2, 0, 0)
        assert _kappa_counts(None, 3) == (0, 0, 0)

    def test_symbol_above_m_rejected(self, s1):
        with pytest.raises(RangeError, match="symbol 3 but the system has m=2"):
            block_alphabet(s1, 4, None, "13")


class TestTypeClassCount:
    def test_exact_binomial(self):
        tc = type_class_log_count([3, 5])
        assert tc.count == math.comb(8, 3)
        assert tc.exact_log == pytest.approx(math.log(56))

    @pytest.mark.parametrize("counts", [[3.0, 5], [0.3, 0.7], ["3", 5],
                                        [3, -1], []])
    def test_counts_must_be_nonnegative_integers(self, counts):
        with pytest.raises(DomainError):
            type_class_log_count(counts)

    @pytest.mark.parametrize("counts", [5, None, 2.0])
    def test_counts_that_are_not_iterable(self, counts):
        with pytest.raises(DomainError, match="symbol counts must be integers"):
            type_class_log_count(counts)

    def test_numpy_integer_counts(self):
        assert type_class_log_count(np.array([3, 5])) == \
            type_class_log_count([3, 5])

    @given(st.integers(2, 60), st.integers(0, 60))
    @settings(max_examples=60, deadline=None)
    def test_entropy_sandwich(self, n, k):
        if k > n:
            k = k % (n + 1)
        tc = type_class_log_count([k, n - k])
        assert tc.lower - 1e-12 <= tc.exact_log <= tc.upper + 1e-12


class TestLocalDimPrefixes:
    def test_alternating_word_values(self, s1):
        got = local_dim_prefixes(s1, Word.from_string("1221"), [1, 2, 3, 4])
        want = [A_MAX, ALPHA_AT_0, 0.9182958340544897, ALPHA_AT_0]
        assert got == pytest.approx(want, abs=1e-12)

    def test_depth_zero_rejected(self, s1):
        with pytest.raises(DomainError):
            local_dim_prefixes(s1, Word.from_string("12"), [0, 1])

    def test_depth_beyond_prefix(self, s1):
        with pytest.raises(PrefixTooShort):
            local_dim_prefixes(s1, Word.from_string("12"), [3])

    def test_empty_depths(self, s1):
        assert local_dim_prefixes(s1, Word.from_string("12"), []).size == 0

    @pytest.mark.parametrize("depths", [[2.7, 3.2], [2.0], ["2"], [None]])
    def test_non_integer_depths_rejected(self, s1, depths):
        with pytest.raises(DomainError):
            local_dim_prefixes(s1, Word.from_string("1221"), depths)

    @pytest.mark.parametrize("depths", [3, None, 2.0])
    def test_depths_that_are_not_iterable(self, s1, depths):
        with pytest.raises(DomainError, match="depths must be integers"):
            local_dim_prefixes(s1, Word.from_string("1221"), depths)

    def test_numpy_integer_depths(self, s1):
        w = Word.from_string("1221")
        got = local_dim_prefixes(s1, w, np.array([1, 3], dtype=np.int32))
        assert np.array_equal(got, local_dim_prefixes(s1, w, [1, 3]))


class TestAssouadEstimate:
    def test_window_ratios_bounded(self, random_system):
        """Every window exponent stays inside the attainable interval."""
        rng = np.random.default_rng(31)
        for _ in range(15):
            sys_ = make_random_system(rng)
            a_lo = float(np.min(sys_.symbol_ratios))
            a_hi = float(np.max(sys_.symbol_ratios))
            freqs = rng.dirichlet(np.ones(sys_.m))
            seed = int(rng.integers(1 << 30))
            word = Word(np.random.default_rng(seed).choice(
                sys_.m, size=400, p=freqs) + 1)
            sups = window_sups(sys_, word, (5, 50))
            assert sups.min() >= a_lo - 1e-12
            assert sups.max() <= a_hi + 1e-12

    def test_constant_word_is_exact(self, s1):
        w = Word.periodic("1", 500)
        est = assouad_estimate(s1, w, (10, 100))
        assert est.estimate == pytest.approx(A_MAX, abs=1e-12)
        assert np.allclose(window_sups(s1, w, (10, 100)), A_MAX)

    def test_periodic_word_matches_pattern_ratio(self, s1):
        w = Word.periodic("12", 10_000)
        est = assouad_estimate(s1, w, (2000, 4000))
        want = (math.log(3.0) + math.log(1.5)) / (2.0 * math.log(2.0))
        assert abs(est.estimate - want) <= 5e-3

    def test_window_grid_shape(self, s1):
        w = Word.periodic("12", 100)
        assert assouad_estimate(s1, w, (5, 20)).ns.tolist() == \
            list(range(5, 21))
        assert window_sups(s1, w, (5, 20)).size == 16

    @pytest.mark.parametrize("cells", [1, 50, 333, None])
    def test_batched_scan_matches_per_length_loop(self, cells, monkeypatch):
        if cells is not None:
            monkeypatch.setattr(symbolic, "SCAN_CELLS", cells)
        rng = np.random.default_rng(41)
        for sys_, length, lo, hi in [(M3, 300, 1, 300), (M4, 500, 20, 140),
                                     (M4, 64, 64, 64), (M3, 2000, 400, 700)]:
            word = Word(rng.integers(1, sys_.m + 1, length))
            assert np.array_equal(window_sups(sys_, word, (lo, hi)),
                                  per_length_scan(sys_, word, lo, hi))

    @pytest.mark.parametrize("rng", [(0, 5), (5, 3), (5, 200), (5.5, 20.9),
                                     (5, 20.0), (math.nan, 20), ("5", 20),
                                     (5,), (5, 10, 20), None])
    def test_bad_window_range(self, s1, rng):
        with pytest.raises(WindowRangeError):
            assouad_estimate(s1, Word.periodic("12", 100), rng)
        with pytest.raises(WindowRangeError):
            window_sups(s1, Word.periodic("12", 100), rng)

    def test_numpy_integer_window_range(self, s1):
        w = Word.periodic("12", 100)
        est = assouad_estimate(s1, w, (np.int64(5), np.int32(20)))
        assert est.window_range == (5, 20)
        assert est.estimate == assouad_estimate(s1, w, (5, 20)).estimate
        assert np.array_equal(window_sups(s1, w, (np.int64(5), np.int32(20))),
                              window_sups(s1, w, (5, 20)))

    @pytest.mark.parametrize("cells", [1, 50, 333, None])
    @settings(max_examples=40, deadline=None)
    @given(case=window_cases(), kind=st.sampled_from(WORD_KINDS),
           stalled=st.booleans())
    @example(case=(2, 0, 1, 1, 1), kind="random", stalled=False)
    @example(case=(3, 1, 40, 7, 8), kind="random", stalled=False)
    @example(case=(4, 2, 40, 38, 40), kind="random", stalled=False)
    @example(case=(2, 3, 3000, 1, 3000), kind="random", stalled=False)
    @example(case=(2, 4, 3000, 500, 1000), kind="greedy", stalled=False)
    @example(case=(3, 5, 3000, 100, 1000), kind="periodic", stalled=False)
    @example(case=(2, 6, 2000, 10, 1500), kind="constant", stalled=False)
    @example(case=(3, 7, 2000, 50, 400), kind="random", stalled=True)
    def test_estimate_is_the_top_quartile_max(self, cells, case, kind,
                                              stalled):
        m, seed, length, lo, hi = case
        rng = np.random.default_rng(seed)
        sys_ = random_weighted_system(m, rng)
        if stalled:  # log r_1 = -2^-53, absorbed once |R| reaches 2
            sys_ = WeightedSystem(sys_.probs,
                                  (1.0 - 2.0 ** -53,) + sys_.ratios[1:])
        word = scan_word(kind, sys_, rng, length)
        # a stalled R leaves windows with log r_a = 0, whose ratio is -inf
        with pytest.MonkeyPatch.context() as mp, \
                np.errstate(divide="ignore", invalid="ignore"):
            if cells is not None:
                mp.setattr(symbolic, "SCAN_CELLS", cells)
            est = assouad_estimate(sys_, word, (lo, hi))
            sups = window_sups(sys_, word, (lo, hi))
            want = per_length_scan(sys_, word, lo, hi)
        assert np.array_equal(sups, want, equal_nan=True)
        top = want[top_quartile(want.size):].max()
        assert est.estimate == top or math.isnan(est.estimate) and \
            math.isnan(top)

    @pytest.mark.parametrize("lo, hi", [(1, 1), (10, 11), (10, 12),
                                        (100, 900), (500, 1000)])
    @pytest.mark.parametrize("text", ["1" * 1000, "1" * 997 + "222",
                                      "222" + "1" * 997, "122" * 333 + "1"],
                             ids=["ones", "ones_twos", "twos_ones",
                                  "periodic_122"])
    def test_window_max_falls_back_only_when_r_stalls(self, monkeypatch, lo,
                                                      hi, text):
        # r_1 = 1 - 2^-53 adds -2^-53 to R, which rounding absorbs once
        # |R| >= 2, so R stalls where a 1 follows a 2 (log r_2 = -1.39).
        # The search runs only where every window has log r_a < 0.
        sys_ = WeightedSystem((0.5, 0.5), (1.0 - 2.0 ** -53, 0.25))
        word = Word.from_string(text)
        scanned = []
        scan = symbolic._window_sups

        def counting(*args):
            sups = scan(*args)
            scanned.append(args[2:])
            return sups

        monkeypatch.setattr(symbolic, "_window_sups", counting)
        with np.errstate(divide="ignore"):
            est = assouad_estimate(sys_, word, (lo, hi))
            n_top = lo + top_quartile(hi - lo + 1)
            want = per_length_scan(sys_, word, n_top, hi).max()
        stalls = "21" in text
        assert stalls != bool(np.all(np.diff(np.cumsum(
            word_log_arrays(sys_, word)[1])) < 0))
        assert scanned == ([(n_top, hi)] if stalls else [])
        assert est.estimate == want

    def test_search_memory_on_a_long_word(self, s1):
        # The per-length scan peaked at 48.0 MB on this input. The search
        # holds the two prefix sums and three work rows, 40 bytes a letter,
        # and scans the surviving ends in batches of SCAN_CELLS.
        word = greedy_word(s1, 1.1, 10 ** 6)
        tracemalloc.start()
        try:
            est = assouad_estimate(s1, word, (500, 1000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert est.estimate == window_sups(s1, word, (875, 1000)).max()
        assert peak < 44e6

    def test_estimate_is_a_plain_record(self, s1):
        w = Word.periodic("122", 1000)
        est = assouad_estimate(s1, w, (100, 900))
        assert list(vars(est)) == ["ns", "estimate", "window_range"]
        again = assouad_estimate(s1, w, (100, 900))
        assert est == again and hash(est) == hash(again)
        assert est != assouad_estimate(s1, w, (100, 899))


class TestBlockAlphabet:
    def test_level_two_at_one(self, s1):
        gamma = gamma_n_alpha(s1, 2, 1.0)
        assert type_counts(gamma) == by_type(["22"], 2)

    def test_level_two_at_top(self, s1):
        gamma = gamma_n_alpha(s1, 2, A_MAX)
        assert type_counts(gamma) == by_type(["11", "12", "21", "22"], 2)

    def test_level_two_between(self, s1):
        gamma = gamma_n_alpha(s1, 2, 1.1)
        assert type_counts(gamma) == by_type(["12", "21", "22"], 2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("alpha", [None, 0.8, 1.0, 1.1, 1.3, A_MAX])
    def test_matches_enumeration(self, s1, n, alpha):
        gamma = block_alphabet(s1, n, alpha)
        want = brute_blocks(s1, n, alpha)
        assert gamma.block_count == len(want)
        assert type_counts(gamma) == by_type(want, s1.m)

    @pytest.mark.parametrize("alpha", [None, 1.0, 1.1])
    def test_appended_tail_matches_enumeration(self, s1, alpha):
        gamma = block_alphabet(s1, 4, alpha, kappa="12")
        want = brute_blocks(s1, 4, alpha, kappa="12")
        assert type_counts(gamma) == by_type(want, s1.m)

    def test_random_system_enumeration(self, random_system):
        sys_ = random_system(np.random.default_rng(3))
        gamma = block_alphabet(sys_, 4, None)
        assert gamma.block_count == sys_.m ** 4
        assert type_counts(gamma) == by_type(brute_blocks(sys_, 4), sys_.m)

    def test_alias_agrees(self, s1):
        a = gamma_n_alpha(s1, 5, 1.0, kappa="12")
        b = block_alphabet(s1, 5, alpha=1.0, kappa="12")
        assert a.rows == b.rows

    def test_repeated_call_returns_the_same_alphabet(self, s1):
        a = block_alphabet(s1, 9, 1.1, kappa="12")
        assert block_alphabet(s1, 9, 1.1, Word.from_string("12")) is a
        assert gamma_n_alpha(s1, 9, 1.1, kappa="12") is a
        b = block_alphabet(s1, 9, 1.2, kappa="12")
        assert b is not a and block_alphabet(s1, 9, 1.1, "12") is not a

    def test_type_row_is_a_named_tuple(self, s1):
        assert TypeRow._fields == ("counts", "count", "log_p", "log_r",
                                   "ratio")
        row = block_alphabet(s1, 6, 1.1).rows[0]
        with pytest.raises(AttributeError):
            row.count = 0
        for sys_, n, alpha, kappa in [(s1, 6, None, None), (M3, 9, 0.9, None),
                                      (M4, 7, None, "12"),
                                      (M3, 12, 1.0, "1231")]:
            rows = block_alphabet(sys_, n, alpha, kappa).rows
            assert list(rows) == row_loop_alphabet(sys_, n, alpha, kappa)

    @pytest.mark.parametrize("sys_, n, alpha, kappa", [
        (WeightedSystem((1 / 3, 2 / 3), (0.5, 0.5)), 2000, None, None),
        (WeightedSystem((1 / 3, 2 / 3), (0.5, 0.5)), 2001, 1.2, "12"),
        (M3, 48, 0.9, None), (M3, 61, None, "1231"), (M4, 24, None, "12")])
    def test_counts_match_multinomial(self, sys_, n, alpha, kappa):
        kc = symbol_counts(kappa or "", sys_.m)
        free = n - sum(kc)
        rows = block_alphabet(sys_, n, alpha, kappa).rows
        assert len(rows) > 100
        assert [row.count for row in rows] == [
            _multinomial(free, [c - k for c, k in zip(row.counts, kc)])
            for row in rows]

    @pytest.mark.parametrize("parts", [1, 2, 3, 4, 5])
    def test_compositions_match_recursive_walk(self, parts):
        # parts = 5 reaches 40,920 rows at total 29: several full blocks
        for total in range(30):
            blocks = list(_compositions(total, parts))
            assert all(b.dtype == np.int64 and b.shape[1] == parts
                       and 1 <= len(b) <= symbolic.WALK_BLOCK for b in blocks)
            assert all(len(b) == symbolic.WALK_BLOCK for b in blocks[:-1])
            got = [tuple(row) for b in blocks for row in b.tolist()]
            assert got == list(recursive_compositions(total, parts))
            assert len(got) == math.comb(total + parts - 1, parts - 1)

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(2, 5), seed=st.integers(0, 2 ** 32 - 1),
           n=st.integers(1, 14), tail=st.integers(0, 3),
           cut=st.one_of(st.none(), st.floats(-0.05, 1.05)))
    def test_array_walk_matches_row_loop(self, m, seed, n, tail, cut):
        rng = np.random.default_rng(seed)
        sys_ = random_weighted_system(m, rng)
        kappa = "".join(str(int(c)) for c in rng.integers(1, m + 1,
                                                          min(tail, n)))
        lo, hi = alpha_bounds(sys_)
        alpha = None if cut is None else lo + cut * (hi - lo)
        got = [(r.counts, r.count, r.log_p, r.log_r, r.ratio)
               for r in block_alphabet(sys_, n, alpha, kappa).rows]
        want = row_loop_alphabet(sys_, n, alpha, kappa)
        # a type may be kept by one side only where its ratio sits on the cut
        differ = {row[0] for row in got} ^ {row[0] for row in want}
        if differ:
            ratio = {row[0]: row[4]
                     for row in row_loop_alphabet(sys_, n, None, kappa)}
            assert all(abs(ratio[t] - (alpha + 1e-12)) <= 1e-12
                       for t in differ)
        got = [row for row in got if row[0] not in differ]
        want = [row for row in want if row[0] not in differ]
        assert [row[:2] for row in got] == [row[:2] for row in want]
        for g, w in zip(got, want):
            assert max(abs(a - b) for a, b in zip(g[2:], w[2:])) <= 1e-12

    def test_block_size_leaves_results_unchanged(self, s1, monkeypatch):
        families = [(s1, 40, 1.0, None), (s1, 33, None, "12"),
                    (M3, 12, 0.9, "1231"), (M4, 9, None, None)]
        reports = [(s1, 30, 0.25, "12"), (M3, 12, 0.3, "123"),
                   (s1, 8, 0.01, "12"), (M4, 10, 0.2, "1234")]
        visits = []
        nearest = symbolic._nearest_free_counts

        def counted(*args):
            visits[-1] += 1
            return nearest(*args)

        monkeypatch.setattr(symbolic, "_nearest_free_counts", counted)

        def run():
            visits.append(0)
            rows = [block_alphabet(*f).rows for f in families]
            reps = [abundance_report(*r) for r in reports]
            return rows, reps

        symbolic._walk.cache_clear()
        default = run()
        monkeypatch.setattr(symbolic, "WALK_BLOCK", 7)
        symbolic._walk.cache_clear()  # compare fresh walks, not the memo
        assert run() == default
        # the delta-net stops at the same point: (s1, 8, 0.01) is not dense
        assert visits[0] == visits[1]
        assert default[1][2].a2_delta_dense is False

    def test_filtered_walk_memory_is_bounded(self):
        # m = 8, n = 17: 346,104 types, 5.9e6 of the 6.7e6 bits the budget
        # allows; their counts alone would take 22 MB as one int64 array.
        # The block walk peaked at 0.4 MB here.
        m, n = 8, 17
        p = np.arange(1, m + 1) / (m * (m + 1) / 2)
        sys_ = WeightedSystem(tuple(p.tolist()), (0.1,) * m)
        n_types = math.comb(n + m - 1, m - 1)
        assert n_types * n <= symbolic.BIT_BUDGET / math.log2(m)
        assert n_types * m * 8 > 20e6
        lo, hi = alpha_bounds(sys_)
        symbolic._walk.cache_clear()
        tracemalloc.start()
        try:
            gamma = block_alphabet(sys_, n, lo + 0.05 * (hi - lo))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0 < len(gamma.rows) < 1000
        assert peak < 1.5e6

    def test_walk_leaves_no_object_per_row(self):
        # rows are columns until read, so the collector tracks none of them
        lo, hi = alpha_bounds(M4)
        symbolic._walk.cache_clear()
        gc.collect()
        before = len(gc.get_objects())
        gamma = block_alphabet(M4, 24, lo + 0.6 * (hi - lo))
        gc.collect()
        assert len(gamma.rows) == 2348
        assert len(gc.get_objects()) - before < 50

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(2, 4), seed=st.integers(0, 2 ** 32 - 1),
           n=st.integers(1, 12), tail=st.integers(0, 3),
           cut=st.one_of(st.none(), st.floats(0.0, 1.0)),
           at=st.integers(-200, 200), start=st.integers(-30, 30),
           stop=st.one_of(st.none(), st.integers(-30, 30)),
           step=st.sampled_from([None, 1, 2, -1, -3]))
    def test_rows_view_acts_as_a_tuple(self, m, seed, n, tail, cut, at,
                                       start, stop, step):
        rng = np.random.default_rng(seed)
        sys_ = random_weighted_system(m, rng)
        kappa = "".join(str(int(c)) for c in rng.integers(1, m + 1,
                                                          min(tail, n)))
        lo, hi = alpha_bounds(sys_)
        alpha = None if cut is None else lo + cut * (hi - lo)
        rows = block_alphabet(sys_, n, alpha, kappa).rows
        # the walk's matrix product may differ from the loop's dot products
        # in the last bit
        loop = row_loop_alphabet(sys_, n, alpha, kappa)
        assert [r[:2] for r in rows] == [r[:2] for r in loop]
        assert np.allclose([r[2:] for r in rows], [r[2:] for r in loop],
                           rtol=0.0, atol=1e-12)
        want = tuple(rows)
        assert len(rows) == len(want) and bool(rows) == bool(want)
        if -len(want) <= at < len(want):
            assert rows[at] == want[at] and type(rows[at]) is TypeRow
            assert all(type(c) is int for c in rows[at].counts)
        else:
            with pytest.raises(IndexError):
                rows[at]
        assert rows[start:stop:step] == want[start:stop:step]
        assert rows == want and want == rows and not rows != want
        assert hash(rows) == hash(want)

    @pytest.mark.parametrize("sys_, n, alpha, kappa", [
        (WeightedSystem((1 / 3, 2 / 3), (0.5, 0.5)), 4, 0.5, None),
        (WeightedSystem((1 / 3, 2 / 3), (0.5, 0.5)), 10, 1.0, None),
        (M3, 12, 0.9, "1231"), (M4, 9, None, None)])
    def test_fields_are_filled_by_the_walk(self, sys_, n, alpha, kappa):
        gamma = block_alphabet(sys_, n, alpha, kappa)
        log_counts, log_rs = gamma.log_terms
        assert gamma.block_count == sum(row.count for row in gamma.rows)
        assert np.array_equal(log_counts, np.array(
            [math.log(row.count) for row in gamma.rows]))
        assert np.array_equal(log_rs, np.array(
            [row.log_r for row in gamma.rows]))
        assert not (log_counts.flags.writeable or log_rs.flags.writeable)

    def test_equal_alphabets_compare_and_hash_alike(self, s1):
        a = block_alphabet(s1, 9, 1.1, "12")
        symbolic._walk.cache_clear()  # a fresh walk, not the memo
        b = block_alphabet(s1, 9, 1.1, "12")
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != block_alphabet(s1, 9, 1.0, "12")
        assert block_alphabet(s1, 4, 0.5).block_count == 0

    def test_bad_length(self, s1):
        with pytest.raises(DomainError):
            block_alphabet(s1, 0)

    @pytest.mark.parametrize("n", [2.5, 4.0, "4", None])
    def test_non_integer_length(self, s1, n):
        with pytest.raises(DomainError, match="must be an integer"):
            block_alphabet(s1, n)

    def test_numpy_integer_length(self, s1):
        assert block_alphabet(s1, np.int64(6)).rows == \
            block_alphabet(s1, 6).rows

    def test_tail_longer_than_block(self, s1):
        with pytest.raises(DomainError):
            block_alphabet(s1, 2, kappa="12121")

    def test_bit_budget_is_types_times_free_times_log2_m(self, s1,
                                                         monkeypatch):
        monkeypatch.setattr(symbolic, "BIT_BUDGET", 100)
        assert block_alphabet(s1, 9).block_count == 2 ** 9  # 10 * 9 bits
        with pytest.raises(SizeCapError):
            block_alphabet(s1, 10)  # 11 * 10 bits
        assert block_alphabet(s1, 11, None, "12").block_count == 2 ** 9
        assert block_alphabet(M3, 4).block_count == 3 ** 4  # 15 * 4 * 1.58
        with pytest.raises(SizeCapError):
            block_alphabet(M3, 5)  # 21 * 5 * 1.58 bits

    def test_bit_budget_refuses_before_the_walk(self, s1):
        # 15999 types * 15998 free letters: the walk would run for minutes
        with pytest.raises(SizeCapError):
            block_alphabet(s1, 16000, None, "12")


class TestSubshiftDimension:
    def test_full_alphabet_has_full_dimension(self, s1):
        assert subshift_dimension(block_alphabet(s1, 1)) == pytest.approx(1.0, abs=1e-9)

    def test_three_block_closed_form(self, s1):
        # three blocks of ratio 1/4 solve 3 * 4^-s = 1
        s = subshift_dimension(gamma_n_alpha(s1, 2, 1.1))
        assert s == pytest.approx(math.log(3.0) / math.log(4.0), abs=1e-9)

    def test_three_block_at_float_resolution(self, s1):
        s = subshift_dimension(gamma_n_alpha(s1, 2, 1.1))
        assert abs(s - math.log(3.0) / math.log(4.0)) <= 1e-15

    def test_singleton_alphabet(self, s1):
        assert subshift_dimension(gamma_n_alpha(s1, 3, A_MIN)) == 0.0

    def test_empty_alphabet_rejected(self, s1):
        with pytest.raises(EmptyAlphabetError):
            subshift_dimension(block_alphabet(s1, 4, 0.5))

    def test_monotone_in_alpha(self, s1):
        dims = [subshift_dimension(gamma_n_alpha(s1, 8, a)) for a in (0.9, 1.0, A_MAX)]
        assert dims[0] <= dims[1] <= dims[2]

    def test_grows_toward_spectrum_value(self, s1):
        """Filtered dimensions at alpha=1 climb with n but stay below f(1)."""
        dims = [subshift_dimension(gamma_n_alpha(s1, n, 1.0)) for n in (4, 8, 16, 20)]
        assert all(a < b for a, b in zip(dims, dims[1:]))
        assert dims[-1] < F_AT_1

    def test_margin_at_twenty(self, s1):
        # The kept blocks are the words with at most 8 ones, C(20, k) each,
        # so length 20 falls short of the margin; it closes near n = 128.
        s = subshift_dimension(gamma_n_alpha(s1, 20, 1.0))
        counted = math.log2(sum(math.comb(20, k) for k in range(9))) / 20
        assert s == pytest.approx(counted, abs=1e-12)
        assert counted == pytest.approx(0.900495257, abs=1e-9)
        assert s < F_AT_1 - 0.05

    def test_margin_at_larger_length(self, s1):
        s = subshift_dimension(gamma_n_alpha(s1, 128, 1.0))
        assert s > F_AT_1 - 0.05

    def test_partition_identity_at_root(self, s1):
        gamma = gamma_n_alpha(s1, 10, 1.0)
        s = subshift_dimension(gamma)
        total = sum(row.count * math.exp(s * row.log_r) for row in gamma.rows)
        assert total == pytest.approx(1.0, abs=1e-9)


class TestNearOptimalTypes:
    """Some realized type at large n must nearly attain the spectrum."""

    @pytest.mark.parametrize("alpha", [0.8, 1.0, 1.3])
    def test_type_attains_spectrum(self, s1, alpha):
        target = f_oracle(alpha) if alpha <= ALPHA_AT_0 else 1.0
        gamma = block_alphabet(s1, 2000, alpha)
        best = max(entropy_over_lyapunov(s1, row.counts) for row in gamma.rows)
        assert best >= target - 0.05


class TestGreedyWord:
    def test_interior_alpha_prefix(self, s1):
        w = greedy_word(s1, 1.0, 4)
        assert str(w) == "1221"
        got = local_dim_prefixes(s1, w, [1, 2, 3, 4])
        want = [A_MAX, ALPHA_AT_0, 0.9182958340544897, ALPHA_AT_0]
        assert got == pytest.approx(want, abs=1e-12)

    def test_top_alpha_is_constant(self, s1):
        assert str(greedy_word(s1, A_MAX, 6)) == "111111"

    def test_bottom_alpha_single_high_prefix(self, s1):
        assert str(greedy_word(s1, A_MIN, 6)) == "122222"

    def test_alpha_outside_interval(self, s1):
        with pytest.raises(DomainError):
            greedy_word(s1, 0.4, 10)

    def test_zero_length(self, s1):
        with pytest.raises(DomainError):
            greedy_word(s1, 1.0, 0)

    @pytest.mark.parametrize("alpha", [1.0, A_MAX])
    @pytest.mark.parametrize("length", [5.5, 6.0, "6", None])
    def test_non_integer_length(self, s1, alpha, length):
        with pytest.raises(DomainError):
            greedy_word(s1, alpha, length)

    @pytest.mark.parametrize("alpha", [1.0, A_MAX])
    def test_numpy_integer_length(self, s1, alpha):
        assert greedy_word(s1, alpha, np.int64(6)) == greedy_word(s1, alpha, 6)

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(2, 5), seed=st.integers(0, 2 ** 32 - 1),
           cut=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
           length=st.integers(1, 5000))
    def test_matches_step_loop(self, m, seed, cut, length):
        sys_ = random_weighted_system(m, np.random.default_rng(seed))
        lo, hi = alpha_bounds(sys_)
        alpha = hi if cut == 1.0 else lo + cut * (hi - lo)
        assert greedy_word(sys_, alpha, length).symbols.tolist() == \
            loop_greedy_word(sys_, alpha, length)

    @pytest.mark.parametrize("probs", [(0.25, 0.5, 0.25),
                                       (0.125, 0.5, 0.375)])
    @pytest.mark.parametrize("alpha", [1.1, 1.2, 1.25, 4 / 3, 1.5, 5 / 3, 1.75])
    def test_exact_ties_match_step_loop(self, probs, alpha):
        # dyadic weights over ratio 1/2: running exponents meet alpha exactly
        sys_ = WeightedSystem(probs, (0.5,) * len(probs))
        assert greedy_word(sys_, alpha, 4000).symbols.tolist() == \
            loop_greedy_word(sys_, alpha, 4000)

    def test_convergence_bound(self, random_system):
        """Final exponent sits within the worst single-step increment bound."""
        rng = np.random.default_rng(23)
        length = 20_000
        for _ in range(20):
            sys_ = make_random_system(rng)
            a_lo = float(np.min(sys_.symbol_ratios))
            a_hi = float(np.max(sys_.symbol_ratios))
            alpha = 0.5 * (a_lo + a_hi)
            w = greedy_word(sys_, alpha, length)
            ratio = word_stats(sys_, w).ratio
            step = float(np.max(np.abs(sys_.log_probs - alpha * sys_.log_ratios)))
            denom = length * float(np.min(np.abs(sys_.log_ratios)))
            assert abs(ratio - alpha) <= step / denom + 1e-12


class TestMoran:
    def test_one_walk_per_task(self, monkeypatch):
        # the benchmark task: gamma_n_alpha, then moran_construct on the
        # same (system, n, alpha), walks the filtered family once
        symbolic._walk.cache_clear()
        walks = []
        compositions = symbolic._compositions

        def counted(*args):
            walks.append(args)
            return compositions(*args)

        monkeypatch.setattr(symbolic, "_compositions", counted)
        lo, hi = alpha_bounds(M4)
        alpha = lo + 0.55 * (hi - lo)
        gamma = gamma_n_alpha(M4, 24, alpha)
        spec = moran_construct(M4, alpha, 0.1, 24, 8)
        assert spec.blocks is gamma
        assert walks == [(24, 4)]

    def test_construct_above_crossover(self, s1):
        spec = moran_construct(s1, 1.2, 0.05, 16)
        assert spec.s == pytest.approx(0.95, abs=1e-9)
        assert len(spec.stage_lengths) == 20
        assert all(m >= 1 for m in spec.stage_lengths)
        assert len(spec.spine) == 20 * 16

    def test_spec_is_a_plain_record(self, s1):
        spec = moran_construct(s1, 1.2, 0.05, 16)
        symbolic._walk.cache_clear()  # rebuild from a fresh walk
        again = moran_construct(s1, 1.2, 0.05, 16)
        assert spec is not again and spec == again
        assert hash(spec) == hash(again)
        assert spec != moran_construct(s1, 1.2, 0.05, 16, stages=19)
        _, lr = word_log_arrays(s1, spec.spine)
        assert np.array_equal(spec.stage_log_r, np.cumsum(lr)[15::16])
        m_totals, log_r_totals = spec.stage_totals
        assert m_totals == list(itertools.accumulate(spec.stage_lengths))
        assert np.array_equal(log_r_totals, np.cumsum(spec.stage_log_r))

    @pytest.mark.parametrize("name,n", [("S1", 16), ("S1", 20), ("S1", 64),
                                        ("M3", 12), ("M3", 24), ("M4", 8),
                                        ("M4", 16)])
    def test_spine_matches_block_chase(self, s1, name, n):
        """The spine is the block-level chase, up to rounding at exact ties.

        n cancels in the running exponent, so the two chases choose alike
        unless a prefix exponent equals alpha; there each decides by its own
        rounding (S1 at alpha = A_MIN + j/k with n not a power of two). The
        spine does not depend on eps, which is wide here so that no length
        is refused.
        """
        sys_ = {"S1": s1, "M3": M3, "M4": M4}[name]
        a_lo, a_hi = sys_.symbol_ratios.min(), sys_.symbol_ratios.max()
        for u in np.linspace(0.05, 0.95, 19):
            alpha = a_lo + u * (a_hi - a_lo)
            spine = moran_construct(sys_, alpha, 1.0, n, stages=20).spine
            want = block_chase_spine(sys_, alpha, n, 20)
            if spine == want:
                continue
            k = int(np.argmax(spine.symbols != want.symbols)) // n
            lp, lr = word_log_arrays(sys_, spine[:k * n])
            assert abs(lp.sum() / lr.sum() - alpha) <= 1e-12, (alpha, k)

    def test_spine_ties_take_the_lowest_index(self):
        # symbols 1 and 2 share the top exponent; the full-shift chase took 2
        tied = WeightedSystem((0.2, 0.2, 0.6), (0.3, 0.3, 0.4))
        spine = moran_construct(tied, 0.8, 0.2, 16, stages=10).spine
        assert str(spine).startswith("1" * 16)
        assert set(spine) == {1, 3}
        assert str(block_chase_spine(tied, 0.8, 16, 10)).startswith("2" * 16)

    def test_stage_dimensions_exceed_target(self, s1):
        spec = moran_construct(s1, 1.2, 0.05, 16)
        for k in range(1, 5):
            s_k = moran_dimension(spec, k)
            assert spec.s < s_k < 0.96

    def test_stage_lengths_minimal(self, s1):
        spec = moran_construct(s1, 1.2, 0.05, 16)
        log_counts = np.array([math.log(r.count) for r in spec.blocks.rows])
        log_rs = np.array([r.log_r for r in spec.blocks.rows])
        gain = float(np.logaddexp.reduce(log_counts + spec.s * log_rs))
        assert gain > 0.0
        for k, m_k in enumerate(spec.stage_lengths, start=1):
            penalty = spec.s * word_stats(spec.system, spec.spine[:k * spec.n]).log_r
            assert m_k * gain + penalty > 0.0
            if m_k > 1:
                assert (m_k - 1) * gain + penalty <= 0.0

    @pytest.mark.parametrize("name,u,eps,n", [
        ("S1", 0.6, 0.05, 16), ("S1", 0.7, 0.01, 64), ("S1", 0.4, 0.1, 128),
        ("M3", 0.5, 0.2, 24), ("M4", 0.5, 0.3, 16)])
    def test_stage_lengths_match_the_scan(self, s1, name, u, eps, n):
        # the scan from m = 1 on the library's own floats is the oracle
        sys_ = {"S1": s1, "M3": M3, "M4": M4}[name]
        a_lo, a_hi = alpha_bounds(sys_)
        spec = moran_construct(sys_, a_lo + u * (a_hi - a_lo), eps, n)
        log_counts, log_rs = spec.blocks.log_terms
        gain = logsumexp(log_counts + spec.s * log_rs)
        _, lr = word_log_arrays(sys_, spec.spine)
        spine_log_r = np.cumsum(lr)
        for k, m_k in enumerate(spec.stage_lengths, start=1):
            penalty = spec.s * float(spine_log_r[k * n - 1])
            m = 1
            while m * gain + penalty <= 0.0:
                m += 1
            assert m_k == m, k

    def test_tiny_epsilon_needs_long_stages(self, s1):
        # a scan capped at 10^6 blocks per stage refused this construction
        spec = moran_construct(s1, 1.2, 1e-5, 2000, 20)
        assert spec.stage_lengths[-1] == 1_999_980
        assert spec.stage_lengths == tuple(sorted(spec.stage_lengths))

    @pytest.mark.parametrize("gain", [0.0, -1.0, 1e-300])
    def test_hopeless_gain_is_a_budget_error(self, s1, monkeypatch, gain):
        # no ZeroDivisionError or OverflowError from the closed form
        monkeypatch.setattr(symbolic, "logsumexp", lambda a: gain)
        with pytest.raises(BudgetError):
            moran_construct(s1, 1.2, 0.05, 16)

    @pytest.mark.parametrize("alpha,eps,n,stages", [
        (1.2, 0.05, 16, 20), (1.0, 0.1, 128, 10), (1.3, 0.2, 8, 60)])
    def test_stage_dimensions_read_the_spine_once(self, s1, monkeypatch,
                                                   alpha, eps, n, stages):
        # a stage reads the running sums the spec built once, not the
        # spine; the sum over the spine's stage ends is the bit-exact oracle
        spec = moran_construct(s1, alpha, eps, n, stages)
        calls = []
        real = symbolic.word_log_arrays
        monkeypatch.setattr(symbolic, "word_log_arrays",
                            lambda *a: calls.append(a) or real(*a))
        dims = [moran_dimension(spec, k) for k in range(1, stages + 1)]
        assert len(calls) <= 1
        _, lr = word_log_arrays(s1, spec.spine)
        spine_log_r = np.cumsum(lr)
        log_counts, log_rs = spec.blocks.log_terms
        for k, dim in enumerate(dims, start=1):
            total = float(sum(spine_log_r[j * n - 1] for j in range(1, k + 1)))
            want = lse_root(log_counts, log_rs, 0.0,
                            total / sum(spec.stage_lengths[:k]))
            assert dim == want, k

    def test_stage_root_identity(self, s1):
        spec = moran_construct(s1, 1.2, 0.05, 16)
        s_1 = moran_dimension(spec, 1)
        log_counts = np.array([math.log(r.count) for r in spec.blocks.rows])
        log_rs = np.array([r.log_r for r in spec.blocks.rows])
        _, lr = word_log_arrays(spec.system, spec.spine)
        spine_log_r = float(np.cumsum(lr)[spec.n - 1])
        val = spec.stage_lengths[0] * float(
            np.logaddexp.reduce(log_counts + s_1 * log_rs)) + s_1 * spine_log_r
        assert abs(math.expm1(val)) < 1e-6

    def test_short_blocks_refused_with_report(self, s1):
        with pytest.raises(NeedLargerN) as exc:
            moran_construct(s1, 1.0, 0.1, 16)
        assert exc.value.achieved == pytest.approx(0.866397, abs=1e-5)
        assert exc.value.required == pytest.approx(0.929070, abs=1e-5)

    def test_longer_blocks_succeed(self, s1):
        spec = moran_construct(s1, 1.0, 0.1, 128)
        assert spec.s == pytest.approx(F_AT_1 - 0.1, abs=1e-9)
        assert moran_dimension(spec, 1) > spec.s

    def test_alpha_at_endpoint_rejected(self, s1):
        with pytest.raises(DomainError):
            moran_construct(s1, A_MAX, 0.05, 16)

    def test_bad_epsilon(self, s1):
        with pytest.raises(DomainError):
            moran_construct(s1, 1.2, 0.0, 16)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_non_finite_epsilon(self, s1, eps):
        with pytest.raises(DomainError, match="not finite"):
            moran_construct(s1, 1.0, eps, 16)

    def test_bad_stage_count(self, s1):
        with pytest.raises(DomainError):
            moran_construct(s1, 1.2, 0.05, 16, stages=0)

    @pytest.mark.parametrize("stages", [2.5, math.nan, "20", None])
    def test_non_integer_stages_refused_before_the_walk(self, s1, stages,
                                                       monkeypatch):
        def refuse(*args):
            raise AssertionError("moran_construct walked the family")

        monkeypatch.setattr(symbolic, "_walk", refuse)
        with pytest.raises(DomainError, match="stages must be an integer"):
            moran_construct(s1, 1.2, 0.05, 16, stages=stages)

    def test_stage_out_of_range(self, s1):
        spec = moran_construct(s1, 1.2, 0.05, 16)
        with pytest.raises(DomainError):
            moran_dimension(spec, 21)

    @pytest.mark.parametrize("k", [1.5, 2.0, math.nan])
    def test_non_integer_stage(self, s1, k):
        spec = moran_construct(s1, 1.2, 0.05, 16)
        with pytest.raises(DomainError, match="must be an integer"):
            moran_dimension(spec, k)
        assert moran_dimension(spec, np.int64(2)) == moran_dimension(spec, 2)

    def test_json_dict_fields(self, s1):
        spec = moran_construct(s1, 1.2, 0.05, 16)
        d = spec.to_json_dict()
        assert set(d) == {"n", "alpha", "epsilon", "s", "M", "spine", "block_count"}
        assert d["M"] == list(spec.stage_lengths)


class TestAbundance:
    def test_appended_family_ratios(self, s1):
        rep = abundance_report(s1, 8, 0.25, kappa="12")
        assert rep.a1_min_ratio == 0.125
        assert rep.a2_delta_dense is True
        assert rep.kappa == "12"

    @pytest.mark.parametrize("case", [("S1", 200, "12"), ("S1", 9, "2"),
                                      ("S1", 301, "1121"), ("M3", 60, "1231"),
                                      ("M4", 16, "1234"), ("M4", 12, "44")])
    def test_a1_matches_multinomial_quotient(self, s1, case):
        name, n, kappa = case
        sys_ = {"S1": s1, "M3": M3, "M4": M4}[name]
        rows = block_alphabet(sys_, n, None, kappa).rows
        want = min(1.0, min(row.count / _multinomial(n, row.counts)
                            for row in rows))
        assert abundance_report(sys_, n, 0.5, kappa).a1_min_ratio == want

    @settings(max_examples=80, deadline=None)
    @given(m=st.integers(2, 4), seed=st.integers(0, 2 ** 32 - 1),
           tail=st.integers(0, 6), extra=st.integers(1, 30))
    def test_closed_form_a1_matches_the_walk(self, m, seed, tail, extra):
        rng = np.random.default_rng(seed)
        sys_ = random_weighted_system(m, rng)
        kappa = "".join(str(int(c)) for c in rng.integers(1, m + 1, tail))
        n = tail + extra
        want = min(1.0, min(row.count / _multinomial(n, row.counts)
                            for row in block_alphabet(sys_, n, None,
                                                      kappa).rows))
        assert abundance_report(sys_, n, 0.5, kappa).a1_min_ratio == want

    def test_report_does_not_walk_the_family(self, s1, monkeypatch):
        def refuse(*args):
            raise AssertionError("abundance_report walked the family")

        monkeypatch.setattr(symbolic, "block_alphabet", refuse)
        monkeypatch.setattr(symbolic, "_walk", refuse)
        assert abundance_report(s1, 8, 0.25, "12").a1_min_ratio == 0.125
        assert abundance_report(M3, 60, 0.25, "1231").a1_min_ratio > 0.0

    def test_past_the_bit_budget(self, s1):
        # the family itself is over BIT_BUDGET; the closed form needs no walk
        rep = abundance_report(s1, 16000, 0.25, "12")
        assert rep.a1_min_ratio == 1 / 16000

    def test_largest_length_answers(self, s1):
        rep = abundance_report(s1, 2 ** 53, 0.3, "12")
        assert rep.a1_min_ratio == 2.0 ** -53

    @pytest.mark.parametrize("n", [2 ** 53 + 1, 10 ** 30, 10 ** 400])
    def test_length_past_exact_rounding(self, s1, n):
        # q*n no longer rounds within one unit, so the net check is refused
        with pytest.raises(SizeCapError, match="2\\*\\*53"):
            abundance_report(s1, n, 0.3, "12")

    def test_full_family_is_trivial(self, s1):
        assert abundance_report(s1, 8, 0.25).a1_min_ratio == 1.0

    def test_fine_delta_fails_density(self, s1):
        assert abundance_report(s1, 8, 0.01, kappa="12").a2_delta_dense is False

    def test_bad_delta(self, s1):
        with pytest.raises(DomainError):
            abundance_report(s1, 8, 0.0)

    @pytest.mark.parametrize("n", [2.5, 8.0])
    def test_non_integer_length(self, s1, n):
        with pytest.raises(DomainError, match="must be an integer"):
            abundance_report(s1, n, 0.5)

    @pytest.mark.parametrize("delta", [math.nan, math.inf])
    def test_non_finite_delta(self, s1, delta):
        with pytest.raises(DomainError):
            abundance_report(s1, 8, delta)

    def test_tail_fills_block(self, s1):
        with pytest.raises(DomainError):
            abundance_report(s1, 2, 0.25, kappa="12")

    @pytest.mark.parametrize("kappa", ["13", Word([2, 3])])
    def test_tail_symbol_above_m(self, s1, kappa):
        with pytest.raises(RangeError, match="symbol 3 but the system has m=2"):
            abundance_report(s1, 8, 0.25, kappa)


@pytest.mark.parametrize("call", [
    lambda s: greedy_word(s, "x", 10),
    lambda s: greedy_word(s, None, 10),
    lambda s: moran_construct(s, "x", 0.1, 16, 3),
    lambda s: moran_construct(s, 1.0, "x", 16, 3),
    lambda s: abundance_report(s, 8, "x", "12"),
    lambda s: block_alphabet(s, 8, "x"),
    lambda s: block_alphabet(s, 8, math.nan),
    lambda s: gamma_n_alpha(s, 8, math.nan),
], ids=["greedy_str", "greedy_none", "moran_alpha", "moran_eps",
        "abundance_delta", "block_str", "block_nan", "gamma_nan"])
def test_real_arguments_that_are_not_numbers(s1, call):
    symbolic._walk.cache_clear()
    with pytest.raises(DomainError):
        call(s1)


def test_alpha_cap_is_the_given_value(s1):
    # the memo is typed, so an int cut keeps its own entry and alpha_cap
    assert type(block_alphabet(s1, 8, 1).alpha_cap) is int
    assert type(block_alphabet(s1, 8, 1.0).alpha_cap) is float
    assert block_alphabet(s1, 8, 1).rows == block_alphabet(s1, 8, 1.0).rows


WORD_ENTRY_POINTS = {
    "assouad_estimate": lambda s, w: assouad_estimate(s, w, (1, 3)),
    "window_sups": lambda s, w: window_sups(s, w, (1, 2)),
    "local_dim_prefixes": lambda s, w: local_dim_prefixes(s, w, [1, 2]),
    "word_stats": word_stats,
    "fixed_point": fixed_point,
    "cylinder_interval": cylinder_interval,
    "block_alphabet": lambda s, w: block_alphabet(s, 4, None, w),
}


@pytest.mark.parametrize("word", [[1, 2, 1, 2, 1, 2], np.array([1, 2, 1]),
                                  (1, 2), 5], ids=["list", "array", "tuple",
                                                   "int"])
@pytest.mark.parametrize("entry", list(WORD_ENTRY_POINTS))
def test_word_that_is_not_a_word(s1, entry, word):
    with pytest.raises(DomainError, match="word must be a Word, not"):
        WORD_ENTRY_POINTS[entry](s1, word)


def test_string_word_is_not_a_word(s1):
    # block_alphabet reads a string tail as a Word; the scans do not
    with pytest.raises(DomainError, match="word must be a Word, not str"):
        window_sups(s1, "1212", (1, 2))
