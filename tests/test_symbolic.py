"""Tests for type vectors, block alphabets, greedy words, and Moran stages.

Small-n block alphabets are cross-checked against direct enumeration of
{1..m}^n, grouped by type, so the type-level bookkeeping is never trusted
blind.
"""

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multifractal import (
    DenominatorError,
    DomainError,
    EmptyAlphabetError,
    EmptyWordError,
    NeedLargerN,
    PrefixTooShort,
    SizeCapError,
    TypeVector,
    WindowRangeError,
    Word,
    abundance_report,
    assouad_estimate,
    block_alphabet,
    entropy_functionals,
    gamma_n_alpha,
    greedy_word,
    local_dim_prefixes,
    moran_construct,
    moran_dimension,
    subshift_dimension,
    type_class_log_count,
    type_of,
    word_stats,
)
from multifractal import symbolic
from multifractal.symbolic import _compositions
from multifractal.system import WeightedSystem, word_log_arrays

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


def recursive_compositions(total, parts):
    """Compositions of total into parts, head first: the lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in recursive_compositions(total - head, parts - 1):
            yield (head,) + rest


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
    return dict(Counter(type_of(Word.from_string(w), m).counts for w in words))


def type_counts(gamma):
    return {row.counts: row.count for row in gamma.rows}


class TestTypeVector:
    def test_counts_of_word(self):
        t = type_of(Word.from_string("1221"))
        assert t.counts == (2, 2)
        assert t.n == 4 and t.m == 2

    def test_explicit_m_pads(self):
        t = type_of(Word.from_string("11"), m=3)
        assert t.counts == (2, 0, 0)

    def test_symbol_above_m_rejected(self):
        with pytest.raises(DomainError):
            type_of(Word.from_string("13"), m=2)

    def test_empty_word_rejected(self):
        with pytest.raises(EmptyWordError):
            type_of(Word([]))

    def test_freqs_are_exact_fractions(self):
        from fractions import Fraction

        t = type_of(Word.from_string("122"))
        assert t.freqs == (Fraction(1, 3), Fraction(2, 3))

    def test_negative_counts_rejected(self):
        with pytest.raises(DomainError):
            TypeVector((1, -1))

    def test_zero_total_rejected(self):
        with pytest.raises(EmptyWordError):
            TypeVector((0, 0))

    def test_as_array_normalized(self):
        assert type_of(Word.from_string("1222")).as_array() == pytest.approx([0.25, 0.75])


class TestEntropyFunctionals:
    def test_uniform_pair(self, s1):
        ef = entropy_functionals(s1, [0.5, 0.5])
        assert ef.entropy == pytest.approx(math.log(2.0), abs=1e-15)
        assert ef.cross_entropy == pytest.approx(0.5 * math.log(4.5), abs=1e-15)
        assert ef.lyapunov == pytest.approx(math.log(2.0), abs=1e-15)

    def test_point_mass_zero_entropy(self, s1):
        # 0 log 0 must contribute nothing
        ef = entropy_functionals(s1, [1.0, 0.0])
        assert ef.entropy == 0.0
        assert ef.cross_entropy == pytest.approx(math.log(3.0))
        assert ef.lyapunov == pytest.approx(math.log(2.0))

    def test_accepts_type_vector(self, s1):
        t = type_of(Word.from_string("12"))
        assert entropy_functionals(s1, t).entropy == pytest.approx(math.log(2.0))

    def test_wrong_length_rejected(self, s1):
        with pytest.raises(DomainError):
            entropy_functionals(s1, [0.2, 0.3, 0.5])

    def test_bad_sum_rejected(self, s1):
        with pytest.raises(DomainError):
            entropy_functionals(s1, [0.6, 0.6])

    def test_cross_entropy_dominates_entropy(self, random_system):
        rng = np.random.default_rng(11)
        for _ in range(25):
            sys_ = make_random_system(rng)
            q = rng.dirichlet(np.ones(sys_.m))
            ef = entropy_functionals(sys_, q)
            assert ef.cross_entropy >= ef.entropy - 1e-12


class TestTypeClassCount:
    def test_exact_binomial(self):
        tc = type_class_log_count(8, [3 / 8, 5 / 8])
        assert tc.count == math.comb(8, 3)
        assert tc.exact_log == pytest.approx(math.log(56))

    def test_non_lattice_frequency(self):
        with pytest.raises(DenominatorError):
            type_class_log_count(8, [0.3, 0.7])

    @given(st.integers(2, 60), st.integers(0, 60))
    @settings(max_examples=60, deadline=None)
    def test_entropy_sandwich(self, n, k):
        if k > n:
            k = k % (n + 1)
        tc = type_class_log_count(n, [k / n, (n - k) / n])
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
            est = assouad_estimate(sys_, word, (5, 50))
            assert est.per_n_sup.min() >= a_lo - 1e-12
            assert est.per_n_sup.max() <= a_hi + 1e-12

    def test_constant_word_is_exact(self, s1):
        w = Word.periodic("1", 500)
        est = assouad_estimate(s1, w, (10, 100))
        assert est.estimate == pytest.approx(A_MAX, abs=1e-12)
        assert np.allclose(est.per_n_sup, A_MAX)

    def test_periodic_word_matches_pattern_ratio(self, s1):
        w = Word.periodic("12", 10_000)
        est = assouad_estimate(s1, w, (2000, 4000))
        want = (math.log(3.0) + math.log(1.5)) / (2.0 * math.log(2.0))
        assert abs(est.estimate - want) <= 5e-3

    def test_window_grid_shape(self, s1):
        est = assouad_estimate(s1, Word.periodic("12", 100), (5, 20))
        assert est.ns.tolist() == list(range(5, 21))
        assert est.per_n_sup.size == 16

    @pytest.mark.parametrize("rng", [(0, 5), (5, 3), (5, 200)])
    def test_bad_window_range(self, s1, rng):
        with pytest.raises(WindowRangeError):
            assouad_estimate(s1, Word.periodic("12", 100), rng)


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

    @pytest.mark.parametrize("parts", [1, 2, 3, 4, 5])
    def test_compositions_match_recursive_walk(self, parts):
        for total in range(30):
            got = list(_compositions(total, parts))
            assert got == list(recursive_compositions(total, parts))
            assert len(got) == math.comb(total + parts - 1, parts - 1)

    def test_exponent_extremes(self, s1):
        gamma = block_alphabet(s1, 4, None)
        assert gamma.alpha_min == pytest.approx(A_MIN)
        assert gamma.alpha_max == pytest.approx(A_MAX)

    def test_empty_alphabet_properties_raise(self, s1):
        gamma = block_alphabet(s1, 4, 0.5)
        assert gamma.block_count == 0
        with pytest.raises(EmptyAlphabetError):
            gamma.alpha_min

    def test_bad_length(self, s1):
        with pytest.raises(DomainError):
            block_alphabet(s1, 0)

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
        best = 0.0
        for row in gamma.rows:
            ef = entropy_functionals(s1, TypeVector(row.counts))
            if ef.lyapunov > 0.0:
                best = max(best, ef.entropy / ef.lyapunov)
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
    def test_construct_above_crossover(self, s1):
        spec = moran_construct(s1, 1.2, 0.05, 16)
        assert spec.s == pytest.approx(0.95, abs=1e-9)
        assert len(spec.stage_lengths) == 20
        assert all(m >= 1 for m in spec.stage_lengths)
        assert len(spec.spine) == 20 * 16
        assert spec.growth_constant == pytest.approx(
            max(m / k for k, m in enumerate(spec.stage_lengths, start=1)))

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

    def test_stage_out_of_range(self, s1):
        spec = moran_construct(s1, 1.2, 0.05, 16)
        with pytest.raises(DomainError):
            moran_dimension(spec, 21)

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

    def test_full_family_is_trivial(self, s1):
        assert abundance_report(s1, 8, 0.25).a1_min_ratio == 1.0

    def test_fine_delta_fails_density(self, s1):
        assert abundance_report(s1, 8, 0.01, kappa="12").a2_delta_dense is False

    def test_bad_delta(self, s1):
        with pytest.raises(DomainError):
            abundance_report(s1, 8, 0.0)

    @pytest.mark.parametrize("delta", [math.nan, math.inf])
    def test_non_finite_delta(self, s1, delta):
        with pytest.raises(DomainError):
            abundance_report(s1, 8, delta)

    def test_tail_fills_block(self, s1):
        with pytest.raises(DomainError):
            abundance_report(s1, 2, 0.25, kappa="12")

