import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from multifractal import (
    DomainError,
    SpectrumRow,
    alpha_bounds,
    alpha_of_q,
    assouad_scan,
    ball_measure,
    doubling_scan,
    f_bar,
    f_of_alpha,
    greedy_word,
    legendre_numeric,
    q_of_alpha,
    solve_tau,
    spectrum_table,
    tilted_vector,
    type_class_log_count,
)
from multifractal import spectrum
from multifractal.spectrum import _f_both

from conftest import make_equal_ratio_system, make_random_system

LN2, LN3 = math.log(2), math.log(3)
A_MIN = math.log(1.5) / LN2
A_MAX = LN3 / LN2


def s1_f_oracle(alpha: float) -> float:
    """Spectrum of the (1/3, 2/3) half-ratio system, counted by hand.

    A length-n word with k ones has exponent A_MIN + k/n, and there are
    C(n, k) of them covering intervals of size 2^-n, so the level set of
    alpha has dimension h(alpha - A_MIN) / ln 2 with h the entropy of a
    Bernoulli(w) distribution.
    """
    w = alpha - A_MIN
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"alpha {alpha} out of range")
    if w in (0.0, 1.0):
        return 0.0
    return -(w * math.log(w) + (1 - w) * math.log(1 - w)) / LN2


class TestSolveTau:
    def test_tau1_zero(self, s1):
        assert abs(solve_tau(s1, 1.0)) < 1e-12

    def test_tau0_is_similarity_dimension(self, s1):
        assert solve_tau(s1, 0.0) == pytest.approx(1.0, abs=1e-10)

    def test_tau0_exact_on_s1(self, s1):
        assert solve_tau(s1, 0.0) == 1.0

    def test_tau0_equal_ratio_closed_form(self):
        # the 100 equal-ratio systems of acceptance criterion 01
        rng = np.random.default_rng(1)
        for _ in range(100):
            s = make_equal_ratio_system(rng)
            closed = math.log(s.m) / math.log(1.0 / s.ratios[0])
            assert abs(solve_tau(s, 0.0) - closed) <= 1e-14

    def test_residual_at_float_resolution(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            s = make_random_system(rng)
            for q in np.linspace(-15.0, 15.0, 61):
                tau = solve_tau(s, q)
                total = math.fsum(p ** q * r ** tau
                                  for p, r in zip(s.probs, s.ratios))
                assert abs(total - 1.0) <= 1e-13, (s, q)

    @pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf,
                                   1.7e308, -1.7e308])
    def test_non_finite_or_overflowing_q_rejected(self, s1, q):
        # refused before numpy could warn of an overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                solve_tau(s1, q)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_largest_accepted_q_solves_quietly(self, s1, sign):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isfinite(solve_tau(s1, sign * s1.q_limit))

    def test_huge_q_closed_form(self, s1):
        # one term dominates: tau = q log2(2/3) for q -> +inf, q log2 3 for -inf
        assert solve_tau(s1, 1e6) == pytest.approx(1e6 * math.log2(2 / 3),
                                                   rel=1e-12)
        assert solve_tau(s1, -1e6) == pytest.approx(1e6 * math.log2(3),
                                                    rel=1e-12)

    def test_tau2_closed_form(self, s1):
        # sum p_i^2 = 5/9, both ratios 1/2
        assert solve_tau(s1, 2.0) == pytest.approx(math.log2(5 / 9), abs=1e-12)

    def test_residual_identity_random(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            s = make_random_system(rng)
            for q in (-5.0, -1.0, 0.0, 0.5, 1.0, 3.0, 10.0):
                tau = solve_tau(s, q)
                total = sum(p ** q * r ** tau
                            for p, r in zip(s.probs, s.ratios))
                assert total == pytest.approx(1.0, abs=1e-9)

    @given(q=st.floats(-15, 15))
    @settings(max_examples=60, deadline=None)
    def test_residual_identity_s1_fuzz(self, q):
        s = make_random_system(np.random.default_rng(11))
        tau = solve_tau(s, q)
        total = sum(p ** q * r ** tau for p, r in zip(s.probs, s.ratios))
        assert total == pytest.approx(1.0, abs=1e-9)

    @given(seed=st.integers(0, 2 ** 32 - 1), q=st.floats(-50, 50))
    @settings(max_examples=200, deadline=None)
    def test_slope_is_minus_alpha(self, seed, q):
        s = make_random_system(np.random.default_rng(seed))
        h = 1e-4
        slope = (solve_tau(s, q + h) - solve_tau(s, q - h)) / (2 * h)
        assert abs(slope + alpha_of_q(s, q)) <= 1e-7

    def test_convexity_on_grid(self, s1):
        qs = np.linspace(-10, 10, 101)
        taus = np.array([solve_tau(s1, q) for q in qs])
        assert np.diff(taus, 2).min() >= -1e-9

    def test_strictly_decreasing(self, s1):
        qs = np.linspace(-10, 10, 51)
        taus = np.array([solve_tau(s1, q) for q in qs])
        assert (np.diff(taus) < 0).all()


def mp_tau(sys_, q: float) -> float:
    """Root of sum p_i^q r_i^t = 1 from the float inputs, to 60 digits.

    q log p_i and t log r_i nearly cancel, so the working precision carries
    the digits of q as well. Newton from the largest single-term root rises
    to the root, as in solve_tau, but in mpmath.
    """
    import mpmath  # a test dependency only; the package needs numpy alone

    with mpmath.workdps(60 + int(math.log10(1.0 + abs(q)))):
        q = mpmath.mpf(q)
        lp = [mpmath.log(mpmath.mpf(p)) for p in sys_.probs]
        lr = [mpmath.log(mpmath.mpf(r)) for r in sys_.ratios]
        t = max(-q * a / b for a, b in zip(lp, lr))
        for _ in range(100):
            terms = [mpmath.exp(q * a + t * b) for a, b in zip(lp, lr)]
            total = mpmath.fsum(terms)
            slope = mpmath.fsum(w * b for w, b in zip(terms, lr)) / total
            step = mpmath.log(total) / slope
            t -= step
            if abs(step) <= mpmath.mpf(10) ** -50 * max(1, abs(t)):
                return float(t)
    raise AssertionError(f"mpmath Newton did not settle at q={q}")


ORACLE_Q = st.one_of(st.floats(-spectrum.Q_CAP, spectrum.Q_CAP),
                     st.sampled_from(["+limit", "-limit", 0.0, 1.0]))


def _oracle_q(sys_, q) -> float:
    return {"+limit": sys_.q_limit, "-limit": -sys_.q_limit}.get(q, q)


class TestTauOracle:
    @given(seed=st.integers(0, 2 ** 32 - 1), q=ORACLE_Q)
    @settings(max_examples=300, deadline=None)
    def test_matches_high_precision_root(self, seed, q):
        s = make_random_system(np.random.default_rng(seed))
        q = _oracle_q(s, q)
        tau = solve_tau(s, q)
        assert abs(tau - mp_tau(s, q)) <= 1e-14 * max(1.0, abs(tau)), (s, q)

    @given(seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_tau1_is_exactly_zero(self, seed):
        assert solve_tau(make_random_system(np.random.default_rng(seed)),
                         1.0) == 0.0

    @given(seed=st.integers(0, 2 ** 32 - 1), q=ORACLE_Q)
    @settings(max_examples=200, deadline=None)
    def test_tilted_vector_is_the_weights_at_tau(self, seed, q):
        s = make_random_system(np.random.default_rng(seed))
        q = _oracle_q(s, q)
        x = q * s.log_probs + solve_tau(s, q) * s.log_ratios
        w = np.exp(x - x.max())
        assert np.array_equal(tilted_vector(s, q), w / w.sum())


class TestTiltedVector:
    def test_q0_equal_ratio(self, s1):
        assert tilted_vector(s1, 0.0) == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_q1_recovers_weights(self, s1):
        assert tilted_vector(s1, 1.0) == pytest.approx([1 / 3, 2 / 3],
                                                       abs=1e-12)

    def test_q2_closed_form(self, s1):
        # proportional to p_i^2: (1/9, 4/9) -> (1/5, 4/5)
        assert tilted_vector(s1, 2.0) == pytest.approx([0.2, 0.8], abs=1e-12)

    def test_normalized_random(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            s = make_random_system(rng)
            w = tilted_vector(s, float(rng.uniform(-8, 8)))
            assert w.sum() == pytest.approx(1.0, abs=1e-12)
            assert (w > 0).all()


class TestAlphaOfQ:
    def test_alpha_at_one_is_entropy_quotient(self, s1):
        expected = (LN3 / 3 + 2 * math.log(1.5) / 3) / LN2
        assert alpha_of_q(s1, 1.0) == pytest.approx(expected, abs=1e-12)

    def test_alpha_at_zero(self, s1):
        expected = (LN3 + math.log(1.5)) / (2 * LN2)
        assert alpha_of_q(s1, 0.0) == pytest.approx(expected, abs=1e-12)

    def test_decreasing_in_q(self, s1):
        qs = np.linspace(-20, 20, 41)
        alphas = [alpha_of_q(s1, q) for q in qs]
        assert all(a > b for a, b in zip(alphas, alphas[1:]))

    def test_range_within_bounds(self, s1):
        lo, hi = alpha_bounds(s1)
        for q in (-50, -5, 0, 5, 50):
            assert lo < alpha_of_q(s1, q) < hi


class TestQOfAlpha:
    def test_inverts_alpha_of_q(self, s1):
        for q in (-6.0, -1.0, 0.0, 0.7, 2.5, 8.0):
            alpha = alpha_of_q(s1, q)
            q_hat = q_of_alpha(s1, alpha)
            assert alpha_of_q(s1, q_hat) == pytest.approx(alpha, abs=1e-9)

    def test_outside_open_interval_rejected(self, s1):
        lo, hi = alpha_bounds(s1)
        with pytest.raises(DomainError):
            q_of_alpha(s1, lo)
        with pytest.raises(DomainError):
            q_of_alpha(s1, hi + 0.1)

    def test_degenerate_maps_to_zero(self, uniform2):
        assert q_of_alpha(uniform2, 1.0) == 0.0
        with pytest.raises(DomainError):
            q_of_alpha(uniform2, 1.2)

    @given(seed=st.integers(0, 2 ** 32 - 1),
           where=st.sampled_from(["inside", "near_lo", "near_hi"]),
           u=st.floats(0.0, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_hits_alpha_within_tolerance(self, seed, where, u):
        s = make_random_system(np.random.default_rng(seed))
        lo, hi = alpha_bounds(s)
        alpha = {"inside": lo + u * (hi - lo), "near_lo": lo + u * 1e-12,
                 "near_hi": hi - u * 1e-12}[where]
        assume(lo < alpha < hi)
        assert abs(alpha_of_q(s, q_of_alpha(s, alpha)) - alpha) <= 1e-12

    def test_few_tilts_per_inversion(self, s1, monkeypatch):
        calls = []

        def counted(sys_, q, tilt=spectrum._tilt):
            calls.append(q)
            return tilt(sys_, q)

        monkeypatch.setattr(spectrum, "_tilt", counted)
        lo, hi = alpha_bounds(s1)
        for u in np.linspace(0.02, 0.98, 49):
            calls.clear()
            q_of_alpha(s1, lo + u * (hi - lo))
            assert len(calls) <= 12, u


class TestSpectrum:
    def test_matches_hand_count_on_grid(self, s1):
        for alpha in np.linspace(A_MIN + 0.02, A_MAX - 0.02, 33):
            assert f_of_alpha(s1, float(alpha)) == pytest.approx(
                s1_f_oracle(float(alpha)), abs=1e-9)

    def test_frozen_values(self, s1):
        assert f_of_alpha(s1, 0.9) == pytest.approx(0.8989030597411442,
                                                    abs=1e-10)
        assert f_of_alpha(s1, 1.0) == pytest.approx(0.9790700349724247,
                                                    abs=1e-10)
        assert f_of_alpha(s1, 1.2) == pytest.approx(0.9614716072280846,
                                                    abs=1e-10)

    def test_maximum_at_alpha0(self, s1):
        a0 = alpha_of_q(s1, 0.0)
        assert f_of_alpha(s1, a0) == pytest.approx(solve_tau(s1, 0.0),
                                                   abs=1e-10)

    def test_fixed_point_at_alpha1(self, s1):
        a1 = alpha_of_q(s1, 1.0)
        assert f_of_alpha(s1, a1) == pytest.approx(a1, abs=1e-10)

    def test_endpoint_limits_vanish(self, s1):
        lo, hi = alpha_bounds(s1)
        assert abs(f_of_alpha(s1, lo)) < 1e-3
        assert abs(f_of_alpha(s1, hi)) < 1e-3

    def test_outside_bounds_rejected(self, s1):
        with pytest.raises(DomainError):
            f_of_alpha(s1, 0.3)

    def test_degenerate_point_spectrum(self, uniform2):
        assert f_of_alpha(uniform2, 1.0) == pytest.approx(1.0, abs=1e-10)

    def test_two_routes_agree(self, s1):
        for alpha in np.linspace(A_MIN + 0.01, A_MAX - 0.01, 25):
            leg, quo, _, capped = _f_both(s1, float(alpha))
            assert not capped
            assert abs(leg - quo) <= 1e-8

    def test_against_legendre_grid_minimum(self, s1):
        alphas = np.linspace(alpha_of_q(s1, 60.0), alpha_of_q(s1, -60.0), 16)
        legs = legendre_numeric(s1, alphas)
        for a, lg in zip(alphas, legs):
            assert f_of_alpha(s1, float(a)) == pytest.approx(lg, abs=1e-4)

    def test_legendre_scalar_form(self, s1):
        assert legendre_numeric(s1, 1.0) == pytest.approx(
            f_of_alpha(s1, 1.0), abs=1e-4)

    @pytest.mark.parametrize("grid", [[], np.zeros((0,)), [[0.0, 1.0]],
                                      np.zeros((2, 3)), 1.0])
    def test_legendre_grid_not_flat_or_empty(self, s1, grid):
        with pytest.raises(DomainError, match="q grid"):
            legendre_numeric(s1, 1.0, grid)

    @pytest.mark.parametrize("alpha", [
        math.nan, math.inf, -math.inf, [1.0, math.nan], np.array([math.inf]),
        np.array([[1.0], [-math.inf]])])
    def test_legendre_refuses_non_finite_alpha(self, s1, alpha):
        with pytest.raises(DomainError, match="alpha must be finite"):
            legendre_numeric(s1, alpha, [0.0, 1.0])


class TestFBar:
    def test_flat_above_alpha0(self, s1):
        a0 = alpha_of_q(s1, 0.0)
        tau0 = solve_tau(s1, 0.0)
        for alpha in (a0 + 0.05, 1.3, A_MAX - 0.01):
            assert f_bar(s1, alpha) == pytest.approx(tau0, abs=1e-10)

    def test_equals_f_below_alpha0(self, s1):
        for alpha in (0.7, 0.9, 1.0):
            assert f_bar(s1, alpha) == f_of_alpha(s1, alpha)

    def test_monotone_up_to_alpha0(self, s1):
        grid = np.linspace(A_MIN + 0.02, alpha_of_q(s1, 0.0), 20)
        vals = [f_bar(s1, float(a)) for a in grid]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


class TestSpectrumTable:
    def test_rows_follow_q_grid(self, s1):
        qs = [-2.0, 0.0, 1.0, 2.0]
        table = spectrum_table(s1, qs)
        assert [row.q for row in table] == qs
        row1 = table[2]
        assert abs(row1.tau) < 1e-10
        assert row1.f == pytest.approx(row1.alpha, abs=1e-10)

    def test_f_equals_legendre_at_q(self, s1):
        table = spectrum_table(s1, np.linspace(-4, 4, 17))
        for row in table:
            assert row.f == pytest.approx(row.alpha * row.q + row.tau,
                                          abs=1e-12)
            assert row.f_bar >= row.f - 1e-12

    def test_one_tau_solve_per_row(self, s1, monkeypatch):
        # _tilt is the one way into the tau solve, solve_tau's included
        calls = []

        def counted(sys_, q, tilt=spectrum._tilt):
            calls.append(q)
            return tilt(sys_, q)

        monkeypatch.setattr(spectrum, "_tilt", counted)
        spectrum_table(s1, np.linspace(-5.0, 5.0, 11))
        assert len(calls) == 12  # each row's q, plus q = 0 for f_bar

    def test_returns_tuple_of_rows(self, s1):
        table = spectrum_table(s1, [0.0])
        assert isinstance(table, tuple)
        assert [type(row) for row in table] == [SpectrumRow]

    def test_empty_grid(self, s1):
        assert len(spectrum_table(s1, [])) == 0


NOT_NUMBERS = {
    "solve_tau": lambda s: solve_tau(s, None),
    "f_of_alpha": lambda s: f_of_alpha(s, "x"),
    "alpha_of_q": lambda s: alpha_of_q(s, "x"),
    "q_of_alpha": lambda s: q_of_alpha(s, "x"),
    "f_bar": lambda s: f_bar(s, "x"),
    "ball_measure": lambda s: ball_measure(s, "x", 0.1),
    "doubling_scan": lambda s: doubling_scan(s, "x", 2.0, [0.1]),
    "assouad_scan": lambda s: assouad_scan(s, "x", [0.5, 0.125]),
    "legendre_alpha": lambda s: legendre_numeric(s, "abc", [0.0, 1.0]),
    "legendre_grid": lambda s: legendre_numeric(s, 1.0, ["a"]),
    "table_strings": lambda s: spectrum_table(s, ["a"]),
    "table_none": lambda s: spectrum_table(s, None),
}


@pytest.mark.parametrize("call", NOT_NUMBERS.values(), ids=NOT_NUMBERS)
def test_arguments_that_are_not_numbers(s1, call):
    with pytest.raises(DomainError, match="must be (a number|numbers)"):
        call(s1)


PAST_FLOAT_RANGE = {
    "solve_tau": lambda s: solve_tau(s, 10 ** 400),
    "f_bar": lambda s: f_bar(s, 10 ** 400),
    "q_of_alpha": lambda s: q_of_alpha(s, 10 ** 400),
    "spectrum_table": lambda s: spectrum_table(s, [10 ** 400]),
    "legendre_alpha": lambda s: legendre_numeric(s, 10 ** 400, [0.0, 1.0]),
    "legendre_grid": lambda s: legendre_numeric(s, 1.0, [10 ** 400]),
    "ball_measure": lambda s: ball_measure(s, 10 ** 400, 0.1),
    "doubling_scales": lambda s: doubling_scan(s, 0.3, 2.0, [10 ** 400]),
    "greedy_alpha": lambda s: greedy_word(s, 10 ** 400, 5),
    "type_class_total": lambda s: type_class_log_count([10 ** 400]),
}


@pytest.mark.parametrize("call", PAST_FLOAT_RANGE.values(),
                         ids=PAST_FLOAT_RANGE)
def test_ints_past_the_float_range(s1, call):
    with pytest.raises(DomainError):
        call(s1)
