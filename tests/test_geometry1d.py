"""Tests for the 1D enclosure engine against hand-computed masses.

The canonical two-map system keeps every cylinder endpoint dyadic, so small
balls around dyadic points have exactly computable measures; those are the
primary oracles here. The uniform system doubles as a Lebesgue oracle, and a
walk on Fraction endpoints is the reference the integer engine must match
bit for bit.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from multifractal import (
    DomainError,
    EmptyWordError,
    NoGeometryError,
    Word,
    appended_gap_radius,
    assouad_scan,
    ball_measure,
    coding_of,
    cylinder_interval,
    doubling_scan,
    fixed_point,
    load_system,
    non_doubling_witness,
    word_stats,
)

A_MAX = 1.5849625007211563


def fraction_ball_measure(sys_, x, r, tol=1e-12, depth_cap=None):
    """The cylinder walk on exact rationals, as the engine once ran it.

    Returns (lower, upper, depth_used, straddle_mass). Same push order and
    float mass products as ball_measure, so the results must be identical.
    """
    lo_b = Fraction(x) - Fraction(r)
    hi_b = Fraction(x) + Fraction(r)
    trans = [Fraction(t) for t in sys_.translations]
    ratios = [Fraction(c) for c in sys_.ratios]
    probs = sys_.probs
    m = sys_.m
    lower = 0.0
    straddle = 0.0
    depth_used = 0
    stack = [(Fraction(0), Fraction(1), 1.0, 0)]
    while stack:
        t, size, mass, depth = stack.pop()
        if depth > depth_used:
            depth_used = depth
        if t >= lo_b and t + size <= hi_b:
            lower += mass
            continue
        if t >= hi_b or t + size <= lo_b:
            continue
        if size < tol or (depth_cap is not None and depth >= depth_cap):
            straddle += mass
            continue
        for i in range(m):
            stack.append((t + size * trans[i], size * ratios[i],
                          mass * probs[i], depth + 1))
    return lower, lower + straddle, depth_used, straddle


def seeded_queries(rng, sys_, count):
    """(x, r, tol, depth_cap) mixing dyadic, attractor and uniform points."""
    queries = []
    for i in range(count):
        kind = i % 3
        if kind == 0:  # dyadic centre and radius: boundaries hit exactly
            a = int(rng.integers(1, 9))
            x = int(rng.integers(0, 2 ** a + 1)) / 2 ** a
            r = 2.0 ** -int(rng.integers(1, 25))
        elif kind == 1:  # a point of the attractor
            length = int(rng.integers(1, 12))
            word = Word(rng.integers(1, sys_.m + 1, size=length))
            x = fixed_point(sys_, word)
            r = float(10 ** rng.uniform(-6, math.log10(0.5)))
        else:
            x = float(rng.uniform())
            r = float(10 ** rng.uniform(-6, math.log10(0.5)))
        tol = 10.0 ** -int(rng.integers(6, 13))
        depth_cap = None if i % 4 else int(rng.integers(0, 12))
        queries.append((x, r, tol, depth_cap))
    return queries


class TestCylinderInterval:
    @pytest.mark.parametrize("word,lo,hi", [
        ("1", 0.0, 0.5),
        ("2", 0.5, 1.0),
        ("12", 0.25, 0.5),
        ("1221", 0.375, 0.4375),
    ])
    def test_dyadic_endpoints(self, s1, word, lo, hi):
        assert cylinder_interval(s1, Word.from_string(word)) == (lo, hi)

    def test_empty_word_is_unit_interval(self, s1):
        assert cylinder_interval(s1, Word([])) == (0.0, 1.0)

    def test_length_matches_contraction(self, s1):
        w = Word.from_string("121122")
        lo, hi = cylinder_interval(s1, w)
        assert hi - lo == pytest.approx(word_stats(s1, w).r, rel=1e-14)


class TestBallMeasure:
    def test_two_cylinder_ball(self, s1):
        """B(1/2, 1/4) holds exactly the middle depth-2 cylinders."""
        mb = ball_measure(s1, 0.5, 0.25, tol=1e-9)
        assert mb.lower == mb.upper
        assert mb.lower == pytest.approx(4.0 / 9.0, rel=1e-15)
        assert mb.depth_used == 2
        assert mb.straddle_mass == 0.0

    @pytest.mark.parametrize("k", range(1, 9))
    def test_left_edge_balls(self, s1, k):
        # B(0, 2^-k) meets only the all-ones cylinder of depth k
        mb = ball_measure(s1, 0.0, 0.5 ** k, tol=1e-12)
        assert mb.lower == mb.upper
        assert mb.lower == pytest.approx(3.0 ** -k, rel=1e-14)

    def test_touching_family_ball(self, s1):
        # B(1/4, 1/16) is tiled by the cylinders 1122 and 1211
        mb = ball_measure(s1, 0.25, 0.0625, tol=1e-9)
        assert mb.lower == mb.upper
        assert mb.lower == pytest.approx(2.0 / 27.0, rel=1e-14)

    def test_whole_attractor(self, uniform2):
        mb = ball_measure(uniform2, 0.5, 2.0)
        assert mb.lower == 1.0 and mb.upper == 1.0
        assert mb.depth_used == 0

    @pytest.mark.parametrize("x,r,length", [
        (0.3, 0.1, 0.2),
        (0.05, 0.2, 0.25),
        (0.9, 0.3, 0.4),
    ])
    def test_uniform_measure_is_length(self, uniform2, x, r, length):
        mb = ball_measure(uniform2, x, r, tol=1e-11)
        assert mb.lower <= length + 1e-9
        assert mb.upper >= length - 1e-9
        assert mb.upper - mb.lower <= 1e-9

    def test_enclosures_nest_as_tol_shrinks(self, s1):
        x, r = 1.0 / 3.0, 0.1
        prev = ball_measure(s1, x, r, tol=1e-3)
        for tol in (1e-6, 1e-9, 1e-12):
            cur = ball_measure(s1, x, r, tol=tol)
            assert cur.lower >= prev.lower
            assert cur.upper <= prev.upper
            assert cur.lower <= cur.upper
            prev = cur

    def test_upper_is_lower_plus_straddle(self, s1):
        mb = ball_measure(s1, 1.0 / 3.0, 0.1, tol=1e-6)
        assert mb.upper == mb.lower + mb.straddle_mass
        assert mb.straddle_mass > 0.0

    def test_depth_cap_limits_recursion(self, s1):
        capped = ball_measure(s1, 1.0 / 3.0, 0.1, tol=1e-12, depth_cap=6)
        deep = ball_measure(s1, 1.0 / 3.0, 0.1, tol=1e-12)
        assert capped.depth_used <= 6
        assert capped.upper - capped.lower >= deep.upper - deep.lower

    def test_domain_checks(self, s1):
        with pytest.raises(DomainError):
            ball_measure(s1, -0.1, 0.1)
        with pytest.raises(DomainError):
            ball_measure(s1, 0.5, 0.0)
        with pytest.raises(DomainError):
            ball_measure(s1, 0.5, 0.1, tol=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_arguments(self, s1, bad):
        with pytest.raises(DomainError):
            ball_measure(s1, bad, 0.1)
        with pytest.raises(DomainError):
            ball_measure(s1, 0.5, bad)
        with pytest.raises(DomainError):
            ball_measure(s1, 0.5, 0.1, tol=bad)


class TestBitIdentity:
    """The integer engine reproduces the Fraction walk exactly."""

    @staticmethod
    def assert_identical(sys_, queries):
        for x, r, tol, depth_cap in queries:
            mb = ball_measure(sys_, x, r, tol, depth_cap)
            got = (mb.lower, mb.upper, mb.depth_used, mb.straddle_mass)
            assert got == fraction_ball_measure(sys_, x, r, tol, depth_cap), \
                (x, r, tol, depth_cap)

    def test_s1(self, s1):
        rng = np.random.default_rng(1)
        self.assert_identical(s1, seeded_queries(rng, s1, 150))

    def test_uniform(self, uniform2):
        rng = np.random.default_rng(2)
        self.assert_identical(uniform2, seeded_queries(rng, uniform2, 150))

    def test_random_gapped_systems(self, random_system):
        rng = np.random.default_rng(3)
        for _ in range(6):
            sys_ = random_system(rng)
            self.assert_identical(sys_, seeded_queries(rng, sys_, 40))

    def test_tiny_tol_and_depth_caps(self, s1, random_system):
        gapped = random_system(np.random.default_rng(4))
        x = fixed_point(gapped, Word.from_string("12"))
        # 2^-20 is exactly the size of a depth-20 S1 cylinder
        queries = [(1.0 / 3.0, 0.1, 2.0 ** -20, None),
                   (1.0 / 3.0, 0.1, 1e-15, None), (1.0 / 3.0, 0.1, 1e-300, 70),
                   (0.3, 0.01, 5e-324, 40), (0.5, 0.25, 1e-9, 0),
                   (0.5, 0.25, 1e-9, 1), (0.7, 0.2, 1e-12, 5)]
        self.assert_identical(s1, queries)
        tol_caps = [(1e-15, None), (1e-300, 30), (1e-6, 2)]
        self.assert_identical(
            gapped, [(x, 1e-3, tol, cap) for tol, cap in tol_caps])


class TestDoublingScan:
    def test_uniform_interior_ratio_is_gamma(self, uniform2):
        scan = doubling_scan(uniform2, 0.3, 2.0, [0.1, 0.05, 0.01])
        for row in scan.rows:
            assert row.ratio_lower == pytest.approx(2.0, abs=1e-6)
            assert row.ratio_upper == pytest.approx(2.0, abs=1e-6)
            assert row.ratio_lower <= 2.0 <= row.ratio_upper

    def test_left_edge_ratio_is_three(self, s1):
        # mu(B(0, r)) = 3^-k at r = 2^-k, so doubling gains a factor 3
        scan = doubling_scan(s1, 0.0, 2.0, [0.5 ** 3, 0.5 ** 5, 0.5 ** 8])
        for row in scan.rows:
            assert row.ratio_lower == pytest.approx(3.0, rel=1e-12)
            assert row.ratio_upper == pytest.approx(3.0, rel=1e-12)
        assert scan.max_ratio_lower == pytest.approx(3.0, rel=1e-12)

    def test_max_is_over_rows(self, s1):
        scan = doubling_scan(s1, 0.25, 2.0, [0.1, 0.01, 0.001])
        assert scan.max_ratio_lower == max(r.ratio_lower for r in scan.rows)
        assert len(scan.rows) == 3

    def test_bad_arguments(self, s1):
        with pytest.raises(DomainError):
            doubling_scan(s1, 0.3, 1.0, [0.1])
        with pytest.raises(DomainError):
            doubling_scan(s1, 0.3, 2.0, [])
        with pytest.raises(DomainError):
            doubling_scan(s1, 0.3, 2.0, [1.5])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_arguments(self, s1, bad):
        with pytest.raises(DomainError):
            doubling_scan(s1, 0.3, bad, [0.1])
        with pytest.raises(DomainError):
            doubling_scan(s1, 0.3, 2.0, [0.1, bad])
        with pytest.raises(DomainError):
            doubling_scan(s1, 0.3, 2.0, [bad, 0.1])
        with pytest.raises(DomainError):
            doubling_scan(s1, bad, 2.0, [0.1])


class TestAssouadScan:
    def test_left_edge_exact_exponent(self, s1):
        """Every pair at x=0 certifies exactly log2(3)."""
        scales = [0.5 ** k for k in range(1, 13)]
        val = assouad_scan(s1, 0.0, scales, min_ratio=4.0)
        assert val == pytest.approx(A_MAX, abs=1e-12)

    def test_uniform_interior_is_one(self, uniform2):
        scales = [0.5 ** k for k in range(2, 21)]
        val = assouad_scan(uniform2, 0.3, scales, min_ratio=2.0 ** 10)
        assert val <= 1.0 + 1e-12
        assert val == pytest.approx(1.0, abs=1e-3)

    def test_grid_validation(self, s1):
        with pytest.raises(DomainError):
            assouad_scan(s1, 0.0, [0.5])
        with pytest.raises(DomainError):
            assouad_scan(s1, 0.0, [0.5, 0.4])
        with pytest.raises(DomainError):
            assouad_scan(s1, 0.0, [2.0, 0.5])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_scales(self, s1, bad):
        with pytest.raises(DomainError):
            assouad_scan(s1, 0.0, [0.5, 0.125, bad])
        with pytest.raises(DomainError):
            assouad_scan(s1, 0.0, [bad, 0.5, 0.125])

    def test_no_pair_clears_min_ratio(self, s1):
        with pytest.raises(DomainError):
            assouad_scan(s1, 0.5, [0.5, 0.25], min_ratio=8.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_min_ratio(self, s1, bad):
        scales = [0.5 ** k for k in range(1, 13)]
        with pytest.raises(DomainError, match="not finite"):
            assouad_scan(s1, 0.3, scales, min_ratio=bad)


class TestWitness:
    def test_target_four(self, s1):
        w = non_doubling_witness(s1, 4.0)
        assert str(w.i) == "2111" and str(w.j) == "1222"
        assert w.mass_ratio == pytest.approx(4.0, rel=1e-12)
        assert w.mass_ratio >= 4.0 * (1.0 - 1e-12)
        assert w.gap == 0.0

    def test_trivial_target(self, s1):
        w = non_doubling_witness(s1, 1.0)
        assert str(w.i) == "1" and str(w.j) == "2"
        assert w.mass_ratio == pytest.approx(2.0)

    @pytest.mark.parametrize("e", range(1, 7))
    def test_power_targets(self, s1, e):
        w = non_doubling_witness(s1, float(2 ** e), depth_cap=12)
        assert w is not None
        assert w.mass_ratio >= 2.0 ** e * (1.0 - 1e-12)
        assert len(w.i) <= e + 2

    def test_uniform_has_no_witness(self, uniform2):
        assert non_doubling_witness(uniform2, 1.5) is None

    def test_gapped_system_has_no_witness(self):
        sys_ = load_system({"probs": [0.5, 0.5], "ratios": [0.3, 0.3],
                            "translations": [0.0, 0.6]})
        assert non_doubling_witness(sys_, 1.0) is None

    def test_json_dict_fields(self, s1):
        w = non_doubling_witness(s1, 4.0)
        d = w.to_json_dict(s1)
        assert set(d) == {"i", "j", "p_i", "p_j", "interval_i", "interval_j",
                          "gap", "mass_ratio"}
        assert d["p_j"] / d["p_i"] == pytest.approx(d["mass_ratio"])

    def test_bad_depth_cap(self, s1):
        with pytest.raises(DomainError):
            non_doubling_witness(s1, 2.0, depth_cap=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_target(self, s1, bad):
        with pytest.raises(DomainError, match="not finite"):
            non_doubling_witness(s1, bad)


class TestCoding:
    def test_shared_endpoint_goes_left(self, s1):
        assert str(coding_of(s1, 0.5, 3)) == "122"

    def test_periodic_point(self, s1):
        x = fixed_point(s1, Word.from_string("12"))
        assert x == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert str(coding_of(s1, x, 6)) == "121212"

    def test_zero_depth(self, s1):
        assert len(coding_of(s1, 0.3, 0)) == 0

    def test_domain_checks(self, s1):
        with pytest.raises(DomainError):
            coding_of(s1, 1.5, 2)
        with pytest.raises(DomainError):
            coding_of(s1, 0.5, -1)

    def test_point_in_a_gap(self):
        sys_ = load_system({"probs": [0.5, 0.5], "ratios": [0.3, 0.3],
                            "translations": [0.0, 0.7]})
        with pytest.raises(DomainError):
            coding_of(sys_, 0.5, 1)

    def test_coding_refines_cylinders(self, s1):
        x = 0.37
        for depth in range(1, 8):
            w = coding_of(s1, x, depth)
            lo, hi = cylinder_interval(s1, w)
            assert lo - 1e-12 <= x <= hi + 1e-12


class TestFixedPoint:
    @pytest.mark.parametrize("word,x", [
        ("1", 0.0),
        ("2", 1.0),
        ("12", 1.0 / 3.0),
        ("21", 2.0 / 3.0),
    ])
    def test_known_points(self, s1, word, x):
        assert fixed_point(s1, Word.from_string(word)) == pytest.approx(x, abs=1e-15)

    def test_lies_in_own_cylinder(self, s1):
        for word in ("122", "2121", "11212"):
            w = Word.from_string(word)
            lo, hi = cylinder_interval(s1, w)
            assert lo <= fixed_point(s1, w) <= hi

    def test_empty_word_rejected(self, s1):
        with pytest.raises(EmptyWordError):
            fixed_point(s1, Word([]))


class TestAppendedGapRadius:
    def test_interior_tail(self, s1):
        # images of [1/4, 1/2] are [1/8, 1/4] and [5/8, 3/4]; min gap is 1/8
        assert appended_gap_radius(s1, "12") == pytest.approx(0.0625, rel=1e-15)

    def test_accepts_word_form(self, s1):
        assert appended_gap_radius(s1, Word.from_string("12")) == \
            appended_gap_radius(s1, "12")

    def test_boundary_tail_rejected(self, s1):
        with pytest.raises(DomainError):
            appended_gap_radius(s1, "1")


class TestNoGeometry:
    def test_geometry_ops_refused(self):
        sys_ = load_system({"probs": [1.0 / 3.0, 2.0 / 3.0],
                            "ratios": [0.5, 0.5]})
        with pytest.raises(NoGeometryError):
            cylinder_interval(sys_, Word.from_string("1"))
        with pytest.raises(NoGeometryError):
            ball_measure(sys_, 0.5, 0.1)
        with pytest.raises(NoGeometryError):
            doubling_scan(sys_, 0.5, 2.0, [0.1])
