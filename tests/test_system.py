import json
import math

import numpy as np
import pytest

from multifractal import (
    ArityError,
    EmptyWordError,
    FormatError,
    IoError,
    OverlapError,
    RangeError,
    WeightedSystem,
    WeightSumError,
    Word,
    alpha_bounds,
    dump_system,
    load_system,
    validate_system,
    word_stats,
)
from multifractal.system import logsumexp, xlogx


class TestValidation:
    def test_accepts_probability_vector_with_ratios(self):
        sys_ = validate_system([0.5, 0.5], [0.4, 0.4])
        assert sys_.m == 2
        assert sys_.translations is None

    def test_weights_must_sum_to_one(self):
        with pytest.raises(WeightSumError):
            WeightedSystem((0.5, 0.6), (0.4, 0.4))

    def test_weights_are_not_renormalized(self):
        # sum 0.999 is refused outright
        with pytest.raises(WeightSumError):
            validate_system([0.499, 0.5], [0.3, 0.3])

    def test_single_map_rejected(self):
        with pytest.raises(ArityError):
            WeightedSystem((1.0,), (0.5,))

    def test_weight_of_one_rejected(self):
        with pytest.raises(RangeError):
            validate_system([1.0, 1e-17], [0.5, 0.5])

    def test_ratio_bounds(self):
        with pytest.raises(RangeError):
            WeightedSystem((0.5, 0.5), (0.0, 0.5))
        with pytest.raises(RangeError):
            WeightedSystem((0.5, 0.5), (1.0, 0.5))

    def test_length_mismatch(self):
        with pytest.raises(ArityError):
            WeightedSystem((0.5, 0.5), (0.4, 0.4, 0.2))

    def test_overlapping_intervals_rejected(self):
        with pytest.raises(OverlapError):
            WeightedSystem((0.5, 0.5), (0.6, 0.6), (0.0, 0.3))

    def test_touching_intervals_allowed(self, s1):
        assert s1.has_geometry

    def test_interval_outside_unit_rejected(self):
        with pytest.raises(RangeError):
            WeightedSystem((0.5, 0.5), (0.5, 0.6), (0.0, 0.5))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_translation_rejected(self, bad):
        for trans in [(bad, 0.5), (0.0, bad)]:
            with pytest.raises(RangeError):
                WeightedSystem((0.5, 0.5), (0.5, 0.5), trans)

    def test_idempotent_on_system(self, s1):
        assert validate_system(s1) is s1

    def test_mapping_form(self):
        sys_ = validate_system({"probs": [0.5, 0.5], "ratios": [0.3, 0.3]})
        assert sys_.ratios == (0.3, 0.3)

    def test_mapping_rejects_unknown_keys(self):
        with pytest.raises(FormatError):
            validate_system({"probs": [0.5, 0.5], "ratios": [0.3, 0.3],
                             "offsets": [0, 0.5]})

    def test_mapping_rejects_non_numeric(self):
        with pytest.raises(FormatError):
            validate_system({"probs": [0.5, "x"], "ratios": [0.3, 0.3]})


class TestSerialization:
    def test_round_trip(self, s1, tmp_path):
        path = tmp_path / "sys.json"
        path.write_text(dump_system(s1))
        again = load_system(path)
        assert again == s1

    @staticmethod
    def load_text(tmp_path, text):
        path = tmp_path / "sys.json"
        path.write_text(text)
        return load_system(path)

    def test_load_from_text(self, tmp_path):
        sys_ = self.load_text(
            tmp_path, '{"probs": [0.5, 0.5], "ratios": [0.25, 0.25]}')
        assert sys_.probs == (0.5, 0.5)

    def test_load_rejects_bad_json(self, tmp_path):
        with pytest.raises(FormatError):
            self.load_text(tmp_path, "{probs: nope}")

    def test_load_rejects_array_document(self, tmp_path):
        with pytest.raises(FormatError):
            self.load_text(tmp_path, "[1, 2, 3]")

    def test_dump_is_json(self, s1):
        doc = json.loads(dump_system(s1))
        assert set(doc) == {"probs", "ratios", "translations"}

    @pytest.mark.parametrize("text", ["[" * 100_000, "[" * 100_000 + "\n"])
    def test_too_deep_nesting_is_a_format_error(self, tmp_path, text):
        with pytest.raises(FormatError, match="invalid JSON"):
            self.load_text(tmp_path, text)

    @pytest.mark.parametrize("name", ["missing.json", ".", "a" * 300],
                             ids=["missing", "directory", "name-too-long"])
    def test_unreadable_path_is_an_io_error(self, tmp_path, name):
        path = str(tmp_path / name)
        with pytest.raises(IoError, match="cannot read system file") as exc:
            load_system(path)
        assert repr(path) in str(exc.value)

    def test_json_text_is_not_a_system(self):
        with pytest.raises(IoError):
            load_system('{"probs": [0.5, 0.5], "ratios": [0.25, 0.25]}')

    def test_undecodable_file_is_a_format_error(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"probs": [0.5, 0.5], "ratios": ["½"]}'.encode("latin-1"))
        with pytest.raises(FormatError, match="not UTF-8"):
            load_system(path)


class TestWord:
    def test_from_string_digits(self):
        w = Word.from_string("1221")
        assert list(w) == [1, 2, 2, 1]
        assert str(w) == "1221"

    def test_from_string_commas(self):
        w = Word.from_string("1,12,3")
        assert list(w) == [1, 12, 3]
        assert str(w) == "1,12,3"

    def test_periodic_extension(self):
        w = Word.periodic("12", 5)
        assert str(w) == "12121"

    def test_periodic_empty_pattern(self):
        with pytest.raises(EmptyWordError):
            Word.periodic("", 5)

    def test_constant(self):
        assert str(Word.constant(2, 4)) == "2222"

    def test_slicing_returns_word(self):
        w = Word.from_string("12121")
        assert isinstance(w[1:3], Word)
        assert str(w[:3]) == "121"

    def test_zero_based_symbols_rejected(self):
        with pytest.raises(RangeError):
            Word([0, 1])

    @pytest.mark.parametrize("text", ["abc", "1,,2", "12a", "1 2", "-1", "1,x"])
    def test_non_integer_tokens_are_a_format_error(self, text):
        with pytest.raises(FormatError):
            Word.from_string(text)

    @pytest.mark.parametrize("symbols", [
        [70000, 1], [2 ** 15], [10 ** 20], np.array([70000, 1]),
        np.array([2 ** 40], dtype=np.uint64)])
    def test_symbols_past_int16_are_refused_not_wrapped(self, symbols):
        with pytest.raises(RangeError, match="exceeds 32767"):
            Word(symbols)

    def test_largest_int16_symbol_is_kept(self):
        assert list(Word([2 ** 15 - 1, 1])) == [32767, 1]

    def test_concat_and_equality(self):
        assert Word.from_string("12") + Word.from_string("21") == \
            Word.from_string("1221")

    def test_hashable(self):
        assert len({Word.from_string("11"), Word.from_string("11")}) == 1

    def test_immutable(self):
        w = Word.from_string("12")
        with pytest.raises(AttributeError):
            w.symbols = None


class TestWordStats:
    def test_single_symbols(self, s1):
        st = word_stats(s1, Word.from_string("1"))
        assert st.p == pytest.approx(1 / 3, rel=1e-15)
        assert st.r == pytest.approx(0.5, rel=1e-15)
        assert st.ratio == pytest.approx(math.log(3) / math.log(2), rel=1e-14)

    def test_products_in_log_space(self, s1):
        # long words must not underflow
        w = Word.periodic("12", 100_000)
        st = word_stats(s1, w)
        assert math.isfinite(st.log_p) and st.log_p < -50_000 * math.log(2)
        assert st.ratio == pytest.approx(
            (math.log(3) + math.log(1.5)) / (2 * math.log(2)), rel=1e-12)

    def test_empty_word_rejected(self, s1):
        with pytest.raises(EmptyWordError):
            word_stats(s1, Word([]))

    def test_symbol_out_of_range(self, s1):
        with pytest.raises(RangeError):
            word_stats(s1, Word([3]))


class TestAlphaBounds:
    def test_s1_bounds(self, s1):
        lo, hi = alpha_bounds(s1)
        assert lo == pytest.approx(math.log(1.5) / math.log(2), abs=1e-15)
        assert hi == pytest.approx(math.log(3) / math.log(2), abs=1e-15)

    def test_bounds_bracket_every_word(self, s1):
        lo, hi = alpha_bounds(s1)
        rng = np.random.default_rng(0)
        for _ in range(20):
            w = Word(rng.integers(1, 3, size=50))
            assert lo - 1e-12 <= word_stats(s1, w).ratio <= hi + 1e-12

    def test_degenerate_flag(self, uniform2):
        assert uniform2.degenerate
        lo, hi = alpha_bounds(uniform2)
        assert lo == hi == pytest.approx(1.0)


class TestArrayHelpers:
    def test_xlogx_is_zero_at_zero(self):
        x = np.array([0.0, 0.25, 0.75, 1.0])
        out = xlogx(x)
        assert out[0] == 0.0 and out[3] == 0.0
        assert out[1] == 0.25 * math.log(0.25)
        assert out[2] == 0.75 * math.log(0.75)

    def test_logsumexp_matches_direct_sum(self):
        a = np.array([-1.0, 0.5, 0.5, -3.0])
        direct = math.log(math.fsum(math.exp(v) for v in a))
        assert logsumexp(a) == pytest.approx(direct, rel=1e-15)

    def test_logsumexp_does_not_overflow(self):
        assert logsumexp([1000.0, 1000.0]) == \
            pytest.approx(1000.0 + math.log(2.0), rel=1e-15)
        assert logsumexp([-1000.0]) == -1000.0
