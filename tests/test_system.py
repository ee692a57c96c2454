import json
import math

import numpy as np
import pytest

from multifractal import (
    ArityError,
    DomainError,
    SizeCapError,
    EmptyWordError,
    FormatError,
    IoError,
    OverlapError,
    RangeError,
    WeightedSystem,
    WeightSumError,
    Word,
    alpha_bounds,
    block_alphabet,
    coding_of,
    greedy_word,
    load_system,
    moran_construct,
    word_stats,
)
from multifractal import cli, geometry1d, symbolic
from multifractal.system import COUNT_CAP, logsumexp, xlogx

from conftest import dump_system


class TestValidation:
    def test_accepts_probability_vector_with_ratios(self):
        sys_ = WeightedSystem([0.5, 0.5], [0.4, 0.4])
        assert sys_.m == 2
        assert sys_.translations is None

    def test_weights_must_sum_to_one(self):
        with pytest.raises(WeightSumError):
            WeightedSystem((0.5, 0.6), (0.4, 0.4))

    def test_weights_are_not_renormalized(self):
        # sum 0.999 is refused outright
        with pytest.raises(WeightSumError):
            WeightedSystem([0.499, 0.5], [0.3, 0.3])

    def test_single_map_rejected(self):
        with pytest.raises(ArityError):
            WeightedSystem((1.0,), (0.5,))

    def test_weight_of_one_rejected(self):
        with pytest.raises(RangeError):
            WeightedSystem([1.0, 1e-17], [0.5, 0.5])

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

    def test_mapping_form(self):
        sys_ = load_system({"probs": [0.5, 0.5], "ratios": [0.3, 0.3]})
        assert sys_.ratios == (0.3, 0.3)

    def test_mapping_rejects_unknown_keys(self):
        with pytest.raises(FormatError):
            load_system({"probs": [0.5, 0.5], "ratios": [0.3, 0.3],
                         "offsets": [0, 0.5]})

    def test_mapping_rejects_non_numeric(self):
        with pytest.raises(FormatError):
            load_system({"probs": [0.5, "x"], "ratios": [0.3, 0.3]})

    def test_mapping_rejects_null_translations(self):
        with pytest.raises(FormatError, match="'translations'"):
            load_system({"probs": [0.5, 0.5], "ratios": [0.5, 0.5],
                         "translations": None})


class TestConstructor:
    @pytest.mark.parametrize("build", [
        list, np.array, lambda v: tuple(map(np.float64, v)),
        lambda v: (x for x in v)], ids=["list", "array", "float64", "iterator"])
    def test_fields_are_stored_as_float_tuples(self, s1, build):
        sys_ = WeightedSystem(build([1 / 3, 2 / 3]), build([0.5, 0.5]),
                              build([0.0, 0.5]))
        assert sys_ == s1 and hash(sys_) == hash(s1)
        for val in (sys_.probs, sys_.ratios, sys_.translations):
            assert type(val) is tuple
            assert all(type(v) is float for v in val)

    def test_numpy_integers_are_numbers(self):
        sys_ = WeightedSystem([0.5, 0.5], [0.5, 0.5], np.array([0, 0.5]))
        assert sys_.translations == (0.0, 0.5)
        assert type(WeightedSystem([0.5, 0.5], [0.5, 0.5],
                                   [np.int64(0), 0.5]).translations[0]) is float

    def test_list_built_system_runs_the_symbolic_layer(self, s1):
        sys_ = WeightedSystem([1 / 3, 2 / 3], [0.5, 0.5], [0.0, 0.5])
        assert block_alphabet(sys_, 12, 1.2).rows == \
            block_alphabet(s1, 12, 1.2).rows
        assert moran_construct(sys_, 1.2, 0.05, 16).stage_lengths == \
            moran_construct(s1, 1.2, 0.05, 16).stage_lengths

    @pytest.mark.parametrize("field", ["probs", "ratios", "translations"])
    @pytest.mark.parametrize("bad", [
        ["x", 0.5], [True, 0.5], [np.bool_(True), 0.5], [None, 0.5],
        [[0.5], 0.5], "0.5", b"05", {0.5: 1, 0.25: 2}, 0.5, None])
    def test_non_numbers_are_a_format_error(self, field, bad):
        fields = {"probs": [0.5, 0.5], "ratios": [0.5, 0.5],
                  "translations": [0.0, 0.5]}
        fields[field] = bad
        if field == "translations" and bad is None:
            assert not WeightedSystem(**fields).has_geometry
            return
        with pytest.raises(FormatError, match=f"field {field!r}"):
            WeightedSystem(**fields)

    def test_int_past_the_float_range_is_a_range_error(self, tmp_path):
        with pytest.raises(RangeError, match="float range"):
            WeightedSystem([10 ** 400, 0.5], [0.5, 0.5])
        path = tmp_path / "big.json"
        path.write_text('{"probs": [1%s, 0.5], "ratios": [0.5, 0.5]}'
                        % ("0" * 400))
        with pytest.raises(RangeError):
            load_system(path)


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

    @pytest.mark.parametrize("length", [-1, -3, 2.5, "2", None])
    def test_periodic_length_must_be_a_nonnegative_integer(self, length):
        with pytest.raises(DomainError, match="length"):
            Word.periodic("12", length)

    def test_periodic_lengths(self):
        assert len(Word.periodic("12", 0)) == 0
        assert str(Word.periodic("12", np.int64(3))) == "121"

    def test_periodic_empty_pattern(self):
        with pytest.raises(EmptyWordError):
            Word.periodic("", 5)

    def test_constant(self):
        assert str(Word.constant(2, 4)) == "2222"

    @pytest.mark.parametrize("symbol", [1.5, True, 0, 70000])
    def test_constant_symbol_follows_the_word_rule(self, symbol):
        with pytest.raises(RangeError):
            Word.constant(symbol, 3)

    @pytest.mark.parametrize("length", [-1, 2.5])
    def test_constant_length_must_be_a_nonnegative_integer(self, length):
        with pytest.raises(DomainError, match="length"):
            Word.constant(2, length)

    def test_slicing_returns_word(self):
        w = Word.from_string("12121")
        assert isinstance(w[1:3], Word)
        assert str(w[:3]) == "121"

    def test_zero_based_symbols_rejected(self):
        with pytest.raises(RangeError):
            Word([0, 1])

    @pytest.mark.parametrize("symbols", [
        [1.5, 2], [1.0, 2.0], np.array([1.0, 2.0]), [True, False],
        np.array([True]), np.array(["1", "2"]), [1, None],
        np.array([1, 2.5], dtype=object)])
    def test_non_integer_symbols_are_refused(self, symbols):
        with pytest.raises(RangeError, match="must be integers"):
            Word(symbols)

    @pytest.mark.parametrize("symbols", [[], np.array([]), np.zeros(0, bool)])
    def test_empty_word_of_any_dtype(self, symbols):
        assert len(Word(symbols)) == 0

    def test_integer_dtypes_are_kept(self):
        assert Word(np.array([1, 2], dtype=np.uint8)) == Word([1, 2])
        assert Word(np.array([1, 2], dtype=object)) == Word([1, 2])

    @pytest.mark.parametrize("text", ["abc", "1,,2", "12a", "1 2", "-1", "1,x"])
    def test_non_integer_tokens_are_a_format_error(self, text):
        with pytest.raises(FormatError):
            Word.from_string(text)

    @pytest.mark.parametrize("text", [12, None, b"12", ["1", "2"]],
                             ids=["int", "none", "bytes", "list"])
    def test_from_string_of_a_non_string_is_a_format_error(self, text):
        with pytest.raises(FormatError, match="word must be a string, not"):
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

    @pytest.mark.parametrize("dtype", [np.int16, np.int64])
    def test_caller_array_stays_writable(self, dtype):
        a = np.array([1, 2], dtype=dtype)
        w = Word(a)
        a[0] = 2
        assert a.flags.writeable and list(a) == [2, 2]
        assert list(w) == [1, 2] and not w.symbols.flags.writeable


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


# a count at the cap and one past it, with the cap patched small; the calls
# past the real cap would loop 10^12 to 10^30 times if the cap came late
COUNTED = {
    "greedy_length": (lambda s, k: greedy_word(s, 1.0, k), len),
    "coding_depth": (lambda s, k: coding_of(s, 0.3, k), len),
    "moran_spine": (lambda s, k: moran_construct(s, 1.2, 0.05, 16, k // 16),
                    lambda spec: len(spec.spine)),
}


class TestCountCap:
    def test_cli_limit_is_the_library_cap(self):
        assert cli.MAX_COUNT == COUNT_CAP == 10 ** 7

    @pytest.mark.parametrize("name", COUNTED)
    def test_boundary(self, s1, monkeypatch, name):
        for module in (symbolic, geometry1d):
            monkeypatch.setattr(module, "COUNT_CAP", 64)
        call, size = COUNTED[name]
        assert size(call(s1, 64)) == 64
        with pytest.raises(SizeCapError, match="exceeds 64"):
            call(s1, 80)

    @pytest.mark.parametrize("call", [
        lambda s: greedy_word(s, 1.0, 10 ** 12),
        lambda s: greedy_word(s, 1.0, COUNT_CAP + 1),
        lambda s: coding_of(s, 0.3, 10 ** 30),
        lambda s: moran_construct(s, 1.2, 0.05, 16, stages=10 ** 30),
        lambda s: moran_construct(s, 1.2, 0.05, 10 ** 30, stages=1)],
        ids=["greedy", "greedy_cap", "coding", "moran_stages", "moran_n"])
    def test_refused_before_any_work(self, s1, call):
        with pytest.raises(SizeCapError):
            call(s1)
