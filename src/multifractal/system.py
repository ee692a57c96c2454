"""Weighted contracting systems on [0, 1] and finite symbol words.

A WeightedSystem pairs probability weights p_i with contraction ratios r_i,
optionally carrying translations t_i so that the maps x -> t_i + r_i * x act
on the unit interval with disjoint interiors (endpoint touching allowed).
Words are finite strings over the 1-based alphabet {1, ..., m}; all
word-level products are carried in log space so prefixes of length 10^4 and
beyond do not underflow.
"""

from __future__ import annotations

import json
import math
import operator
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from .errors import (
    ArityError,
    BracketError,
    DomainError,
    EmptyWordError,
    FormatError,
    IoError,
    OverlapError,
    RangeError,
    WeightSumError,
)

WEIGHT_SUM_TOL = 1e-12
# slack for interval comparisons; exact binary fractions stay exact
GEOM_TOL = 1e-12
# most steps seen: tau's Newton 9, and 3.1 on average over 1.2e6 solves on
# [-200, 200] and at +-q_limit; q_of_alpha about 6, and 32 at alpha's ends
NEWTON_CAP = 100
# largest word length, coding depth or Moran spine (n * stages letters) a
# call builds: each letter costs a step of a Python loop
COUNT_CAP = 10 ** 7
# a Word stores its symbols as int16
_SYMBOL_MAX = int(np.iinfo(np.int16).max)


@dataclass(frozen=True)
class WeightedSystem:
    """Probability weights and contraction ratios, plus optional geometry.

    Each field takes any iterable of real numbers but bools and is stored as
    a tuple of floats. Weights are refused, not renormalized.
    """

    probs: tuple[float, ...]
    ratios: tuple[float, ...]
    translations: tuple[float, ...] | None = None

    def __post_init__(self):
        for name in ("probs", "ratios", "translations"):
            if name != "translations" or self.translations is not None:
                object.__setattr__(self, name, _floats(name, getattr(self, name)))
        probs, ratios, trans = self.probs, self.ratios, self.translations
        if len(probs) != len(ratios):
            raise ArityError(
                f"probs has {len(probs)} entries, ratios has {len(ratios)}")
        if len(probs) < 2:
            raise ArityError("need at least two maps")
        for p in probs:
            if not (0.0 < p < 1.0):
                raise RangeError(f"weight {p!r} outside (0, 1)")
        for r in ratios:
            if not (0.0 < r < 1.0):
                raise RangeError(f"ratio {r!r} outside (0, 1)")
        total = math.fsum(probs)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise WeightSumError(
                f"weights sum to {total!r}; renormalization is refused")
        if trans is not None:
            if len(trans) != len(probs):
                raise ArityError(
                    f"translations has {len(trans)} entries, expected {len(probs)}")
            intervals = []
            for t, r in zip(trans, ratios):
                if not (-GEOM_TOL <= t and t + r <= 1.0 + GEOM_TOL):  # NaN fails
                    raise RangeError(
                        f"interval [{t}, {t + r}] is not contained in [0, 1]")
                intervals.append((t, t + r))
            intervals.sort()
            for (alo, ahi), (blo, bhi) in zip(intervals, intervals[1:]):
                if blo < ahi - GEOM_TOL:
                    raise OverlapError(
                        f"intervals [{alo}, {ahi}] and [{blo}, {bhi}] share interior")

    @property
    def m(self) -> int:
        return len(self.probs)

    @cached_property
    def log_probs(self) -> np.ndarray:
        return np.log(np.asarray(self.probs, dtype=float))

    @cached_property
    def log_ratios(self) -> np.ndarray:
        return np.log(np.asarray(self.ratios, dtype=float))

    @cached_property
    def symbol_ratios(self) -> np.ndarray:
        """Per-symbol exponents log p_i / log r_i."""
        return self.log_probs / self.log_ratios

    @cached_property
    def alpha_range(self) -> tuple[float, float]:
        """Smallest and largest per-symbol exponent log p_i / log r_i."""
        sr = self.symbol_ratios
        return float(sr.min()), float(sr.max())

    @cached_property
    def q_limit(self) -> float:
        """Largest |q| at which solving for tau(q) stays in the float range.

        Newton runs from max_i of -q log p_i / log r_i up to the root, at
        most log m / min|log r_i| above it, so each number it meets is at
        most 2|q|k plus a log m term.
        """
        lp, lr = np.abs(self.log_probs), np.abs(self.log_ratios)
        k = lp.max() * (1.0 + (1.0 + lr.max()) / lr.min())
        return float(np.finfo(float).max / (4.0 * k))

    @cached_property
    def degenerate(self) -> bool:
        """True iff log p_i / log r_i is the same for every symbol."""
        lo, hi = self.alpha_range
        return hi - lo <= 1e-12

    @property
    def has_geometry(self) -> bool:
        return self.translations is not None


def _floats(name: str, val) -> tuple[float, ...]:
    """val as a tuple of Python floats; FormatError unless real numbers."""
    try:
        items = tuple(val)  # TypeError unless iterable
        # an exact float skips the ABC check, which costs about 1 us
        if isinstance(val, (str, bytes, Mapping)) or not all(
                type(v) is float or isinstance(v, Real) and not isinstance(v, bool)
                for v in items):
            raise TypeError
        return tuple(map(float, items))
    except TypeError as exc:
        raise FormatError(f"field {name!r} must be an array of numbers") from exc
    except OverflowError as exc:  # an int past the float range
        raise RangeError(f"field {name!r} has a value past the float range") \
            from exc


def load_system(source) -> WeightedSystem:
    """Load a system from a JSON file path or a mapping.

    A file that cannot be read raises IoError; a document that is not UTF-8,
    not a JSON object or has unknown or missing fields raises FormatError.
    """
    doc = source
    if not isinstance(source, Mapping):
        try:
            text = Path(source).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"system file is not UTF-8: {exc}") from exc
        except (OSError, TypeError, ValueError) as exc:  # ValueError: a NUL byte
            raise IoError(f"cannot read system file {source!r}: {exc}") from exc
        try:
            doc = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:  # too deep a nesting
            raise FormatError(f"invalid JSON: {exc}") from exc
        if not isinstance(doc, Mapping):
            raise FormatError("system document must be a JSON object")
    unknown = set(doc) - {"probs", "ratios", "translations"}
    if unknown:
        raise FormatError(f"unknown fields: {sorted(unknown)}")
    for key in ("probs", "ratios"):
        if key not in doc:
            raise FormatError(f"missing required field {key!r}")
    if "translations" in doc and doc["translations"] is None:
        raise FormatError("field 'translations' must be an array of numbers")
    return WeightedSystem(doc["probs"], doc["ratios"], doc.get("translations"))


class Word:
    """Immutable finite word over the 1-based alphabet {1, ..., m}."""

    __slots__ = ("symbols",)

    def __init__(self, symbols: Iterable[int]):
        arr = symbols if isinstance(symbols, np.ndarray) \
            else np.asarray(list(symbols))
        if arr.ndim != 1:
            raise RangeError("word symbols must form a flat sequence")
        kind = arr.dtype.kind  # "O" holds ints past int64
        if arr.size and not (kind in "iu" or kind == "O" and all(
                isinstance(v, Integral) and not isinstance(v, bool)
                for v in arr.tolist())):
            raise RangeError(f"word symbols must be integers, not {arr.dtype}")
        if arr.size and arr.min() < 1:
            raise RangeError("symbols are 1-based; found a value below 1")
        # checked before the cast, which may wrap silently
        if arr.dtype != np.int16 and arr.size and arr.max() > _SYMBOL_MAX:
            raise RangeError(f"symbol {arr.max()} exceeds {_SYMBOL_MAX}")
        arr = arr.astype(np.int16)  # a copy: the caller's array stays writable
        arr.setflags(write=False)
        object.__setattr__(self, "symbols", arr)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("Word is immutable")

    def __len__(self) -> int:
        return int(self.symbols.size)

    def __iter__(self):
        return iter(self.symbols.tolist())

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return Word(self.symbols[idx])
        return int(self.symbols[idx])

    def __add__(self, other: "Word") -> "Word":
        return Word(np.concatenate([self.symbols, other.symbols]))

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and \
            self.symbols.tobytes() == other.symbols.tobytes()

    def __hash__(self) -> int:
        return hash(self.symbols.tobytes())

    def __repr__(self) -> str:
        return f"Word({self})"

    def __str__(self) -> str:
        # digit string for alphabets up to 9 symbols, comma form otherwise
        if len(self) == 0:
            return ""
        if self.symbols.max() <= 9:
            return "".join(str(s) for s in self.symbols.tolist())
        return ",".join(str(s) for s in self.symbols.tolist())

    @classmethod
    def from_string(cls, text: str) -> "Word":
        if not isinstance(text, str):
            raise FormatError(f"word must be a string, not {type(text).__name__}")
        text = text.strip()
        tokens = text.split(",") if "," in text else text
        try:
            symbols = [int(tok) for tok in tokens]
        except ValueError as exc:
            raise FormatError(f"word {text!r} is not a list of integers") from exc
        return cls(symbols)

    @classmethod
    def periodic(cls, pattern, length: int) -> "Word":
        """Prefix of length `length` of the periodic extension of `pattern`."""
        pat = pattern if isinstance(pattern, Word) else cls.from_string(str(pattern))
        if len(pat) == 0:
            raise EmptyWordError("cannot extend an empty pattern")
        if (length := as_index("length", length)) < 0:
            raise DomainError("length must not be negative")
        return cls(np.tile(pat.symbols, -(-length // len(pat)))[:length])

    @classmethod
    def constant(cls, symbol: int, length: int) -> "Word":
        return cls.periodic(cls([symbol]), length)


@dataclass(frozen=True)
class WordStats:
    """Log-space mass and size of one word, plus the ratio log p / log r."""

    log_p: float
    log_r: float
    ratio: float

    @property
    def p(self) -> float:
        return math.exp(self.log_p)

    @property
    def r(self) -> float:
        return math.exp(self.log_r)


def as_index(name: str, value) -> int:
    """value as a Python int by operator.index; DomainError otherwise."""
    try:
        return operator.index(value)
    except TypeError as exc:
        raise DomainError(f"{name} must be an integer: {exc}") from exc


def as_indices(name: str, values) -> list[int]:
    """values as a list of Python ints by as_index; DomainError otherwise."""
    try:
        items = list(values)
    except TypeError as exc:
        raise DomainError(f"{name} must be integers: {exc}") from exc
    return [as_index(name, v) for v in items]


def as_real(name: str, value) -> float:
    """value as a Python float by float(); DomainError otherwise, also for
    an int past the float range."""
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{name} must be a number: {exc}") from exc
    except OverflowError as exc:
        raise DomainError(f"{name} is past the float range") from exc


def check_symbols(sys_: WeightedSystem, word: Word) -> None:
    """DomainError unless word is a Word; RangeError unless every symbol is
    at most sys_.m."""
    if not isinstance(word, Word):
        raise DomainError(f"word must be a Word, not {type(word).__name__}")
    if len(word) and int(word.symbols.max()) > sys_.m:
        raise RangeError(f"word uses symbol {int(word.symbols.max())} but "
                         f"the system has m={sys_.m}")


def word_log_arrays(sys_: WeightedSystem, word: Word):
    """Per-position (log p, log r) arrays for a word. Validates symbols."""
    check_symbols(sys_, word)
    idx = word.symbols.astype(np.intp) - 1
    return sys_.log_probs[idx], sys_.log_ratios[idx]


def xlogx(x) -> np.ndarray:
    """Elementwise x * log(x), with 0 at x = 0."""
    x = np.asarray(x, dtype=float)
    return x * np.log(np.where(x > 0.0, x, 1.0))


def logsumexp(a) -> float:
    """log(sum(exp(a))) for a finite nonempty array, without overflow.

    The maximal terms are split off and the rest is summed through log1p
    (Blanchard, Higham and Higham, IMA J. Numer. Anal. 41, 2021).
    """
    a = np.asarray(a, dtype=float)
    top = a.max()
    at_top = a == top
    count = int(at_top.sum())
    rest = np.exp(np.where(at_top, -np.inf, a - top)).sum() / count
    return float(np.log1p(rest) + math.log(count) + top)


def lse_newton(a, b, t0: float, c: float = 0.0) -> tuple[float, np.ndarray]:
    """Root t of g(t) = logsumexp(a + t*b) + c*t, by Newton steps from t0,
    and the weights exp(a + t*b - max) / sum at it.

    Needs every b_i < 0, c <= 0 and g(t0) >= 0. Then g is convex and
    decreasing, so Newton rises monotonically from t0 to the root without a
    bracket, and the first step that does not move t forward ends the search.
    The weights are the ones that last step computed at the returned t.
    A NaN or an overflow on the way raises DomainError.
    """
    t = float(t0)
    for _ in range(NEWTON_CAP):
        x = a + t * b
        top = float(x.max())
        w = np.exp(x - top)
        total = float(w.sum())
        g = top + math.log(total) + c * t
        nxt = t - g / (float(w @ b) / total + c)
        if not math.isfinite(nxt):
            raise DomainError(f"Newton from {t0} left the float range")
        if not nxt > t:
            return t, w / total
        t = nxt
    raise BracketError(f"Newton from {t0} did not settle in {NEWTON_CAP} steps")


def lse_root(a, b, t0: float, c: float = 0.0) -> float:
    """The root of lse_newton, without its weights."""
    return lse_newton(a, b, t0, c)[0]


def word_stats(sys_: WeightedSystem, word: Word) -> WordStats:
    """Mass p_a, size r_a and exponent log p_a / log r_a of a word."""
    lp, lr = word_log_arrays(sys_, word)
    if len(word) == 0:
        raise EmptyWordError("word_stats needs at least one symbol")
    log_p = float(lp.sum())
    log_r = float(lr.sum())
    return WordStats(log_p, log_r, log_p / log_r)


def alpha_bounds(sys_: WeightedSystem) -> tuple[float, float]:
    """Smallest and largest per-symbol exponent log p_i / log r_i."""
    return sys_.alpha_range
