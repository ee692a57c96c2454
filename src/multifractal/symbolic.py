"""Symbolic machinery: block alphabets, window estimates and Moran constructions.

Words of a fixed length are grouped by type (empirical symbol frequency);
counting and subshift dimensions are carried at type level, so block
lengths in the thousands stay cheap even though the underlying alphabets
are astronomically large.

The estimators here work on finite prefixes. assouad_estimate takes the
largest window exponent over the top quartile of the requested window
lengths, the finite-data surrogate for the limsup over window lengths, by a
certified parametric search; window_sups scans the per-length suprema over
the whole range. Results are plain frozen records, each field computed once by
the function that returns it.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    BudgetError,
    DomainError,
    EmptyAlphabetError,
    NeedLargerN,
    PrefixTooShort,
    SizeCapError,
    WindowRangeError,
)
from .spectrum import f_bar
from .system import (
    COUNT_CAP,
    WeightedSystem,
    Word,
    alpha_bounds,
    as_index,
    as_indices,
    as_real,
    check_symbols,
    logsumexp,
    lse_root,
    word_log_arrays,
)

TYPE_CAP = 5_000_000
# bits allowed for a block family's exact counts: n_types * free * log2(m)
# bounds them, and keeps block_alphabet near a second or two
BIT_BUDGET = 20_000_000
# rows per block of a type walk: enough to spread numpy's per-call cost
# thin, few enough that a block's arrays and lists stay near 100 KB, so the
# walk's memory does not grow with the family
WALK_BLOCK = 1024
# float cells per sum in the window scans' buffers: window_sups scans window
# lengths in batches that fit, one length at a time for longer words, and
# the estimate scans the ends that survive its screen in batches that fit.
# Larger buffers scan a little faster but raise the resident set.
SCAN_CELLS = 1 << 14


def _multinomial(n: int, counts: Sequence[int]) -> int:
    out = 1
    rest = n
    for c in counts[:-1]:
        out *= math.comb(rest, c)
        rest -= c
    return out


@dataclass(frozen=True)
class TypeClassCount:
    """Exact and entropy-bound log-counts of one type class."""

    count: int
    exact_log: float
    lower: float
    upper: float


def type_class_log_count(counts: Sequence[int]) -> TypeClassCount:
    """Exact log size of the type class with these symbol counts, and its
    entropy sandwich.

    The class is counted inside the full shift at length n = sum(counts), so
    with q = counts / n the sandwich is
    n*H(q) - (m+1)*log(n+1) <= log #T <= n*H(q).
    """
    counts = as_indices("symbol counts", counts)
    if not counts or min(counts) < 0:
        raise DomainError("need one or more nonnegative symbol counts")
    n, m = sum(counts), len(counts)
    if n > sys.float_info.max:  # an int compares exactly with a float
        raise DomainError("the symbol counts sum past the float range")
    count = _multinomial(n, counts)
    total = 0.0  # sum of f log f over the frequencies, 0 log 0 = 0
    for c in counts:
        if c:
            f = c / n
            total += f * math.log(f)
    h = -total
    upper = n * h
    lower = n * h - (m + 1) * math.log(n + 1)
    return TypeClassCount(count, math.log(count), lower, upper)


def local_dim_prefixes(sys_: WeightedSystem, word: Word, depths) -> np.ndarray:
    """Prefix exponents log p_(w|d) / log r_(w|d) at the requested depths."""
    lp, lr = word_log_arrays(sys_, word)
    ds = as_indices("depths", depths)
    if not ds:
        return np.array([])
    if min(ds) < 1:
        raise DomainError("depths must be positive")
    if max(ds) > len(word):
        raise PrefixTooShort(
            f"depth {max(ds)} exceeds prefix length {len(word)}")
    cp, cr = np.cumsum(lp), np.cumsum(lr)
    at = np.asarray(ds, dtype=np.intp) - 1
    return cp[at] / cr[at]


def _prefix_sums(sys_: WeightedSystem, word: Word, lead: int,
                 trail: int) -> np.ndarray:
    """Prefix sums of log p and log r as the two rows of one array.

    Column lead + k holds the sums over the word's first k letters. The lead
    columns before them and the trail columns after them hold +1e300 over
    -1e300: a window with one end in a pad has ratio about -1, below every
    window's exponent, which is at least 0. Both window scans read their
    sums from here, so they see the same bits.
    """
    lp, lr = word_log_arrays(sys_, word)
    size = len(word) + 1
    c = np.empty((2, lead + size + trail))
    c[0, :lead], c[1, :lead] = 1e300, -1e300
    c[:, lead] = 0.0
    np.cumsum(lp, out=c[0, lead + 1:lead + size])
    np.cumsum(lr, out=c[1, lead + 1:lead + size])
    c[0, lead + size:], c[1, lead + size:] = 1e300, -1e300
    return c


def _window_sups(sys_: WeightedSystem, word: Word, n_lo: int,
                 n_hi: int) -> np.ndarray:
    """Per-length suprema of log p_a / log r_a over the word's windows a.

    Row n - n_lo holds the supremum over the length-n windows, for each n in
    n_lo..n_hi; the caller checks that the range fits the word.
    """
    rows = n_hi - n_lo + 1
    sups = np.empty(rows)
    # rows - 1 pad columns past the word's end. Row n of a window view
    # starts at position n, and a batch's row i holds the windows of length
    # n + i, so each row's maximum is its own.
    c = _prefix_sums(sys_, word, 0, rows - 1)
    width = len(word) + 1 - n_lo
    batch = max(1, SCAN_CELLS // width)
    starts = sliding_window_view(c, width, axis=1)
    buf = np.empty((2, batch, width))
    for i in range(0, rows, batch):
        n, b, k = n_lo + i, min(batch, rows - i), width - i
        u = buf[:, :b, :k]
        np.subtract(starts[:, n:n + b, :k], c[:, None, :k], out=u)
        sups[i:i + b] = np.divide(u[0], u[1], out=u[0]).max(axis=1)
    return sups


def _window_max(sys_: WeightedSystem, word: Word, n_lo: int,
                n_hi: int) -> float:
    """_window_sups(sys_, word, n_lo, n_hi).max(), bit for bit, in O(L) passes.

    A window (i, j) holds letters i..j-1, and its float ratio is
    f = fl(fl(P_j - P_i) / fl(R_j - R_i)) over the prefix sums P, R of log p
    and log r, as in _window_sups. If R falls strictly, each R_j - R_i < 0,
    and for G = P - lam R the exact ratio rho = (P_j - P_i) / (R_j - R_i)
    is >= lam exactly when G_i >= G_j. If some rounded step left R flat,
    the brute-force scan runs instead and keeps its answer, inf or NaN.

    Search (Dinkelbach, Management Science 13(7), 1967). Start lam at the
    largest ratio of the windows ending at the word's end. Each pass forms
    G = P - lam' R, takes for every end j the largest G_i over its starts
    i in [j - n_hi, j - n_lo] with the van Herk / Gil-Werman sliding
    maximum (two running maxima over blocks of n_hi - n_lo + 1), and
    evaluates the windows of the end with the largest G_i - G_j. Their
    largest ratio becomes lam while it rises; lam takes finitely many
    values, so the search ends.

    Certified screen. With u = 2^-53 and lam' = fl(lam (1 - 8u)), keep each
    end j whose computed max G_i - G_j is >= -tol, tol = 16u (max|P| +
    lam' max|R|). Let (i, j) have f >= lam >= 0. Each of the three float
    operations in f errs by a factor 1 + d, |d| <= u, so rho >= f (1 - u)
    / (1 + u)^2 >= lam (1 - 3u), while lam' <= lam (1 - 8u)(1 + u); hence
    rho >= lam' and exactly G'_i >= G'_j. Each computed G'_k =
    fl(P_k - fl(lam' R_k)) is within 3u (|P_k| + lam' |R_k|) of its exact
    value, so the computed max G'_i - G'_j is at least -6u (max|P| +
    lam' max|R|) >= -tol before its last rounding, and rounding is
    monotone, so it stays >= -tol after: j survives. lam is the float
    ratio of a real window, so the window of the largest ratio has
    f >= lam and its end survives. The ends that survive are scanned with
    _window_sups's expression, so their maximum is the brute-force maximum,
    whatever the search did. No value here leaves the normal float range:
    each nonzero |P_k|, |R_k| or difference of two is at least 2^-107, and
    each |P_k|, |R_k| at most 745 per letter.

    The cost is a few passes plus W = n_hi - n_lo + 1 cells per surviving
    end: few ends survive on irregular words, many where windows tie
    exactly, as on periodic and constant words. Survivors are scanned in
    batches of SCAN_CELLS cells taken from a strided view of the sums.
    """
    width = n_hi - n_lo + 1
    lead = width - 1  # starts below 0 fall in the pad
    c = _prefix_sums(sys_, word, lead, 0)
    p, r = c[:, lead:]
    if not (r[1:] < r[:-1]).all():
        del c, p, r  # the scan builds its own sums
        return float(_window_sups(sys_, word, n_lo, n_hi).max())
    ends = len(word) + 1 - n_lo  # ends j = n_lo + a, a = 0..ends - 1
    # row a: the sums at the starts of end n_lo + a, longest window first
    starts = sliding_window_view(c, width, axis=1)
    at_end = c[:, lead + n_lo:]
    batch = max(1, SCAN_CELLS // width)

    def scan(rows: np.ndarray) -> float:
        best = -math.inf
        buf = np.empty((2, min(batch, rows.size), width))
        for k in range(0, rows.size, batch):
            a = rows[k:k + batch]
            u = buf[:, :a.size]
            np.subtract(at_end[:, a, None], starts[:, a], out=u)
            best = max(best, float(np.divide(u[0], u[1], out=u[0]).max()))
        return best

    lam = scan(np.array([ends - 1]))
    # G in blocks of width, -inf in the lead pad and past the word's end
    size = -(-c.shape[1] // width) * width
    g, fwd, bwd = (np.full(size, -math.inf) for _ in range(3))
    blocks, gs = g.reshape(-1, width), g[lead:c.shape[1]]
    ulp = 2.0 ** -53
    while True:
        lam_ = lam * (1.0 - 8 * ulp)
        tol = 16 * ulp * (-p[-1] + lam_ * -r[-1])  # P and R fall from 0
        np.add(p, np.multiply(r, -lam_, out=gs), out=gs)
        np.maximum.accumulate(blocks, axis=1, out=fwd.reshape(-1, width))
        np.maximum.accumulate(blocks[:, ::-1], axis=1,
                              out=bwd.reshape(-1, width)[:, ::-1])
        # the largest G_i over the starts of end n_lo + a, less G_j
        gap = np.maximum(bwd[:ends], fwd[lead:lead + ends], out=bwd[:ends])
        np.subtract(gap, gs[n_lo:], out=gap)
        step = scan(np.array([gap.argmax()]))
        if not step > lam:
            break
        lam = step
    del g, fwd, blocks, gs
    return scan(np.flatnonzero(gap >= -tol))


def _window_range(sys_: WeightedSystem, word: Word,
                  window_range) -> tuple[int, int]:
    """The range as two Python ints, checked to fit the checked word."""
    check_symbols(sys_, word)
    try:
        n_lo, n_hi = map(operator.index, window_range)
    except (TypeError, ValueError) as exc:
        raise WindowRangeError(
            f"window range {window_range!r} is not a pair of integers: "
            f"{exc}") from exc
    if not (1 <= n_lo <= n_hi <= len(word)):
        raise WindowRangeError(
            f"window range [{n_lo}, {n_hi}] does not fit a prefix of "
            f"length {len(word)}")
    return n_lo, n_hi


def window_sups(sys_: WeightedSystem, word: Word,
                window_range: tuple[int, int]) -> np.ndarray:
    """Supremum of log p_a / log r_a over the length-n windows a of the word,
    for each n in the window range, in order."""
    return _window_sups(sys_, word, *_window_range(sys_, word, window_range))


@dataclass(frozen=True)
class AssouadEstimate:
    """Window-scan estimate of the pointwise Assouad exponent along a word."""

    ns: np.ndarray = field(compare=False)
    estimate: float
    window_range: tuple[int, int]


def assouad_estimate(sys_: WeightedSystem, word: Word,
                     window_range: tuple[int, int]) -> AssouadEstimate:
    """Sliding-window estimator of the pointwise Assouad exponent.

    The estimate is the largest of the window_sups over the top quartile of
    the window range, where finite-length bias is smallest. _window_max
    finds it, bit for bit, without scanning each length.
    """
    n_lo, n_hi = _window_range(sys_, word, window_range)
    ns = np.arange(n_lo, n_hi + 1)
    top = 3 * ns.size // 4  # 0 for a single length
    estimate = _window_max(sys_, word, n_lo + top, n_hi)
    return AssouadEstimate(ns, estimate, (n_lo, n_hi))


def _compositions(total: int, parts: int) -> Iterator[np.ndarray]:
    """Nonnegative integer rows of the given length and sum, lexicographic.

    Stars and bars: each choice of parts - 1 bars among total + parts - 1
    slots, taken in lexicographic order, splits the other slots into parts.
    The rows come as int64 arrays of at most WALK_BLOCK rows each, cut from
    one stream of bar positions, so the walk never holds the whole family.
    """
    if parts == 1:
        yield np.array([[total]], dtype=np.int64)
        return
    slots = total + parts - 1
    bars = itertools.chain.from_iterable(
        itertools.combinations(range(slots), parts - 1))
    while True:
        flat = np.fromiter(itertools.islice(bars, WALK_BLOCK * (parts - 1)),
                           dtype=np.int64)
        if not flat.size:
            return
        edges = np.empty((flat.size // (parts - 1), parts + 1), dtype=np.int64)
        edges[:, 0] = -1
        edges[:, 1:-1] = flat.reshape(-1, parts - 1)
        edges[:, -1] = slots
        yield np.diff(edges, axis=1) - 1


class TypeRow(NamedTuple):
    """One type class of a block alphabet: counts include any appended tail."""

    counts: tuple[int, ...]
    count: int
    log_p: float
    log_r: float
    ratio: float


class TypeRows(Sequence):
    """Read-only sequence of an alphabet's TypeRows, built when read.

    The walk stores its kept types as columns: the symbol counts as one
    (k, m) int64 array, the exact class sizes as a list of Python ints, and
    log p, log r and their ratio as one (3, k) float array. Indexing, slicing
    and iteration build TypeRows from them, so a walk leaves a constant number
    of objects for the garbage collector however many types it keeps. == and
    hash are those of the tuple of rows.
    """

    __slots__ = ("_counts", "_sizes", "_logs")

    def __init__(self, counts: np.ndarray, sizes: list[int],
                 logs: np.ndarray):
        self._counts, self._sizes, self._logs = counts, sizes, logs

    @staticmethod
    def _build(counts, sizes, logs) -> Iterator[TypeRow]:
        return map(TypeRow, map(tuple, counts.tolist()), sizes, *logs.tolist())

    def __len__(self) -> int:
        return len(self._sizes)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return tuple(self._build(self._counts[key], self._sizes[key],
                                     self._logs[:, key]))
        i = operator.index(key)
        count = self._sizes[i]  # IndexError past either end
        return TypeRow(tuple(self._counts[i].tolist()), count,
                       *self._logs[:, i].tolist())

    def __iter__(self) -> Iterator[TypeRow]:
        return self._build(self._counts, self._sizes, self._logs)

    def __eq__(self, other) -> bool:
        if isinstance(other, TypeRows):
            other = tuple(other)
        elif not isinstance(other, tuple):
            return NotImplemented
        return tuple(self) == other

    def __hash__(self) -> int:
        return hash(tuple(self))


@dataclass(frozen=True)
class BlockAlphabet:
    """Length-n blocks grouped by type, optionally filtered by exponent.

    The base is either the full shift or the tail-appended family
    {w + kappa : w of length n - |kappa|}. When alpha_cap is set only types
    with log p / log r <= alpha_cap are kept. rows is a TypeRows view over
    the walk's columns; block_count sums the rows' counts; log_terms holds
    (log #a, log r_a) per row, read-only.
    """

    system: WeightedSystem
    n: int
    kappa: Word | None
    alpha_cap: float | None
    rows: TypeRows = field(repr=False)
    block_count: int = field(repr=False)
    log_terms: tuple[np.ndarray, np.ndarray] = field(repr=False,
                                                      compare=False)


def _kappa_counts(kappa: Word | None, m: int) -> tuple[int, ...]:
    """Symbol counts of the tail over m symbols; zeros without a tail."""
    if kappa is None:
        return (0,) * m
    return tuple(np.bincount(kappa.symbols, minlength=m + 1)[1:].tolist())


def _family(sys_: WeightedSystem, n: int, kappa: Word | str | None
            ) -> tuple[int, Word | None, tuple[int, ...], int]:
    """Checked block length and tail, the tail's counts and the free letters."""
    n = as_index("block length", n)
    if n < 1:
        raise DomainError("block length must be positive")
    if isinstance(kappa, str):
        kappa = Word.from_string(kappa)
    if kappa is not None:
        check_symbols(sys_, kappa)
        kappa = kappa or None  # an empty tail is no tail
    kc = _kappa_counts(kappa, sys_.m)
    free = n - sum(kc)
    if free < 0:
        raise DomainError(f"tail of length {n - free} does not fit in n={n}")
    return n, kappa, kc, free


def block_alphabet(sys_: WeightedSystem, n: int, alpha: float | None = None,
                   kappa: Word | str | None = None) -> BlockAlphabet:
    """Type-level description of the length-n blocks with exponent <= alpha.

    alpha=None keeps the whole base family; any other alpha must be a number
    and not NaN, and is kept as given as alpha_cap. kappa switches the base
    from the full shift to the tail-appended family ending in kappa. The
    latest family walked is kept, so a repeated call returns the same
    alphabet object.
    """
    if alpha is not None and math.isnan(as_real("alpha", alpha)):
        raise DomainError("alpha must not be NaN")
    n, kappa, _, free = _family(sys_, n, kappa)
    m = sys_.m
    n_types = math.comb(free + m - 1, m - 1)
    # an int compares exactly with a float, so a huge n_types cannot overflow
    if n_types * free > BIT_BUDGET / math.log2(m):
        raise SizeCapError(f"{free} free letters over {m} symbols exceed the "
                           f"budget of {BIT_BUDGET} bits of exact counts")
    return _walk(sys_, n, alpha, kappa)


# typed: an int alpha and the equal float each keep their own alpha_cap
@functools.lru_cache(maxsize=1, typed=True)
def _walk(sys_: WeightedSystem, n: int, alpha: float | None,
          kappa: Word | None) -> BlockAlphabet:
    """The type walk behind block_alphabet, on arguments it has checked.

    One entry is kept: gamma_n_alpha and then moran_construct on the same
    family walk it once. Sharing is safe, as the alphabet is immutable.
    """
    m = sys_.m
    kc = _kappa_counts(kappa, m)
    free = n - sum(kc)
    logs = np.column_stack([sys_.log_probs, sys_.log_ratios])
    tail = np.asarray(kc, dtype=np.int64)
    # A type's count free! / prod c_i! is its largest part's falling
    # factorial free! / top! over the other parts' factorials: the top part
    # is at least free / m and every other part at most free / 2, so both
    # tables stay short and each row makes one small big-int division.
    fact = np.array(list(itertools.accumulate(
        range(1, free // 2 + 1), operator.mul, initial=1)), dtype=object)
    falling = np.array(list(itertools.accumulate(
        range(free, -(-free // m), -1), operator.mul, initial=1)),
        dtype=object)
    # per block: kept counts and (log_p, log_r, ratio); one list of sizes
    count_blocks, log_blocks, sizes = [], [], []
    for comps in _compositions(free, m):
        counts = comps + tail
        log_p, log_r = (counts.astype(float) @ logs).T
        cols = np.stack([log_p, log_r, log_p / log_r])
        if alpha is not None:
            keep = cols[2] <= float(alpha) + 1e-12
            comps, counts, cols = comps[keep], counts[keep], cols[:, keep]
        at = np.arange(len(comps)), comps.argmax(axis=1)
        top = comps[at]
        comps[at] = 0  # leaves the other parts, whose factorials divide
        sizes.extend((falling[free - top] // fact[comps].prod(axis=1)).tolist())
        count_blocks.append(counts)
        log_blocks.append(cols)
    counts = np.concatenate(count_blocks)
    cols = np.concatenate(log_blocks, axis=1)
    log_counts = np.fromiter(map(math.log, sizes), float, len(sizes))
    for arr in counts, cols, log_counts:
        arr.flags.writeable = False
    return BlockAlphabet(sys_, n, kappa, alpha, TypeRows(counts, sizes, cols),
                         sum(sizes), (log_counts, cols[1]))


def gamma_n_alpha(sys_: WeightedSystem, n: int, alpha: float,
                  kappa: Word | str | None = None) -> BlockAlphabet:
    """Blocks of length n whose exponent stays at or below alpha.

    Same as block_alphabet with a mandatory cutoff; kappa restricts the base
    to the tail-appended family.
    """
    return block_alphabet(sys_, n, alpha=alpha, kappa=kappa)


def subshift_dimension(gamma: BlockAlphabet) -> float:
    """Similarity dimension s solving sum over blocks of r_a^s = 1."""
    if not gamma.rows:
        raise EmptyAlphabetError("cannot size an empty alphabet")
    log_counts, log_rs = gamma.log_terms
    return lse_root(log_counts, log_rs, 0.0)


def greedy_word(sys_: WeightedSystem, alpha: float, length: int) -> Word:
    """Word whose prefix exponents chase alpha from both sides.

    The word starts with the highest-exponent letter; afterwards each step
    appends that letter while the running exponent is below alpha and the
    lowest-exponent letter otherwise, so ties fall to the low letter. Among
    letters of equal exponent the lowest index is used. An alpha equal to
    the top exponent yields the constant high word.
    """
    alpha = as_real("alpha", alpha)
    length = as_index("length", length)
    if length < 1:
        raise DomainError("length must be positive")
    if length > COUNT_CAP:
        raise SizeCapError(f"length {length} exceeds {COUNT_CAP}")
    a_lo, a_hi = alpha_bounds(sys_)
    if not (a_lo - 1e-9 <= alpha <= a_hi + 1e-9):
        raise DomainError(f"alpha={alpha} outside [{a_lo}, {a_hi}]")
    sr = sys_.symbol_ratios
    (hi_sym, hi_p, hi_r), (lo_sym, lo_p, lo_r) = (
        (int(i) + 1, float(sys_.log_probs[i]), float(sys_.log_ratios[i]))
        for i in (np.argmax(sr), np.argmin(sr)))
    if alpha >= a_hi - 1e-12:
        return Word.constant(hi_sym, length)
    symbols = [hi_sym]
    append = symbols.append
    log_p, log_r = hi_p, hi_r
    for _ in range(length - 1):
        if log_p / log_r < alpha:
            append(hi_sym)
            log_p += hi_p
            log_r += hi_r
        else:
            append(lo_sym)
            log_p += lo_p
            log_r += lo_r
    return Word(symbols)


@dataclass(frozen=True)
class MoranSpec:
    """One interleaved Moran construction: blocks, spine, and stage lengths.

    Stage k covers the spine's first k n letters with m_1 + ... + m_k
    blocks. stage_log_r[k - 1] is log r of those letters, stage_lengths[k - 1]
    is m_k, and stage_totals holds the running sums of both.
    """

    system: WeightedSystem
    n: int
    alpha: float
    epsilon: float
    s: float
    blocks: BlockAlphabet
    spine: Word
    stage_log_r: np.ndarray = field(repr=False, compare=False)
    stage_lengths: tuple[int, ...]
    stage_totals: tuple[list[int], np.ndarray] = field(repr=False,
                                                       compare=False)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "alpha": self.alpha,
            "epsilon": self.epsilon,
            "s": self.s,
            "M": list(self.stage_lengths),
            "spine": str(self.spine[: min(len(self.spine), 4 * self.n)]),
            "block_count": self.blocks.block_count,
        }


def moran_construct(sys_: WeightedSystem, alpha: float, eps: float, n: int,
                    stages: int = 20) -> MoranSpec:
    """Build the interleaved Moran system targeting dimension f_bar - eps.

    Requires the filtered block alphabet at length n to carry dimension
    above f_bar(alpha) - eps/2; otherwise NeedLargerN reports what length n
    actually achieved. A stage that would need more than 2^53 blocks raises
    BudgetError.

    The spine is the greedy word of `stages` letters, each repeated n times:
    n cancels in the running exponent, so this is the chase over the blocks
    hi^n and lo^n. Of letters with equal exponent the lowest index is used.
    """
    alpha, eps = as_real("alpha", alpha), as_real("epsilon", eps)
    a_lo, a_hi = alpha_bounds(sys_)
    if not (a_lo < alpha < a_hi):
        raise DomainError(f"alpha={alpha} outside the open interval "
                          f"({a_lo}, {a_hi})")
    if eps <= 0.0:
        raise DomainError("epsilon must be positive")
    if not math.isfinite(eps):
        raise DomainError(f"epsilon={eps} is not finite")
    n, stages = as_index("block length", n), as_index("stages", stages)
    if stages < 1:
        raise DomainError("need at least one stage")
    if n * stages > COUNT_CAP:
        raise SizeCapError(f"the spine, {n} * {stages} letters, exceeds "
                           f"{COUNT_CAP}")
    gamma = block_alphabet(sys_, n, alpha)
    fb = f_bar(sys_, alpha)
    required = fb - eps / 2.0
    if not gamma.rows:
        raise NeedLargerN(f"no blocks of length {n} have exponent <= {alpha}",
                          achieved=0.0, required=required)
    achieved = subshift_dimension(gamma)
    if achieved <= required:
        raise NeedLargerN(
            f"blocks of length {n} reach dimension {achieved:.6f}, "
            f"need > {required:.6f}", achieved=achieved, required=required)
    spine = Word(np.repeat(greedy_word(sys_, alpha, stages).symbols, n))
    s = fb - eps
    _, lr = word_log_arrays(sys_, spine)
    stage_log_r = np.cumsum(lr)[n - 1::n].copy()
    # m_k is the least m >= 1 with m * gain + s * stage_log_r[k - 1] > 0
    log_counts, log_rs = gamma.log_terms
    gain = logsumexp(log_counts + s * log_rs)  # > 0 unless rounding ate it
    lengths = []
    for k, log_r in enumerate(stage_log_r, start=1):
        # the test is monotone in m
        penalty = s * float(log_r)
        quotient = -penalty / gain if gain > 0.0 else math.inf
        if not quotient <= 2.0 ** 53:
            raise BudgetError(f"stage {k} would need {quotient:.3g} blocks")
        m_k = math.floor(max(quotient, 0.0)) + 1
        while m_k > 1 and (m_k - 1) * gain + penalty > 0.0:
            m_k -= 1
        while m_k * gain + penalty <= 0.0:
            m_k += 1
        lengths.append(m_k)
    totals = list(itertools.accumulate(lengths)), np.cumsum(stage_log_r)
    return MoranSpec(sys_, n, alpha, eps, s, gamma, spine, stage_log_r,
                     tuple(lengths), totals)


def moran_dimension(spec: MoranSpec, k: int) -> float:
    """Dimension of the k-th stage covering: the root of its log product.

    The product is m_total * logsumexp(log #a + t log r_a) + t * spine_total,
    which lse_root takes divided by m_total.
    """
    if not (1 <= as_index("stage", k) <= len(spec.stage_lengths)):
        raise DomainError(f"stage {k} outside 1..{len(spec.stage_lengths)}")
    log_counts, log_rs = spec.blocks.log_terms
    m_totals, log_r_totals = spec.stage_totals
    return lse_root(log_counts, log_rs, 0.0,
                    float(log_r_totals[k - 1]) / m_totals[k - 1])


@dataclass(frozen=True)
class AbundanceReport:
    """Finite-n abundance diagnostics for a tail-appended block family."""

    n: int
    delta: float
    kappa: str
    a1_min_ratio: float
    a2_delta_dense: bool


def abundance_report(sys_: WeightedSystem, n: int, delta: float,
                     kappa: Word | str | None = None) -> AbundanceReport:
    """Minimum type-class ratio (A1) and delta-density of realized types (A2).

    A1 is min over realized types of #T_family(q) / #T_full(q). A2 checks
    that every interior lattice point with spacing ~delta/2 has a realized
    type within l-inf distance delta/2, certifying delta-density.
    """
    delta = as_real("delta", delta)
    if not 0.0 < delta <= 1.0:
        raise DomainError("delta must lie in (0, 1]")
    n, kappa, kc, free = _family(sys_, n, kappa)
    if n > 2 ** 53:  # q*n then misses by more than the repair loop can mend
        raise SizeCapError("the delta-net check takes n up to 2**53")
    if free < 1:
        raise DomainError(f"n={n} leaves no free positions after the tail")
    # #T_family / #T_full = prod_i perm(k_i + c_i, k_i) / perm(n, |kappa|)
    # over the tail's counts k_i and the type's free letters c_i. Each log
    # perm(k_i + c_i, k_i) is concave in c_i, so the least numerator over
    # the compositions c of free lies at a vertex: all free letters on one
    # symbol i, giving perm(k_i + free, k_i) * prod_{j != i} k_j!
    rest = math.prod(map(math.factorial, kc))
    least = min(math.perm(k + free, k) * (rest // math.factorial(k))
                for k in kc)
    a1 = min(1.0, least / math.perm(n, n - free))
    m = sys_.m
    big_d = math.ceil(2 * m / delta)
    if math.comb(big_d - 1, m - 1) > TYPE_CAP:
        raise SizeCapError("delta-net is too fine for this alphabet size")
    a2 = True
    net = itertools.chain.from_iterable(
        block.tolist() for block in _compositions(big_d - m, m))
    for raw in net:
        q = [(c + 1) / big_d for c in raw]
        c_near = _nearest_free_counts(q, n, kc, free)
        dist = max(abs((ci + ki) / n - qi)
                   for ci, ki, qi in zip(c_near, kc, q))
        if dist > delta / 2.0 + 1e-12:
            a2 = False
            break
    return AbundanceReport(n, delta, str(kappa or ""), a1, a2)


def _nearest_free_counts(q: Sequence[float], n: int, kc: Sequence[int],
                         free: int) -> list[int]:
    """Largest-remainder rounding of q*n - kappa onto compositions of free."""
    raw = [max(0.0, qi * n - ki) for qi, ki in zip(q, kc)]
    base = [math.floor(x) for x in raw]
    rem = free - sum(base)
    fracs = [x - b for x, b in zip(raw, base)]
    while rem > 0:
        i = max(range(len(base)), key=lambda j: fracs[j])
        base[i] += 1
        fracs[i] -= 1.0
        rem -= 1
    while rem < 0:
        candidates = [j for j in range(len(base)) if base[j] > 0]
        i = min(candidates, key=lambda j: fracs[j])
        base[i] -= 1
        fracs[i] += 1.0
        rem += 1
    return base
