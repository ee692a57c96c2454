"""Symbolic machinery: type vectors, block alphabets, and Moran constructions.

Words of a fixed length are grouped by type (empirical symbol frequency);
counting, entropy functionals, and subshift dimensions are all carried at
type level, so block lengths in the thousands stay cheap even though the
underlying alphabets are astronomically large.

The estimators here work on finite prefixes. assouad_estimate scans every
window of each requested length and aggregates the per-length suprema over
the top quartile of the window range, which is the finite-data surrogate for
the limsup over window lengths.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    BudgetError,
    DenominatorError,
    DomainError,
    EmptyAlphabetError,
    EmptyWordError,
    NeedLargerN,
    PrefixTooShort,
    SizeCapError,
    WindowRangeError,
)
from .system import (
    WeightedSystem,
    Word,
    alpha_bounds,
    logsumexp,
    lse_root,
    word_log_arrays,
    xlogx,
)

TYPE_CAP = 5_000_000
# bits allowed for a block family's exact counts: n_types * free * log2(m)
# bounds them, and keeps block_alphabet near a second or two
BIT_BUDGET = 20_000_000
M_SCAN_CAP = 1_000_000


@dataclass(frozen=True)
class TypeVector:
    """Exact empirical frequency of a word, stored as integer counts."""

    counts: tuple[int, ...]

    def __post_init__(self):
        if not self.counts or any(c < 0 for c in self.counts):
            raise DomainError("counts must be nonnegative with at least one entry")
        if sum(self.counts) == 0:
            raise EmptyWordError("type of the empty word is undefined")

    @property
    def n(self) -> int:
        return sum(self.counts)

    @property
    def m(self) -> int:
        return len(self.counts)

    @property
    def freqs(self) -> tuple[Fraction, ...]:
        n = self.n
        return tuple(Fraction(c, n) for c in self.counts)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.counts, dtype=float) / self.n


def type_of(word: Word, m: int | None = None) -> TypeVector:
    """Type (symbol frequency vector) of a word over m symbols."""
    if len(word) == 0:
        raise EmptyWordError("type of the empty word is undefined")
    top = int(word.symbols.max())
    m = top if m is None else m
    if top > m:
        raise DomainError(f"word uses symbol {top} but m={m}")
    counts = np.bincount(word.symbols, minlength=m + 1)[1:m + 1]
    return TypeVector(tuple(int(c) for c in counts))


@dataclass(frozen=True)
class EntropyFunctionals:
    """Shannon entropy, cross-entropy against p, and Lyapunov exponent."""

    entropy: float
    cross_entropy: float
    lyapunov: float


def _freq_array(freqs) -> np.ndarray:
    if isinstance(freqs, TypeVector):
        return freqs.as_array()
    arr = np.asarray([float(x) for x in freqs], dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError("frequency vector must be a flat nonempty sequence")
    if arr.min() < -1e-12 or abs(arr.sum() - 1.0) > 1e-9:
        raise DomainError("frequencies must be nonnegative and sum to one")
    return np.clip(arr, 0.0, None)


def entropy_functionals(sys_: WeightedSystem, freqs) -> EntropyFunctionals:
    """H(q), H_p(q), lambda(q) for a frequency vector q (0 log 0 = 0)."""
    q = _freq_array(freqs)
    if q.size != sys_.m:
        raise DomainError(f"expected {sys_.m} frequencies, got {q.size}")
    h = float(-xlogx(q).sum())
    hp = float(-(q @ sys_.log_probs))
    lam = float(-(q @ sys_.log_ratios))
    return EntropyFunctionals(h, hp, lam)


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


def type_class_log_count(n: int, freqs) -> TypeClassCount:
    """Exact log type-class size with its entropy sandwich at length n.

    The class is counted inside the full shift, so the sandwich is
    n*H(q) - (m+1)*log(n+1) <= log #T <= n*H(q).
    """
    counts = []
    for x in freqs:
        k = x * n
        k_int = round(float(k))
        if abs(float(k) - k_int) > 1e-9 * max(1, n):
            raise DenominatorError(f"frequency {x} is not a multiple of 1/{n}")
        counts.append(k_int)
    if sum(counts) != n:
        raise DenominatorError("frequencies do not sum to one at this n")
    m = len(counts)
    count = _multinomial(n, counts)
    h = float(-xlogx(np.array(counts, dtype=float) / n).sum())
    upper = n * h
    lower = n * h - (m + 1) * math.log(n + 1)
    return TypeClassCount(count, math.log(count), lower, upper)


def local_dim_prefixes(sys_: WeightedSystem, word: Word, depths) -> np.ndarray:
    """Prefix exponents log p_(w|d) / log r_(w|d) at the requested depths."""
    ds = np.asarray(list(depths), dtype=np.intp)
    if ds.size == 0:
        return np.array([])
    if ds.min() < 1:
        raise DomainError("depths must be positive")
    if ds.max() > len(word):
        raise PrefixTooShort(
            f"depth {int(ds.max())} exceeds prefix length {len(word)}")
    lp, lr = word_log_arrays(sys_, word)
    cp, cr = np.cumsum(lp), np.cumsum(lr)
    return cp[ds - 1] / cr[ds - 1]


@dataclass(frozen=True)
class AssouadEstimate:
    ns: np.ndarray
    per_n_sup: np.ndarray
    estimate: float
    window_range: tuple[int, int]


def assouad_estimate(sys_: WeightedSystem, word: Word,
                     window_range: tuple[int, int]) -> AssouadEstimate:
    """Sliding-window estimator of the pointwise Assouad exponent.

    per_n_sup[n] is the supremum of log p_a / log r_a over all length-n
    windows of the prefix; the estimate aggregates the top quartile of the
    window range, where finite-length bias is smallest.
    """
    n_lo, n_hi = int(window_range[0]), int(window_range[1])
    if not (1 <= n_lo <= n_hi <= len(word)):
        raise WindowRangeError(
            f"window range [{n_lo}, {n_hi}] does not fit a prefix of "
            f"length {len(word)}")
    lp, lr = word_log_arrays(sys_, word)
    cp = np.concatenate([[0.0], np.cumsum(lp)])
    cr = np.concatenate([[0.0], np.cumsum(lr)])
    ns = np.arange(n_lo, n_hi + 1)
    sups = np.empty(ns.size)
    for i, n in enumerate(ns):
        num = cp[n:] - cp[:-n]
        den = cr[n:] - cr[:-n]
        sups[i] = np.max(num / den)
    top = ns.size - max(1, ns.size - (3 * ns.size) // 4)
    estimate = float(sups[top:].max()) if ns.size > 1 else float(sups[-1])
    return AssouadEstimate(ns, sups, estimate, (n_lo, n_hi))


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Nonnegative integer tuples of the given length and sum, lexicographic.

    Stars and bars: each choice of parts - 1 bars among total + parts - 1
    slots, taken in lexicographic order, splits the other slots into parts.
    """
    slots = total + parts - 1
    for bars in itertools.combinations(range(slots), parts - 1):
        yield tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (slots,)))


@dataclass(frozen=True)
class TypeRow:
    """One type class of a block alphabet: counts include any appended tail."""

    counts: tuple[int, ...]
    count: int
    log_p: float
    log_r: float
    ratio: float


@dataclass(frozen=True)
class BlockAlphabet:
    """Length-n blocks grouped by type, optionally filtered by exponent.

    The base is either the full shift or the tail-appended family
    {w + kappa : w of length n - |kappa|}. When alpha_cap is set only types
    with log p / log r <= alpha_cap are kept.
    """

    system: WeightedSystem
    n: int
    kappa: Word | None
    alpha_cap: float | None
    rows: tuple[TypeRow, ...] = field(repr=False)

    @cached_property
    def block_count(self) -> int:
        return sum(row.count for row in self.rows)

    @property
    def alpha_min(self) -> float:
        if not self.rows:
            raise EmptyAlphabetError("alphabet has no blocks")
        return min(row.ratio for row in self.rows)

    @property
    def alpha_max(self) -> float:
        if not self.rows:
            raise EmptyAlphabetError("alphabet has no blocks")
        return max(row.ratio for row in self.rows)


def _log_terms(gamma: BlockAlphabet) -> tuple[np.ndarray, np.ndarray]:
    """Per-row log block count and log ratio of a block alphabet."""
    return (np.array([math.log(row.count) for row in gamma.rows]),
            np.array([row.log_r for row in gamma.rows]))


def _kappa_counts(kappa: Word | None, m: int) -> tuple[int, ...]:
    return (0,) * m if kappa is None else type_of(kappa, m).counts


def block_alphabet(sys_: WeightedSystem, n: int, alpha: float | None = None,
                   kappa: Word | str | None = None) -> BlockAlphabet:
    """Type-level description of the length-n blocks with exponent <= alpha.

    alpha=None keeps the whole base family. kappa switches the base from the
    full shift to the tail-appended family ending in kappa.
    """
    if n < 1:
        raise DomainError("block length must be positive")
    if isinstance(kappa, str):
        kappa = Word.from_string(kappa)
    kappa = kappa or None  # an empty tail is no tail
    m = sys_.m
    kc = _kappa_counts(kappa, m)
    free = n - sum(kc)
    if free < 0:
        raise DomainError(f"tail of length {n - free} does not fit in n={n}")
    n_types = math.comb(free + m - 1, m - 1)
    # an int compares exactly with a float, so a huge n_types cannot overflow
    if n_types * free > BIT_BUDGET / math.log2(m):
        raise SizeCapError(f"{free} free letters over {m} symbols exceed the "
                           f"budget of {BIT_BUDGET} bits of exact counts")
    lp, lr = np.asarray(sys_.log_probs), np.asarray(sys_.log_ratios)
    rows = []
    for comp in _compositions(free, m):
        counts = tuple(c + k for c, k in zip(comp, kc))
        arr = np.asarray(counts, dtype=float)
        log_p = float(arr @ lp)
        log_r = float(arr @ lr)
        ratio = log_p / log_r
        if alpha is not None and ratio > alpha + 1e-12:
            continue
        rows.append(TypeRow(counts, _multinomial(free, comp), log_p, log_r, ratio))
    return BlockAlphabet(sys_, n, kappa, alpha, tuple(rows))


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
    log_counts, log_rs = _log_terms(gamma)
    return lse_root(log_counts, log_rs, 0.0)


def greedy_word(sys_: WeightedSystem, alpha: float, length: int) -> Word:
    """Word whose prefix exponents chase alpha from both sides.

    The word starts with the highest-exponent letter; afterwards each step
    appends that letter while the running exponent is below alpha and the
    lowest-exponent letter otherwise, so ties fall to the low letter. Among
    letters of equal exponent the lowest index is used. An alpha equal to
    the top exponent yields the constant high word.
    """
    a_lo, a_hi = alpha_bounds(sys_)
    if length < 1:
        raise DomainError("length must be positive")
    if not (a_lo - 1e-9 <= alpha <= a_hi + 1e-9):
        raise DomainError(f"alpha={alpha} outside [{a_lo}, {a_hi}]")
    sr = sys_.symbol_ratios
    hi, lo = ((int(i) + 1, float(sys_.log_probs[i]), float(sys_.log_ratios[i]))
              for i in (np.argmax(sr), np.argmin(sr)))
    if alpha >= a_hi - 1e-12:
        return Word.constant(hi[0], length)
    symbols = [hi[0]]
    log_p, log_r = hi[1], hi[2]
    while len(symbols) < length:
        nxt = hi if log_p / log_r < alpha else lo
        symbols.append(nxt[0])
        log_p += nxt[1]
        log_r += nxt[2]
    return Word(symbols)


@dataclass(frozen=True)
class MoranSpec:
    """One interleaved Moran construction: blocks, spine, and stage lengths."""

    system: WeightedSystem
    n: int
    alpha: float
    epsilon: float
    s: float
    blocks: BlockAlphabet
    spine: Word
    stage_lengths: tuple[int, ...]
    growth_constant: float

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
    actually achieved.

    The spine is the greedy word of `stages` letters, each repeated n times:
    n cancels in the running exponent, so this is the chase over the blocks
    hi^n and lo^n. Of letters with equal exponent the lowest index is used.
    """
    from .spectrum import f_bar  # local import avoids a module cycle

    a_lo, a_hi = alpha_bounds(sys_)
    if not (a_lo < alpha < a_hi):
        raise DomainError(f"alpha={alpha} outside the open interval "
                          f"({a_lo}, {a_hi})")
    if eps <= 0.0:
        raise DomainError("epsilon must be positive")
    if not math.isfinite(eps):
        raise DomainError(f"epsilon={eps} is not finite")
    if stages < 1:
        raise DomainError("need at least one stage")
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
    s = fb - eps
    spine = Word(np.repeat(greedy_word(sys_, alpha, stages).symbols, n))
    _, lr = word_log_arrays(sys_, spine)
    spine_log_r = np.cumsum(lr)
    log_counts, log_rs = _log_terms(gamma)
    gain = logsumexp(log_counts + s * log_rs)  # > 0 by the guard above
    ms = []
    for k in range(1, stages + 1):
        penalty = s * float(spine_log_r[k * n - 1])
        m_k = 1
        while m_k * gain + penalty <= 0.0:
            m_k += 1
            if m_k > M_SCAN_CAP:
                raise BudgetError(f"stage length exceeded {M_SCAN_CAP}")
        ms.append(m_k)
    growth = max(m / k for k, m in enumerate(ms, start=1))
    return MoranSpec(sys_, n, alpha, eps, s, gamma, spine, tuple(ms), growth)


def moran_dimension(spec: MoranSpec, k: int) -> float:
    """Dimension of the k-th stage covering: the root of its log product.

    The product is m_total * logsumexp(log #a + t log r_a) + t * spine_total,
    which lse_root takes divided by m_total.
    """
    if not (1 <= k <= len(spec.stage_lengths)):
        raise DomainError(f"stage {k} outside 1..{len(spec.stage_lengths)}")
    log_counts, log_rs = _log_terms(spec.blocks)
    _, lr = word_log_arrays(spec.system, spec.spine)
    spine_log_r = np.cumsum(lr)
    m_total = sum(spec.stage_lengths[:k])
    spine_total = float(sum(spine_log_r[j * spec.n - 1]
                            for j in range(1, k + 1)))
    return lse_root(log_counts, log_rs, 0.0, spine_total / m_total)


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
    if not 0.0 < delta <= 1.0:
        raise DomainError("delta must lie in (0, 1]")
    gamma = block_alphabet(sys_, n, None, kappa)
    m = sys_.m
    kc = _kappa_counts(gamma.kappa, m)
    free = n - sum(kc)
    if free < 1:
        raise DomainError(f"n={n} leaves no free positions after the tail")
    a1 = min(1.0, min(row.count / _multinomial(n, row.counts)
                      for row in gamma.rows))
    big_d = math.ceil(2 * m / delta)
    if math.comb(big_d - 1, m - 1) > TYPE_CAP:
        raise SizeCapError("delta-net is too fine for this alphabet size")
    a2 = True
    for raw in _compositions(big_d - m, m):
        q = [(c + 1) / big_d for c in raw]
        c_near = _nearest_free_counts(q, n, kc, free)
        dist = max(abs((ci + ki) / n - qi)
                   for ci, ki, qi in zip(c_near, kc, q))
        if dist > delta / 2.0 + 1e-12:
            a2 = False
            break
    return AbundanceReport(n, delta, str(gamma.kappa or ""), a1, a2)


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
