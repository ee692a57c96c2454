"""Rigorous 1D ball-measure engine and doubling diagnostics.

Every measure query returns an enclosure, never a point estimate. The
recursion over the cylinder tree decides a cylinder as soon as its hull is
contained in the closed ball or meets it in at most a point; undecided
cylinders below the size tolerance contribute to the upper bound only. Hull
endpoints are tracked exactly, as integers over a power of two (every float
is n * 2^-e), so the containment tests stay sound at any depth. Points carry
no mass (max p_i < 1 forbids atoms), which justifies dropping touching-only
hulls and makes the enclosure sound for systems with touching intervals.

Scan estimators combine enclosure ends conservatively: every reported
dimension quantity is a certified lower bound at the scanned scales.
Points are addressed by coordinate; codings are derived, with ties at shared
endpoints resolved to the left cylinder.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import (
    BudgetError,
    DomainError,
    EmptyWordError,
    NoGeometryError,
    SizeCapError,
)
from .system import (
    COUNT_CAP,
    GEOM_TOL,
    WeightedSystem,
    Word,
    as_index,
    as_real,
    check_symbols,
    word_stats,
)

NODE_BUDGET = 10_000_000


def _require_geometry(sys_: WeightedSystem) -> None:
    if not sys_.has_geometry:
        raise NoGeometryError("system has no translations; 1D geometry "
                              "operations are unavailable")


@dataclass(frozen=True)
class MeasureBounds:
    """Enclosure of a ball measure: lower <= mu(B) <= upper."""

    lower: float
    upper: float
    depth_used: int
    straddle_mass: float


@dataclass(frozen=True)
class WitnessPair:
    """Pair of words certifying a doubling-ratio spike."""

    i: Word
    j: Word
    mass_ratio: float
    gap: float

    def to_json_dict(self, sys_: WeightedSystem) -> dict:
        si, sj = word_stats(sys_, self.i), word_stats(sys_, self.j)
        return {
            "i": str(self.i),
            "j": str(self.j),
            "p_i": si.p,
            "p_j": sj.p,
            "interval_i": list(cylinder_interval(sys_, self.i)),
            "interval_j": list(cylinder_interval(sys_, self.j)),
            "gap": self.gap,
            "mass_ratio": self.mass_ratio,
        }


def _require_finite(**values: float) -> list[float]:
    """The values as Python floats; DomainError unless finite numbers."""
    out = [as_real(name, v) for name, v in values.items()]
    for name, v in zip(values, out):
        if not math.isfinite(v):
            raise DomainError(f"{name}={v} is not finite")
    return out


def _finite_scales(scales) -> list[float]:
    try:
        rs = [float(s) for s in scales]
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"scales must be numbers: {exc}") from exc
    if not all(map(math.isfinite, rs)):
        raise DomainError("scales must be finite")
    if not all(0.0 < r <= 1.0 for r in rs):
        raise DomainError("scales must lie in (0, 1]")
    return rs


def _dyadic(v: float) -> tuple[int, int]:
    """(n, e) with v == n / 2^e exactly; every finite float has this form."""
    n, d = float(v).as_integer_ratio()
    return n, d.bit_length() - 1


@functools.lru_cache(maxsize=1)
def _maps(sys_: WeightedSystem) -> tuple[int, tuple]:
    """(k, children): each map's (t_i, r_i) as integers over 2^k, with p_i.
    Every hull is built from these. One entry: callers use one system."""
    maps = [_dyadic(v) for v in (*sys_.ratios, *sys_.translations)]
    k = max(e for _, e in maps)
    ints = [n << (k - e) for n, e in maps]
    return k, tuple(zip(ints[sys_.m:], ints[:sys_.m], sys_.probs))


def _hull(sys_: WeightedSystem, word: Word) -> tuple[int, int, int]:
    """(lo, size, e): the word's cylinder is exactly [lo, lo + size] / 2^e."""
    check_symbols(sys_, word)
    k, children = _maps(sys_)
    lo, size = 0, 1
    for a in word:  # ball_measure's child step, one letter at a time
        t_i, r_i, _ = children[a - 1]
        lo, size = (lo << k) + size * t_i, size * r_i
    return lo, size, k * len(word)


def cylinder_interval(sys_: WeightedSystem, word: Word) -> tuple[float, float]:
    """Hull of the cylinder, each end rounded once (so it holds every point)."""
    _require_geometry(sys_)
    lo, size, e = _hull(sys_, word)
    return lo / (1 << e), (lo + size) / (1 << e)


def ball_measure(sys_: WeightedSystem, x: float, r: float,
                 tol: float = 1e-12,
                 depth_cap: int | None = None) -> MeasureBounds:
    """Enclosure of mu(B(x, r)) by recursion over the cylinder tree.

    Cylinders inside the closed ball count toward both bounds; cylinders
    meeting it in at most one endpoint are dropped (the shared point carries
    no mass); cylinders still straddling a boundary when their length falls
    below tol (or the depth cap is hit) count toward the upper bound only.
    """
    _require_geometry(sys_)
    x, r, tol = _require_finite(x=x, r=r, tol=tol)
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"x={x} outside [0, 1]")
    if r <= 0.0:
        raise DomainError("radius must be positive")
    if tol <= 0.0:
        raise DomainError("tol must be positive")
    cap = math.inf if depth_cap is None else as_index("depth_cap", depth_cap)
    if cap < 0:
        raise DomainError("depth_cap must be nonnegative")
    # With r_i, t_i over 2^k (_maps) and x, r, tol over 2^b, a depth-d hull
    # is exactly (n, s) / 2^(b + k*d), where floats would round past 53 bits.
    x_n, x_e = _dyadic(x)
    r_n, r_e = _dyadic(r)
    tol_n, tol_e = _dyadic(tol)
    b = max(x_e, r_e, tol_e)
    x_n <<= b - x_e
    r_n <<= b - r_e
    los, his, tols = [x_n - r_n], [x_n + r_n], [tol_n << (b - tol_e)]
    k, children = _maps(sys_)
    lower = 0.0
    straddle = 0.0
    depth_used = 0
    nodes = 0
    stack = [(0, 1 << b, 1.0, 0)]
    while stack:
        t, size, mass, depth = stack.pop()
        nodes += 1
        if nodes > NODE_BUDGET:
            raise BudgetError(f"ball query exceeded {NODE_BUDGET} nodes")
        if depth > depth_used:  # first node this deep: rescale the ball ends
            depth_used = depth
            los.append(los[-1] << k)
            his.append(his[-1] << k)
            tols.append(tols[-1] << k)
        lo_b, hi_b = los[depth], his[depth]
        end = t + size
        if t >= lo_b and end <= hi_b:
            lower += mass
            continue
        # touching at a single point carries no mass (no atoms: all p_i < 1)
        if t >= hi_b or end <= lo_b:
            continue
        if size < tols[depth] or depth >= cap:
            straddle += mass
            continue
        t <<= k
        depth += 1
        for t_i, r_i, p_i in children:
            stack.append((t + size * t_i, size * r_i, mass * p_i, depth))
    return MeasureBounds(lower, lower + straddle, depth_used, straddle)


@dataclass(frozen=True)
class DoublingRow:
    """Ball enclosure at one scale plus the conservative gamma-ratio interval."""

    r: float
    lower: float
    upper: float
    ratio_lower: float
    ratio_upper: float


@dataclass(frozen=True)
class DoublingScan:
    x: float
    gamma: float
    rows: tuple[DoublingRow, ...]
    max_ratio_lower: float


def doubling_scan(sys_: WeightedSystem, x: float, gamma: float, scales,
                  rel_tol: float = 1e-9) -> DoublingScan:
    """Conservative mu(B(x, gamma r)) / mu(B(x, r)) intervals over a scale grid.

    max_ratio_lower is the largest certified lower end, a lower bound for
    the supremum of the doubling ratio over the scanned scales.
    """
    _require_geometry(sys_)
    gamma, rel_tol = _require_finite(gamma=gamma, rel_tol=rel_tol)
    if gamma <= 1.0:
        raise DomainError("gamma must exceed 1")
    rs = _finite_scales(scales)
    if not rs:
        raise DomainError("empty scale grid")
    rows = []
    best = math.nan
    for r in rs:
        tol = r * rel_tol
        small = ball_measure(sys_, x, r, tol)
        big = ball_measure(sys_, x, gamma * r, tol)
        ratio_lo = big.lower / small.upper if small.upper > 0.0 else math.nan
        ratio_hi = big.upper / small.lower if small.lower > 0.0 else math.inf
        rows.append(DoublingRow(r, small.lower, small.upper, ratio_lo, ratio_hi))
        if not math.isnan(ratio_lo) and not (best >= ratio_lo):
            best = ratio_lo
    return DoublingScan(x, gamma, tuple(rows), best)


def assouad_scan(sys_: WeightedSystem, x: float, scales,
                 min_ratio: float = 4.0, rel_tol: float = 1e-9) -> float:
    """Certified lower bound for the pointwise Assouad dimension at x.

    Maximizes log(lower(R) / upper(r)) / log(R / r) over scanned scale pairs
    R > min_ratio * r. Only a lower bound: finite scans cannot certify an
    upper bound at a point.
    """
    _require_geometry(sys_)
    min_ratio, rel_tol = _require_finite(min_ratio=min_ratio, rel_tol=rel_tol)
    rs = sorted(set(_finite_scales(scales)), reverse=True)
    if len(rs) < 2:
        raise DomainError("need at least two scales")
    for big, small in zip(rs, rs[1:]):
        if big / small < 2.0 * (1.0 - 1e-12):
            raise DomainError("scale grid must be geometric with ratio >= 2")
    bounds = [ball_measure(sys_, x, r, r * rel_tol) for r in rs]
    best = -math.inf
    for i_big in range(len(rs)):
        if bounds[i_big].lower <= 0.0:
            continue
        for i_small in range(i_big + 1, len(rs)):
            if rs[i_big] / rs[i_small] < min_ratio * (1.0 - 1e-12):
                continue
            up = bounds[i_small].upper
            if up <= 0.0:
                continue
            val = (math.log(bounds[i_big].lower) - math.log(up)) \
                / (math.log(rs[i_big]) - math.log(rs[i_small]))
            best = max(best, val)
    if not math.isfinite(best):
        raise DomainError("no scale pair produced a certified ratio")
    return best


def _edge_symbols(sys_: WeightedSystem) -> tuple[int | None, int | None]:
    """Symbols whose intervals touch 0 and 1 in unit coordinates, if any."""
    left = right = None
    for i in range(sys_.m):
        if abs(sys_.translations[i]) <= GEOM_TOL:
            left = i + 1
        if abs(sys_.translations[i] + sys_.ratios[i] - 1.0) <= GEOM_TOL:
            right = i + 1
    return left, right


def non_doubling_witness(sys_: WeightedSystem, n_target: float,
                         depth_cap: int = 32) -> WitnessPair | None:
    """Search for adjacent-cylinder pairs with mass ratio >= n_target.

    Sweeps the shared boundary points of first-level cylinders and descends
    the forced chains that keep touching each boundary; the mass ratio then
    grows geometrically. Returns the shallowest pair found, or None.
    """
    _require_geometry(sys_)
    [n_target] = _require_finite(n_target=n_target)
    if as_index("depth_cap", depth_cap) < 1:
        raise DomainError("depth_cap must be at least 1")
    order = sorted(range(sys_.m), key=lambda i: sys_.translations[i])
    left_edge, right_edge = _edge_symbols(sys_)
    seeds = []  # chains hugging each shared point, from either side
    for a, b in zip(order, order[1:]):
        hi_a = sys_.translations[a] + sys_.ratios[a]
        if abs(hi_a - sys_.translations[b]) <= GEOM_TOL \
                and None not in (left_edge, right_edge):
            seeds += [((a + 1, right_edge), (b + 1, left_edge)),
                      ((b + 1, left_edge), (a + 1, right_edge))]
    lp, lr = sys_.log_probs.tolist(), sys_.log_ratios.tolist()
    floor = (math.log(n_target) if n_target > 0 else -math.inf) - 1e-12

    def log_ratio(side_i, side_j, k: int) -> float:
        return (lp[side_j[0] - 1] - lp[side_i[0] - 1]) \
            + k * (lp[side_j[1] - 1] - lp[side_i[1] - 1])

    def first_depth(side_i, side_j) -> int:
        # each level adds step: the first depth to reach the floor (or
        # depth_cap) is the quotient's ceiling, corrected by the same test
        shortfall = floor - log_ratio(side_i, side_j, 0)
        step = lp[side_j[1] - 1] - lp[side_i[1] - 1]
        if shortfall <= 0:
            return 0
        if not (step > 0 and shortfall / step < depth_cap):
            return depth_cap
        k = math.ceil(shortfall / step)
        while log_ratio(side_i, side_j, k - 1) >= floor:
            k -= 1
        while log_ratio(side_i, side_j, k) < floor:
            k += 1
        return k

    shift, children = _maps(sys_)
    hulls = {}  # side -> (k, lo, size): side[0] side[1]^k over 2^(shift(k+1))

    def pair_at(side_i, side_j, k: int) -> WitnessPair | None:
        log_ratio_k = log_ratio(side_i, side_j, k)
        if log_ratio_k < floor:
            return None
        try:
            ratio = math.exp(log_ratio_k)
        except OverflowError:
            raise DomainError(f"mass ratio e^{log_ratio_k:.6g} at depth {k} "
                              "overflows a float") from None
        if math.exp(min(lr[side_i[0] - 1] + k * lr[side_i[1] - 1],
                        lr[side_j[0] - 1] + k * lr[side_j[1] - 1])) == 0.0:
            raise DomainError(f"cylinder size at depth {k} underflows to 0")
        for a, b in side_i, side_j:  # grow each exact hull to depth k
            depth, lo, size = hulls.get((a, b)) or (0, *children[a - 1][:2])
            t_b, r_b, _ = children[b - 1]
            for _ in range(k - depth):  # _hull's step
                lo, size = (lo << shift) + size * t_b, size * r_b
            hulls[a, b] = k, lo, size
        (_, lo_i, size_i), (_, lo_j, size_j) = hulls[side_i], hulls[side_j]
        gap = max(0, lo_j - lo_i - size_i, lo_i - lo_j - size_j)
        if gap > size_i:
            return None
        return WitnessPair(*(Word([a] + [b] * k) for a, b in (side_i, side_j)),
                           ratio, gap / (1 << (shift * (k + 1))))

    # every seed fails the ratio test at the depths below start
    start = min((first_depth(*seed) for seed in seeds), default=depth_cap)
    for k in range(start, depth_cap):
        for side_i, side_j in seeds:
            found = pair_at(side_i, side_j, k)
            if found is not None:
                return found
    return None


def coding_of(sys_: WeightedSystem, x: float, depth: int) -> Word:
    """Cylinder chain containing x; shared endpoints go to the left cylinder."""
    _require_geometry(sys_)
    [x] = _require_finite(x=x)
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"x={x} outside [0, 1]")
    depth = as_index("depth", depth)
    if depth < 0:
        raise DomainError("depth must be nonnegative")
    if depth > COUNT_CAP:
        raise SizeCapError(f"depth {depth} exceeds {COUNT_CAP}")
    order = sorted(range(sys_.m), key=lambda i: sys_.translations[i])
    symbols = []
    for _ in range(depth):
        for i in order:
            t, r = sys_.translations[i], sys_.ratios[i]
            if t - GEOM_TOL <= x <= t + r + GEOM_TOL:
                symbols.append(i + 1)
                x = min(1.0, max(0.0, (x - t) / r))
                break
        else:
            raise DomainError("point left the attractor during coding")
    return Word(symbols)


def fixed_point(sys_: WeightedSystem, word: Word) -> float:
    """Fixed point of the word's map composition: the point coded (word)^inf."""
    _require_geometry(sys_)
    lo, size, e = _hull(sys_, word)
    if len(word) == 0:
        raise EmptyWordError("fixed point of the empty composition is undefined")
    return lo / ((1 << e) - size)  # x = (lo + size * x) / 2^e, rounded once


def appended_gap_radius(sys_: WeightedSystem, kappa: Word | str) -> float:
    """Half the minimal gap separating the first-level images of kappa's hull.

    This is the computable stand-in for an admissible ball radius around
    left endpoints of tail-appended cylinders: within delta * r_a of such an
    endpoint the only mass present comes from the cylinder itself.
    """
    _require_geometry(sys_)
    if isinstance(kappa, str):
        kappa = Word.from_string(kappa)
    lo, size, e = _hull(sys_, kappa)
    k, children = _maps(sys_)  # images: the hulls of i + kappa over 2^(e + k)
    images = sorted(((t_i << e) + r_i * lo, (t_i << e) + r_i * (lo + size))
                    for t_i, r_i, _ in children)
    gaps = [images[0][0], (1 << (e + k)) - images[-1][1]]
    gaps.extend(nxt[0] - cur[1] for cur, nxt in zip(images, images[1:]))
    delta = min(gaps) / (1 << (e + k + 1))
    if delta <= 0.0:
        raise DomainError("kappa's hull must be interior to (0, 1) with "
                          "separated first-level images")
    return delta
