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

import math
from dataclasses import dataclass

from .errors import BudgetError, DomainError, EmptyWordError, NoGeometryError
from .system import WeightedSystem, Word, word_stats

NODE_BUDGET = 10_000_000
_TOUCH_TOL = 1e-12


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


def _require_finite(**values: float) -> None:
    for name, v in values.items():
        if not math.isfinite(v):
            raise DomainError(f"{name}={v} is not finite")


def _finite_scales(scales) -> list[float]:
    rs = [float(s) for s in scales]
    if not all(map(math.isfinite, rs)):
        raise DomainError("scales must be finite")
    return rs


def _dyadic(v: float) -> tuple[int, int]:
    """(n, e) with v == n / 2^e exactly; every finite float has this form."""
    n, d = float(v).as_integer_ratio()
    return n, d.bit_length() - 1


def _affine_of_word(sys_: WeightedSystem, word: Word) -> tuple[float, float]:
    # composition of x -> r_i x + t_i over the word, as (scale, offset)
    scale, offset = 1.0, 0.0
    for a in word:
        offset += scale * sys_.translations[a - 1]
        scale *= sys_.ratios[a - 1]
    return scale, offset


def cylinder_interval(sys_: WeightedSystem, word: Word) -> tuple[float, float]:
    """Hull of the cylinder: the word's map composition applied to [0,1]."""
    _require_geometry(sys_)
    scale, offset = _affine_of_word(sys_, word)
    return offset, offset + scale


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
    _require_finite(x=x, r=r, tol=tol)
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"x={x} outside [0, 1]")
    if r <= 0.0:
        raise DomainError("radius must be positive")
    if tol <= 0.0:
        raise DomainError("tol must be positive")
    # Exact arithmetic on integers: with every r_i, t_i a multiple of 2^-k
    # and x, r, tol multiples of 2^-b, a depth-d hull is (n, s) / 2^(b+k*d).
    # Float accumulation would misclassify boundary cylinders once depth
    # exceeds the 53-bit mantissa.
    x_n, x_e = _dyadic(x)
    r_n, r_e = _dyadic(r)
    tol_n, tol_e = _dyadic(tol)
    b = max(x_e, r_e, tol_e)
    x_n <<= b - x_e
    r_n <<= b - r_e
    los, his, tols = [x_n - r_n], [x_n + r_n], [tol_n << (b - tol_e)]
    maps = [_dyadic(v) for v in (*sys_.ratios, *sys_.translations)]
    k = max(e for _, e in maps)
    ints = [n << (k - e) for n, e in maps]
    children = list(zip(ints[sys_.m:], ints[:sys_.m], sys_.probs))
    cap = math.inf if depth_cap is None else depth_cap
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
    _require_finite(gamma=gamma)
    if gamma <= 1.0:
        raise DomainError("gamma must exceed 1")
    rs = _finite_scales(scales)
    if not rs:
        raise DomainError("empty scale grid")
    if min(rs) <= 0.0 or max(rs) > 1.0:
        raise DomainError("scales must lie in (0, 1]")
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
                 pair_budget: int = 1_000_000, min_ratio: float = 4.0,
                 rel_tol: float = 1e-9) -> float:
    """Certified lower bound for the pointwise Assouad dimension at x.

    Maximizes log(lower(R) / upper(r)) / log(R / r) over scanned scale pairs
    R > min_ratio * r. Only a lower bound: finite scans cannot certify an
    upper bound at a point.
    """
    _require_geometry(sys_)
    _require_finite(min_ratio=min_ratio)
    rs = sorted(set(_finite_scales(scales)), reverse=True)
    if len(rs) < 2:
        raise DomainError("need at least two scales")
    if rs[-1] <= 0.0 or rs[0] > 1.0:
        raise DomainError("scales must lie in (0, 1]")
    for big, small in zip(rs, rs[1:]):
        if big / small < 2.0 * (1.0 - 1e-12):
            raise DomainError("scale grid must be geometric with ratio >= 2")
    bounds = [ball_measure(sys_, x, r, r * rel_tol) for r in rs]
    best = -math.inf
    pairs = 0
    for i_big in range(len(rs)):
        if bounds[i_big].lower <= 0.0:
            continue
        for i_small in range(i_big + 1, len(rs)):
            if rs[i_big] / rs[i_small] < min_ratio * (1.0 - 1e-12):
                continue
            if pairs >= pair_budget:
                break
            pairs += 1
            up = bounds[i_small].upper
            if up <= 0.0:
                continue
            val = (math.log(bounds[i_big].lower) - math.log(up)) \
                / (math.log(rs[i_big]) - math.log(rs[i_small]))
            if val > best:
                best = val
    if not math.isfinite(best):
        raise DomainError("no scale pair produced a certified ratio")
    return best


def _edge_symbols(sys_: WeightedSystem) -> tuple[int | None, int | None]:
    """Symbols whose intervals touch 0 and 1 in unit coordinates, if any."""
    left = right = None
    for i in range(sys_.m):
        if abs(sys_.translations[i]) <= _TOUCH_TOL:
            left = i + 1
        if abs(sys_.translations[i] + sys_.ratios[i] - 1.0) <= _TOUCH_TOL:
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
    _require_finite(n_target=n_target)
    if depth_cap < 1:
        raise DomainError("depth_cap must be at least 1")
    order = sorted(range(sys_.m), key=lambda i: sys_.translations[i])
    left_edge, right_edge = _edge_symbols(sys_)
    seeds = []
    for a, b in zip(order, order[1:]):
        hi_a = sys_.translations[a] + sys_.ratios[a]
        if abs(hi_a - sys_.translations[b]) > _TOUCH_TOL:
            continue  # gap between hulls: no shared point to exploit
        # chains hugging the shared point from each side
        if right_edge is None or left_edge is None:
            continue
        seeds.append(((a + 1, right_edge), (b + 1, left_edge)))
        seeds.append(((b + 1, left_edge), (a + 1, right_edge)))
    lp = sys_.log_probs
    log_target = math.log(n_target) if n_target > 0 else -math.inf

    def pair_at(side_i, side_j, k: int) -> WitnessPair | None:
        log_ratio = (lp[side_j[0] - 1] - lp[side_i[0] - 1]) \
            + k * (lp[side_j[1] - 1] - lp[side_i[1] - 1])
        if log_ratio < log_target - 1e-12:
            return None
        wi = Word([side_i[0]] + [side_i[1]] * k)
        wj = Word([side_j[0]] + [side_j[1]] * k)
        lo_i, hi_i = cylinder_interval(sys_, wi)
        lo_j, hi_j = cylinder_interval(sys_, wj)
        if hi_i < lo_j:
            gap = lo_j - hi_i
        elif hi_j < lo_i:
            gap = lo_i - hi_j
        else:
            gap = 0.0
        r_i = word_stats(sys_, wi).r
        if gap > r_i:
            return None
        return WitnessPair(wi, wj, math.exp(log_ratio), gap)

    # each level adds lp[j_edge] - lp[i_edge] to a seed's log ratio; with no
    # positive step a target missed at depth 0 is missed at every depth
    rising = any(lp[j[1] - 1] > lp[i[1] - 1] for i, j in seeds)
    for k in range(depth_cap if rising else 1):
        for side_i, side_j in seeds:
            found = pair_at(side_i, side_j, k)
            if found is not None:
                return found
    return None


def coding_of(sys_: WeightedSystem, x: float, depth: int) -> Word:
    """Cylinder chain containing x; shared endpoints go to the left cylinder."""
    _require_geometry(sys_)
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"x={x} outside [0, 1]")
    if depth < 0:
        raise DomainError("depth must be nonnegative")
    order = sorted(range(sys_.m), key=lambda i: sys_.translations[i])
    symbols = []
    for _ in range(depth):
        for i in order:
            t, r = sys_.translations[i], sys_.ratios[i]
            if t - _TOUCH_TOL <= x <= t + r + _TOUCH_TOL:
                symbols.append(i + 1)
                x = min(1.0, max(0.0, (x - t) / r))
                break
        else:
            raise DomainError("point left the attractor during coding")
    return Word(symbols)


def fixed_point(sys_: WeightedSystem, word: Word) -> float:
    """Fixed point of the word's map composition: the point coded (word)^inf."""
    _require_geometry(sys_)
    if len(word) == 0:
        raise EmptyWordError("fixed point of the empty composition is undefined")
    scale, offset = _affine_of_word(sys_, word)
    return offset / (1.0 - scale)


def appended_gap_radius(sys_: WeightedSystem, kappa: Word | str) -> float:
    """Half the minimal gap separating the first-level images of kappa's hull.

    This is the computable stand-in for an admissible ball radius around
    left endpoints of tail-appended cylinders: within delta * r_a of such an
    endpoint the only mass present comes from the cylinder itself.
    """
    _require_geometry(sys_)
    if isinstance(kappa, str):
        kappa = Word.from_string(kappa)
    lo_k, hi_k = cylinder_interval(sys_, kappa)
    images = sorted((sys_.translations[i] + sys_.ratios[i] * lo_k,
                     sys_.translations[i] + sys_.ratios[i] * hi_k)
                    for i in range(sys_.m))
    gaps = [images[0][0], 1.0 - images[-1][1]]
    gaps.extend(nxt[0] - cur[1] for cur, nxt in zip(images, images[1:]))
    delta = min(gaps) / 2.0
    if delta <= 0.0:
        raise DomainError("kappa's hull must be interior to (0, 1) with "
                          "separated first-level images")
    return delta
