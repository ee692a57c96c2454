"""L^q spectrum, local dimension range, and Legendre multifractal spectrum.

tau(q) is the unique root of sum_i p_i^q r_i^tau = 1, found to float
resolution by monotone Newton steps from below (system.lse_root); q must be
finite, with |q| at most the system's q_limit. The associated tilted weight
vector w_i = p_i^q r_i^tau(q) drives alpha(q) (cross-entropy over Lyapunov
exponent) and the spectrum f(alpha), computed both as the Legendre value
alpha*q + tau(q) and via the explicit entropy quotient; the two routes must
agree. The upper envelope f_bar flattens f at the value tau(0) to the right
of alpha(0).

Degenerate systems (constant log p_i / log r_i) collapse to a single-point
spectrum; operations return that point instead of erroring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketError, ConsistencyError, DomainError
from .system import WeightedSystem, alpha_bounds, lse_root, xlogx

Q_CAP = 200.0
_MAX_DOUBLINGS = 1000
# interior agreement between the two f(alpha) routes; spec-pinned
F_CONSISTENCY_TOL = 1e-8
F_ENDPOINT_TOL = 1e-3


def solve_tau(sys_: WeightedSystem, q: float) -> float:
    """Root tau(q) of sum p_i^q r_i^tau = 1, by Newton from below.

    At t0 = min_i(-q log p_i / log r_i) every term p_i^q r_i^t0 is at least
    1, so the log of the sum is positive there and lse_root can start.
    A NaN or infinite q, or one beyond sys_.q_limit where the terms could
    overflow, raises DomainError before any arithmetic on it.
    """
    if not math.isfinite(q):
        raise DomainError(f"q={q} is not finite")
    if abs(q) > sys_.q_limit:
        raise DomainError(f"|q|={abs(q)} exceeds {sys_.q_limit:.6g}")
    a = q * sys_.log_probs
    return lse_root(a, sys_.log_ratios, (-a / sys_.log_ratios).min())


def _tilt(sys_: WeightedSystem, q: float) -> tuple[float, np.ndarray]:
    """tau(q) and the normalized weights w_i proportional to p_i^q r_i^tau(q)."""
    tau = solve_tau(sys_, q)
    x = q * sys_.log_probs + tau * sys_.log_ratios
    w = np.exp(x - x.max())
    return tau, w / w.sum()


def tilted_vector(sys_: WeightedSystem, q: float) -> np.ndarray:
    """Normalized weights w_i proportional to p_i^q r_i^tau(q)."""
    return _tilt(sys_, q)[1]


def _alpha_from_weights(sys_: WeightedSystem, w: np.ndarray) -> float:
    return float((w @ sys_.log_probs) / (w @ sys_.log_ratios))


def alpha_of_q(sys_: WeightedSystem, q: float) -> float:
    """Local dimension alpha(q) carried by the tilted vector at q."""
    return _alpha_from_weights(sys_, _tilt(sys_, q)[1])


def q_of_alpha(sys_: WeightedSystem, alpha: float) -> float:
    """Inverse of alpha_of_q on the open interval (alpha_min, alpha_max).

    For degenerate systems the interval is empty; the single attainable
    value maps to the canonical parameter q = 0.
    """
    amin, amax = alpha_bounds(sys_)
    if sys_.degenerate:
        if abs(alpha - amin) <= 1e-9:
            return 0.0
        raise DomainError(f"alpha={alpha} not attainable by a degenerate system")
    if not (amin < alpha < amax):
        raise DomainError(
            f"alpha={alpha} outside the open interval ({amin}, {amax})")
    lo, hi = -1.0, 1.0  # alpha is decreasing in q
    n = 0
    while alpha_of_q(sys_, lo) < alpha:
        lo *= 2.0
        n += 1
        if n > _MAX_DOUBLINGS:
            raise BracketError("bracket expansion failed approaching alpha_max")
    while alpha_of_q(sys_, hi) > alpha:
        hi *= 2.0
        n += 1
        if n > _MAX_DOUBLINGS:
            raise BracketError("bracket expansion failed approaching alpha_min")
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid  # interval exhausted at float resolution
        val = alpha_of_q(sys_, mid)
        # f_of_alpha's two routes agree only if |q| * |alpha(q) - alpha| << 1e-8
        if abs(val - alpha) <= 1e-12:
            return mid
        if val > alpha:
            lo = mid
        else:
            hi = mid


def _entropy_quotient(sys_: WeightedSystem, w: np.ndarray) -> float:
    """Explicit spectrum value sum w log w / sum w log r of a tilted vector."""
    return float(xlogx(w).sum() / (w @ sys_.log_ratios))


def _f_both(sys_: WeightedSystem, alpha: float) -> tuple[float, float, float, bool]:
    """(Legendre value, entropy-quotient value, q, capped?) for one alpha."""
    amin, amax = alpha_bounds(sys_)
    edge = 1e-9 * max(1.0, abs(amax))
    if sys_.degenerate:
        if abs(alpha - amin) <= 1e-9:
            tau0 = solve_tau(sys_, 0.0)
            return tau0, tau0, 0.0, False
        raise DomainError(f"alpha={alpha} not attainable by a degenerate system")
    if alpha < amin - edge or alpha > amax + edge:
        raise DomainError(f"alpha={alpha} outside [{amin}, {amax}]")
    if alpha <= amin + edge:
        q, capped = Q_CAP, True  # endpoint value taken as the q -> +inf limit
    elif alpha >= amax - edge:
        q, capped = -Q_CAP, True
    else:
        q, capped = q_of_alpha(sys_, alpha), False
    tau, w = _tilt(sys_, q)
    legendre = alpha * q + tau
    quotient = _entropy_quotient(sys_, w)
    return legendre, quotient, q, capped


def f_of_alpha(sys_: WeightedSystem, alpha: float) -> float:
    """Multifractal spectrum f(alpha) on [alpha_min, alpha_max].

    Evaluated both as alpha*q + tau(q) at q = q(alpha) and via the explicit
    entropy quotient of the tilted vector; raises ConsistencyError if the two
    disagree (1e-8 in the interior, 1e-3 in the +-Q_CAP endpoint regime).
    """
    legendre, quotient, _, capped = _f_both(sys_, alpha)
    limit = F_ENDPOINT_TOL if capped else F_CONSISTENCY_TOL
    if abs(legendre - quotient) > limit:
        raise ConsistencyError(
            f"spectrum routes disagree at alpha={alpha}: "
            f"{legendre} vs {quotient}")
    return quotient


def f_bar(sys_: WeightedSystem, alpha: float) -> float:
    """Upper envelope: f(alpha) up to alpha(0), then the constant tau(0)."""
    amin, amax = alpha_bounds(sys_)
    if sys_.degenerate:
        return f_of_alpha(sys_, alpha)
    edge = 1e-9 * max(1.0, abs(amax))
    if alpha < amin - edge or alpha > amax + edge:
        raise DomainError(f"alpha={alpha} outside [{amin}, {amax}]")
    tau0, w0 = _tilt(sys_, 0.0)
    if alpha > _alpha_from_weights(sys_, w0):
        return tau0
    return f_of_alpha(sys_, alpha)


def default_q_grid() -> np.ndarray:
    """Dense core plus geometric tails covering [-Q_CAP, Q_CAP]."""
    core = np.linspace(-25.0, 25.0, 8001)
    tail = np.geomspace(25.0, Q_CAP, 513)[1:]
    return np.unique(np.concatenate([-tail, core, tail]))


def legendre_numeric(sys_: WeightedSystem, alpha, q_grid=None):
    """Grid minimum of alpha*q + tau(q); independent check of f_of_alpha.

    alpha may be a scalar or an array; the tau grid is evaluated once.
    """
    qs = default_q_grid() if q_grid is None else np.asarray(q_grid, dtype=float)
    taus = np.array([solve_tau(sys_, q) for q in qs])
    a = np.asarray(alpha, dtype=float)
    values = a[..., None] * qs + taus
    out = values.min(axis=-1)
    return float(out) if np.isscalar(alpha) or a.ndim == 0 else out


@dataclass(frozen=True)
class SpectrumRow:
    q: float
    tau: float
    alpha: float
    f: float
    f_bar: float


@dataclass(frozen=True)
class SpectrumTable:
    rows: tuple[SpectrumRow, ...]
    meta: dict

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)

    def as_records(self) -> list[dict]:
        return [{"q": r.q, "tau": r.tau, "alpha": r.alpha, "f": r.f,
                 "f_bar": r.f_bar} for r in self.rows]


def spectrum_table(sys_: WeightedSystem, q_values) -> SpectrumTable:
    """Rows (q, tau, alpha, f, f_bar) for each requested q, in order."""
    qs = [float(q) for q in q_values]
    tau0, w0 = _tilt(sys_, 0.0)
    alpha0 = _alpha_from_weights(sys_, w0)
    rows = []
    for q in qs:
        tau, w = _tilt(sys_, q)
        alpha = _alpha_from_weights(sys_, w)
        f = alpha * q + tau
        fb = tau0 if alpha > alpha0 else f
        rows.append(SpectrumRow(q, tau, alpha, f, fb))
    meta = {"system": sys_.digest(), "points": len(rows)}
    return SpectrumTable(tuple(rows), meta)
