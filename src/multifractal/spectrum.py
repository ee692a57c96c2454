"""L^q spectrum, local dimension range, and Legendre multifractal spectrum.

tau(q) is the unique root of sum_i p_i^q r_i^tau = 1, found to float
resolution by monotone Newton steps from below (system.lse_newton), started
at the largest single-term root; q must be finite, with |q| at most the
system's q_limit. The associated tilted weight vector w_i = p_i^q
r_i^tau(q), which the last Newton step already holds, drives alpha(q)
(cross-entropy over Lyapunov exponent) and the spectrum f(alpha), computed
both as the Legendre value alpha*q + tau(q) and via the explicit entropy
quotient; the two routes must agree. The upper envelope f_bar flattens f at
the value tau(0) to the right of alpha(0).

Degenerate systems (constant log p_i / log r_i) collapse to a single-point
spectrum; operations return that point instead of erroring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketError, ConsistencyError, DomainError
from .system import (
    NEWTON_CAP,
    WeightedSystem,
    alpha_bounds,
    as_real,
    lse_newton,
    xlogx,
)

Q_CAP = 200.0
# interior agreement between the two f(alpha) routes; spec-pinned
F_CONSISTENCY_TOL = 1e-8
F_ENDPOINT_TOL = 1e-3


def _tilt(sys_: WeightedSystem, q: float) -> tuple[float, np.ndarray]:
    """tau(q) and the normalized weights w_i proportional to p_i^q r_i^tau(q).

    The one checked way into the Newton solve: solve_tau and every tilt
    reach lse_newton through here. The weights are the ones its last step
    computed at the returned tau.
    """
    q = as_real("q", q)
    if not math.isfinite(q):
        raise DomainError(f"q={q} is not finite")
    if abs(q) > sys_.q_limit:
        raise DomainError(f"|q|={abs(q)} exceeds {sys_.q_limit:.6g}")
    a = q * sys_.log_probs
    if q == 1.0:  # sum p_i = 1: the root is 0, and Newton could round off it
        w = np.exp(a - a.max())
        return 0.0, w / w.sum()
    amin, amax = sys_.alpha_range
    return lse_newton(a, sys_.log_ratios, -q * (amin if q > 0.0 else amax))


def solve_tau(sys_: WeightedSystem, q: float) -> float:
    """Root tau(q) of sum p_i^q r_i^tau = 1, by Newton from below.

    Newton starts at t0 = max_i(-q log p_i / log r_i), which is -q alpha_min
    for q > 0 and -q alpha_max for q < 0. There every term p_i^q r_i^t0 is
    at most 1 and the top one equals 1, so the log of the sum lies in
    [0, log m]: Newton can start, and the root lies at most
    log m / min|log r_i| above t0. Rounding can put t0 an ulp past the
    exact start, and the log of the sum may then round to 0 or below, so
    that lse_newton returns t0 itself. That needs the other terms to sum to
    less than the rounding error of the top term's exponent, a few ulps of
    |q log p_i|; the root then lies within that error over min|log r_i| of
    t0, which is float resolution. At q = 1 the root is 0, as the p_i sum
    to 1, and 0.0 is returned exactly.

    A NaN or infinite q, or one beyond sys_.q_limit where the terms could
    overflow, raises DomainError before any arithmetic on it, as does a q
    that is not a number or is past the float range.
    """
    return _tilt(sys_, q)[0]


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

    Safeguarded Newton from q = 0, with alpha'(q) = E_w[X^2] / E_w[log r]
    for X = log p - alpha(q) log r under the tilted weights w; a step that
    leaves the bracket [-q_limit, q_limit], narrowed by the sign of
    alpha(q) - alpha, or meets zero curvature, bisects instead. A degenerate
    system maps its single attainable value to q = 0.
    """
    alpha = as_real("alpha", alpha)
    amin, amax = alpha_bounds(sys_)
    if sys_.degenerate:
        if abs(alpha - amin) <= 1e-9:
            return 0.0
        raise DomainError(f"alpha={alpha} not attainable by a degenerate system")
    if not (amin < alpha < amax):
        raise DomainError(
            f"alpha={alpha} outside the open interval ({amin}, {amax})")
    lo, hi, q = -sys_.q_limit, sys_.q_limit, 0.0  # alpha falls as q rises
    for _ in range(NEWTON_CAP):
        w = _tilt(sys_, q)[1]
        val = _alpha_from_weights(sys_, w)
        # f_of_alpha's two routes agree only if |q| * |alpha(q) - alpha| << 1e-8
        if abs(val - alpha) <= 1e-12:
            return q
        lo, hi = (q, hi) if val > alpha else (lo, q)
        x = sys_.log_probs - val * sys_.log_ratios
        slope = float(w @ (x * x)) / float(w @ sys_.log_ratios)
        q = q - (val - alpha) / slope if slope < 0.0 else math.nan
        if not lo < q < hi:
            q = 0.5 * (lo + hi)
            if not lo < q < hi:
                return q  # bracket exhausted at float resolution
    raise BracketError(f"Newton in q for alpha={alpha} did not settle "
                       f"in {NEWTON_CAP} steps")


def _entropy_quotient(sys_: WeightedSystem, w: np.ndarray) -> float:
    """Explicit spectrum value sum w log w / sum w log r of a tilted vector."""
    return float(xlogx(w).sum() / (w @ sys_.log_ratios))


def _f_both(sys_: WeightedSystem, alpha: float) -> tuple[float, float, float, bool]:
    """(Legendre value, entropy-quotient value, q, capped?) for one alpha."""
    alpha = as_real("alpha", alpha)
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
    alpha = as_real("alpha", alpha)
    amax = alpha_bounds(sys_)[1]
    if not sys_.degenerate and alpha <= amax + 1e-9 * max(1.0, abs(amax)):
        tau0, w0 = _tilt(sys_, 0.0)
        if alpha > _alpha_from_weights(sys_, w0):
            return tau0
    return f_of_alpha(sys_, alpha)  # raises DomainError outside the range


def default_q_grid() -> np.ndarray:
    """Dense core plus geometric tails covering [-Q_CAP, Q_CAP]."""
    core = np.linspace(-25.0, 25.0, 8001)
    tail = np.geomspace(25.0, Q_CAP, 513)[1:]
    return np.unique(np.concatenate([-tail, core, tail]))


def legendre_numeric(sys_: WeightedSystem, alpha, q_grid=None):
    """Grid minimum of alpha*q + tau(q); independent check of f_of_alpha.

    alpha may be a scalar or an array; the tau grid is evaluated once.
    """
    try:
        qs = (default_q_grid() if q_grid is None
              else np.asarray(q_grid, dtype=float))
        a = np.asarray(alpha, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(
            f"alpha and the q grid must be numbers: {exc}") from exc
    if qs.ndim != 1 or not qs.size:
        raise DomainError(f"q grid must be a nonempty flat sequence, "
                          f"not of shape {qs.shape}")
    if not np.isfinite(a).all():
        raise DomainError(f"alpha must be finite, not {alpha!r}")
    taus = np.array([solve_tau(sys_, q) for q in qs])
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


def spectrum_table(sys_: WeightedSystem, q_values) -> tuple[SpectrumRow, ...]:
    """Rows (q, tau, alpha, f, f_bar) for each requested q, in order."""
    try:
        qs = [float(q) for q in q_values]
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"q values must be numbers: {exc}") from exc
    tau0, w0 = _tilt(sys_, 0.0)
    alpha0 = _alpha_from_weights(sys_, w0)
    rows = []
    for q in qs:
        tau, w = _tilt(sys_, q)
        alpha = _alpha_from_weights(sys_, w)
        f = alpha * q + tau
        fb = tau0 if alpha > alpha0 else f
        rows.append(SpectrumRow(q, tau, alpha, f, fb))
    return tuple(rows)
