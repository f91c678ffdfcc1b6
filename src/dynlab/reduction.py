"""Extraction of the pair-proportionality constant and 5-D vs 3-D equivalence.

States on a limit set satisfy y4 = K*y1, y5 = K*y2 for a single constant K,
and the flow restricted to that plane is the reduced third-order system.
This module recovers K from a full state, measures how far a full trajectory
strays from the lifted reduced one, and tracks the least-squares K estimate
along a trajectory as a diagnostic for the asymptotic onset of
proportionality.  The embedding of the plane itself (`lift` and `project`)
belongs to `model`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NotOnLimitSetError, RatioInconsistencyError
from .integrator import IntegratorConfig, Trajectory, integrate
from .model import KRatio, Params, _as_state, full_system, lift, project, reduced_system

__all__ = [
    "ReductionComparison",
    "KDriftSeries",
    "extract_k",
    "compare_full_vs_reduced",
    "k_drift",
]


@dataclass(frozen=True)
class ReductionComparison:
    """Outcome of running the full and lifted-reduced flows side by side."""

    K: KRatio
    max_state_deviation: float
    horizon: float
    tol_used: float
    full_trajectory: Trajectory


@dataclass
class KDriftSeries:
    """Per-sample K estimates; undefined samples are NaN."""

    times: np.ndarray
    estimates: np.ndarray


def _default_zero_tol(y0) -> float:
    """Zero threshold commensurate with default integration tolerances; |y0|
    by `math.hypot`, which takes no BLAS and does not overflow."""
    return 1e-9 * (1.0 + math.hypot(*y0))


def extract_k(y0, zero_tol: float | None = None) -> KRatio:
    """Recover the proportionality constant from a state on a limit set.

    Requires the bilinear constraint |y1*y5 - y2*y4| <= zero_tol*(1 + |y0|^2).
    The ratio is taken from the larger-magnitude component of the defining
    pair to limit relative-error amplification; when the (y1, y2) pair
    vanishes but (y4, y5) does not, the swapped representation is returned,
    and when both vanish any ratio is valid (zero-pair marker).
    """
    y1, y2, y3, y4, y5 = _as_state(y0, 5)
    if zero_tol is None:
        zero_tol = _default_zero_tol(y0)
    nsq = y1 * y1 + y2 * y2 + y3 * y3 + y4 * y4 + y5 * y5
    b = y1 * y5 - y2 * y4
    if abs(b) > zero_tol * (1.0 + nsq):
        raise NotOnLimitSetError(
            f"bilinear residual {b!r} exceeds {zero_tol * (1.0 + nsq)!r}; "
            "state is not on a limit set"
        )

    if max(abs(y1), abs(y2)) > zero_tol:
        return KRatio.standard(_pair_ratio(y1, y2, y4, y5, zero_tol))
    if max(abs(y4), abs(y5)) > zero_tol:
        return KRatio.swapped(_pair_ratio(y4, y5, y1, y2, zero_tol))
    return KRatio.zero_pair()


def _pair_ratio(a1: float, a2: float, b1: float, b2: float, zero_tol: float) -> float:
    """The ratio k of (b1, b2) to (a1, a2), taken from a's larger component.

    When a's other component exceeds zero_tol too, its ratio must agree with
    k within zero_tol*(1 + k^2).
    """
    if abs(a1) >= abs(a2):
        k, alt = b1 / a1, (b2 / a2 if abs(a2) > zero_tol else None)
    else:
        k, alt = b2 / a2, (b1 / a1 if abs(a1) > zero_tol else None)
    if alt is not None and abs(k - alt) > zero_tol * (1.0 + k * k):
        raise RatioInconsistencyError(
            f"pair ratios disagree: {k!r} vs {alt!r} beyond tolerance"
        )
    return k


def compare_full_vs_reduced(
    y0,
    p: Params,
    t_end: float,
    out_stride: float,
    cfg: IntegratorConfig,
    zero_tol: float | None = None,
) -> ReductionComparison:
    """Integrate the full system and the lifted reduced system side by side.

    The deviation is the max over samples of the max-norm gap between the
    full trajectory and the lift of the reduced one.  Exact plane invariance
    means the gap stays at integration-error level for on-plane starts.  The
    full trajectory is returned with the comparison for further diagnostics.
    """
    k = extract_k(y0, zero_tol)
    full = integrate(full_system(p).field, np.asarray(y0, dtype=float), 0.0, t_end, out_stride, cfg)
    red = integrate(reduced_system(p, k.value).field, project(y0, k), 0.0, t_end, out_stride, cfg)
    lifted = lift(red.states, k)
    deviation = float(np.abs(lifted - full.states).max())
    return ReductionComparison(
        K=k,
        max_state_deviation=deviation,
        horizon=t_end,
        tol_used=max(cfg.abs_tol, cfg.rel_tol),
        full_trajectory=full,
    )


def k_drift(traj: Trajectory, zero_tol: float | None = None) -> KDriftSeries:
    """Least-squares K estimate (y1*y4 + y2*y5)/(y1^2 + y2^2) per sample.

    Samples whose denominator does not exceed zero_tol are undefined: their
    estimate is NaN rather than an error.
    """
    if traj.dimension != 5:
        raise DimensionMismatchError(
            f"full-system trajectory required, got dimension {traj.dimension}"
        )
    if zero_tol is None:
        zero_tol = _default_zero_tol(traj.states[0])
    st = traj.states
    den = st[:, 0] ** 2 + st[:, 1] ** 2
    num = st[:, 0] * st[:, 3] + st[:, 1] * st[:, 4]
    estimates = np.full(den.shape, math.nan)
    np.divide(num, den, out=estimates, where=den > zero_tol)
    return KDriftSeries(times=traj.times.copy(), estimates=estimates)
