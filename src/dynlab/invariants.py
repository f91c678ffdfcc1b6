"""Algebraic identities obeyed by the averaged pendulum-motor flow.

Three families of checks:

* The bilinear quantity B(y) = y1*y5 - y2*y4 obeys dB/dt = 2C*B exactly, so
  along any solution B(t) = B(0)*exp(2C*t).  For C < 0 it vanishes on every
  limit set.
* On a limit set the pairs (y1, y4) and (y2, y5) stay proportional to their
  initial values; the residuals r14 = y40*y1 - y10*y4 and r25 = y50*y2 -
  y20*y5 vanish identically there.
* The pair norm S(y) = y1^2 + y2^2 + y4^2 + y5^2 has derivative
  2C*S + 8*(y1*y2 + y4*y5), which diagonalizes into (C+2)(y1+y2)^2 +
  (C-2)(y1-y2)^2 + (C+2)(y4+y5)^2 + (C-2)(y4-y5)^2 and is non-positive for
  C <= -2.

These are exact identities: residuals reflect round-off and integration error
only.  Relative residuals are scaled by max(1, running max |y|^2) because the
identities are homogeneous of degree two in the state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatchError
from .integrator import IntegratorConfig, check_schedule, integrate
from .model import Params, _as_state, _full_rhs, full_system, lift

__all__ = [
    "InvariantReport",
    "derivative_identity_residual",
    "quadratic_norm",
    "norm_derivative_forms",
    "check_trajectory",
    "verification_suite",
    "check_suite",
]

# The sample stride of `verification_suite`'s flow checks over [0, horizon].
_FLOW_STRIDE = 0.1


@dataclass(frozen=True)
class InvariantReport:
    """Worst-case residuals of one identity along a trajectory."""

    max_abs_residual: float
    max_rel_residual: float
    worst_time: float
    passed: bool


def derivative_identity_residual(y, p: Params) -> float:
    """|grad B . f(y) - 2C*B(y)|; identically zero in exact arithmetic."""
    y = _as_state(y, 5)
    return _derivative_residual(y, _full_rhs(y, p.C, p.D, p.E, p.F), p.C)


def _derivative_residual(y, f, C):
    """Kernel of derivative_identity_residual; floats or numpy columns."""
    y1, y2, _, y4, y5 = y
    b_dot = y5 * f[0] - y4 * f[1] - y2 * f[3] + y1 * f[4]
    return abs(b_dot - 2.0 * C * (y1 * y5 - y2 * y4))


def quadratic_norm(y) -> float:
    """S(y) = y1^2 + y2^2 + y4^2 + y5^2 (y3 excluded)."""
    y1, y2, _, y4, y5 = _as_state(y, 5)
    return y1 * y1 + y2 * y2 + y4 * y4 + y5 * y5


def norm_derivative_forms(y, p: Params) -> tuple[float, float]:
    """dS/dt in its raw and canonical forms; the two agree identically.

    raw       = 2C*S + 8*(y1*y2 + y4*y5)
    canonical = (C+2)(y1+y2)^2 + (C-2)(y1-y2)^2
              + (C+2)(y4+y5)^2 + (C-2)(y4-y5)^2
    """
    return _norm_forms(_as_state(y, 5), p.C)


def _norm_forms(y, C):
    """Kernel of norm_derivative_forms; floats or numpy columns."""
    y1, y2, _, y4, y5 = y
    raw = 2.0 * C * (y1 * y1 + y2 * y2 + y4 * y4 + y5 * y5) + 8.0 * (y1 * y2 + y4 * y5)
    canonical = (
        (C + 2.0) * (y1 + y2) ** 2
        + (C - 2.0) * (y1 - y2) ** 2
        + (C + 2.0) * (y4 + y5) ** 2
        + (C - 2.0) * (y4 - y5) ** 2
    )
    return raw, canonical


def _running_scale(states: np.ndarray) -> np.ndarray:
    """max(1, running max of |y|^2), the degree-2 homogeneity scale."""
    sq = np.sum(states * states, axis=1)
    return np.maximum(1.0, np.maximum.accumulate(sq))


def check_trajectory(traj, p: Params, tol: float) -> dict[str, InvariantReport]:
    """Evaluate the flow-level identities at every sample of a 5-D trajectory.

    Returns a report per identity: "bilinear_law" always; "proportionality"
    when the initial state satisfies the bilinear constraint (so the limit-set
    proportionality applies; the gate is structural, commensurate with the
    default integration tolerances, independent of the pass tolerance).
    pass is max_rel_residual <= tol.
    """
    if traj.dimension != 5:
        raise DimensionMismatchError(
            f"full-system trajectory required, got dimension {traj.dimension}"
        )
    states = traj.states
    times = traj.times
    t0 = times[0]
    scale = _running_scale(states)

    b0 = float(states[0, 0] * states[0, 4] - states[0, 1] * states[0, 3])
    b = states[:, 0] * states[:, 4] - states[:, 1] * states[:, 3]
    pred = b0 * np.exp(2.0 * p.C * (times - t0))
    reports = {"bilinear_law": _report(np.abs(b - pred), scale, times, tol)}

    if abs(b0) <= 1e-9 * scale[0]:
        r14 = states[0, 3] * states[:, 0] - states[0, 0] * states[:, 3]
        r25 = states[0, 4] * states[:, 1] - states[0, 1] * states[:, 4]
        resid = np.maximum(np.abs(r14), np.abs(r25))
        reports["proportionality"] = _report(resid, scale, times, tol)
    return reports


def _report(abs_resid: np.ndarray, scale: np.ndarray, times: np.ndarray, tol: float) -> InvariantReport:
    rel = abs_resid / scale
    worst = int(np.argmax(rel))
    return InvariantReport(
        max_abs_residual=float(abs_resid.max()),
        max_rel_residual=float(rel[worst]),
        worst_time=float(times[worst]),
        passed=bool(rel[worst] <= tol),
    )


def check_suite(samples: int, horizon: float):
    """Raise ValueError when `verification_suite`'s flow samples over
    [0, horizon] or its `samples` random states would not fit in an array
    (an empty array of their shape is asked for, and dropped), and for a
    negative `samples`."""
    try:
        check_schedule(0.0, horizon, _FLOW_STRIDE)
    except ValueError as exc:
        raise ValueError(f"horizon: {exc}") from None
    if not samples >= 0:
        raise ValueError(f"samples must be >= 0, got {samples!r}")
    try:
        np.empty((samples, 5))
    except (MemoryError, OverflowError, ValueError):
        raise ValueError(f"samples = {samples!r} gives more states than an array can hold") from None


def verification_suite(
    p: Params,
    *,
    seed: int = 0,
    samples: int = 20000,
    horizon: float = 20.0,
    cfg=None,
    tolerance: float | None = None,
) -> dict[str, InvariantReport]:
    """Run every identity check and report worst residuals per identity.

    Pointwise identities are evaluated on `samples` random states in
    [-10, 10]^5 with random parameters in [-3, 3]^4; the flow-level checks
    integrate the configured system over [0, horizon] from two generic starts
    and one on a K-plane, sampled every 0.1, and raise the IntegrationError
    of a run that fails.  When `tolerance` is given it replaces every
    identity's default pass threshold (a zero tolerance therefore fails
    everything); a negative one raises ValueError, and so do sizes that
    `check_suite` refuses, before any work.
    """
    check_suite(samples, horizon)
    if tolerance is not None and not tolerance >= 0.0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance!r}")
    if cfg is None:
        cfg = IntegratorConfig()
    int_tol = max(cfg.abs_tol, cfg.rel_tol)

    def tol(default):
        return default if tolerance is None else tolerance

    rng = np.random.Generator(np.random.Philox(seed))
    ys = rng.uniform(-10.0, 10.0, (samples, 5))
    ps = rng.uniform(-3.0, 3.0, (samples, 4))
    # The pointwise identities on all samples at once: the kernels act on the
    # state and parameter columns.
    y, (C, D, E, F) = ys.T, ps.T
    nrm = np.sqrt(np.sum(ys * ys, axis=1))
    f = _full_rhs(y, C, D, E, F)
    raw, canon = _norm_forms(y, C)
    grad_dot = 2.0 * (y[0] * f[0] + y[1] * f[1] + y[3] * f[3] + y[4] * f[4])
    reports = {}
    for name, scaled, default in (
        ("derivative_identity", _derivative_residual(y, f, C) / (1.0 + nrm**3), 1e-10),
        ("norm_forms_agree", np.abs(raw - canon) / (1.0 + nrm**2), 1e-12),
        ("norm_forms_gradient", np.abs(raw - grad_dot) / (1.0 + nrm**4), 1e-10),
    ):
        value = float(np.max(scaled, initial=0.0))
        reports[name] = InvariantReport(value, value, 0.0, bool(value <= tol(default)))

    # The last start is lifted from (z0, K), drawn in that order, so its pairs
    # stay proportional.
    starts = [rng.uniform(-2.0, 2.0, 5), rng.uniform(-2.0, 2.0, 5)]
    starts.append(lift(rng.uniform(-1.5, 1.5, 3), rng.uniform(-2.0, 2.0)))
    field = full_system(p).field
    flows = [
        check_trajectory(integrate(field, y0, 0.0, horizon, _FLOW_STRIDE, cfg), p, tol(100.0 * int_tol))
        for y0 in starts
    ]
    reports["bilinear_flow_law"] = max((r["bilinear_law"] for r in flows), key=lambda r: r.max_rel_residual)
    prop = flows[2]["proportionality"]
    reports["proportionality_flow"] = replace(prop, passed=prop.max_rel_residual <= tol(10.0 * int_tol))
    return reports
