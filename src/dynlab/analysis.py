"""Asymptotic analysis: Lyapunov spectra, classification and scans.

Lyapunov exponents use the tangent-frame method: an orthonormal frame is
carried by the linearized flow and re-orthonormalized at fixed intervals; the
time-averaged log stretch of column i estimates the i-th exponent.  The sum
of the spectrum equals the time average of the Jacobian trace (divergence of
the flow), which `trace_average` computes independently as a consistency
check.

Attractor classification is threshold-based on the spectrum: a positive
largest exponent means chaos, one near-zero exponent a periodic orbit, two or
more a torus, all-negative an equilibrium.  Parameter scans sweep one of C,
D, E, F (full system) or K (reduced system), recording the spectrum, the
classification, and the post-transient local maxima of y1 for bifurcation
diagrams.

Every spectrum run -- `lyapunov_spectrum`, each point of a follow-policy
scan, each worker's share of a fixed-policy scan (values[w::workers]) --
goes through `_spectra`: each transient on its own, then all the tangent
runs through the one entry `integrator.integrate_tangent_block`, which
advances them as one block or point by point.  Either way every point gets
the bits of its own run, so the records do not depend on the worker count,
the shares or the order of the values.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field as dataclass_field, replace

import numpy as np

from .errors import IntegrationError
from .integrator import (
    IntegratorConfig,
    TangentBundle,
    Trajectory,
    check_schedule,
    integrate,
    integrate_tangent_block,
)
from .model import (
    DynamicalSystem,
    Params,
    equilibrium,
    full_jacobian,
    full_system,
    reduced_system,
)

__all__ = [
    "LyapunovReport",
    "ScanRecord",
    "ScanSettings",
    "lyapunov_spectrum",
    "equilibrium_stability",
    "classify",
    "parameter_scan",
    "trace_average",
    "CLASSIFICATIONS",
    "SCAN_PARAMS",
]

CLASSIFICATIONS = ("equilibrium", "periodic", "quasiperiodic-or-torus", "chaotic", "diverged")
SCAN_PARAMS = ("C", "D", "E", "F", "K")


@dataclass
class LyapunovReport:
    """Spectrum estimate with its convergence history."""

    exponents: np.ndarray  # sorted descending
    t_total: float
    renorm_interval: float
    convergence_trace: np.ndarray  # running estimates, one row per renorm
    trace_times: np.ndarray
    error: IntegrationError | None = None  # what ended a diverged run

    @property
    def diverged(self) -> bool:
        return self.error is not None


@dataclass
class ScanRecord:
    param_value: float
    classification: str
    exponents: np.ndarray
    extrema_sample: np.ndarray
    error: IntegrationError | None = None  # what ended a failed run


@dataclass(frozen=True)
class ScanSettings:
    """Per-point run settings shared by every entry of a parameter scan.

    The window, the stride, the renorm interval, the two thresholds and the
    worker count (None: one per CPU) are checked when the settings are made,
    so a bad value stops a scan before any point runs.
    """

    y0: tuple
    t_transient: float = 200.0
    t_total: float = 2200.0
    renorm_interval: float = 1.0
    out_stride: float = 0.1
    integrator: IntegratorConfig = dataclass_field(default_factory=IntegratorConfig)
    extrema_cap: int = 64
    eps_zero: float = 1e-3
    workers: int | None = None

    def __post_init__(self):
        _check_window(self.t_transient, self.t_total)
        check_schedule(self.t_transient, self.t_total, self.out_stride, self.renorm_interval)
        if not (self.eps_zero >= 0.0 and self.extrema_cap >= 0):
            raise ValueError("eps_zero and extrema_cap must be >= 0")
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be at least 1")


def _check_window(t_transient: float, t_total: float):
    if not (t_total > t_transient >= 0.0):
        raise ValueError("require t_total > t_transient >= 0")


def _transient_end(system: DynamicalSystem, y0: np.ndarray, t_transient: float, cfg) -> np.ndarray:
    """The state after the transient (y0 itself when there is none)."""
    if t_transient > 0.0:
        return integrate(system.field, y0, 0.0, t_transient, t_transient, cfg).states[-1]
    return y0


def _spectra(
    systems, seeds, t_transient: float, t_total: float, renorm_interval: float, cfg, out_stride=None
):
    """(report, traj, terminal) of each system's spectrum run from its seed:
    its own transient, then the tangent runs of all the systems that
    survived it through `integrate_tangent_block`."""
    _check_window(t_transient, t_total)
    check_schedule(t_transient, t_total, out_stride, renorm_interval)
    outcomes, members, bundles = [None] * len(systems), [], []
    for i, (system, seed) in enumerate(zip(systems, seeds)):
        try:
            base = _transient_end(system, np.asarray(seed, dtype=float), t_transient, cfg)
        except IntegrationError as exc:
            outcomes[i] = exc
            continue
        members.append(i)
        bundles.append(TangentBundle(base=base, frame=np.eye(system.dim)))
    runs = integrate_tangent_block(
        [systems[i].field for i in members],
        [systems[i].jacobian for i in members],
        bundles,
        t_transient,
        t_total,
        renorm_interval,
        cfg,
        out_stride=out_stride,
    )
    for i, outcome in zip(members, runs):
        outcomes[i] = outcome
    return [_spectrum_report(o, s.dim, t_total, renorm_interval) for o, s in zip(outcomes, systems)]


def _spectrum_report(outcome, d: int, t_total: float, renorm_interval: float):
    """(report, traj, terminal) of a run's outcome.

    The outcome is the (bundle, log, traj) of a completed tangent run or the
    IntegrationError that ended the transient or the tangent run, which
    carries the log and samples so far: an error of the transient an empty
    log, which gives NaN exponents.
    """
    error = outcome if isinstance(outcome, IntegrationError) else None
    if error is None:
        bundle, log, traj = outcome
        terminal = bundle.base
    else:
        log, traj, terminal = error.partial_log, error.partial_traj, None

    trace = np.cumsum(log.log_stretches, axis=0) / np.cumsum(log.intervals)[:, None]
    exponents = np.sort(trace[-1])[::-1] if len(trace) else np.full(d, math.nan)

    report = LyapunovReport(
        exponents=exponents,
        t_total=t_total,
        renorm_interval=renorm_interval,
        convergence_trace=trace,
        trace_times=log.times.copy(),
        error=error,
    )
    return report, traj, terminal


def lyapunov_spectrum(
    system: DynamicalSystem,
    y0,
    t_transient: float,
    t_total: float,
    renorm_interval: float,
    cfg: IntegratorConfig,
) -> LyapunovReport:
    """Lyapunov spectrum from an identity tangent frame after a transient.

    Exponent i is the total log stretch of frame column i divided by the
    post-transient time span.  When the tangent run fails (blow-up, step
    budget, stiffness) the report carries whatever intervals completed,
    flagged diverged.
    """
    [(report, _, _)] = _spectra([system], [y0], t_transient, t_total, renorm_interval, cfg)
    return report


def equilibrium_stability(p: Params) -> np.ndarray:
    """Eigenvalues of the Jacobian at the fixed point, by descending real part."""
    y_eq = equilibrium(p)
    eig = np.linalg.eigvals(full_jacobian(y_eq, p))
    order = np.lexsort((-eig.imag, -eig.real))
    return eig[order]


def classify(report: LyapunovReport, traj: Trajectory, eps_zero: float = 1e-3) -> str:
    """Map a spectrum to an attractor class; `traj` is not consulted.

    Chaotic when the largest exponent clears eps_zero; a single near-zero
    exponent marks a periodic orbit, two or more a torus; all-negative is an
    equilibrium.  A flow cannot have a non-equilibrium limit set with an
    all-negative spectrum, so the spectrum verdict stands even when the
    trajectory tail still shows motion (under-resolved transient).
    """
    lam = report.exponents
    if report.diverged or not np.all(np.isfinite(lam)):
        return "diverged"
    if lam[0] > eps_zero:
        return "chaotic"
    near_zero = int(np.sum(np.abs(lam) <= eps_zero))
    if near_zero >= 2:
        return "quasiperiodic-or-torus"
    if near_zero == 1:
        return "periodic"
    return "equilibrium"


def trace_average(
    system: DynamicalSystem, y0, t0: float, t1: float, out_stride: float, cfg: IntegratorConfig
) -> float:
    """Time average of trace(Jacobian) along the trajectory (trapezoid rule).

    Equals the sum of the Lyapunov exponents for the same run (divergence
    identity); used as an independent cross-check of the spectrum.
    """
    traj = integrate(system.field, y0, t0, t1, out_stride, cfg)
    traces = np.array(
        [np.trace(system.jacobian(t, y)) for t, y in zip(traj.times, traj.states)]
    )
    trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy < 2.0
    return float(trapezoid(traces, traj.times) / (traj.times[-1] - traj.times[0]))


def _local_maxima(values: np.ndarray, cap: int) -> np.ndarray:
    """Parabolic-refined three-point local maxima; keeps the trailing cap."""
    v = values
    mask = (v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])
    idx = np.flatnonzero(mask) + 1
    if idx.size == 0:
        return np.empty(0)
    left, mid, right = v[idx - 1], v[idx], v[idx + 1]
    denom = left - 2.0 * mid + right
    refined = mid.copy()
    ok = denom < 0.0
    delta = np.zeros_like(mid)
    delta[ok] = 0.5 * (left[ok] - right[ok]) / denom[ok]
    refined[ok] = mid[ok] - 0.25 * (left[ok] - right[ok]) * delta[ok]
    return refined[-cap:] if cap > 0 else np.empty(0)


def _make_system(p_base: Params, param_name: str, value: float) -> DynamicalSystem:
    if param_name == "K":
        return reduced_system(p_base, value)
    return full_system(replace(p_base, **{param_name: value}))


def _scan_record(value: float, report, traj, settings: ScanSettings) -> ScanRecord:
    label = classify(report, traj, settings.eps_zero)
    if label == "diverged" or traj is None:
        extrema = np.empty(0)
    else:
        extrema = _local_maxima(traj.states[:, 0], settings.extrema_cap)
    error = report.error
    if error is not None:  # its cause only: the partial results stay in the worker
        error = type(error)(str(error), t=error.t, last_state=error.last_state)
    return ScanRecord(
        param_value=float(value),
        classification=label,
        exponents=report.exponents,
        extrema_sample=extrema,
        error=error,
    )


def _scan_shard(args) -> list[tuple[ScanRecord, np.ndarray | None]]:
    """(record, terminal state or None) of each point of a scan share, in the
    share's order, every point run from the same seed."""
    p_base, param_name, values, seed, settings = args
    runs = _spectra(
        [_make_system(p_base, param_name, v) for v in values],
        [seed] * len(values),
        settings.t_transient,
        settings.t_total,
        settings.renorm_interval,
        settings.integrator,
        out_stride=settings.out_stride,
    )
    return [
        (_scan_record(v, report, traj, settings), terminal)
        for v, (report, traj, terminal) in zip(values, runs)
    ]


def parameter_scan(
    p_base: Params,
    param_name: str,
    values,
    y0_policy: str,
    settings: ScanSettings,
) -> list[ScanRecord]:
    """Sweep one parameter, producing a ScanRecord per value.

    param_name "K" sweeps the reduced system (3-D seed); C, D, E, F sweep the
    full system (5-D seed).  The reduced field at K is the K = 0 field under
    (z1, z2) -> s*(z1, z2), s = sqrt(1+K^2), so a K-scan from a fixed seed z0
    is in exact arithmetic a scan of the starts (s*z0_1, s*z0_2, z0_3) of the
    one K = 0 system.  Policy "fixed" reuses settings.y0 for every
    point and may run points in parallel processes; "follow" seeds each run
    with the previous terminal state and is sequential by nature.  Failed
    points are recorded as diverged and the scan continues.
    """
    if param_name not in SCAN_PARAMS:
        raise ValueError(f"param_name must be one of {SCAN_PARAMS}, got {param_name!r}")
    if y0_policy not in ("fixed", "follow"):
        raise ValueError(f"y0_policy must be 'fixed' or 'follow', got {y0_policy!r}")
    values = [float(v) for v in values]
    expected_dim = 3 if param_name == "K" else 5
    seed0 = tuple(float(v) for v in settings.y0)
    if len(seed0) != expected_dim:
        raise ValueError(
            f"scan over {param_name} needs a {expected_dim}-dimensional seed state"
        )
    if not values:
        return []

    if y0_policy == "follow":
        records = []
        seed = seed0
        for v in values:
            [(record, terminal)] = _scan_shard((p_base, param_name, [v], seed, settings))
            records.append(record)
            if terminal is not None:
                seed = tuple(terminal.tolist())
        return records

    workers = min(settings.workers or os.cpu_count() or 1, len(values))
    shards = [(p_base, param_name, values[w::workers], seed0, settings) for w in range(workers)]
    if workers <= 1:
        shard_records = [_scan_shard(shards[0])]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            shard_records = list(pool.map(_scan_shard, shards))
    records = [None] * len(values)
    for w, shard in enumerate(shard_records):
        records[w::workers] = [record for record, _ in shard]
    return records
