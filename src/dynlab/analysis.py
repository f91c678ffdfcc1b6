"""Asymptotic analysis: Lyapunov spectra, classification, scans, sections.

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
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dataclass_field, replace

import numpy as np

from .errors import IntegrationError
from .integrator import (
    IntegratorConfig,
    TangentBundle,
    Trajectory,
    integrate,
    integrate_with_tangents,
)
from .model import DynamicalSystem, Params, equilibrium, full_jacobian, full_system, reduced_system

__all__ = [
    "LyapunovReport",
    "ScanRecord",
    "ScanSettings",
    "SectionPoints",
    "lyapunov_spectrum",
    "equilibrium_stability",
    "classify",
    "parameter_scan",
    "poincare_section",
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
    diverged: bool = False


@dataclass
class ScanRecord:
    param_name: str
    param_value: float
    classification: str
    largest_exponent: float
    exponents: np.ndarray
    extrema_sample: np.ndarray


@dataclass(frozen=True)
class ScanSettings:
    """Per-point run settings shared by every entry of a parameter scan."""

    y0: tuple
    t_transient: float = 200.0
    t_total: float = 2200.0
    renorm_interval: float = 1.0
    out_stride: float = 0.1
    integrator: IntegratorConfig = dataclass_field(default_factory=IntegratorConfig)
    extrema_cap: int = 64
    eps_zero: float = 1e-3
    workers: int | None = None


@dataclass
class SectionPoints:
    """Plane crossings of a trajectory: remaining coordinates per crossing."""

    plane: tuple  # (coordinate index, level, direction)
    points: np.ndarray  # shape (n, d-1)
    times: np.ndarray  # refined crossing times, shape (n,)


def _spectrum_run(
    system: DynamicalSystem,
    y0,
    t_transient: float,
    t_total: float,
    renorm_interval: float,
    cfg: IntegratorConfig,
    out_stride: float | None = None,
):
    """Transient, then tangent propagation.  Returns (report, traj, terminal)."""
    if not (t_total > t_transient >= 0.0):
        raise ValueError("require t_total > t_transient >= 0")
    d = system.dim
    y0 = np.asarray(y0, dtype=float)
    base = y0
    diverged = False
    log = None
    traj = None
    terminal = None
    try:
        if t_transient > 0.0:
            tr = integrate(system.field, y0, 0.0, t_transient, t_transient, cfg)
            base = tr.states[-1]
        bundle0 = TangentBundle(base=base, frame=np.eye(d))
        bundle, log, traj = integrate_with_tangents(
            system.field,
            system.jacobian,
            bundle0,
            t_transient,
            t_total,
            renorm_interval,
            cfg,
            out_stride=out_stride,
        )
        terminal = bundle.base
    except IntegrationError as exc:
        diverged = True
        log = getattr(exc, "partial_log", None)
        traj = getattr(exc, "partial_traj", None)

    if log is None or log.times.size == 0:
        exponents = np.full(d, math.nan)
        trace = np.empty((0, d))
        trace_times = np.empty(0)
    else:
        sums = np.cumsum(log.log_stretches, axis=0)
        elapsed = np.cumsum(log.intervals)
        trace = sums / elapsed[:, None]
        trace_times = log.times.copy()
        exponents = np.sort(trace[-1])[::-1]

    report = LyapunovReport(
        exponents=exponents,
        t_total=t_total,
        renorm_interval=renorm_interval,
        convergence_trace=trace,
        trace_times=trace_times,
        diverged=diverged,
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
    post-transient time span.  On blow-up the report carries whatever
    intervals completed, flagged diverged.
    """
    report, _, _ = _spectrum_run(system, y0, t_transient, t_total, renorm_interval, cfg)
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
    trajectory tail still shows motion (under-resolved transient);
    `terminal_variation(traj)` quantifies how settled the tail is.
    """
    if report.diverged:
        return "diverged"
    lam = report.exponents
    if not np.all(np.isfinite(lam)):
        return "diverged"
    if lam[0] > eps_zero:
        return "chaotic"
    near_zero = int(np.sum(np.abs(lam) <= eps_zero))
    if near_zero >= 2:
        return "quasiperiodic-or-torus"
    if near_zero == 1:
        return "periodic"
    return "equilibrium"


def terminal_variation(traj: Trajectory, fraction: float = 0.1) -> float:
    """Max-norm spread of the trailing fraction of samples around the last one."""
    n = traj.times.size
    tail = traj.states[max(0, n - max(2, int(math.ceil(fraction * n)))) :]
    return float(np.abs(tail - tail[-1]).max())


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
        return reduced_system(p_base, float(value))
    return full_system(replace(p_base, **{param_name: float(value)}))


def _scan_point(args) -> tuple[ScanRecord, np.ndarray | None]:
    p_base, param_name, value, seed, settings = args
    system = _make_system(p_base, param_name, value)
    report, traj, terminal = _spectrum_run(
        system,
        np.asarray(seed, dtype=float),
        settings.t_transient,
        settings.t_total,
        settings.renorm_interval,
        settings.integrator,
        out_stride=settings.out_stride,
    )
    label = classify(report, traj, settings.eps_zero)
    if label == "diverged" or traj is None:
        extrema = np.empty(0)
    else:
        extrema = _local_maxima(traj.states[:, 0], settings.extrema_cap)
    lam1 = float(report.exponents[0]) if report.exponents.size else math.nan
    record = ScanRecord(
        param_name=param_name,
        param_value=float(value),
        classification=label,
        largest_exponent=lam1,
        exponents=report.exponents,
        extrema_sample=extrema,
    )
    return record, terminal


def _worker_count(settings: ScanSettings) -> int:
    if settings.workers is not None:
        return max(1, settings.workers)
    return os.cpu_count() or 1


def parameter_scan(
    p_base: Params,
    param_name: str,
    values,
    y0_policy: str,
    settings: ScanSettings,
) -> list[ScanRecord]:
    """Sweep one parameter, producing a ScanRecord per value.

    param_name "K" sweeps the reduced system (3-D seed); C, D, E, F sweep the
    full system (5-D seed).  Policy "fixed" reuses settings.y0 for every
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
            record, terminal = _scan_point((p_base, param_name, v, seed, settings))
            records.append(record)
            if terminal is not None:
                seed = tuple(terminal.tolist())
        return records

    jobs = [(p_base, param_name, v, seed0, settings) for v in values]
    workers = min(_worker_count(settings), len(jobs))
    if workers <= 1:
        return [_scan_point(job)[0] for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return [record for record, _ in pool.map(_scan_point, jobs)]


def _cubic_stencil(times: np.ndarray, i: int) -> np.ndarray:
    lo = max(0, min(i - 1, times.size - 4))
    return np.arange(lo, min(lo + 4, times.size))


def _lagrange_eval(ts: np.ndarray, ys: np.ndarray, t: float) -> np.ndarray:
    """Lagrange interpolation of row vectors ys at nodes ts, evaluated at t."""
    result = np.zeros(ys.shape[1])
    n = ts.size
    for j in range(n):
        w = 1.0
        for m in range(n):
            if m != j:
                w *= (t - ts[m]) / (ts[j] - ts[m])
        result += w * ys[j]
    return result


def poincare_section(
    traj: Trajectory, coordinate: int, level: float, direction: str = "both"
) -> SectionPoints:
    """Crossings of the plane {y[coordinate] = level} with matching direction.

    Consecutive samples bracketing the plane are refined by secant iteration
    on a local cubic interpolant of the sectioned coordinate; the remaining
    coordinates are read off the same interpolant at the crossing time.
    """
    if direction not in ("up", "down", "both"):
        raise ValueError(f"direction must be up/down/both, got {direction!r}")
    if not 0 <= coordinate < traj.dimension:
        raise ValueError(f"coordinate index {coordinate} out of range")
    g = traj.states[:, coordinate] - level
    up = (g[:-1] < 0.0) & (g[1:] >= 0.0)
    down = (g[:-1] > 0.0) & (g[1:] <= 0.0)
    mask = up if direction == "up" else down if direction == "down" else (up | down)
    idx = np.flatnonzero(mask)

    points = []
    cross_times = []
    keep = [j for j in range(traj.dimension) if j != coordinate]
    for i in idx:
        sten = _cubic_stencil(traj.times, i)
        ts = traj.times[sten]
        ys = traj.states[sten]

        def phi(t):
            return _lagrange_eval(ts, ys, t)[coordinate] - level

        t_lo, t_hi = traj.times[i], traj.times[i + 1]
        f_lo, f_hi = g[i], g[i + 1]
        t_a, t_b, f_a, f_b = t_lo, t_hi, f_lo, f_hi
        t_star = t_b
        for _ in range(30):
            if f_b == f_a:
                break
            t_star = t_b - f_b * (t_b - t_a) / (f_b - f_a)
            t_star = min(max(t_star, t_lo), t_hi)
            f_star = phi(t_star)
            t_a, f_a, t_b, f_b = t_b, f_b, t_star, f_star
            if abs(f_star) <= 1e-14 * max(1.0, abs(level)) or abs(t_b - t_a) <= 1e-15 * max(
                1.0, abs(t_star)
            ):
                break
        state = _lagrange_eval(ts, ys, t_star)
        points.append(state[keep])
        cross_times.append(t_star)

    pts = np.array(points) if points else np.empty((0, traj.dimension - 1))
    return SectionPoints(
        plane=(coordinate, level, direction), points=pts, times=np.array(cross_times)
    )
