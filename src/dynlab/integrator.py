"""Explicit ODE integration for the toolkit's smooth, non-stiff flows.

Two methods:

* ``adaptive-DP54`` -- Dormand-Prince 5(4) embedded pair with the FSAL stage
  reused, weighted-RMS error control (scale = abs_tol + rel_tol * max(|y|
  before, after)), safety factor 0.9 and step-factor clamp [0.2, 5.0].
* ``fixed-RK4`` -- classical fourth-order Runge-Kutta at constant h_init on
  numpy arrays, kept as an independent cross-check.

The DP54 stepper works on Python floats: the state, the seven stages, the
error norm and the step-size controller are lists and floats, because at five
(or thirty) components numpy's per-call overhead costs more than the
arithmetic.  It calls a float kernel ``kernel(t, y: list) -> list``.  A field
that carries one as its ``kernel`` attribute (the callables of
``model.full_system`` / ``model.reduced_system``) is called through it;
any other field ``f(t, ndarray) -> ndarray`` goes through the adapter
``f(t, np.array(y)).ravel().tolist()``.  The kernel and the field compute the
same formula, so both routes give bitwise-identical results.  The same holds
for the Jacobian, whose kernel returns its d*d entries row-major; J*Q for the
tangent frame is formed from those entries by one routine either way.

Output samples are obtained by capping steps exactly at each output time; no
dense interpolation is ever used, so sampled states carry only the
integration error itself.  A stage state that goes non-finite, or a new state
with any component non-finite or outside [-1e12, 1e12], aborts with
BlowUpError.  All routines are deterministic: identical inputs produce
bitwise-identical results on one platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BlowUpError,
    DimensionMismatchError,
    IntegrationError,
    InvalidStateError,
    StepBudgetError,
    StiffnessError,
)

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "TangentBundle",
    "RenormLog",
    "integrate",
    "integrate_with_tangents",
    "fixed_rk4_step",
    "BLOWUP_THRESHOLD",
]

BLOWUP_THRESHOLD = 1e12

# Dormand-Prince 5(4) tableau: nodes c, stage weights a, 5th-order weights b
# (also the FSAL row) and e = b - b*, the difference to the embedded
# 4th-order weights.  b2 and e2 are zero and left out of the sums.
_C2, _C3, _C4, _C5 = 0.2, 0.3, 0.8, 8.0 / 9.0
_A21 = 0.2
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
_A61, _A62, _A63, _A64, _A65 = (
    9017.0 / 3168.0,
    -355.0 / 33.0,
    46732.0 / 5247.0,
    49.0 / 176.0,
    -5103.0 / 18656.0,
)
_B1, _B3, _B4, _B5, _B6 = 35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71.0 / 57600.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)

_SAFETY = 0.9
_FACTOR_MIN = 0.2
_FACTOR_MAX = 5.0


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "adaptive-DP54"
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    h_init: float = 1e-3
    h_min: float = 1e-12
    h_max: float = 0.1
    max_steps: int = 10**8

    def __post_init__(self):
        if self.method not in ("adaptive-DP54", "fixed-RK4"):
            raise ValueError(f"unknown method {self.method!r}")
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if not (0.0 < self.h_min <= self.h_init <= self.h_max):
            raise ValueError("need 0 < h_min <= h_init <= h_max")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")


@dataclass
class Trajectory:
    """Sampled solution: times[i] maps to states[i] (row vectors)."""

    times: np.ndarray
    states: np.ndarray
    dimension: int
    steps_taken: int = 0
    steps_rejected: int = 0

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if self.times.ndim != 1 or self.states.shape != (self.times.size, self.dimension):
            raise InvalidStateError("trajectory arrays have inconsistent shapes")
        if self.times.size > 1 and not np.all(np.diff(self.times) > 0.0):
            raise InvalidStateError("trajectory times must be strictly increasing")
        if not np.all(np.isfinite(self.states)):
            raise InvalidStateError("trajectory contains non-finite states")


@dataclass
class TangentBundle:
    """A base state together with a frame of tangent vectors (columns)."""

    base: np.ndarray
    frame: np.ndarray

    def __post_init__(self):
        self.base = np.asarray(self.base, dtype=float)
        self.frame = np.asarray(self.frame, dtype=float)
        d = self.base.size
        if self.frame.shape != (d, d):
            raise InvalidStateError("frame must be d x d for a d-dimensional base")
        if not (np.all(np.isfinite(self.base)) and np.all(np.isfinite(self.frame))):
            raise InvalidStateError("tangent bundle contains non-finite entries")

    def orthonormality_defect(self) -> float:
        d = self.frame.shape[0]
        return float(np.abs(self.frame.T @ self.frame - np.eye(d)).max())


@dataclass
class RenormLog:
    """Per-interval stretch data: interval end times, lengths, log norms."""

    times: np.ndarray
    intervals: np.ndarray
    log_stretches: np.ndarray  # shape (n_intervals, d)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.intervals = np.asarray(self.intervals, dtype=float)
        self.log_stretches = np.asarray(self.log_stretches, dtype=float)


def _validate_initial(y0) -> np.ndarray:
    y = np.asarray(y0, dtype=float).copy()
    if y.ndim != 1:
        raise InvalidStateError("initial state must be a flat vector")
    if not np.all(np.isfinite(y)):
        raise InvalidStateError("initial state contains NaN/Inf")
    return y


def _finite(v: list) -> bool:
    """Whether every component of v is finite.

    NaN and inf carry through a sum, and inf - inf is NaN.  A sum of finite
    components past 1.8e308 fails too; a state that large has blown up anyway.
    """
    s = sum(v)
    return s - s == 0.0


def _check_blowup(y: list, t: float):
    # min() and max() skip a NaN that is not the first element (comparisons
    # with NaN are false), hence the separate finiteness test.
    if not (_finite(y) and -BLOWUP_THRESHOLD <= min(y) and max(y) <= BLOWUP_THRESHOLD):
        raise BlowUpError(f"solution blew up at t = {t!r}", t=t, last_state=np.array(y))


def _float_kernel(fn):
    """The callable's own float kernel, or the adapter around its array form."""
    kernel = getattr(fn, "kernel", None)
    if kernel is not None:
        return kernel
    return lambda t, y: fn(t, np.array(y)).ravel().tolist()


class _Dp54Stepper:
    """Adaptive stepper advancing one solution on floats; holds FSAL cache and counters."""

    def __init__(self, kernel, t0: float, y0: list, cfg: IntegratorConfig):
        self.kernel = kernel
        self.cfg = cfg
        self.t = float(t0)  # a numpy scalar would make every stage numpy arithmetic
        self.y = y0
        self.k1 = kernel(self.t, y0)
        if len(self.k1) != len(y0):
            raise DimensionMismatchError(
                f"field returned {len(self.k1)} components for a {len(y0)}-vector"
            )
        self.h_prop = min(cfg.h_init, cfg.h_max)
        self.steps_taken = 0
        self.steps_rejected = 0

    def _stage(self, t: float, ys: list) -> list:
        if not _finite(ys):
            raise BlowUpError(
                f"non-finite state during step at t = {t!r}", t=t, last_state=np.array(self.y)
            )
        return self.kernel(t, ys)

    def refresh_derivative(self):
        """Recompute the cached derivative after the state was replaced."""
        self.k1 = self.kernel(self.t, self.y)

    def step_to(self, t_target: float):
        cfg = self.cfg
        atol, rtol = cfg.abs_tol, cfg.rel_tol
        stage = self._stage
        snap = 1e-13 * max(1.0, abs(t_target))
        while t_target - self.t > snap:
            if self.steps_taken + self.steps_rejected >= cfg.max_steps:
                raise StepBudgetError(
                    f"max_steps = {cfg.max_steps} exhausted at t = {self.t!r}",
                    t=self.t,
                    last_state=np.array(self.y),
                )
            remaining = t_target - self.t
            capped = self.h_prop >= remaining
            h = remaining if capped else self.h_prop

            t, y, k1 = self.t, self.y, self.k1
            k2 = stage(t + _C2 * h, [u + h * (_A21 * a) for u, a in zip(y, k1)])
            k3 = stage(
                t + _C3 * h, [u + h * (_A31 * a + _A32 * b) for u, a, b in zip(y, k1, k2)]
            )
            k4 = stage(
                t + _C4 * h,
                [u + h * (_A41 * a + _A42 * b + _A43 * c) for u, a, b, c in zip(y, k1, k2, k3)],
            )
            k5 = stage(
                t + _C5 * h,
                [
                    u + h * (_A51 * a + _A52 * b + _A53 * c + _A54 * d)
                    for u, a, b, c, d in zip(y, k1, k2, k3, k4)
                ],
            )
            k6 = stage(
                t + h,
                [
                    u + h * (_A61 * a + _A62 * b + _A63 * c + _A64 * d + _A65 * e)
                    for u, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)
                ],
            )
            y_new = [
                u + h * (_B1 * a + _B3 * c + _B4 * d + _B5 * e + _B6 * g)
                for u, a, c, d, e, g in zip(y, k1, k3, k4, k5, k6)
            ]
            _check_blowup(y_new, t + h)
            k7 = self.kernel(t + h, y_new)

            sq = 0.0
            for u, v, a, c, d, e, g, k in zip(y, y_new, k1, k3, k4, k5, k6, k7):
                u, v = abs(u), abs(v)  # finite here; max() would cost a call
                r = (
                    h
                    * (_E1 * a + _E3 * c + _E4 * d + _E5 * e + _E6 * g + _E7 * k)
                    / (atol + rtol * (u if u > v else v))
                )
                sq += r * r
            err_norm = math.sqrt(sq / len(y))

            if err_norm <= 1.0:
                t_new = t + h
                if abs(t_new - t_target) <= snap:
                    t_new = t_target
                self.t = t_new
                self.y = y_new
                self.k1 = k7
                self.steps_taken += 1
                if not capped:
                    self.h_prop = min(h * _controller_factor(err_norm), cfg.h_max)
            else:
                self.steps_rejected += 1
                self.h_prop = min(h * _controller_factor(err_norm), cfg.h_max)
                if self.h_prop < cfg.h_min:
                    raise StiffnessError(
                        f"step size fell below h_min = {cfg.h_min!r} at t = {self.t!r}",
                        t=self.t,
                        last_state=np.array(self.y),
                    )
        self.t = t_target


def _controller_factor(err_norm: float) -> float:
    if err_norm == 0.0 or not math.isfinite(err_norm):
        return _FACTOR_MAX if err_norm == 0.0 else _FACTOR_MIN
    return min(_FACTOR_MAX, max(_FACTOR_MIN, _SAFETY * err_norm**-0.2))


class _Rk4Stepper:
    """Fixed-step classical RK4 stepper with the same interface (state as a list)."""

    def __init__(self, field, t0: float, y0: list, cfg: IntegratorConfig):
        self.field = field
        self.cfg = cfg
        self.t = t0
        self.y = y0
        self.steps_taken = 0
        self.steps_rejected = 0

    def refresh_derivative(self):
        pass

    def step_to(self, t_target: float):
        cfg = self.cfg
        snap = 1e-13 * max(1.0, abs(t_target))
        while t_target - self.t > snap:
            if self.steps_taken >= cfg.max_steps:
                raise StepBudgetError(
                    f"max_steps = {cfg.max_steps} exhausted at t = {self.t!r}",
                    t=self.t,
                    last_state=np.array(self.y),
                )
            h = min(cfg.h_init, t_target - self.t)
            self.y = fixed_rk4_step(self.field, np.array(self.y), self.t, h).tolist()
            t_new = self.t + h
            self.t = t_target if abs(t_new - t_target) <= snap else t_new
            self.steps_taken += 1
        self.t = t_target


def fixed_rk4_step(field, y, t: float, h: float) -> np.ndarray:
    """One classical 4th-order Runge-Kutta step; raises BlowUpError on NaN."""
    if h <= 0.0:
        raise ValueError("step size must be positive")
    y = np.asarray(y, dtype=float)
    k1 = field(t, y)
    k2 = field(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = field(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = field(t + h, y + h * k3)
    y_new = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    _check_blowup(y_new.tolist(), t + h)
    return y_new


def _make_stepper(kernel, field, t0: float, y0: list, cfg: IntegratorConfig):
    """DP54 on the float kernel, or RK4 on the array field."""
    if cfg.method == "adaptive-DP54":
        return _Dp54Stepper(kernel, t0, y0, cfg)
    return _Rk4Stepper(field, t0, y0, cfg)


def _output_times(t0: float, t1: float, out_stride: float) -> np.ndarray:
    n = int(math.floor((t1 - t0) / out_stride + 1e-9))
    times = t0 + out_stride * np.arange(n + 1)
    if t1 - times[-1] > 1e-12 * max(1.0, abs(t1)):
        times = np.append(times, t1)
    else:
        times[-1] = t1
    return times


def integrate(field, y0, t0: float, t1: float, out_stride: float, cfg: IntegratorConfig) -> Trajectory:
    """Integrate y' = field(t, y) over [t0, t1], sampling every out_stride.

    The final time t1 is always included as the last sample.  Raises
    StiffnessError / BlowUpError / StepBudgetError per the config contract.
    """
    if not t1 > t0:
        raise ValueError("require t1 > t0")
    if not out_stride > 0.0:
        raise ValueError("out_stride must be positive")
    y = _validate_initial(y0)
    times = _output_times(t0, t1, out_stride)
    states = np.empty((times.size, y.size))
    states[0] = y
    stepper = _make_stepper(_float_kernel(field), field, t0, y.tolist(), cfg)
    for i, te in enumerate(times.tolist()[1:], start=1):
        try:
            stepper.step_to(te)
        except IntegrationError as exc:
            exc.partial_traj = Trajectory(
                times=times[:i],
                states=states[:i].copy(),
                dimension=y.size,
                steps_taken=stepper.steps_taken,
                steps_rejected=stepper.steps_rejected,
            )
            raise
        states[i] = stepper.y
    return Trajectory(
        times=times,
        states=states,
        dimension=y.size,
        steps_taken=stepper.steps_taken,
        steps_rejected=stepper.steps_rejected,
    )


def _orthonormalize(frame: np.ndarray):
    """QR-factorize with positive diagonal; returns (Q, per-column stretches)."""
    q, r = np.linalg.qr(frame)
    diag = np.diag(r).copy()
    signs = np.where(diag < 0.0, -1.0, 1.0)
    return q * signs, np.abs(diag)


def _tangent_kernel(field_kernel, jacobian_kernel, d: int):
    """Float kernel of the state and its frame: y' = f(y), Q' = J(y) Q.

    Y holds y followed by the d x d frame row-major.  J Q is formed here, by
    one numpy product of the Jacobian's row-major entries and the frame, so a
    Jacobian kernel and the adapter around an array Jacobian share it.  (The
    same product as float dot products made a 30-D step about 1.7x slower.)
    """

    def aug(t, Y):
        y = Y[:d]
        jq = np.array(jacobian_kernel(t, y)).reshape(d, d) @ np.array(Y[d:]).reshape(d, d)
        return field_kernel(t, y) + jq.ravel().tolist()

    return aug


def integrate_with_tangents(
    field,
    jacobian,
    bundle0: TangentBundle,
    t0: float,
    t1: float,
    renorm_interval: float,
    cfg: IntegratorConfig,
    out_stride: float | None = None,
):
    """Propagate a state and a tangent frame under the linearized flow.

    Every renorm_interval time units the frame is re-orthonormalized and the
    log of each column's stretch factor recorded.  Returns (final bundle,
    RenormLog, Trajectory-or-None); the trajectory samples the base state at
    out_stride when given.  On blow-up the partial log/trajectory are attached
    to the raised BlowUpError as ``partial_log`` / ``partial_traj``.
    """
    if not renorm_interval > 0.0:
        raise ValueError("renorm_interval must be positive")
    if not t1 > t0:
        raise ValueError("require t1 > t0")
    if bundle0.orthonormality_defect() > 1e-6:
        raise InvalidStateError("initial frame is not orthonormal")

    d = bundle0.base.size
    aug = _tangent_kernel(_float_kernel(field), _float_kernel(jacobian), d)

    renorm_times = _output_times(t0, t1, renorm_interval)[1:]
    sample_times = _output_times(t0, t1, out_stride) if out_stride else None
    renorm_set = set(renorm_times.tolist())
    sample_set = set(sample_times[1:].tolist()) if sample_times is not None else set()
    event_times = sorted(renorm_set | sample_set)

    Y0 = bundle0.base.tolist() + bundle0.frame.ravel().tolist()
    stepper = _make_stepper(aug, lambda t, Y: np.array(aug(t, Y.tolist())), t0, Y0, cfg)

    log_times, log_dts, log_rows = [], [], []
    samples = [bundle0.base.copy()] if sample_times is not None else None
    last_renorm_t = t0

    def _partial_results():
        log = RenormLog(
            np.array(log_times), np.array(log_dts), np.array(log_rows).reshape(len(log_rows), d)
        )
        traj = None
        if samples is not None and len(samples) > 0:
            n = len(samples)
            traj = Trajectory(
                times=sample_times[:n],
                states=np.array(samples),
                dimension=d,
                steps_taken=stepper.steps_taken,
                steps_rejected=stepper.steps_rejected,
            )
        return log, traj

    try:
        for te in event_times:
            stepper.step_to(te)
            if te in sample_set:
                samples.append(stepper.y[:d])
            if te in renorm_set:
                frame = np.array(stepper.y[d:]).reshape(d, d)
                q, stretches = _orthonormalize(frame)
                if np.any(stretches == 0.0):
                    raise BlowUpError(
                        f"tangent frame degenerated at t = {te!r}",
                        t=te,
                        last_state=np.array(stepper.y[:d]),
                    )
                log_times.append(te)
                log_dts.append(te - last_renorm_t)
                log_rows.append(np.log(stretches))
                last_renorm_t = te
                stepper.y = stepper.y[:d] + q.ravel().tolist()
                stepper.refresh_derivative()
    except BlowUpError as exc:
        exc.partial_log, exc.partial_traj = _partial_results()
        raise

    log, traj = _partial_results()
    bundle = TangentBundle(
        base=np.array(stepper.y[:d]), frame=np.array(stepper.y[d:]).reshape(d, d)
    )
    return bundle, log, traj
