"""Explicit ODE integration for the toolkit's smooth, non-stiff flows.

One stepper (`_Stepper`) runs either method:

* ``adaptive-DP54`` -- Dormand-Prince 5(4) embedded pair with the FSAL stage
  reused, weighted-RMS error control (scale = abs_tol + rel_tol * max(|y|
  before, after)), safety factor 0.9 and step-factor clamp [0.2, 5.0].
* ``fixed-RK4`` -- classical fourth-order Runge-Kutta at constant h_init
  (it reads neither h_min nor h_max, so only DP54 needs h_min <= h_init <=
  h_max), its first stage evaluated at the start of every step, kept as an
  independent cross-check of the method; a reference test pins its field
  evaluation to kernel calls.

The stepper works on Python floats: the state, the stages, the error norm
and the step-size controller are lists and floats, because at five (or
thirty) components numpy's per-call overhead costs more than the
arithmetic.  It runs on a float kernel ``kernel(t, y: list) -> list``.  A field
that carries ``formula = (fn, constants)`` (the callables of
``model.full_system`` / ``model.reduced_system``) is run on the kernel of its
formula, ``(t, y) -> fn(y, *constants)``; any other field
``f(t, ndarray) -> ndarray`` goes through the adapter
``f(t, np.array(y)).ravel().tolist()``.  The formula and the field compute
the same thing, so both routes give bitwise-identical results.  The same
holds for the Jacobian, whose formula returns its d*d entries row-major; J*Q
for the tangent frame is formed from those entries by one routine either way
(`_jq`: each entry a float sum over k in a fixed order, so it does not depend
on the BLAS kernel; only the QR of a renorm, in `_renorm_frames`, does).  One
helper, `_formula_kernel`, builds every kernel of a formula: a field's, a
tangent run's (`_tangent_formula` of the field and the Jacobian, on their
constants joined) and a block's column kernel (`_columns`).

The step loop is generated once per method, dimension d and field formula
(`_step_loop`), as `dataclasses` builds its methods: its state lives in
locals, and each component is written out with the expression a loop over
components would use, in the same order, so it gives that loop's bits.  Both
methods share the step budget, the new-state blow-up test and the field:
what a kernel's formula computes, traced once on stand-in numbers (`_trace`,
one per constant), is written into every stage, so all systems of one
formula and constant count share one loop; any other kernel, or a formula
that branches on its values or calls a function, is called at each, same
bits.  A tangent run of a field and a Jacobian that both carry a formula
writes f, J and J*Q into its loop.

Every run follows one schedule (`_Events`: stop times, each flagged sampled,
renormed or both) through one loop (`_run_events`): it steps exactly onto
each stop, records its state at a sampled one and, on a tangent run,
re-orthonormalizes the frame and logs its stretches at a renormed one, so a
failed run's partial results are what it recorded.  One routine
(`_renorm_frames`, the one QR) renormalizes a lone run's frame and a block's
frames; it is the one step whose bits depend on LAPACK.  No dense
interpolation is ever used, so sampled states carry only the integration
error itself.

`integrate_tangent_block` is the one entry of spectrum runs, for one system
or many on one schedule, and it chooses the route.  At least `_MIN_BATCH`
DP54 members whose fields share one formula, and whose Jacobians share one,
advance together as one (d + d*d, n) array, one member a column, on column
kernels of their own formula constants (`_columns`), each at its own stop of
the schedule with its own time, step size, accept/reject, counters and
budget.  A member reaches its stop by the lone run's one test, t within snap
of it, made in one place (`_reach_events`).  The stages run over the block
with the scalar stepper's expressions in the same order, each member's error
norm is summed over its components in order, the controller runs per member
on floats, and J*Q adds its products in `_jq`'s order, so every member that
completes gets the bits of its own `integrate_with_tangents` run.  The block
only succeeds: a member whose next attempt would fail (step budget spent, new
state out of range, step below h_min, degenerate frame) is dropped, and it
and any set the block cannot take run member by member through
`integrate_with_tangents`, which builds every error and partial result.  A
block iteration costs about as much at any n, so a block pays only from
`_MIN_BATCH` members on.

A DP54 stage state that goes non-finite (RK4 tests no stage state: a
non-finite one carries into its new state), or a new state
with any component non-finite or outside [-1e12, 1e12], aborts with
BlowUpError; a derivative with the wrong number of components, at any
stage, aborts with DimensionMismatchError.  All routines are deterministic:
identical inputs produce bitwise-identical results on one platform.
"""

from __future__ import annotations

import functools
import math
import textwrap
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
    "integrate_tangent_block",
    "check_schedule",
    "BLOWUP_THRESHOLD",
]

BLOWUP_THRESHOLD = 1e12

# Dormand-Prince 5(4) tableau.  Stages 2..6 as (node c, [(stage, a), ...]),
# the 5th-order weights b (also the FSAL row) and e = b - b*, the difference
# to the embedded 4th-order weights; b2 and e2 are zero and left out.
_STAGES = [
    (0.2, [(1, 0.2)]),
    (0.3, [(1, 3.0 / 40.0), (2, 9.0 / 40.0)]),
    (0.8, [(1, 44.0 / 45.0), (2, -56.0 / 15.0), (3, 32.0 / 9.0)]),
    (8.0 / 9.0, [(1, 19372.0 / 6561.0), (2, -25360.0 / 2187.0), (3, 64448.0 / 6561.0), (4, -212.0 / 729.0)]),
    (1.0, [(1, 9017.0 / 3168.0), (2, -355.0 / 33.0), (3, 46732.0 / 5247.0), (4, 49.0 / 176.0),
           (5, -5103.0 / 18656.0)]),
]
_WEIGHTS = [(1, 35.0 / 384.0), (3, 500.0 / 1113.0), (4, 125.0 / 192.0), (5, -2187.0 / 6784.0),
            (6, 11.0 / 84.0)]
_ERROR_WEIGHTS = [(1, 71.0 / 57600.0), (3, -71.0 / 16695.0), (4, 71.0 / 1920.0), (5, -17253.0 / 339200.0),
                  (6, 22.0 / 525.0), (7, -1.0 / 40.0)]

# A block of at least this many tangent runs advances as one `_Dp54Block`:
# the measured crossover, where the block ties point-by-point runs at 16
# members and pays from 17.  Measured on the tangent phase of criterion-9 C
# points (C = linspace(-1.5, -0.6, n), T = 100 + 150, tol 1e-8, 2-vCPU VM,
# 5 alternating pairs) against point-by-point runs on the traced tangent
# loop, block speed-up of the medians: 0.58x at 12 points, 1.03x at 16,
# 1.06x at 18, 1.39x at 20, 1.31x at 24, 1.90x at 32.  A block costs
# 3.4-5.2 s at any of these n, a point 0.22-0.27 s.
_MIN_BATCH = 17

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
        if not (self.h_min > 0.0 and self.h_init > 0.0 and self.h_max > 0.0):
            raise ValueError("need h_min, h_init and h_max positive")
        if self.method == "adaptive-DP54" and not self.h_min <= self.h_init <= self.h_max:
            raise ValueError("need h_min <= h_init <= h_max for adaptive-DP54")
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


def _formula_kernel(formula):
    """The kernel (t, y) -> fn(y, *constants) of a formula (fn, constants),
    which it carries as its ``formula``."""
    fn, constants = formula

    def kernel(t, y):
        return fn(y, *constants)

    kernel.formula = formula
    return kernel


def _float_kernel(fn):
    """The float kernel of the callable's formula, or the adapter around its array form."""
    formula = getattr(fn, "formula", None)
    return _formula_kernel(formula) if formula else lambda t, y: fn(t, np.array(y)).ravel().tolist()


def _mismatch(f, d: int) -> DimensionMismatchError:
    return DimensionMismatchError(f"field returned {len(f)} components for a {d}-vector")


class _Traced:
    """A stand-in number for `_trace`: a +, - or * with a stand-in, an int or a
    finite float is a new stand-in on the tape; anything else raises TypeError."""

    __slots__ = ("text", "args", "uses", "tape")
    __array_ufunc__ = None  # a numpy scalar operand defers to the stand-in

    def __init__(self, text, args=(), tape=None):
        self.text, self.args, self.uses, self.tape = text, args, 0, tape

    def _op(self, symbol, *args):
        if not all(isinstance(a, (_Traced, int)) or isinstance(a, float) and math.isfinite(a) for a in args):
            return NotImplemented
        leaf = lambda a: _Traced(repr(float(a) if isinstance(a, float) else int(a)))  # noqa: E731
        self.tape.append(_Traced(symbol, [a if isinstance(a, _Traced) else leaf(a) for a in args], self.tape))
        return self.tape[-1]

    __add__, __radd__ = (lambda a, b: a._op("+", a, b)), (lambda a, b: a._op("+", b, a))
    __sub__, __rsub__ = (lambda a, b: a._op("-", a, b)), (lambda a, b: a._op("-", b, a))
    __mul__, __rmul__ = (lambda a, b: a._op("*", a, b)), (lambda a, b: a._op("*", b, a))
    __neg__ = lambda a: a._op("-", a)  # noqa: E731
    __bool__ = __eq__ = __ne__ = __hash__ = None  # not available: TypeError, as for <, <=, >, >=


def _trace(fn, d: int, n_consts: int):
    """(constant names, source) of what a field formula fn(y, *constants)
    with n_consts constants computes on `_Traced` stand-ins, or None (call
    fn) if that run raises or gives other than d stand-ins.  The source binds
    {out}0, ... to the field at {local}0, ..., which str.format names; a value
    used twice is a local."""
    tape = []
    try:
        consts = [f"f_c{i}" for i in range(n_consts)]
        state = [_Traced("{local}%d" % i, tape=tape) for i in range(d)]
        out = list(fn(state, *(_Traced(c, tape=tape) for c in consts)))
    except Exception:
        return None
    if len(out) != d or not all(isinstance(v, _Traced) for v in out):
        return None

    def text(v, outer=0):  # parenthesized only where needed: the parser nests 200 deep at most
        if len(v.args) < 2:
            return "-" + text(v.args[0], 3) if v.args else v.text
        binds = 2 if v.text == "*" else 1
        source = f"{text(v.args[0], binds)} {v.text} {text(v.args[1], binds + 1)}"
        return f"({source})" if binds < outer else source

    for a in [a for v in tape for a in v.args] + out:
        a.uses += 1
    lines, names = [], {}
    for v in tape:  # in the order the operations ran
        if v.uses > 1:
            source = text(v)
            if source not in names:  # the same text on the same names is the same float
                names[source] = f"f_{len(lines)}"
                lines.append(f"{names[source]} = {source}")
            v.text, v.args = names[source], ()
    lines += [f"{{out}}{i} = {text(v)}" for i, v in enumerate(out)]
    return consts, "\n".join(lines)


_LOOP = """\
def step_to(self, t_target):
    cfg, kernel = self.cfg, self.field
    {consts}
    atol, rtol, h_min, h_max, max_steps = cfg.abs_tol, cfg.rel_tol, cfg.h_min, cfg.h_max, cfg.max_steps
    snap = 1e-13 * max(1.0, abs(t_target))
    t, h_prop, taken, rejected = self.t, self.h_prop, self.steps_taken, self.steps_rejected
    ({y}), ({k1}) = self.y, self.k1
    try:
        while t_target - t > snap:
            if taken + rejected >= max_steps:
                msg = f"max_steps = {{max_steps}} exhausted at t = {{t!r}}"
                raise StepBudgetError(msg, t=t, last_state=np.array([{y}]))
            capped = h_prop >= t_target - t
            h = t_target - t if capped else h_prop
{attempt}
        t = t_target
    finally:
        self.t, self.h_prop, self.steps_taken, self.steps_rejected = t, h_prop, taken, rejected
        self.y, self.k1 = [{y}], [{k1}]
"""

# How a DP54 attempt ends: accept the step or reject it, and adapt h.
_DP54_CONTROL = """\
if err <= 1.0:
    t = t_target if abs(tn - t_target) <= snap else tn
    {y} = {w}
    {k1} = {k7}
    taken += 1
    if not capped:
        h_prop = min(h * _controller_factor(err), h_max)
else:
    rejected += 1
    h_prop = min(h * _controller_factor(err), h_max)
    if h_prop < h_min:
        msg = f"step size fell below h_min = {{h_min!r}} at t = {{t!r}}"
        raise StiffnessError(msg, t=t, last_state=np.array([{y}]))"""


@functools.lru_cache(maxsize=None)
def _step_loop(method: str, d: int, formula, n_consts: int):
    """`_LOOP` of the method on d-vectors for a field formula with n_consts
    constants (None: call the kernel), its attempt written out per component.
    DP54 inlines the tableau's floats and sums the squared error terms in
    component order.  RK4 has the classical step's expressions, evaluates its
    first stage at the start of every step and never rejects one."""

    def each(fmt, sep="\n"):
        return sep.join(fmt.format(i=i) for i in range(d))

    def row(name):
        return ", ".join(f"{name}{i}" for i in range(d)) + ("," if d == 1 else "")

    def combo(weights):
        return " + ".join(f"{w!r} * k{s}_{{i}}" for s, w in weights)

    call = f"f = kernel({{ts}}, [{row('{local}')}])\ntry:\n    {row('{out}')} = f\n"
    call += f"except ValueError:\n    raise _mismatch(f, {d}) from None"
    inline = _trace(formula, d, n_consts) if formula else None
    consts, field = inline or ([], call)

    bound = repr(BLOWUP_THRESHOLD)
    new_state = [  # the new state w at tn = t + h, with the blow-up test
        f"tn = t + h\ns = {each('w{i}', ' + ')}",
        f"if not (s - s == 0.0 and {each(f'-{bound} <= w{{i}} <= {bound}', ' and ')}):",
        f'    raise BlowUpError(f"solution blew up at t = {{tn!r}}", t=tn, last_state=np.array([{row("w")}]))',
    ]
    if method == "fixed-RK4":
        attempt = [field.format(ts="t", local="y_", out="k1_")]
        for s, c in enumerate(["0.5 * h", "0.5 * h", "h"], start=2):
            attempt += [
                f"ts = t + {c}",
                each(f"z{{i}} = y_{{i}} + {c} * k{s - 1}_{{i}}"),
                field.format(ts="ts", local="z", out=f"k{s}_"),
            ]
        attempt += [
            each("w{i} = y_{i} + (h / 6.0) * (k1_{i} + 2.0 * k2_{i} + 2.0 * k3_{i} + k4_{i})"),
            *new_state,
            f"t = t_target if abs(tn - t_target) <= snap else tn\n{row('y_')} = {row('w')}\ntaken += 1",
        ]
    else:
        last_state = f"last_state=np.array([{row('y_')}])"
        attempt = []
        for s, (c, weights) in enumerate(_STAGES, start=2):
            attempt += [
                f"ts = t + {c!r} * h" if c != 1.0 else "ts = t + h",
                each(f"z{{i}} = y_{{i}} + h * ({combo(weights)})"),
                f"s = {each('z{i}', ' + ')}\nif not s - s == 0.0:",
                f'    raise BlowUpError(f"non-finite state during step at t = {{ts!r}}", t=ts, {last_state})',
                field.format(ts="ts", local="z", out=f"k{s}_"),
            ]
        attempt += [
            each(f"w{{i}} = y_{{i}} + h * ({combo(_WEIGHTS)})"),
            *new_state,
            field.format(ts="tn", local="w", out="k7_"),
            each("u = y_{i} if y_{i} >= 0.0 else -y_{i}\nv = w{i} if w{i} >= 0.0 else -w{i}\n"
                 f"r{{i}} = h * ({combo(_ERROR_WEIGHTS)}) / (atol + rtol * (u if u > v else v))"),
            f"err = math.sqrt(({each('r{i} * r{i}', ' + ')}) / {d})",
            _DP54_CONTROL.format(y=row("y_"), w=row("w"), k1=row("k1_"), k7=row("k7_")),
        ]
    source = _LOOP.format(
        y=row("y_"), k1=row("k1_"),
        consts=f"[{', '.join(consts)}] = self.consts" if inline else "",
        attempt=textwrap.indent("\n".join(attempt), " " * 12),
    )
    name = "RK4" if method == "fixed-RK4" else "DP54"
    route = formula.__qualname__ if inline else "kernel calls"
    exec(compile(source, f"<{name} step loop, d = {d}, {route}>", "exec"), globals(), loop := {})
    return loop["step_to"]


class _Stepper:
    """Stepper on floats, stepped by the loop of its method, d and formula;
    its `field` is the float kernel it was given."""

    def __init__(self, kernel, t0: float, y0: list, cfg: IntegratorConfig):
        self.field = kernel
        self.cfg = cfg
        self.t = float(t0)  # a numpy scalar would make every stage numpy arithmetic
        self.y = y0
        self.refresh_derivative()
        formula, self.consts = getattr(kernel, "formula", (None, ()))
        self.loop = _step_loop(cfg.method, len(y0), formula, len(self.consts))
        self.h_prop = cfg.h_init
        self.steps_taken = 0
        self.steps_rejected = 0

    def refresh_derivative(self):
        """Recompute the cached derivative after the state was replaced, and
        check its length.  DP54's loop takes it as its first stage; RK4's
        evaluates its own at every step and leaves this one unused."""
        self.k1 = self.field(self.t, self.y)
        if len(self.k1) != len(self.y):
            raise _mismatch(self.k1, len(self.y))

    def step_to(self, t_target: float):
        self.loop(self, t_target)


def _controller_factor(err_norm: float) -> float:
    if err_norm == 0.0 or not math.isfinite(err_norm):
        return _FACTOR_MAX if err_norm == 0.0 else _FACTOR_MIN
    return min(_FACTOR_MAX, max(_FACTOR_MIN, _SAFETY * err_norm**-0.2))


def _output_times(t0: float, t1: float, out_stride: float) -> np.ndarray:
    n = int(math.floor((t1 - t0) / out_stride + 1e-9))
    times = t0 + out_stride * np.arange(n + 1)
    if t1 - times[-1] > 1e-12 * max(1.0, abs(t1)):
        times = np.append(times, t1)
    else:
        times[-1] = t1
    return times


def check_schedule(t0: float, t1: float, out_stride=None, renorm_interval=None):
    """Reject a window that is empty or not finite, and a stride or renorm
    interval that is not positive or gives more times over [t0, t1] than an
    array can hold (an empty array of that size is asked for, and dropped)."""
    if not -math.inf < t0 < t1 < math.inf:
        raise ValueError("require finite t0 < t1")
    for name, step in (("out_stride", out_stride), ("renorm_interval", renorm_interval)):
        if step is None:
            continue
        if not step > 0.0:
            raise ValueError(f"{name} must be positive")
        try:
            np.empty(math.floor((t1 - t0) / step + 1e-9) + 2)  # `_output_times` makes at most this many
        except (MemoryError, OverflowError, ValueError):
            raise ValueError(f"{name} = {step!r} gives too many times over [{t0!r}, {t1!r}] to hold") from None


class _Events:
    """The stops of a run over [t0, t1] and what it records at each.

    `times` are the sample and renorm times after t0, sorted, a shared time
    once; out_stride None means no samples, renorm_interval None no frame.
    At stop k a run records its state if `sampled[k]` and the log of its
    frame's stretches if `renormed[k]`.
    """

    def __init__(self, t0: float, t1: float, out_stride=None, renorm_interval=None):
        check_schedule(t0, t1, out_stride, renorm_interval)
        self.sample_times = None if out_stride is None else _output_times(t0, t1, out_stride)
        samples = np.empty(0) if out_stride is None else self.sample_times[1:]
        self.renorm_times = (
            np.empty(0) if renorm_interval is None else _output_times(t0, t1, renorm_interval)[1:]
        )
        self.intervals = np.diff(self.renorm_times, prepend=t0)
        self.times = np.union1d(samples, self.renorm_times)
        self.sampled = np.isin(self.times, samples, assume_unique=True)
        self.renormed = np.isin(self.times, self.renorm_times, assume_unique=True)

    def results(self, samples, log_rows, taken, rejected):
        """(RenormLog, Trajectory-or-None) of a run, finished or partial, from
        the (m, d) samples it recorded, the start first, and its log rows."""
        (m, d), n = samples.shape, len(log_rows)
        log = RenormLog(self.renorm_times[:n].copy(), self.intervals[:n].copy(), np.reshape(log_rows, (n, d)))
        if self.sample_times is None:
            return log, None
        return log, Trajectory(self.sample_times[:m].copy(), samples.copy(), d, int(taken), int(rejected))


def _run_events(stepper, events: _Events, d: int):
    """Step onto each stop: record y[:d] at a sampled one and, at a renormed
    one, re-orthonormalize the d x d frame that follows it in y and log its
    stretches.  Returns (RenormLog, Trajectory-or-None), or raises the
    IntegrationError with those of the stops passed as ``partial_log`` /
    ``partial_traj``; a degenerate frame keeps its stop's sample but not its renorm."""
    samples = np.empty((np.count_nonzero(events.sampled) + 1, d))
    samples[0], n, log_rows = stepper.y[:d], 1, []
    stops = zip(events.times.tolist(), events.sampled.tolist(), events.renormed.tolist())
    try:
        for te, sampled, renormed in stops:
            stepper.step_to(te)
            y = stepper.y
            if sampled:
                samples[n] = y[:d]
                n += 1
            if not renormed:
                continue
            q, logs, [full] = _renorm_frames(np.array(y[d:]).reshape(1, d, d))
            if not full:
                raise BlowUpError(
                    f"tangent frame degenerated at t = {te!r}", t=te, last_state=np.array(y[:d])
                )
            log_rows += logs
            stepper.y = y[:d] + q.ravel().tolist()
            stepper.refresh_derivative()
    except IntegrationError as exc:
        exc.partial_log, exc.partial_traj = events.results(
            samples[:n], log_rows, stepper.steps_taken, stepper.steps_rejected
        )
        raise
    return events.results(samples, log_rows, stepper.steps_taken, stepper.steps_rejected)


def integrate(field, y0, t0: float, t1: float, out_stride: float, cfg: IntegratorConfig) -> Trajectory:
    """Integrate y' = field(t, y) over [t0, t1], sampling every out_stride.

    The final time t1 is always included as the last sample.  Raises
    StiffnessError / BlowUpError / StepBudgetError per the config contract,
    with the samples so far as ``partial_traj`` (and an empty
    ``partial_log``).
    """
    events = _Events(t0, t1, float(out_stride))
    y = _validate_initial(y0)
    stepper = _Stepper(_float_kernel(field), t0, y.tolist(), cfg)
    return _run_events(stepper, events, y.size)[1]


def _renorm_frames(frames: np.ndarray):
    """Re-orthonormalize a (k, d, d) stack of frames by QR with a positive
    diagonal; the stretches are the diagonal's magnitudes.

    Returns (Q, log stretches, full rank): the mask flags the frames with no
    zero stretch, and Q and the log rows, one per flagged frame in stack
    order, are theirs.  LAPACK factors each frame of the stack on its own and
    each row is logged on its own, so a stacked frame gets the bits of a lone
    one.  This is the one step of a run whose bits depend on LAPACK.
    """
    q, r = np.linalg.qr(frames)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    q, stretches = q * np.where(diag < 0.0, -1.0, 1.0)[:, None, :], np.abs(diag)
    full = np.all(stretches != 0.0, axis=1)
    return q[full], [np.log(row) for row in stretches[full]], full


def _check_frames(bundles):
    for bundle in bundles:
        if bundle.orthonormality_defect() > 1e-6:
            raise InvalidStateError("initial frame is not orthonormal")


def _jq(J, Q, d: int) -> list:
    """J Q of row-major d x d entries, (J Q)ij = Ji0 Q0j + Ji1 Q1j + ... added
    left to right: the order `_jq_columns` keeps, and the same floats on any
    CPU, which a BLAS product is not."""
    out = []
    for i in range(0, d * d, d):
        for j in range(d):
            s = J[i] * Q[j]
            for k in range(1, d):
                s = s + J[i + k] * Q[k * d + j]
            out.append(s)
    return out


@functools.lru_cache(maxsize=None)
def _tangent_formula(field_fn, jacobian_fn, d: int, n_field_consts: int):
    """The formula Y -> [f(y), J(y) Q] of a field and a Jacobian formula, one
    function per pair, so that the step loop traced from it is generated once."""

    def tangent(Y, *consts):
        y = Y[:d]
        f = field_fn(y, *consts[:n_field_consts])
        return [*f, *_jq(jacobian_fn(y, *consts[n_field_consts:]), Y[d:], d)]

    return tangent


def _tangent_kernel(field, jacobian, d: int):
    """Float kernel of the state and its frame: y' = f(y), Q' = J(y) Q.

    Y holds y followed by the d x d frame row-major; J Q is `_jq`.  When both
    callables carry a formula, the kernel is that of `_tangent_formula` on
    their constants joined, and the step loop writes f, J and J Q into every
    stage; otherwise it calls the two float kernels, with the same bits.
    """
    field_formula, jacobian_formula = getattr(field, "formula", None), getattr(jacobian, "formula", None)
    if field_formula and jacobian_formula:
        (field_fn, field_consts), (jacobian_fn, jacobian_consts) = field_formula, jacobian_formula
        fn = _tangent_formula(field_fn, jacobian_fn, d, len(field_consts))
        return _formula_kernel((fn, (*field_consts, *jacobian_consts)))
    field_kernel, jacobian_kernel = _float_kernel(field), _float_kernel(jacobian)

    def tangent(t, Y):
        y = Y[:d]
        return [*field_kernel(t, y), *_jq(jacobian_kernel(t, y), Y[d:], d)]

    return tangent


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
    out_stride when given.  When the run fails, the log and trajectory so far
    are attached to the raised IntegrationError as ``partial_log`` /
    ``partial_traj``.
    """
    events = _Events(t0, t1, out_stride, float(renorm_interval))
    _check_frames([bundle0])
    d = bundle0.base.size
    Y0 = bundle0.base.tolist() + bundle0.frame.ravel().tolist()
    stepper = _Stepper(_tangent_kernel(field, jacobian, d), t0, Y0, cfg)
    log, traj = _run_events(stepper, events, d)
    frame = np.array(stepper.y[d:]).reshape(d, d)
    return TangentBundle(base=np.array(stepper.y[:d]), frame=frame), log, traj


def _combination(weights, K):
    """The sum of w * K[s] over the (stage s, weight w) rows, added left to
    right as Python adds ``a + b + c``."""
    (s, w), *rest = weights
    total = w * K[s]
    for s, w in rest:
        total = total + w * K[s]
    return total


def _jq_columns(J, Q) -> np.ndarray:
    """J Q for a block: J is (d, d, n) with member m's entry [i, k] at
    [i, k, m], Q (d*d, n) the members' frames row-major in columns, and so
    is the result.  One broadcast product, then the terms added over k left
    to right in place, as `_jq` adds them."""
    d, n = J.shape[0], J.shape[2]
    products = J[:, :, None] * Q.reshape(d, d, n)  # [i, k, j, m] = J[i, k, m] * Q[k * d + j, m]
    jq = products[:, 0].copy()
    for k in range(1, d):
        np.add(jq, products[:, k], out=jq)
    return jq.reshape(d * d, n)


def _block_derivative(field, jacobian, t, Y: np.ndarray, K: np.ndarray, d: int):
    """K = [f(y), J(y) Q] for a block Y of augmented states, one member per
    column; field and jacobian are column kernels and read rows 0..d-1."""
    K[:d] = field(t, Y[:d])
    K[d:] = _jq_columns(np.array(jacobian(t, Y[:d])).reshape(d, d, -1), Y[d:])


class _Dp54Block:
    """DP54's `_Stepper.step_to` and `_run_events` on a block of tangent runs
    that share one schedule: every array holds the components in rows and
    member i in column i, as the column kernels read and write them.

    Each member keeps its own place in the schedule (`ev`).  `run` returns
    each member's (final bundle, RenormLog, Trajectory-or-None), or None for
    a member dropped because its next attempt would fail: its step budget is
    spent, its new state leaves the finite range or +-`BLOWUP_THRESHOLD`, a
    rejected step falls below h_min, or its frame degenerates at a renorm.
    A member that is done or dropped stays in the block with h = 0 and its
    last state, so the column kernels always see every member.
    """

    def __init__(self, field, jacobian, bundles0, t0, events: _Events, cfg):
        self.field, self.jacobian, self.cfg, self.events = field, jacobian, cfg, events
        n = len(bundles0)
        d = self.d = bundles0[0].base.size
        self.n_ev = events.times.size
        # Per stop k: its time and snap tolerance, with a sentinel past the
        # end that keeps the lookups of finished members in range.
        self.ev_t = np.append(events.times, math.inf)
        self.ev_snap = np.append(1e-13 * np.maximum(1.0, np.abs(events.times)), 0.0)

        self.Y = np.stack([np.concatenate((b.base, b.frame.ravel())) for b in bundles0], axis=1)
        self.samples = np.empty((n, np.count_nonzero(events.sampled) + 1, d))
        self.samples[:, 0], self.n_samples = self.Y[:d].T, np.ones(n, dtype=int)
        self.log_rows = [[] for _ in range(n)]

        self.t = np.full(n, float(t0))
        self.K1 = np.empty_like(self.Y)
        _block_derivative(field, jacobian, self.t, self.Y, self.K1, d)
        self.Ks = [np.empty_like(self.Y) for _ in range(6)]  # stages 2..7
        self.h_prop = np.full(n, cfg.h_init)
        self.taken = np.zeros(n, dtype=int)
        self.rejected = np.zeros(n, dtype=int)
        self.ev = np.zeros(n, dtype=int)
        self.active = np.ones(n, dtype=bool)
        self.results = [None] * n

    def _renorm(self, idx: np.ndarray):
        """Renormalize the frames of members idx, drop those that lost rank
        and, as `_Stepper.refresh_derivative` does, recompute the others'
        derivative's frame part at their unchanged base states."""
        d, Y = self.d, self.Y
        q, logs, full = _renorm_frames(Y[d:, idx].T.reshape(idx.size, d, d))
        self.active[idx[~full]] = False
        idx = idx[full]
        for i, row in zip(idx.tolist(), logs):
            self.log_rows[i].append(row)
        Y[d:, idx] = q.reshape(idx.size, -1).T
        J = np.array(self.jacobian(self.t, Y[:d])).reshape(d, d, -1)
        self.K1[d:, idx] = _jq_columns(J[:, :, idx], Y[d:, idx])

    def _reach_events(self):
        """Take each active member that stands within snap of its next stop,
        the lone run's arrival test, to that stop: sample, renormalize, finish
        at the last one; repeat until no member is left to take."""
        d, ev_t, ev_snap = self.d, self.ev_t, self.ev_snap
        while (idx := np.flatnonzero(self.active & (ev_t[self.ev] - self.t <= ev_snap[self.ev]))).size:
            e = self.ev[idx]
            self.t[idx] = ev_t[e]
            i_s = idx[self.events.sampled[e]]
            self.samples[i_s, self.n_samples[i_s]] = self.Y[:d, i_s].T
            self.n_samples[i_s] += 1
            renorm = self.events.renormed[e]
            if renorm.any():
                self._renorm(idx[renorm])
            self.ev[idx] = e + 1
            for i in idx[e + 1 == self.n_ev].tolist():
                if self.active[i]:
                    bundle = TangentBundle(
                        base=self.Y[:d, i].copy(), frame=self.Y[d:, i].reshape(d, d).copy()
                    )
                    self.results[i] = (bundle,) + self.events.results(
                        self.samples[i, : self.n_samples[i]], self.log_rows[i], self.taken[i], self.rejected[i]
                    )
                    self.active[i] = False

    def run(self) -> list:
        cfg, Y, K1, t, active, d = self.cfg, self.Y, self.K1, self.t, self.active, self.d
        field, jacobian = self.field, self.jacobian
        atol, rtol = cfg.abs_tol, cfg.rel_tol
        K = [None, K1] + self.Ks  # K[s] holds stage s
        with np.errstate(all="ignore"):
            while True:
                self._reach_events()
                active &= self.taken + self.rejected < cfg.max_steps
                if not active.any():
                    return self.results

                target, snap = self.ev_t[self.ev], self.ev_snap[self.ev]
                remaining = target - t
                capped = self.h_prop >= remaining
                h = np.where(active, np.where(capped, remaining, self.h_prop), 0.0)
                for s, (c, weights) in enumerate(_STAGES, start=2):
                    _block_derivative(field, jacobian, t + c * h, Y + h * _combination(weights, K), K[s], d)
                t_new = t + h
                Y_new = Y + h * _combination(_WEIGHTS, K)
                _block_derivative(field, jacobian, t_new, Y_new, K[7], d)
                scale = atol + rtol * np.maximum(np.abs(Y), np.abs(Y_new))
                r = h * _combination(_ERROR_WEIGHTS, K) / scale
                err = np.sqrt(np.cumsum(r * r, axis=0)[-1] / Y.shape[0])

                # A non-finite stage state makes Y_new non-finite, and a NaN
                # makes a maximum NaN, which fails the comparison.
                if not np.abs(Y_new).max() <= BLOWUP_THRESHOLD:
                    active &= np.abs(Y_new).max(axis=0) <= BLOWUP_THRESHOLD

                accept = active & (err <= 1.0)
                reject = active & ~accept
                factors = [_controller_factor(x) for x in err[active].tolist()]  # members that attempted a step
                h_next = np.zeros_like(h)
                h_next[active] = np.minimum(h[active] * factors, cfg.h_max)
                np.copyto(t_new, target, where=np.abs(t_new - target) <= snap)
                np.copyto(t, t_new, where=accept)
                np.copyto(Y, Y_new, where=accept)
                np.copyto(K1, K[7], where=accept)
                self.taken += accept
                self.rejected += reject
                np.copyto(self.h_prop, h_next, where=reject | (accept & ~capped))
                active &= ~(reject & (self.h_prop < cfg.h_min))


def _columns(callables):
    """The column kernel ``(t, cols) -> columns`` of a block of systems, or None.

    Each callable must carry ``formula = (fn, constants)`` with one and the
    same fn and number of constants (see `model`); the column kernel is the
    kernel of fn with constant k the column of the members' k-th constants,
    run on the state as d numpy columns, so entry i gets the bits of member
    i's own float kernel.
    """
    formulas = [getattr(f, "formula", None) for f in callables]
    if None in formulas or len({(fn, len(c)) for fn, c in formulas}) != 1:
        return None
    constants = tuple(np.array(column, dtype=float) for column in zip(*(c for _, c in formulas)))
    return _formula_kernel((formulas[0][0], constants))


def integrate_tangent_block(
    fields,
    jacobians,
    bundles0,
    t0: float,
    t1: float,
    renorm_interval: float,
    cfg: IntegratorConfig,
    out_stride: float | None = None,
) -> list:
    """The tangent runs of a set of systems over one schedule.

    Member i starts from bundles0[i] under fields[i] and jacobians[i], and
    gets exactly what `integrate_with_tangents` gives it alone, bit for bit:
    the tuple (final bundle, RenormLog, Trajectory-or-None), or the
    IntegrationError its own run raises, with its ``partial_log`` /
    ``partial_traj``.  The route is chosen here: at least `_MIN_BATCH` DP54
    members whose fields and Jacobians each share one formula (`_columns`)
    run as one `_Dp54Block`, any other set one run per member.  A member the
    block drops, because it would fail, runs alone too, so its error comes
    from its own run.
    """
    events = _Events(t0, t1, out_stride, float(renorm_interval))
    _check_frames(bundles0)
    outcomes = [None] * len(bundles0)
    if len(bundles0) >= _MIN_BATCH and cfg.method == "adaptive-DP54":
        field, jacobian = _columns(fields), _columns(jacobians)
        if field and jacobian:
            outcomes = _Dp54Block(field, jacobian, bundles0, t0, events, cfg).run()
    for i, (field, jacobian, bundle0) in enumerate(zip(fields, jacobians, bundles0)):
        if outcomes[i] is None:
            try:
                outcomes[i] = integrate_with_tangents(
                    field, jacobian, bundle0, t0, t1, renorm_interval, cfg, out_stride
                )
            except IntegrationError as exc:
                outcomes[i] = exc
    return outcomes
