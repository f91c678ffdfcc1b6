"""Spans around dynlab's public callables, recorded from outside the program.

`Tracer.install()` swaps each traced callable for a wrapper in every dynlab
module that holds a reference to it, and restores the originals on exit.
Coarse calls (integrate, cli.main, ...) become spans with a parent; the
vector-field and Jacobian callables are far too frequent to keep one span
each, so they are counted and timed into the innermost open span instead.
Spans stay in memory; the runner derives the per-layer metrics from them.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import dataclass, field

from metrics import self_time

# Layer calls whose result carries work counts.
SPAN_NAMES = (
    "integrate",
    "integrate_with_tangents",
    "check_trajectory",
    "verification_suite",
    "compare_full_vs_reduced",
    "k_drift",
    "parameter_scan",
)
SYSTEM_FACTORIES = ("full_system", "reduced_system")
MODULES = (
    "dynlab",
    "dynlab.model",
    "dynlab.integrator",
    "dynlab.invariants",
    "dynlab.reduction",
    "dynlab.analysis",
    "dynlab.cli",
)


@dataclass
class Span:
    name: str
    start: float
    parent: "Span | None"
    end: float = 0.0
    child_s: float = 0.0  # time covered by child spans and counted calls
    calls: dict = field(default_factory=dict)  # "field"/"jacobian" -> [count, seconds]
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self_time(self.duration, [self.child_s])


def _result_info(name: str, args, kwargs, result) -> dict:
    """Work counts a traced call's arguments and result reveal."""
    if name == "integrate":
        return {"steps_taken": result.steps_taken, "steps_rejected": result.steps_rejected}
    if name == "integrate_with_tangents":
        _, log, traj = result
        info = {"renorms": int(log.times.size)}
        if traj is not None:
            info.update(steps_taken=traj.steps_taken, steps_rejected=traj.steps_rejected)
        return info
    if name == "check_trajectory":
        return {"samples": int(args[0].times.size)}
    if name == "verification_suite":
        return {"samples": kwargs.get("samples", 20000)}
    return {}


class Tracer:
    """Records spans of one traced pass; `clock` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[Span] = []

    def span(self, name: str, fn, info=None):
        """Wrap fn so each call is one span; info(args, kwargs, result) -> dict."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            sp = Span(name, self.clock(), parent)
            self._open.append(sp)
            try:
                result = fn(*args, **kwargs)
            finally:
                sp.end = self.clock()
                self._open.pop()
                if parent is not None:
                    parent.child_s += sp.duration
                self.spans.append(sp)
            if info is not None:
                sp.info.update(info(args, kwargs, result))
            return result

        return wrapper

    def counted(self, name: str, fn):
        """Wrap fn so its calls are counted and timed into the open span."""
        clock = self.clock
        stack = self._open

        def wrapper(*args):
            t0 = clock()
            try:
                return fn(*args)
            finally:
                dt = clock() - t0
                if stack:
                    sp = stack[-1]
                    entry = sp.calls.setdefault(name, [0, 0.0])
                    entry[0] += 1
                    entry[1] += dt
                    sp.child_s += dt

        return wrapper

    @contextlib.contextmanager
    def install(self):
        """Trace dynlab's public layer boundaries for the duration of the block."""
        import dynlab
        import dynlab.cli
        from dynlab.model import DynamicalSystem

        mods = [sys.modules[m] for m in MODULES]
        swaps = {}
        for name in SPAN_NAMES:
            original = getattr(dynlab, name)
            swaps[name] = (
                original,
                self.span(name, original, functools.partial(_result_info, name)),
            )
        for name in SYSTEM_FACTORIES:
            factory = getattr(dynlab.model, name)

            def traced_factory(*args, _factory=factory):
                system = _factory(*args)
                return DynamicalSystem(
                    field=self.counted("field", system.field),
                    jacobian=self.counted("jacobian", system.jacobian),
                    dim=system.dim,
                )

            swaps[name] = (factory, traced_factory)
        main = dynlab.cli.main
        swaps["main"] = (main, self._cli_main(main))

        restore = []
        try:
            for name, (original, wrapper) in swaps.items():
                for mod in mods:
                    if getattr(mod, name, None) is original:
                        setattr(mod, name, wrapper)
                        restore.append((mod, name, original))
            yield self
        finally:
            for mod, name, original in restore:
                setattr(mod, name, original)

    def _cli_main(self, main):
        def traced_main(argv):
            return self.span("cli." + argv[0], main)(argv)

        return traced_main


# The layer calls each CLI command exists to make; the rest of its wall time
# is CLI overhead (parsing, glue, output writing, and any repeated work).
CLI_WRAPS = {
    "scan": ("parameter_scan",),
    "simulate": ("integrate",),
    "reduce": ("compare_full_vs_reduced", "k_drift"),
    "verify": ("verification_suite",),
    "lyapunov": ("integrate", "integrate_with_tangents"),
    "equilibrium": (),
}

# FSAL DP54 makes six fresh field evaluations per attempted step.
DP54_EVALS_PER_STEP = 6


def _calls(sp: Span, kind: str) -> tuple[int, float]:
    n, s = sp.calls.get(kind, (0, 0.0))
    return n, s


def _attempted_steps(sp: Span) -> float:
    """Attempted steps of an integrator span.

    Taken from the returned trajectory when there is one.  A tangent run
    without sampling returns none; its count follows from the evaluations:
    one at the start, one after each renormalisation, six per step.
    """
    if "steps_taken" in sp.info:
        return sp.info["steps_taken"] + sp.info["steps_rejected"]
    evals = _calls(sp, "field")[0]
    return (evals - 1 - sp.info.get("renorms", 0)) / DP54_EVALS_PER_STEP


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _mean_duration(spans) -> float:
    return _ratio(sum(sp.duration for sp in spans), len(spans))


def layer_metrics(spans: list[Span], traced_wall_s: float) -> dict:
    """Per-layer numbers of one traced pass; layers the pass never entered read 0."""
    by_name: dict[str, list[Span]] = {}
    children: dict[int, list[Span]] = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)
        if sp.parent is not None:
            children.setdefault(id(sp.parent), []).append(sp)
    out = {}

    kinds = {k: [0, 0.0] for k in ("field", "jacobian")}
    for sp in spans:
        for k, acc in kinds.items():
            n, s = _calls(sp, k)
            acc[0] += n
            acc[1] += s
    for k, (n, s) in kinds.items():
        out[f"model.{k}_calls"] = n
        out[f"model.{k}_us"] = 1e6 * _ratio(s, n)
    out["model.share"] = _ratio(kinds["field"][1] + kinds["jacobian"][1], traced_wall_s)

    plain = by_name.get("integrate", [])
    tangent = by_name.get("integrate_with_tangents", [])
    counted = [sp for sp in plain + tangent if "steps_taken" in sp.info]
    accepted = sum(sp.info["steps_taken"] for sp in counted)
    rejected = sum(sp.info["steps_rejected"] for sp in counted)
    out["integrator.steps_accepted"] = accepted
    out["integrator.steps_rejected"] = rejected
    out["integrator.accept_ratio"] = _ratio(accepted, accepted + rejected)
    out["integrator.evals_per_step"] = _ratio(
        sum(_calls(sp, "field")[0] for sp in counted), accepted + rejected
    )
    for key, group in (("self_us_per_step", plain), ("tangent_self_us_per_step", tangent)):
        out[f"integrator.{key}"] = 1e6 * _ratio(
            sum(sp.self_s for sp in group), sum(_attempted_steps(sp) for sp in group)
        )
    out["integrator.renorms"] = sum(sp.info["renorms"] for sp in tangent)

    checks = by_name.get("check_trajectory", [])
    out["invariants.check_us_per_sample"] = 1e6 * _ratio(
        sum(sp.duration for sp in checks), sum(sp.info["samples"] for sp in checks)
    )
    suites = by_name.get("verification_suite", [])
    out["invariants.verify_s"] = _mean_duration(suites)
    out["invariants.pointwise_us"] = 1e6 * _ratio(
        sum(sp.self_s for sp in suites), sum(sp.info["samples"] for sp in suites)
    )
    out["reduction.compare_s"] = _mean_duration(by_name.get("compare_full_vs_reduced", []))
    out["reduction.k_drift_s"] = _mean_duration(by_name.get("k_drift", []))

    for cmd, wraps in CLI_WRAPS.items():
        runs = by_name.get("cli." + cmd, [])
        overheads = [
            sp.duration
            - sum(c.duration for c in children.get(id(sp), []) if c.name in wraps)
            for sp in runs
        ]
        out[f"cli.overhead_s.{cmd}"] = _ratio(sum(overheads), len(overheads))
    return out
