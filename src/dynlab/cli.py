"""Command-line surface: dynlab <command> --config cfg.json [--set k=v ...].

Commands: simulate, verify, reduce, lyapunov, scan, equilibrium.  A run is
described by one JSON document; --set overrides single keys via dotted paths
(--set params.C=-2.5).  Identical config + seed reproduces outputs byte for
byte.

A command writes nothing: it returns its exit code and its files as
{name: text}.  `main` makes the output directory and writes the files after
the command returns, each atomically (to <name>.partial, then renamed), so a
plain file name never holds a half-written result and a run that ends
without outputs leaves no directory behind.

The whole config is checked first, every section whatever the command,
because one config document serves every command: every number must be
finite; times.t_transient, verify.samples, verify.tolerance, reduce.zero_tol,
scan.extrema_cap and scan.eps_zero must be >= 0; times.t_total,
times.out_stride, lyapunov.renorm_interval and verify.horizon must be > 0;
output.format must be csv or json; params must give C, D, E and F; the
integrator section must make an IntegratorConfig; the samples of a run
over [0, times.t_total], those of verify's flow checks over
[0, verify.horizon] and verify's random states must fit in memory; the start
must be finite.  So `verify` refuses times.out_stride = 0, which it does not
read.  The start is resolved once, for every command, as the full 5-D y0
and the K of a start given on a K-plane (a reduced start, lifted here), or
None; a start whose lift is not finite is refused with the others.  Exit 3
is decided next, without making anything: the nearest existing ancestor of
the output directory must be a directory this process may write.  A command
then checks only what is its own: lyapunov's t_total > t_transient, scan's
flags, its window and a reduced start for a K-scan, and E != 0 for
equilibrium.  So a run that its command refuses exits 3, not 2, when its
output directory cannot be written.  simulate and lyapunov run the reduced
system from the projection of y0 when K is given, a K-scan scans from that
projection, and the other commands use y0 as it is; building the reduced
system refuses a K whose 1 + K^2 is not finite (exit 2).

Exit codes: 0 success; 1 verify found a failed identity; 2 invalid config;
3 unwritable output; 4 integration failure: blow-up, step budget spent or
step below h_min, verify's flow runs included (simulate keeps its partial
trajectory with a .partial suffix, lyapunov its report marked diverged,
with the error, its message and t as simulate's run.json gives them, and
the trace of the intervals that completed); 5 initial state not on a limit
set, or its two ratios disagree (reduce).
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from .analysis import ScanSettings, equilibrium_stability, lyapunov_spectrum, parameter_scan
from .errors import (
    ConfigError,
    DegenerateParametersError,
    DynlabError,
    IntegrationError,
    NotOnLimitSetError,
    RatioInconsistencyError,
)
from .integrator import IntegratorConfig, check_schedule, integrate
from .invariants import check_suite, verification_suite
from .model import Params, equilibrium, full_system, lift, project, reduced_system
from .reduction import compare_full_vs_reduced, k_drift

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_OUTPUT = 3
EXIT_BLOWUP = 4
EXIT_NOT_ON_LIMIT_SET = 5

# Each section's keys and defaults; a key's value in a config must have its
# default's kind (str, int or float), a None default means an optional float
# and a `float` default a required one.
_DEFAULTS = {
    "params": dict.fromkeys("CDEF", float),
    "initial_state": {"random": {"box": [-5.0, 5.0]}},
    "integrator": asdict(IntegratorConfig()),
    "times": {"t_transient": 200.0, "t_total": 2200.0, "out_stride": 0.1},
    "lyapunov": {"renorm_interval": 1.0},
    "verify": {"samples": 20000, "tolerance": None, "horizon": 20.0},
    "reduce": {"zero_tol": None},
    "scan": {"extrema_cap": 64, "eps_zero": 1e-3},
    "seed": 0,
    "output": {"directory": ".", "format": "csv"},
}

# The range of each number that has one; the others may take any finite value.
_RANGES = {
    "times": {"t_transient": ">= 0", "t_total": "> 0", "out_stride": "> 0"},
    "lyapunov": {"renorm_interval": "> 0"},
    "verify": {"samples": ">= 0", "tolerance": ">= 0", "horizon": "> 0"},
    "reduce": {"zero_tol": ">= 0"},
    "scan": {"extrema_cap": ">= 0", "eps_zero": ">= 0"},
    "output": {"format": "'csv' or 'json'"},
}
_RULES = {">= 0": lambda v: v >= 0, "> 0": lambda v: v > 0, "'csv' or 'json'": lambda v: v in ("csv", "json")}

# Each initial_state variant and the length of its vector (random has none).
_STATE_VARIANTS = {"full": 5, "reduced": 3, "equilibrium_offset": 5, "random": None}


# --- config handling -------------------------------------------------------


def _require_keys(section: dict, allowed, where: str):
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def _as_number(value, where: str) -> float:
    # abs(value) <= max also refuses NaN and an int past the float range.
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return float(value)


def _as_vector(value, n: int, where: str) -> list[float]:
    if not isinstance(value, list) or len(value) != n:
        raise ConfigError(f"{where} must be a list of {n} numbers")
    return [_as_number(v, where) for v in value]


def _as_kind(value, default, where: str):
    """value checked against the kind of its default (see _DEFAULTS)."""
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigError(f"{where} must be a string")
        return value
    if isinstance(default, int):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{where} must be an integer")
        return value
    if default is None and value is None:
        return None
    return _as_number(value, where)


def normalize_config(raw: dict) -> dict:
    """Validate a raw config dict and fill defaults; rejects unknown keys, a
    missing parameter, a value out of its range (`_RANGES`) and an invalid
    integrator section.

    The returned dict is complete and JSON-stable: writing it back out and
    re-parsing reproduces the same run.  A top-level "stats" key (written by
    sidecar echoes) is accepted and ignored.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _require_keys(raw, list(_DEFAULTS) + ["stats"], "config")
    cfg = {}
    for section in ("params", "integrator", "times", "lyapunov", "verify", "reduce", "scan", "output"):
        given = raw.get(section, {})
        if not isinstance(given, dict):
            raise ConfigError(f"{section} must be an object")
        defaults = _DEFAULTS[section]
        _require_keys(given, defaults, section)
        merged = dict(defaults)
        for k, v in given.items():
            merged[k] = _as_kind(v, defaults[k], f"{section}.{k}")
        for k, v in merged.items():
            if v is float:
                raise ConfigError(f"{section}.{k} is required")
        for k, rule in _RANGES.get(section, {}).items():
            v = merged[k]
            if v is not None and not _RULES[rule](v):
                raise ConfigError(f"{section}.{k} must be {rule}, got {v!r}")
        cfg[section] = merged

    state = copy.deepcopy(raw.get("initial_state", _DEFAULTS["initial_state"]))
    if not isinstance(state, dict):
        raise ConfigError("initial_state must be an object")
    variants = [k for k in state if k in _STATE_VARIANTS]
    if len(variants) != 1:
        raise ConfigError(
            f"initial_state needs exactly one of {tuple(_STATE_VARIANTS)}, got {sorted(state)}"
        )
    variant = variants[0]
    _require_keys(state, (variant, "K") if variant == "reduced" else (variant,), "initial_state")
    if variant != "random":
        state[variant] = _as_vector(state[variant], _STATE_VARIANTS[variant], f"initial_state.{variant}")
        if variant == "reduced":
            state["K"] = _as_number(state.get("K", 0.0), "initial_state.K")
    else:
        box = state["random"]
        if not isinstance(box, dict):
            raise ConfigError("initial_state.random must be an object")
        _require_keys(box, ("box",), "initial_state.random")
        b = box.get("box", [-5.0, 5.0])
        if isinstance(b, list) and len(b) == 2 and all(isinstance(v, (int, float)) for v in b):
            box["box"] = [_as_number(v, "random.box") for v in b]
        else:
            if not isinstance(b, list) or len(b) != 5:
                raise ConfigError("random.box must be [lo, hi] or five [lo, hi] pairs")
            box["box"] = [_as_vector(pair, 2, "random.box[i]") for pair in b]
    cfg["initial_state"] = state

    try:
        IntegratorConfig(**cfg["integrator"])
    except ValueError as exc:
        raise ConfigError(f"integrator: {exc}") from exc
    # The sample and renorm times of a run over the whole window must fit in
    # memory, and so must verify's flow samples and random states.
    times = cfg["times"]
    check_schedule(0.0, times["t_total"], times["out_stride"], cfg["lyapunov"]["renorm_interval"])
    try:
        check_suite(cfg["verify"]["samples"], cfg["verify"]["horizon"])
    except ValueError as exc:
        raise ConfigError(f"verify.{exc}") from exc

    seed = raw.get("seed", _DEFAULTS["seed"])
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0 or seed >= 2**64:
        raise ConfigError("seed must be an unsigned 64-bit integer")
    cfg["seed"] = seed
    return cfg


def apply_overrides(raw: dict, sets: list[str]) -> dict:
    """Apply --set dotted.path=value overrides (values parsed as JSON)."""
    raw = copy.deepcopy(raw)
    for item in sets:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        path, _, text = item.partition("=")
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        node = raw
        keys = path.split(".")
        for k in keys[:-1]:
            node = node.setdefault(k, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set path {path!r} crosses a non-object")
        node[keys[-1]] = value
    return raw


def resolve_initial_state(cfg: dict, p: Params):
    """Return (y0, K): the full 5-D start and, for a start given on a
    K-plane (a reduced one), its K, else None.  A reduced start is lifted
    here; a start past the float range is refused."""
    state = cfg["initial_state"]
    K = state.get("K")
    with np.errstate(over="ignore"):  # a start past the float range is refused below
        if "full" in state:
            y0 = np.array(state["full"], dtype=float)
        elif "reduced" in state:
            y0 = lift(state["reduced"], K)
        elif "equilibrium_offset" in state:  # equilibrium(p) refuses E = 0
            y0 = equilibrium(p) + np.array(state["equilibrium_offset"], dtype=float)
        else:
            box = state["random"]["box"]
            lo, hi = np.array(box).T
            try:
                y0 = np.random.Generator(np.random.Philox(cfg["seed"])).uniform(lo, hi, 5)
            except OverflowError:  # numpy's refusal of a box wider than the float range
                raise ConfigError(f"initial_state.random.box {box!r} is wider than the float range") from None
    if not np.all(np.isfinite(y0)):
        raise ConfigError(f"initial_state gives a start that is not finite: {y0.tolist()!r}")
    return y0, K


# --- output helpers --------------------------------------------------------


def _fmt(x: float) -> str:
    """Shortest decimal that round-trips the binary64 value."""
    return repr(float(x))


def _write_text(path: str, text: str):
    tmp = path + ".partial"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _csv_text(header: list[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _out_dir(cfg: dict, override: str | None) -> str:
    """The output directory, once it is known that it can be made and written:
    its nearest existing ancestor must be a directory this process may write
    and enter.  Makes nothing."""
    directory = override if override is not None else cfg["output"]["directory"]
    ancestor = os.path.abspath(directory)
    while not os.path.lexists(ancestor):  # a dangling link is not a directory
        ancestor = os.path.dirname(ancestor)
    if not (directory and os.path.isdir(ancestor) and os.access(ancestor, os.W_OK | os.X_OK)):
        raise OSError(f"{directory!r} cannot be made or written (nearest existing path: {ancestor!r})")
    return directory


def _stats(traj) -> dict:
    return {
        "steps_taken": traj.steps_taken,
        "steps_rejected": traj.steps_rejected,
        "samples": int(traj.times.size),
        "dimension": traj.dimension,
    }


def _trajectory_file(cfg: dict, traj) -> tuple[str, str]:
    """(file name, text) of a trajectory in the configured format."""
    header = ["t"] + [f"y{i + 1}" for i in range(traj.dimension)]
    rows = [[t] + y for t, y in zip(traj.times.tolist(), traj.states.tolist())]
    if cfg["output"]["format"] == "csv":
        return "trajectory.csv", _csv_text(header, rows)
    return "trajectory.json", _json_text({"columns": header, "rows": rows})


def _failure(exc: IntegrationError) -> dict:
    """The keys a failed run's report gives its failure."""
    return {"error": type(exc).__name__, "message": str(exc), "t": exc.t}


def _run_system(p: Params, y0, K):
    """(system, start) of a simulate or lyapunov run: the full system from y0,
    or for a start given on a K-plane the reduced one from its projection."""
    return (full_system(p), y0) if K is None else (reduced_system(p, K), project(y0, K))


# --- commands ---------------------------------------------------------------

# Each command takes the checked config, the Params, IntegratorConfig and
# start (y0, K) built from it, and the parsed arguments.  It
# returns its exit code and its output files as {file name: text}, and
# writes nothing: `main` does.


def cmd_simulate(cfg: dict, p: Params, icfg: IntegratorConfig, y0, K, args):
    system, start = _run_system(p, y0, K)
    try:
        traj = integrate(system.field, start, 0.0, cfg["times"]["t_total"], cfg["times"]["out_stride"], icfg)
    except IntegrationError as exc:  # it carries the samples so far
        name, text = _trajectory_file(cfg, exc.partial_traj)
        diag = {**_failure(exc), "partial_file": name + ".partial"}
        print(f"dynlab simulate: {exc}", file=sys.stderr)
        return EXIT_BLOWUP, {diag["partial_file"]: text, "run.json": _json_text({**cfg, "stats": diag})}
    name, text = _trajectory_file(cfg, traj)
    return EXIT_OK, {name: text, "run.json": _json_text({**cfg, "stats": _stats(traj)})}


def cmd_verify(cfg: dict, p: Params, icfg: IntegratorConfig, y0, K, args):
    reports = verification_suite(p, seed=cfg["seed"], cfg=icfg, **cfg["verify"])  # samples, tolerance, horizon
    payload = {
        name: {"max_residual": rep.max_rel_residual, "pass": rep.passed}
        for name, rep in reports.items()
    }
    code = EXIT_OK if all(rep.passed for rep in reports.values()) else EXIT_VERIFY_FAILED
    return code, {"verify_report.json": _json_text(payload)}


def cmd_reduce(cfg: dict, p: Params, icfg: IntegratorConfig, y0, K, args):
    t_total, stride = cfg["times"]["t_total"], cfg["times"]["out_stride"]
    zero_tol = cfg["reduce"]["zero_tol"]
    comparison = compare_full_vs_reduced(y0, p, t_total, stride, icfg, zero_tol=zero_tol)
    drift = k_drift(comparison.full_trajectory, zero_tol=zero_tol)
    drift_rows = zip(drift.times.tolist(), drift.estimates.tolist())
    report = {
        "K": {"kind": comparison.K.kind, "value": comparison.K.value},
        "max_state_deviation": comparison.max_state_deviation,
        "horizon": comparison.horizon,
        "tol_used": comparison.tol_used,
        "drift_file": "k_drift.csv",
    }
    return EXIT_OK, {"k_drift.csv": _csv_text(["t", "K"], drift_rows), "reduce_report.json": _json_text(report)}


def cmd_lyapunov(cfg: dict, p: Params, icfg: IntegratorConfig, y0, K, args):
    system, start = _run_system(p, y0, K)
    t_transient, t_total = cfg["times"]["t_transient"], cfg["times"]["t_total"]
    renorm_interval = cfg["lyapunov"]["renorm_interval"]
    if not t_total > t_transient:
        raise ConfigError("lyapunov requires times.t_total > times.t_transient")
    report = lyapunov_spectrum(system, start, t_transient, t_total, renorm_interval, icfg)
    d = system.dim
    header = ["t"] + [f"lambda{i + 1}" for i in range(d)]
    rows = ([t] + row for t, row in zip(report.trace_times.tolist(), report.convergence_trace.tolist()))
    summary = {
        "exponents": [float(v) for v in report.exponents],
        "t_total": report.t_total,
        "renorm_interval": report.renorm_interval,
        "diverged": report.diverged,
        "trace_file": "lyapunov_trace.csv",
    }
    if report.diverged:  # the report keeps the intervals that completed
        summary.update(_failure(report.error))
        n = len(report.trace_times)
        print(f"dynlab lyapunov: run failed after {n} renorm intervals: {report.error}", file=sys.stderr)
    code = EXIT_BLOWUP if report.diverged else EXIT_OK
    return code, {"lyapunov_trace.csv": _csv_text(header, rows), "lyapunov_report.json": _json_text(summary)}


_GNUPLOT_TEMPLATE = """\
# Bifurcation diagram: local maxima of y1 against the swept parameter.
set datafile separator comma
set xlabel "{param}"
set ylabel "y1 local maxima"
set key off
plot "scan_extrema.csv" every ::1 using 1:2 with dots lc rgb "black"
"""


def cmd_scan(cfg: dict, p: Params, icfg: IntegratorConfig, y0, K, args):
    param = args.param
    if param == "K":
        if K is None:
            raise ConfigError("a K-scan (--param K) needs a reduced initial_state")
        y0 = project(y0, K)
    try:  # numpy refuses a negative count and one that no array can hold
        np.empty(args.steps)
    except (MemoryError, OverflowError, ValueError):
        raise ConfigError(f"--steps must be >= 0 and fit in an array, got {args.steps}") from None
    settings = ScanSettings(
        y0=tuple(y0.tolist()),
        **cfg["times"],  # t_transient, t_total, out_stride
        **cfg["scan"],  # extrema_cap, eps_zero
        renorm_interval=cfg["lyapunov"]["renorm_interval"],
        integrator=icfg,
        workers=args.workers,
    )
    with np.errstate(all="ignore"):  # a range past the float range gives inf and NaN, refused below
        values = np.linspace(args.min, args.max, args.steps) if args.steps else []
    if not np.all(np.isfinite(values)):
        raise ConfigError("--min and --max must give finite scan values")
    records = parameter_scan(p, param, values, args.policy, settings)

    header = ["param", "classification"] + [f"lambda{i + 1}" for i in range(len(y0))]
    rec_rows = []
    ext_rows = []
    for rec in records:
        rec_rows.append([rec.param_value, rec.classification] + [float(v) for v in rec.exponents])
        if rec.error is not None:  # its message names the t the run stopped at
            cause = f"{type(rec.error).__name__}: {rec.error}"
            print(f"dynlab scan: {param} = {rec.param_value!r} diverged: {cause}", file=sys.stderr)
        for ex in rec.extrema_sample:
            ext_rows.append([rec.param_value, float(ex)])
    files = {
        "scan_records.csv": _csv_text(header, rec_rows),
        "scan_extrema.csv": _csv_text(["param", "extremum"], ext_rows),
    }
    if args.gnuplot:
        files["scan.gp"] = _GNUPLOT_TEMPLATE.format(param=param)
    return EXIT_OK, files


def cmd_equilibrium(cfg: dict, p: Params, icfg: IntegratorConfig, y0, K, args):
    text = _json_text(
        {
            "equilibrium": [float(v) for v in equilibrium(p)],  # refuses E = 0
            "eigenvalues": [{"re": float(w.real), "im": float(w.imag)} for w in equilibrium_stability(p)],
        }
    )
    print(text, end="")
    return EXIT_OK, {"equilibrium_report.json": text}


_COMMANDS = {
    "simulate": cmd_simulate,
    "verify": cmd_verify,
    "reduce": cmd_reduce,
    "lyapunov": cmd_lyapunov,
    "scan": cmd_scan,
    "equilibrium": cmd_equilibrium,
}


# --- entry point -------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynlab",
        description="Simulate and verify the averaged pendulum-motor system.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="path to the JSON run config")
        sp.add_argument(
            "--set",
            action="append",
            default=[],
            dest="sets",
            metavar="KEY=VALUE",
            help="override a config key via dotted path, e.g. params.C=-2.5",
        )
        sp.add_argument("--out", default=None, help="output directory override")
        if name == "scan":
            sp.add_argument("--param", required=True, choices=list("CDEF") + ["K"])
            sp.add_argument("--min", type=float, required=True)
            sp.add_argument("--max", type=float, required=True)
            sp.add_argument("--steps", type=int, required=True)
            sp.add_argument("--policy", choices=("fixed", "follow"), default="fixed")
            sp.add_argument("--workers", type=int, default=None)
            sp.add_argument("--gnuplot", action="store_true")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"dynlab: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = normalize_config(apply_overrides(raw, args.sets))
        p = Params(**cfg["params"])
        y0, K = resolve_initial_state(cfg, p)
        directory = _out_dir(cfg, args.out)
        code, files = _COMMANDS[args.command](cfg, p, IntegratorConfig(**cfg["integrator"]), y0, K, args)
        os.makedirs(directory, exist_ok=True)
        for name, text in files.items():
            _write_text(os.path.join(directory, name), text)
        return code
    except (ConfigError, DegenerateParametersError, ValueError) as exc:
        print(f"dynlab: invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"dynlab: cannot write output: {exc}", file=sys.stderr)
        return EXIT_OUTPUT
    except (NotOnLimitSetError, RatioInconsistencyError) as exc:
        print(f"dynlab: {exc}", file=sys.stderr)
        return EXIT_NOT_ON_LIMIT_SET
    except IntegrationError as exc:
        print(f"dynlab: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except DynlabError as exc:
        print(f"dynlab: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
