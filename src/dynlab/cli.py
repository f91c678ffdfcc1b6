"""Command-line surface: dynlab <command> --config cfg.json [--set k=v ...].

Commands: simulate, verify, reduce, lyapunov, scan, equilibrium.  A run is
described by one JSON document; --set overrides single keys via dotted paths
(--set params.C=-2.5).  Outputs are CSV/JSON files written atomically
(write to <name>.partial, then rename), so a plain file name never holds a
half-written result.  Identical config + seed reproduces outputs byte for
byte.

The whole config is checked before any command creates its output
directory, every section whatever the command, because one config document
serves every command: every number must be finite; times.t_transient,
verify.samples, reduce.zero_tol, scan.extrema_cap and scan.eps_zero must be
>= 0; times.t_total, times.out_stride, lyapunov.renorm_interval and
verify.horizon must be > 0; the integrator section must make an
IntegratorConfig; the samples of a run over [0, times.t_total] and of
verify's flow checks over [0, verify.horizon] must fit in memory.  So
`verify` refuses times.out_stride = 0, which it does not read.  A command
then checks only what is its own: lyapunov's t_total > t_transient, scan's
flags, its window and a reduced start for a K-scan, and E != 0 for
equilibrium.

Exit codes: 0 success; 1 verify found a failed identity; 2 invalid config;
3 unwritable output; 4 integration failure: blow-up, step budget spent or
step below h_min (simulate keeps its partial trajectory with a .partial
suffix); 5 initial state not on a limit set, or its two ratios disagree
(reduce).
"""

from __future__ import annotations

import argparse
import copy
import json
import math
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
from .invariants import FLOW_STRIDE, verification_suite
from .model import Params, equilibrium, full_system, lift, reduced_system
from .reduction import compare_full_vs_reduced, k_drift

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_OUTPUT = 3
EXIT_BLOWUP = 4
EXIT_NOT_ON_LIMIT_SET = 5

# Each section's keys and defaults; a key's value in a config must have its
# default's kind (str, int or float), and a None default means an optional
# float.
_DEFAULTS = {
    "params": None,  # required
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
    "verify": {"samples": ">= 0", "horizon": "> 0"},
    "reduce": {"zero_tol": ">= 0"},
    "scan": {"extrema_cap": ">= 0", "eps_zero": ">= 0"},
}

_STATE_VARIANTS = ("full", "reduced", "equilibrium_offset", "random")


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
    number out of its range (`_RANGES`) and an invalid integrator section.

    The returned dict is complete and JSON-stable: writing it back out and
    re-parsing reproduces the same run.  A top-level "stats" key (written by
    sidecar echoes) is accepted and ignored.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _require_keys(raw, list(_DEFAULTS) + ["stats"], "config")
    cfg = {}

    if "params" not in raw or not isinstance(raw["params"], dict):
        raise ConfigError("config requires a 'params' object")
    _require_keys(raw["params"], ("C", "D", "E", "F"), "params")
    cfg["params"] = {
        k: _as_number(raw["params"].get(k, 0.0), f"params.{k}") for k in ("C", "D", "E", "F")
    }
    for k in ("C", "D", "E", "F"):
        if k not in raw["params"]:
            raise ConfigError(f"params.{k} is required")

    state = copy.deepcopy(raw.get("initial_state", _DEFAULTS["initial_state"]))
    if not isinstance(state, dict):
        raise ConfigError("initial_state must be an object")
    variants = [k for k in state if k in _STATE_VARIANTS]
    if len(variants) != 1:
        raise ConfigError(
            f"initial_state needs exactly one of {_STATE_VARIANTS}, got {sorted(state)}"
        )
    variant = variants[0]
    if variant == "full":
        _require_keys(state, ("full",), "initial_state")
        state["full"] = _as_vector(state["full"], 5, "initial_state.full")
    elif variant == "equilibrium_offset":
        _require_keys(state, ("equilibrium_offset",), "initial_state")
        state["equilibrium_offset"] = _as_vector(
            state["equilibrium_offset"], 5, "initial_state.equilibrium_offset"
        )
    elif variant == "reduced":
        _require_keys(state, ("reduced", "K"), "initial_state")
        state["reduced"] = _as_vector(state["reduced"], 3, "initial_state.reduced")
        state["K"] = _as_number(state.get("K", 0.0), "initial_state.K")
    else:  # random
        _require_keys(state, ("random",), "initial_state")
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
        state["random"] = box
    cfg["initial_state"] = state

    for section in ("integrator", "times", "lyapunov", "verify", "reduce", "scan"):
        given = raw.get(section, {})
        if not isinstance(given, dict):
            raise ConfigError(f"{section} must be an object")
        defaults = _DEFAULTS[section]
        _require_keys(given, defaults, section)
        merged = dict(defaults)
        for k, v in given.items():
            merged[k] = _as_kind(v, defaults[k], f"{section}.{k}")
        for k, rule in _RANGES.get(section, {}).items():
            v = merged[k]
            if v is not None and not (v > 0 if rule == "> 0" else v >= 0):
                raise ConfigError(f"{section}.{k} must be {rule}, got {v!r}")
        cfg[section] = merged
    try:
        IntegratorConfig(**cfg["integrator"])
    except ValueError as exc:
        raise ConfigError(f"integrator: {exc}") from exc
    times = cfg["times"]
    try:  # the sample and renorm times of a run over the whole window must fit in memory
        check_schedule(0.0, times["t_total"], times["out_stride"], cfg["lyapunov"]["renorm_interval"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    try:  # and so must the samples of verify's flow checks
        check_schedule(0.0, cfg["verify"]["horizon"], FLOW_STRIDE)
    except ValueError as exc:
        raise ConfigError(f"verify.horizon: {exc}") from exc

    seed = raw.get("seed", _DEFAULTS["seed"])
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0 or seed >= 2**64:
        raise ConfigError("seed must be an unsigned 64-bit integer")
    cfg["seed"] = seed

    out = raw.get("output", {})
    if not isinstance(out, dict):
        raise ConfigError("output must be an object")
    _require_keys(out, ("directory", "format"), "output")
    merged_out = dict(_DEFAULTS["output"])
    merged_out.update(out)
    if not isinstance(merged_out["directory"], str):
        raise ConfigError("output.directory must be a string")
    if merged_out["format"] not in ("csv", "json"):
        raise ConfigError("output.format must be 'csv' or 'json'")
    cfg["output"] = merged_out
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
    """Return (y0 array, kind) with kind 'full' or ('reduced', K)."""
    state = cfg["initial_state"]
    if "full" in state:
        return np.array(state["full"], dtype=float), "full"
    if "reduced" in state:
        return np.array(state["reduced"], dtype=float), ("reduced", state["K"])
    if "equilibrium_offset" in state:  # equilibrium(p) refuses E = 0
        return equilibrium(p) + np.array(state["equilibrium_offset"], dtype=float), "full"
    box = state["random"]["box"]
    rng = np.random.Generator(np.random.Philox(cfg["seed"]))
    if isinstance(box[0], list):
        lo = np.array([b[0] for b in box])
        hi = np.array([b[1] for b in box])
    else:
        lo, hi = box[0], box[1]
    return rng.uniform(lo, hi, 5), "full"


# --- output helpers --------------------------------------------------------


def _fmt(x: float) -> str:
    """Shortest decimal that round-trips the binary64 value."""
    return repr(float(x))


def _write_text(path: str, text: str):
    tmp = path + ".partial"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_json(path: str, obj):
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _csv_text(header: list[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _out_dir(cfg: dict, override: str | None) -> str:
    directory = override if override is not None else cfg["output"]["directory"]
    os.makedirs(directory, exist_ok=True)
    probe = os.path.join(directory, ".dynlab_write_probe")
    with open(probe, "w") as fh:
        fh.write("")
    os.remove(probe)
    return directory


def _stats(traj) -> dict:
    return {
        "steps_taken": traj.steps_taken,
        "steps_rejected": traj.steps_rejected,
        "samples": int(traj.times.size),
        "dimension": traj.dimension,
    }


def _trajectory_rows(traj):
    for t, row in zip(traj.times, traj.states):
        yield [float(t)] + [float(v) for v in row]


def _write_trajectory(directory: str, cfg: dict, traj, partial: bool = False) -> str:
    d = traj.dimension
    header = ["t"] + [f"y{i + 1}" for i in range(d)]
    if cfg["output"]["format"] == "csv":
        name = "trajectory.csv"
        text = _csv_text(header, _trajectory_rows(traj))
    else:
        name = "trajectory.json"
        text = json.dumps(
            {
                "columns": header,
                "rows": list(_trajectory_rows(traj)),
            },
            indent=2,
            sort_keys=True,
        ) + "\n"
    path = os.path.join(directory, name + (".partial" if partial else ""))
    _write_text(path, text)
    return path


# --- commands ---------------------------------------------------------------

# Each command takes the checked config, the Params, IntegratorConfig and
# initial state (y0, kind) built from it, and the parsed arguments.


def cmd_simulate(cfg: dict, p: Params, icfg: IntegratorConfig, y0, kind, args) -> int:
    system = full_system(p) if kind == "full" else reduced_system(p, kind[1])
    directory = _out_dir(cfg, args.out)
    try:
        traj = integrate(system.field, y0, 0.0, cfg["times"]["t_total"], cfg["times"]["out_stride"], icfg)
    except IntegrationError as exc:
        partial = getattr(exc, "partial_traj", None)
        diag = {"error": type(exc).__name__, "message": str(exc), "t": exc.t}
        if partial is not None:
            path = _write_trajectory(directory, cfg, partial, partial=True)
            diag["partial_file"] = os.path.basename(path)
        _write_json(os.path.join(directory, "run.json"), {**cfg, "stats": diag})
        print(f"dynlab simulate: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    _write_trajectory(directory, cfg, traj)
    _write_json(os.path.join(directory, "run.json"), {**cfg, "stats": _stats(traj)})
    return EXIT_OK


def cmd_verify(cfg: dict, p: Params, icfg: IntegratorConfig, y0, kind, args) -> int:
    v = cfg["verify"]
    directory = _out_dir(cfg, args.out)
    reports = verification_suite(
        p,
        seed=cfg["seed"],
        samples=v["samples"],
        horizon=v["horizon"],
        cfg=icfg,
        tolerance=v["tolerance"],
    )
    payload = {
        name: {"max_residual": rep.max_rel_residual, "pass": rep.passed}
        for name, rep in reports.items()
    }
    _write_json(os.path.join(directory, "verify_report.json"), payload)
    return EXIT_OK if all(rep.passed for rep in reports.values()) else EXIT_VERIFY_FAILED


def cmd_reduce(cfg: dict, p: Params, icfg: IntegratorConfig, y0, kind, args) -> int:
    if kind != "full":
        y0 = lift(y0, kind[1])
    directory = _out_dir(cfg, args.out)
    t_total, stride = cfg["times"]["t_total"], cfg["times"]["out_stride"]
    zero_tol = cfg["reduce"]["zero_tol"]
    comparison = compare_full_vs_reduced(y0, p, t_total, stride, icfg, zero_tol=zero_tol)
    drift = k_drift(comparison.full_trajectory, zero_tol=zero_tol)
    drift_rows = zip(drift.times.tolist(), drift.estimates.tolist())
    _write_text(
        os.path.join(directory, "k_drift.csv"), _csv_text(["t", "K"], drift_rows)
    )
    _write_json(
        os.path.join(directory, "reduce_report.json"),
        {
            "K": {"kind": comparison.K.kind, "value": comparison.K.value},
            "max_state_deviation": comparison.max_state_deviation,
            "horizon": comparison.horizon,
            "tol_used": comparison.tol_used,
            "drift_file": "k_drift.csv",
        },
    )
    return EXIT_OK


def cmd_lyapunov(cfg: dict, p: Params, icfg: IntegratorConfig, y0, kind, args) -> int:
    system = full_system(p) if kind == "full" else reduced_system(p, kind[1])
    t_transient, t_total = cfg["times"]["t_transient"], cfg["times"]["t_total"]
    renorm_interval = cfg["lyapunov"]["renorm_interval"]
    if not t_total > t_transient:
        raise ConfigError("lyapunov requires times.t_total > times.t_transient")
    directory = _out_dir(cfg, args.out)
    report = lyapunov_spectrum(system, y0, t_transient, t_total, renorm_interval, icfg)
    d = system.dim
    header = ["t"] + [f"lambda{i + 1}" for i in range(d)]
    rows = (
        [float(t)] + [float(v) for v in row]
        for t, row in zip(report.trace_times, report.convergence_trace)
    )
    _write_text(os.path.join(directory, "lyapunov_trace.csv"), _csv_text(header, rows))
    _write_json(
        os.path.join(directory, "lyapunov_report.json"),
        {
            "exponents": [float(v) for v in report.exponents],
            "t_total": report.t_total,
            "renorm_interval": report.renorm_interval,
            "diverged": report.diverged,
            "trace_file": "lyapunov_trace.csv",
        },
    )
    return EXIT_OK


_GNUPLOT_TEMPLATE = """\
# Bifurcation diagram: local maxima of y1 against the swept parameter.
set datafile separator comma
set xlabel "{param}"
set ylabel "y1 local maxima"
set key off
plot "scan_extrema.csv" every ::1 using 1:2 with dots lc rgb "black"
"""


def cmd_scan(cfg: dict, p: Params, icfg: IntegratorConfig, y0, kind, args) -> int:
    param = args.param
    if param == "K":
        if kind == "full":
            raise ConfigError("a K-scan (--param K) needs a reduced initial_state")
        dim = 3
    else:
        if kind != "full":
            y0 = lift(y0, kind[1])
        dim = 5
    if args.steps < 0:
        raise ConfigError("--steps must be >= 0")
    settings = ScanSettings(
        y0=tuple(y0.tolist()),
        t_transient=cfg["times"]["t_transient"],
        t_total=cfg["times"]["t_total"],
        renorm_interval=cfg["lyapunov"]["renorm_interval"],
        out_stride=cfg["times"]["out_stride"],
        integrator=icfg,
        extrema_cap=cfg["scan"]["extrema_cap"],
        eps_zero=cfg["scan"]["eps_zero"],
        workers=args.workers,
    )
    with np.errstate(all="ignore"):  # a range past the float range gives inf and NaN, refused below
        values = np.linspace(args.min, args.max, args.steps) if args.steps else []
    if not np.all(np.isfinite(values)):
        raise ConfigError("--min and --max must give finite scan values")
    directory = _out_dir(cfg, args.out)
    records = parameter_scan(p, param, values, args.policy, settings)

    header = ["param", "classification"] + [f"lambda{i + 1}" for i in range(dim)]
    rec_rows = []
    ext_rows = []
    for rec in records:
        lams = list(rec.exponents) + [math.nan] * (dim - len(rec.exponents))
        rec_rows.append([rec.param_value, rec.classification] + [float(v) for v in lams])
        for ex in rec.extrema_sample:
            ext_rows.append([rec.param_value, float(ex)])
    _write_text(os.path.join(directory, "scan_records.csv"), _csv_text(header, rec_rows))
    _write_text(
        os.path.join(directory, "scan_extrema.csv"), _csv_text(["param", "extremum"], ext_rows)
    )
    if args.gnuplot:
        _write_text(
            os.path.join(directory, "scan.gp"), _GNUPLOT_TEMPLATE.format(param=param)
        )
    return EXIT_OK


def cmd_equilibrium(cfg: dict, p: Params, icfg: IntegratorConfig, y0, kind, args) -> int:
    payload = {  # equilibrium(p) refuses E = 0 before the output directory is made
        "equilibrium": [float(v) for v in equilibrium(p)],
        "eigenvalues": [{"re": float(w.real), "im": float(w.imag)} for w in equilibrium_stability(p)],
    }
    _write_json(os.path.join(_out_dir(cfg, args.out), "equilibrium_report.json"), payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


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
        y0, kind = resolve_initial_state(cfg, p)
        return _COMMANDS[args.command](cfg, p, IntegratorConfig(**cfg["integrator"]), y0, kind, args)
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
