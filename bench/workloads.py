"""The three benchmark workloads, their seeded inputs and their output checks.

Each workload is built from a seed (its inputs, written to a work directory)
and then run pass after pass on those same inputs.  A pass drives dynlab
only through its public API and `dynlab.cli.main`, times the program calls
and nothing else, and checks every output; an operation (scan point,
ensemble run, CLI command) that raises, exits nonzero or fails a check is
counted as failed.  Why each workload exists is written in README.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import dynlab
import dynlab.cli
from dynlab.analysis import CLASSIFICATIONS

# Bound on |sum(lambda) - (4C + E)|: the trace of the full Jacobian is exactly
# 4C + E, so the exponent sum has an exact oracle.
TRACE_GAP_LIMIT = 1e-5
# Criterion 1's bilinear-law tolerance and criterion 6's pair-norm slack.
BILINEAR_TOL = 1e-7
NORM_UPTICK_SLACK = 1e-12
# Criterion 4's bound on the full vs lifted-reduced deviation.
REDUCE_DEV_LIMIT = 1e-6

Y0_CRITERION9 = [0.73, -0.4, 0.2, 0.33, 0.11]


@dataclass
class Pass:
    """What one pass measured and found."""

    wall_s: float = 0.0  # time inside program calls only
    attempted: int = 0
    failed: int = 0
    residuals: dict = field(default_factory=dict)  # oracle name -> residuals
    latencies_s: list = field(default_factory=list)  # per operation, where observable
    cmd_s: dict = field(default_factory=dict)
    bytes_written: dict = field(default_factory=dict)
    sha256: dict = field(default_factory=dict)
    labels: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    def op(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def residual(self, name: str, value: float):
        self.residuals.setdefault(name, []).append(value)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.iterdir() if f.is_file())


def _cli(argv: list[str]) -> tuple[int | str, float, str]:
    """Run one dynlab command; returns (exit code or exception, seconds, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        try:
            code = dynlab.cli.main(argv)
        except Exception as exc:  # a command that raises is a failed operation
            code = repr(exc)
        dt = time.perf_counter() - t0
    return code, dt, buf.getvalue()


class Scan:
    """Fixed-policy C sweep through `dynlab scan --workers 2` (criterion-9 config)."""

    name = "scan"
    POINTS = 32
    C_LO, C_HI = -1.5, -0.6
    WORKERS = 2
    T_TRANSIENT, T_TOTAL, RENORM, STRIDE, TOL, EPS_ZERO = 100.0, 250.0, 1.0, 0.1, 1e-8, 1e-3
    PARAMS = {"C": -1.0, "D": -1.0, "E": -0.5, "F": 0.0}

    def __init__(self, seed: int, work: Path):
        # Point i stays in stratum i of [C_LO, C_HI]: both ends move by less
        # than half a stratum, and linspace interpolates the two offsets.
        rng = np.random.default_rng(seed)
        w = (self.C_HI - self.C_LO) / self.POINTS
        d_lo, d_hi = rng.uniform(-w / 2, w / 2, 2)
        self.c_min = self.C_LO + w / 2 + float(d_lo)
        self.c_max = self.C_HI - w / 2 + float(d_hi)
        self.values = np.linspace(self.c_min, self.c_max, self.POINTS)
        self.config = work / "scan.json"
        self.out = work / "scan"
        self.config.write_text(
            json.dumps(
                {
                    "params": self.PARAMS,
                    "initial_state": {"full": Y0_CRITERION9},
                    "times": {
                        "t_transient": self.T_TRANSIENT,
                        "t_total": self.T_TOTAL,
                        "out_stride": self.STRIDE,
                    },
                    "integrator": {"abs_tol": self.TOL, "rel_tol": self.TOL},
                    "seed": seed,
                }
            )
        )

    def run_pass(self) -> Pass:
        res = Pass()
        code, res.wall_s, _ = _cli(
            ["scan", "--config", str(self.config), "--out", str(self.out), "--param", "C",
             f"--min={self.c_min!r}", f"--max={self.c_max!r}", f"--steps={self.POINTS}",
             "--policy", "fixed", f"--workers={self.WORKERS}"]
        )
        records = self.out / "scan_records.csv"
        rows = []
        if code == 0 and records.is_file():
            lines = records.read_text().splitlines()
            rows = [line.split(",") for line in lines[1:]]
            res.sha256["scan_records.csv"] = _sha256(records)
            res.bytes_written["scan"] = _dir_bytes(self.out)
        if len(rows) != self.POINTS:
            res.problems.append(f"scan exit {code}, {len(rows)}/{self.POINTS} records")
        for i, c in enumerate(self.values):
            row = rows[i] if i < len(rows) else []
            ok, gap = self._check_record(c, row)
            res.residual("trace_gap", gap)
            res.op(ok, f"scan point C={c!r}: {row}")
        return res

    def _check_record(self, c: float, row: list[str]) -> tuple[bool, float]:
        """A record is well formed, for the requested C, and meets the trace oracle."""
        try:
            if len(row) != 7 or row[1] not in CLASSIFICATIONS or float(row[0]) != c:
                return False, math.nan
            gap = abs(math.fsum(float(v) for v in row[2:]) - (4.0 * c + self.PARAMS["E"]))
        except ValueError:
            return False, math.nan
        return gap <= TRACE_GAP_LIMIT, gap

    def replay(self) -> tuple[list[float], Pass]:
        """Each scan point in-process through integrate -> integrate_with_tangents
        -> classify, as `dynlab scan` computes it; must match the last records."""
        lines = (self.out / "scan_records.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        cfg = dynlab.IntegratorConfig(abs_tol=self.TOL, rel_tol=self.TOL)
        y0 = np.array(Y0_CRITERION9)
        res = Pass()
        seconds = []
        for c, row in zip(self.values, rows):
            t0 = time.perf_counter()
            system = dynlab.full_system(dynlab.Params(**{**self.PARAMS, "C": float(c)}))
            tr = dynlab.integrate(system.field, y0, 0.0, self.T_TRANSIENT, self.T_TRANSIENT, cfg)
            bundle0 = dynlab.TangentBundle(base=tr.states[-1], frame=np.eye(5))
            _, log, traj = dynlab.integrate_with_tangents(
                system.field, system.jacobian, bundle0, self.T_TRANSIENT, self.T_TOTAL,
                self.RENORM, cfg, out_stride=self.STRIDE,
            )
            trace = np.cumsum(log.log_stretches, axis=0) / np.cumsum(log.intervals)[:, None]
            report = dynlab.LyapunovReport(
                exponents=np.sort(trace[-1])[::-1],
                t_total=self.T_TOTAL,
                renorm_interval=self.RENORM,
                convergence_trace=trace,
                trace_times=log.times,
            )
            label = dynlab.classify(report, traj, self.EPS_ZERO)
            seconds.append(time.perf_counter() - t0)
            got = [repr(float(c)), label] + [repr(float(v)) for v in report.exponents]
            res.labels[label] = res.labels.get(label, 0) + 1
            res.op(got == row, f"replay of C={c!r} gave {got}, scan wrote {row}")
        res.wall_s = math.fsum(seconds)
        return seconds, res


class Ensemble:
    """Many short plain 5-D runs, each checked against the bilinear law and S decay."""

    name = "ensemble"
    RUNS = 150
    T_END, STRIDE = 50.0, 0.25

    def __init__(self, seed: int, work: Path):
        # The norm-contraction regime (C <= -2): S never grows, so the cost of
        # a run is bounded.  README.md explains why C > -2 is left out.
        rng = np.random.default_rng(seed)
        n = self.RUNS
        cols = rng.uniform([-4.0, -1.5, -2.0, 0.0], [-2.0, -0.5, -0.5, 1.0], (n, 4))
        self.params = [dynlab.Params(*map(float, row)) for row in cols]
        y0 = rng.uniform(-1.0, 1.0, (n, 5))
        y0 *= (rng.uniform(0.1, 5.0, n) / np.linalg.norm(y0, axis=1))[:, None]
        self.y0 = list(y0)
        self.cfg = dynlab.IntegratorConfig()

    def run_pass(self) -> Pass:
        res = Pass()
        for p, y0 in zip(self.params, self.y0):
            try:
                t0 = time.perf_counter()
                traj = dynlab.integrate(dynlab.full_system(p).field, y0, 0.0, self.T_END,
                                        self.STRIDE, self.cfg)
                law = dynlab.check_trajectory(traj, p, BILINEAR_TOL)["bilinear_law"]
                dt = time.perf_counter() - t0
            except Exception as exc:  # a run that raises is a failed operation
                res.residual("bilinear_rel", math.nan)
                res.op(False, f"run {p} from {y0.tolist()}: {exc!r}")
                continue
            res.wall_s += dt
            res.latencies_s.append(dt)
            s = np.sum(traj.states[:, [0, 1, 3, 4]] ** 2, axis=1)
            uptick = float(np.diff(s).max(initial=0.0))
            res.residual("bilinear_rel", law.max_rel_residual)
            res.op(
                law.passed and uptick <= NORM_UPTICK_SLACK,
                f"run {p} from {y0.tolist()}: bilinear {law.max_rel_residual:.3e}, "
                f"S uptick {uptick:.3e}",
            )
        return res


class Pipeline:
    """One config through simulate, reduce, verify, lyapunov and equilibrium."""

    name = "pipeline"
    T_TOTAL, STRIDE, T_TRANSIENT, LYAP_T_TOTAL = 1000.0, 0.1, 100.0, 350.0
    D, E, F = -1.0, -0.5, 0.0

    def __init__(self, seed: int, work: Path):
        rng = np.random.default_rng(seed)
        # simulate and lyapunov: the chaotic band of the criterion-9 sweep.
        self.c = float(rng.uniform(-1.0, -0.9))
        y0 = np.array(Y0_CRITERION9) + rng.uniform(-0.05, 0.05, 5)
        # reduce: a K-plane start in the non-chaotic regime of criterion 4.
        self.c_reduce = float(rng.uniform(-2.4, -1.8))
        reduced = {"reduced": rng.uniform(-1.5, 1.5, 3).tolist(), "K": float(rng.uniform(-3, 3))}
        self.config = work / "pipeline.json"
        self.out = work / "pipeline"
        self.config.write_text(
            json.dumps(
                {
                    "params": {"C": self.c, "D": self.D, "E": self.E, "F": self.F},
                    "initial_state": {"full": y0.tolist()},
                    "times": {
                        "t_transient": self.T_TRANSIENT,
                        "t_total": self.T_TOTAL,
                        "out_stride": self.STRIDE,
                    },
                    "seed": seed,
                }
            )
        )
        self.commands = {
            "simulate": [],
            "reduce": ["--set", f"params.C={self.c_reduce!r}",
                       "--set", "initial_state=" + json.dumps(reduced)],
            "verify": [],
            "lyapunov": ["--set", f"times.t_total={self.LYAP_T_TOTAL!r}"],
            "equilibrium": [],
        }

    def run_pass(self) -> Pass:
        res = Pass()
        for cmd, extra in self.commands.items():
            out = self.out / cmd
            code, dt, stdout = _cli([cmd, "--config", str(self.config), "--out", str(out)] + extra)
            res.wall_s += dt
            res.cmd_s[cmd] = dt
            ok = code == 0
            if ok:
                try:
                    res.bytes_written[cmd] = _dir_bytes(out)
                    ok = getattr(self, "_check_" + cmd)(out, stdout, res)
                except (OSError, ValueError, KeyError) as exc:
                    ok, code = False, repr(exc)
            res.op(ok, f"{cmd}: exit {code}")
        return res

    def _check_simulate(self, out: Path, stdout: str, res: Pass) -> bool:
        path = out / "trajectory.csv"
        res.sha256["trajectory.csv"] = _sha256(path)
        n_rows = path.read_text().count("\n") - 1
        return n_rows == round(self.T_TOTAL / self.STRIDE) + 1

    def _check_reduce(self, out: Path, stdout: str, res: Pass) -> bool:
        dev = json.loads((out / "reduce_report.json").read_text())["max_state_deviation"]
        res.residual("reduce_dev", dev)
        return dev <= REDUCE_DEV_LIMIT

    def _check_verify(self, out: Path, stdout: str, res: Pass) -> bool:
        report = json.loads((out / "verify_report.json").read_text())
        return bool(report) and all(entry["pass"] for entry in report.values())

    def _check_lyapunov(self, out: Path, stdout: str, res: Pass) -> bool:
        report = json.loads((out / "lyapunov_report.json").read_text())
        gap = abs(math.fsum(report["exponents"]) - (4.0 * self.c + self.E))
        res.residual("trace_gap", gap)
        return not report["diverged"] and gap <= TRACE_GAP_LIMIT

    def _check_equilibrium(self, out: Path, stdout: str, res: Pass) -> bool:
        report = json.loads((out / "equilibrium_report.json").read_text())
        return json.loads(stdout) == report and report["equilibrium"] == [
            0.0, 0.0, -self.F / self.E, 0.0, 0.0
        ]


WORKLOADS = {w.name: w for w in (Scan, Ensemble, Pipeline)}
