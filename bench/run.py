"""dynlab benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload scan|ensemble|pipeline --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; dynlab is imported from its `src/`.
With --trace 0 the workload runs pass after pass on the seed's inputs for
about S seconds, untraced, and the end-to-end metrics are reported.  With
--trace 1 it runs one untraced and one traced pass (plus, for scan, a traced
in-process replay of every scan point) and reports the per-layer metrics.
Every metric is printed as `name value unit`; the last line of stdout is the
JSON result.  A full record (environment, workload detail metrics, output
digests) is written to .bench_out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

from metrics import digits, failed_frac, median, percentile, pool_efficiency
from metrics import worst as worst_of

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Seed kept out of all tuning: a claimed gain must also hold on it.
HELD_OUT_SEED = 7919
SETUP_REPEATS = 7
OPS_NAME = {"scan": "points_per_s", "ensemble": "runs_per_s", "pipeline": "commands_per_s"}


def _environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        cpu = platform.processor() or cpu
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
    }


def _git_commit() -> str:
    """HEAD of the checkout's own .git, or "unknown" for an exported tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _detail_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.startswith("cmd_s."):
        return "s"
    if name.startswith("run_ms"):
        return "ms"
    if name == "run_samples":
        return "count"
    return "1"  # residuals and fractions


def measure_setup(cls, seed: int, work: Path):
    """Median over SETUP_REPEATS of a fresh-interpreter import plus input generation."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import dynlab.cli",
             str(SRC)],
            check=True,
            timeout=120,
        )
        workload = cls(seed, work)
        times.append(time.perf_counter() - t0)
    return median(times), workload


def run_untraced(workload, seconds: float) -> list:
    """Passes until another one would overrun the measuring time (at least one)."""
    passes = []
    t_start = time.perf_counter()
    while True:
        passes.append(workload.run_pass())
        elapsed = time.perf_counter() - t_start
        if elapsed + elapsed / len(passes) > seconds:
            return passes


def run_traced(workload, seconds: float):
    """Untraced and traced passes in turn while time allows; for scan, then
    a traced replay of its points.  Layer numbers are medians over the
    traced passes, the overhead compares median traced and untraced walls."""
    from tracing import Tracer, layer_metrics

    passes, untraced_s, traced_s, per_pass = [], [], [], []
    t_start = time.perf_counter()
    while True:
        untraced = workload.run_pass()
        tracer = Tracer()
        with tracer.install():
            traced = workload.run_pass()
        passes += [untraced, traced]
        untraced_s.append(untraced.wall_s)
        traced_s.append(traced.wall_s)
        per_pass.append(layer_metrics(tracer.spans, traced.wall_s))
        elapsed = time.perf_counter() - t_start
        if elapsed + elapsed / len(traced_s) > seconds:
            break
    layers = {k: median(m[k] for m in per_pass) for k in per_pass[0]}
    point_s = []
    labels = {}
    if workload.name == "scan":
        # Pool workers' spans stay in the workers, so the model and integrator
        # layers of a scan are measured on an in-process replay of its points.
        replay_tracer = Tracer()
        with replay_tracer.install():
            point_s, replay = workload.replay()
        passes.append(replay)
        labels = replay.labels
        replayed = layer_metrics(replay_tracer.spans, replay.wall_s)
        layers.update({k: v for k, v in replayed.items() if not k.startswith("cli.")})

    from dynlab.analysis import CLASSIFICATIONS

    layers.update(
        {
            "analysis.point_s_p50": median(point_s) if point_s else 0.0,
            "analysis.point_s_max": max(point_s, default=0.0),
            # Both sides traced: replayed serial time over the traced pool wall.
            "analysis.pool_efficiency": (
                pool_efficiency(point_s, workload.WORKERS, median(traced_s)) if point_s else 0.0
            ),
        }
    )
    for label in CLASSIFICATIONS:
        layers[f"analysis.label.{label}"] = labels.get(label, 0)
    for cmd in ("scan", "simulate", "reduce", "verify", "lyapunov", "equilibrium"):
        layers[f"cli.bytes_written.{cmd}"] = traced.bytes_written.get(cmd, 0)
    layers["trace.overhead_pct"] = 100.0 * (median(traced_s) / median(untraced_s) - 1.0)
    return passes, layers


def summarize(workload_name: str, passes: list, setup_s: float):
    """End-to-end metrics and the workload's detail metrics from untraced passes."""
    walls = [p.wall_s for p in passes]
    names = sorted({name for p in passes for name in p.residuals})
    worst = {n: worst_of(v for p in passes for v in p.residuals.get(n, [])) for n in names}
    e2e = {
        "setup_s": setup_s,
        "wall_s": median(walls),
        "ops_per_s": median(p.attempted / p.wall_s for p in passes),
        "oracle_digits": min(map(digits, worst.values()), default=0.0),
    }
    detail = {OPS_NAME[workload_name]: e2e["ops_per_s"]}
    detail.update({f"{name}_max": value for name, value in worst.items()})
    cmds = sorted({c for p in passes for c in p.cmd_s})
    detail.update({f"cmd_s.{c}": median(p.cmd_s[c] for p in passes) for c in cmds})
    latencies = [x for p in passes for x in p.latencies_s]
    if latencies:
        detail["run_ms_p50"] = 1e3 * median(latencies)
        try:
            detail["run_ms_p90"] = 1e3 * percentile(latencies, 0.90)
        except ValueError:
            pass
        detail["run_samples"] = len(latencies)
    return e2e, detail


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("scan", "ensemble", "pipeline"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "dynlab" / "__init__.py").is_file():
        print(f"bench: no dynlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    load_before = os.getloadavg()
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        cls = workloads.WORKLOADS[args.workload]
        setup_s, workload = measure_setup(cls, args.seed, work)
        if args.trace:
            passes, metrics = run_traced(workload, args.seconds)
            detail = {}
        else:
            passes = run_untraced(workload, args.seconds)
            metrics, detail = summarize(args.workload, passes, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [msg for p in passes for msg in p.problems]
    digests = [p.sha256 for p in passes if p.sha256]
    if any(d != digests[0] for d in digests):
        problems.append(f"outputs differ between passes on the same inputs: {digests}")
    detail["failed_frac"] = failed_frac(failed, attempted)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    result_metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": _environment(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "passes": len(passes),
        "pass_wall_s": [p.wall_s for p in passes],
        "metrics": result_metrics,
        "detail": detail,
        "sha256": digests[0] if digests else {},
        "problems": problems[:20],
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )

    for msg in problems[:20]:
        print(f"bench: {msg}", file=sys.stderr)
    for name, m in result_metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for name, value in detail.items():
        print(f"{args.workload}.{name} {value:.6g} {_detail_unit(name)}")
    for name, digest in record["sha256"].items():
        print(f"sha256 {name} {digest}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": result_metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
