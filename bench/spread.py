"""Run one workload on several seeds and report each end-to-end metric's spread.

    python3 bench/spread.py --workload scan --seeds 1-10 [--against OLD.json]

Spread is (Q3 - Q1) / median of a metric over the seeds; the benchmark is
steady when every spread except setup_s stays below a third of the metric's
bound.  The values go to .bench_out/spread-<workload>.json.  With --against,
the medians are also compared with an earlier such file: a metric whose
median got worse by more than its bound is marked WORSE.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from metrics import median, quartile_spread

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--against", type=Path, help="an earlier spread file")
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=600,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: incorrect result {result}", file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        shown = " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items())
        print(f"seed {seed}: {shown}", flush=True)

    out = ROOT / ".bench_out" / f"spread-{args.workload}.json"
    out.write_text(json.dumps({"seeds": args.seeds, "values": values}, indent=2) + "\n")
    old = json.loads(args.against.read_text())["values"] if args.against else {}
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        med, spread = median(values[name]), quartile_spread(values[name])
        line = f"{name:16s} median {med:.6g}  spread {spread:.4f}  bound {bound}"
        line += "  steady" if spread < bound / 3 else "  NOT STEADY"
        if name in old:
            change = med / median(old[name]) - 1.0
            worse = change > bound if m["better"] == "lower" else -change > bound
            line += f"  vs old {change:+.4f}" + ("  WORSE" if worse else "")
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
