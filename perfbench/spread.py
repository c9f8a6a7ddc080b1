"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --seeds 1-10

Runs every workload once per seed with ``--trace 0``.  For every workload and
metric prints the median, the quartiles (as ``statistics.quantiles(values,
n=4)`` gives them) and the distance between the quartiles as a share of the
median, next to the metric's bound from ``BENCHMARK.json``.  The last stdout
line is the same summary as one JSON object.  Runs are made one after
another, never in parallel.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary: dict[str, dict] = {}
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600,
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: run failed", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)
        summary[workload] = {}
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(median) if median else 0.0
            summary[workload][name] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread, "runs": len(vals),
            }
            bound = bounds[name]
            verdict = (f"bound {bound} ({'ok' if spread <= bound else 'OVER'}"
                       f"{', under a third' if spread < bound / 3 else ''})")
            print(f"  {workload:<14} {name:<26} median {median:<12.6g} "
                  f"q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:.4f} {verdict}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
