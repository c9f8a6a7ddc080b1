"""Exact-count self-check: two runs with one seed must report identical counts.

    python3 perfbench/selfcheck.py

Runs ``run.py`` for every workload at seed ``SEED``, twice with ``--trace 1``
and twice with ``--trace 0``, at one second each (every input of the job list still runs at
least once), and requires the exact counts below to match between the two
runs.  Also prints the quantum cost of the two-threshold reference pipeline
from ``neqrseg cost`` next to the values recorded in ``baseline.json``; those
are records, not gates.  Exits non-zero when a count differs or a run fails.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
EXACT = {
    0: ("quantum_cost",),
    1: ("neqr.prep_ops", "circuit.ops", "tracked.branch_ops", "qasm.lowered_ops", "cost.gap"),
}


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {SEED} trace {trace} exited {proc.returncode}")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in EXACT[trace]}


def reference_cost(q: int) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "neqrseg", "cost", "--q", str(q)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, check=True, timeout=60,
    )
    return json.loads(proc.stdout)["actualCost"]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    recorded = json.loads((HERE / "baseline.json").read_text())["reference_cost"]
    for q, cost in sorted(recorded.items()):
        print(f"reference two-threshold pipeline, q={q}: actualCost {reference_cost(int(q))} "
              f"(recorded at the seed commit: {cost})")

    differing = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            first, second = run(workload, trace), run(workload, trace)
            for name, value in first.items():
                same = value == second[name]
                differing += not same
                print(f"{workload:<14} {name:<20} {value!r:>14} {second[name]!r:>14} "
                      f"{'same' if same else 'DIFFERENT'}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
