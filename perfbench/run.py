"""Benchmark of neqrseg: one workload, one run.

    python3 perfbench/run.py --workload tracked-32x32 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The program is the checkout's own
``src/neqrseg``; nothing is installed.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a traced run (spans go to
``.perfbench/``).  Workloads, metric names, units and bounds are declared in
``BENCHMARK.json``.  The last stdout line is one JSON object; the exit code is
non-zero when any output was wrong or the run could not be made.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7


def run_limit(seconds: int) -> float:
    """Wall-time limit of one run: the timed loop, a last pass, warm-up, set-up."""
    return 2 * seconds + 60


def time_import(env: dict[str, str]) -> float:
    """Wall time of a fresh interpreter importing the package and its CLI."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", "import neqrseg, neqrseg.cli"],
                            env=env, cwd=ROOT)
    # a blocking wait: Popen.wait(timeout) polls in steps of up to 50 ms,
    # which would quantise the measurement
    timer = threading.Timer(60, proc.kill)
    timer.start()
    try:
        returncode = proc.wait()
    finally:
        timer.cancel()
    elapsed = time.perf_counter() - start
    if returncode != 0:
        raise RuntimeError(f"importing neqrseg failed with exit code {returncode}")
    return elapsed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "neqrseg" / "__init__.py").is_file():
        print(f"error: no neqrseg source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + run_limit(args.seconds)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )

    setup = [time_import(env) for _ in range(SETUP_PROBES)] if args.trace == 0 else []
    try:
        child = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=deadline - time.monotonic(),
        )
    except subprocess.TimeoutExpired:
        print(f"error: run exceeded {run_limit(args.seconds)} s", file=sys.stderr)
        return 2
    if child.returncode != 0:
        print(f"error: benchmark worker exited with {child.returncode}", file=sys.stderr)
        return child.returncode or 1
    result = json.loads(child.stdout.strip().splitlines()[-1])
    values = result["metrics"]
    notes = result["notes"]
    if setup:
        values["setup_s"] = statistics.median(setup)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        print(f"error: metrics {sorted(values)} do not match BENCHMARK.json", file=sys.stderr)
        return 2

    attempted, failed = result["attempted"], result["failed"]
    print(f"{args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}: "
          f"{notes['jobs']} timed jobs in {notes['timed_s']:.2f} s, "
          f"{attempted} attempted with warm-up")
    for m in declared:
        print(f"  {m['name']:<28} {values[m['name']]:>14.6g} {m['unit']}")
    print(f"  {'failed_frac':<28} {failed / attempted:>14.6g} ({failed}/{attempted})")
    if setup:
        print(f"  setup_s is the median of {len(setup)} fresh interpreters")
    if "tail" in notes:
        print(f"  job_tail_s is the {notes['tail']} of n={notes['jobs']} jobs "
              "(the highest percentile with ten samples beyond it; max when n < 21)")
    if args.trace:
        print(f"  tracing overhead: job p50 {notes['untraced_p50_s']:.6g} s untraced, "
              f"{notes['traced_p50_s']:.6g} s traced (paired median "
              f"{values['trace.overhead_frac']:+.2%}); "
              f"{notes['span_count']} spans in {notes['spans']}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
