"""One benchmark run of one workload, in a child process of its own.

Set-up draws the job list from the seed, one untimed warm-up job follows,
then jobs cycle through the list in whole passes until ``--seconds`` have
passed.
Every job's output is checked.  Prints one JSON object on its last stdout
line; ``run.py`` turns it into the report.
"""
from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import random
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter


def tail(times: list[float]) -> tuple[float, str]:
    """Job time at the highest percentile with ten samples beyond it.

    Below 21 samples that percentile would fall under the median, so it is
    no tail; the maximum is reported instead and labelled as such.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 21:
        return ordered[-1], "max"
    return ordered[n - 11], f"p{100 * (n - 10) / n:.1f}"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    root = Path(args.root).resolve()

    import neqrseg

    if Path(neqrseg.__file__).resolve().parent != root / "src" / "neqrseg":
        print(f"error: imported neqrseg from {neqrseg.__file__}, not the checkout",
              file=sys.stderr)
        return 2
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS, Mismatch

    workload = WORKLOADS[args.workload]
    out_dir = root / ".perfbench"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    records: list[dict] = []

    def attempt(inp, *, warmup: bool = False, traced: bool = False) -> None:
        workload.before(inp)
        gc.collect()
        job = len(records)
        record = {"input": inp.index, "pixels": inp.pixels, "warmup": warmup,
                  "traced": traced, "ok": False, "cost": None}
        records.append(record)
        if traced:
            tracer.install(job)
        start = perf_counter()
        try:
            result = workload.run(inp)
        except Exception:
            record["seconds"] = perf_counter() - start
            print(f"job {job} ({workload.name} input {inp.index}) raised:", file=sys.stderr)
            traceback.print_exc()
            return
        else:
            record["seconds"] = perf_counter() - start
        finally:
            if traced:
                tracer.remove()
        try:
            record["cost"] = workload.check(inp, result)
            record["ok"] = True
        except Mismatch as exc:
            print(f"job {job} ({workload.name} input {inp.index}): {exc}", file=sys.stderr)
        except Exception:
            print(f"job {job} ({workload.name} input {inp.index}) check raised:", file=sys.stderr)
            traceback.print_exc()

    try:
        inputs = workload.make(random.Random(args.seed), workdir)
        attempt(inputs[0], warmup=True)
        start = perf_counter()
        # cycle through the job list in whole passes until the time is up, so
        # every input runs equally often
        for count, inp in enumerate(itertools.cycle(inputs), start=1):
            if tracer is None:
                attempt(inp)
            else:
                # the same input untraced and traced, in alternating order
                for mode in ((False, True) if count % 2 else (True, False)):
                    attempt(inp, traced=mode)
            if count % len(inputs) == 0 and perf_counter() - start >= args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    timed = [r for r in records if not r["warmup"]]
    out = {
        "attempted": len(records),
        "failed": sum(not r["ok"] for r in records),
        "notes": {"jobs": len(timed), "timed_s": sum(r["seconds"] for r in timed)},
    }
    if tracer is None:
        first_cost: dict[int, int] = {}
        for r in records:
            if r["ok"]:
                first_cost.setdefault(r["input"], r["cost"])
        times = [r["seconds"] for r in timed]
        tail_s, label = tail(times)
        out["metrics"] = {
            "job_p50_s": statistics.median(times),
            "job_tail_s": tail_s,
            "pixels_per_s": sum(r["pixels"] for r in timed if r["ok"]) / sum(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "quantum_cost": statistics.fmean(first_cost.values()) if first_cost else 0.0,
        }
        out["notes"]["tail"] = label
    else:
        traced_jobs = {job: r["input"] for job, r in enumerate(records) if r["traced"]}
        metrics = layer_metrics(tracer, traced_jobs)
        # timed jobs come in pairs, so the n-th untraced and n-th traced job
        # ran the same input back to back
        untraced = [r["seconds"] for r in timed if not r["traced"]]
        traced = [r["seconds"] for r in timed if r["traced"]]
        metrics["trace.overhead_frac"] = statistics.median(
            t / u - 1.0 for u, t in zip(untraced, traced)
        )
        out["metrics"] = metrics
        out["notes"]["untraced_p50_s"] = statistics.median(untraced)
        out["notes"]["traced_p50_s"] = statistics.median(traced)
        spans_path = out_dir / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        out["notes"]["spans"] = str(spans_path.relative_to(root))
        out["notes"]["span_count"] = len(tracer.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
