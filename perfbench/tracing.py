"""In-memory call spans around neqrseg's public functions.

The tracer replaces a function at the attribute its callers look up (for
example ``neqrseg.cli.run_tracked``, the name ``cli.py`` resolves at call
time) with a wrapper that records a span: name, start, end, parent span, job
id and an optional dict of counts taken from the call's arguments and result.
Nothing under ``src/`` changes; the wrappers are installed only around traced
jobs and removed again, so untraced jobs and output checks run the original
functions.
"""
from __future__ import annotations

import functools
import json
from time import perf_counter_ns
from typing import Any, Callable

import neqrseg.circuit
import neqrseg.cli
import neqrseg.cost
import neqrseg.neqr
import neqrseg.qasm
import neqrseg.segmentation
import neqrseg.tracked

# Span fields, in list order.
NAME, START, END, PARENT, JOB, INFO = range(6)

CountFn = Callable[[tuple, dict, Any], dict]


def _ops(args, kwargs, result) -> dict:
    return {"ops": len(result.ops)}


def _tracked(args, kwargs, result) -> dict:
    return {"ops": len(args[0].ops), "branches": len(result.branches)}


def _sampled(args, kwargs, result) -> dict:
    circuit, shots = args[0], args[1]
    return {
        "ops": len(circuit.ops),
        "width": circuit.width,
        "trajectories": shots,
        "support": len(result),
    }


def _ledger(args, kwargs, result) -> dict:
    return {"gap": result.actual_cost - result.formula_cost}


def _text(args, kwargs, result) -> dict:
    return {"bytes": len(result)}


# (owner, attribute, span name, counter).  Each call site's own binding is
# wrapped, so a call passes through exactly one wrapper.
TARGETS: list[tuple[Any, str, str, CountFn | None]] = [
    (neqrseg.cli, "main", "cli.main", None),
    (neqrseg.cli, "read_image_pgm", "image.read_image_pgm", None),
    (neqrseg.cli, "write_image_pgm", "image.write_image_pgm", None),
    (neqrseg.cli, "build_pipeline", "segmentation.build_pipeline", _ops),
    (neqrseg.cli, "comparison_table", "segmentation.comparison_table", None),
    (neqrseg.cli, "run_tracked", "tracked.run_tracked", _tracked),
    (neqrseg.cli, "assert_no_collision", "tracked.assert_no_collision", None),
    (neqrseg.cli, "decode", "neqr.decode", None),
    (neqrseg.cli, "sample_shots", "statevector.sample_shots", _sampled),
    (neqrseg.cli, "quantum_cost", "cost.quantum_cost", _ledger),
    (neqrseg.segmentation, "build_pipeline", "segmentation.build_pipeline", _ops),
    (neqrseg.segmentation, "build_preparation", "neqr.build_preparation", _ops),
    (neqrseg.neqr, "build_preparation", "neqr.build_preparation", _ops),
    (neqrseg.segmentation, "build_comparator", "comparator.build_comparator", None),
    (neqrseg.segmentation, "quantum_cost", "cost.quantum_cost", _ledger),
    (neqrseg.circuit.Circuit, "extend", "circuit.extend", None),
    (neqrseg.neqr, "decode", "neqr.decode", None),
    (neqrseg.neqr, "assert_no_collision", "tracked.assert_no_collision", None),
    (neqrseg.tracked, "run_tracked", "tracked.run_tracked", _tracked),
    (neqrseg.cost, "quantum_cost", "cost.quantum_cost", _ledger),
    (neqrseg.qasm, "export_circuit_text", "qasm.export_circuit_text", _text),
    (neqrseg.qasm, "parse_circuit_text", "qasm.parse_circuit_text", _ops),
]

BUILDERS = ("segmentation.build_pipeline", "neqr.build_preparation")
SIMULATORS = ("statevector.sample_shots",)


class Tracer:
    """Records spans for every call through the wrapped functions."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.job: int | None = None
        self._stack: list[int] = []
        self._patches = [
            (owner, attr, getattr(owner, attr), self._wrap(getattr(owner, attr), name, count))
            for owner, attr, name, count in TARGETS
        ]

    def _wrap(self, original: Callable, name: str, count: CountFn | None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = perf_counter_ns()
                stack.pop()
            if count is not None:
                span[INFO] = count(args, kwargs, result)
            return result

        return traced

    def install(self, job: int) -> None:
        self.job = job
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        self.job = None

    def self_times(self) -> list[int]:
        """Each span's duration minus the part its direct children cover."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def write(self, path) -> None:
        """Write every span, with its self time, as one JSON object a line."""
        own = self.self_times()
        origin = self.spans[0][START] if self.spans else 0
        with open(path, "w", encoding="ascii") as out:
            for i, s in enumerate(self.spans):
                out.write(json.dumps({
                    "id": i,
                    "name": s[NAME],
                    "job": s[JOB],
                    "parent": s[PARENT],
                    "start_ns": s[START] - origin,
                    "end_ns": s[END] - origin,
                    "self_ns": own[i],
                    "info": s[INFO],
                }) + "\n")


# Per-layer time metrics: the self time of these spans, summed per job.
LAYER_TIMES = {
    "cli.self_s": ("cli.main",),
    "image.read_s": ("image.read_image_pgm",),
    "image.write_s": ("image.write_image_pgm",),
    "segmentation.build_s": ("segmentation.build_pipeline", "segmentation.comparison_table"),
    "neqr.prep_build_s": ("neqr.build_preparation",),
    "neqr.decode_s": ("neqr.decode",),
    "comparator.build_s": ("comparator.build_comparator",),
    "circuit.extend_s": ("circuit.extend",),
    "tracked.run_s": ("tracked.run_tracked",),
    "tracked.collision_s": ("tracked.assert_no_collision",),
    "statevector.sample_s": ("statevector.sample_shots",),
    "qasm.export_s": ("qasm.export_circuit_text",),
    "qasm.parse_s": ("qasm.parse_circuit_text",),
    "cost.ledger_s": ("cost.quantum_cost",),
}


def _outermost_builders(spans: list[list], indices: list[int]) -> list[int]:
    """Builder spans of one job that no other builder span encloses."""
    found = []
    for i in indices:
        if spans[i][NAME] not in BUILDERS:
            continue
        p = spans[i][PARENT]
        while p >= 0 and spans[p][NAME] not in BUILDERS:
            p = spans[p][PARENT]
        if p < 0:
            found.append(i)
    return found


def job_counts(spans: list[list], indices: list[int]) -> dict[str, float]:
    """Exact per-job counts from the spans of one job.

    The first builder and ledger of a job are the job's own circuit; later
    ones (the reference pipeline behind ``--cost-report``'s comparison
    table) only add time.  Calls that raised carry no counts and are skipped.
    """
    indices = [i for i in indices if spans[i][INFO] is not None]

    def first(name: str, key: str) -> int:
        for i in indices:
            if spans[i][NAME] == name:
                return spans[i][INFO][key]
        return 0

    outer = _outermost_builders(spans, indices)
    counts = {
        "neqr.prep_ops": first("neqr.build_preparation", "ops"),
        "circuit.ops": spans[outer[0]][INFO]["ops"] if outer else 0,
        "cost.gap": first("cost.quantum_cost", "gap"),
        "tracked.branches": 0,
        "tracked.branch_ops": 0,
        "qasm.lowered_ops": 0,
        "qasm.text_bytes": 0,
        "statevector.width": 0,
        "statevector.bytes_touched": 0,
    }
    for i in indices:
        name, info = spans[i][NAME], spans[i][INFO]
        if name == "tracked.run_tracked":
            counts["tracked.branches"] += info["branches"]
            counts["tracked.branch_ops"] += info["ops"] * info["branches"]
        elif name == "qasm.parse_circuit_text":
            counts["qasm.lowered_ops"] += info["ops"]
        elif name == "qasm.export_circuit_text":
            counts["qasm.text_bytes"] += info["bytes"]
        elif name in SIMULATORS:
            counts["statevector.width"] = max(counts["statevector.width"], info["width"])
            # computed, not measured: every op of a trajectory touches the
            # whole 16-byte complex vector
            counts["statevector.bytes_touched"] += info["ops"] * (16 << info["width"])
    return counts


def layer_metrics(tracer: Tracer, traced_jobs: dict[int, int]) -> dict[str, float]:
    """Per-layer metrics over the traced jobs.

    ``traced_jobs`` maps each traced job id to the index of its input in the
    workload's job list.  Times are means per traced job; counts are means
    over the distinct inputs, taken from each input's first traced job, so
    they repeat exactly for a given seed whatever the run length.
    """
    spans = tracer.spans
    own = tracer.self_times()
    by_job: dict[int, list[int]] = {job: [] for job in traced_jobs}
    for i, s in enumerate(spans):
        by_job[s[JOB]].append(i)
    jobs = len(by_job)

    metrics: dict[str, float] = {}
    for metric, names in LAYER_TIMES.items():
        total = sum(own[i] for i, s in enumerate(spans) if s[NAME] in names)
        metrics[metric] = total / jobs / 1e9

    first_job: dict[int, int] = {}
    for job in sorted(by_job):
        first_job.setdefault(traced_jobs[job], job)
    per_input = [job_counts(spans, by_job[job]) for job in first_job.values()]
    for key in per_input[0]:
        metrics[key] = sum(c[key] for c in per_input) / len(per_input)

    def own_sum(name: str) -> int:
        return sum(own[i] for i, s in enumerate(spans) if s[NAME] == name)

    branch_ops = sum(
        s[INFO]["ops"] * s[INFO]["branches"]
        for s in spans if s[NAME] == "tracked.run_tracked" and s[INFO] is not None
    )
    metrics["tracked.ns_per_branch_op"] = (
        own_sum("tracked.run_tracked") / branch_ops if branch_ops else 0.0
    )

    outer = [
        i for idx in by_job.values() for i in _outermost_builders(spans, idx)
        if spans[i][INFO] is not None
    ]
    built_ops = sum(spans[i][INFO]["ops"] for i in outer)
    build_ns = sum(spans[i][END] - spans[i][START] for i in outer)
    metrics["circuit.build_us_per_op"] = build_ns / built_ops / 1e3 if built_ops else 0.0

    sim_ids = [
        i for i, s in enumerate(spans)
        if s[NAME] in SIMULATORS and s[INFO] is not None
    ]
    sim = [spans[i] for i in sim_ids]
    trajectories = sum(s[INFO]["trajectories"] for s in sim)
    sim_ns = sum(own[i] for i in sim_ids)
    metrics["statevector.us_per_shot"] = sim_ns / trajectories / 1e3 if trajectories else 0.0
    metrics["statevector.support_frac"] = (
        sum(s[INFO]["support"] / (1 << s[INFO]["width"]) for s in sim) / len(sim)
        if sim else 0.0
    )
    return metrics
