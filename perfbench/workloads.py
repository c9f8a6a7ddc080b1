"""The benchmark's workloads: seeded inputs, the timed job, the output check.

Every workload draws a fixed list of inputs during set-up: images (and shot
seeds) from the run's seed, threshold configurations from a generator seeded
by the workload's name.  So every seed runs the same circuits' comparator and
segmentation stages, and ``quantum_cost``, which excludes preparation, is the
same for every seed.  Random images have a fixed number of set color bits,
so preparation, and with it each job's size, is the same for every seed as
well.  The timed loop cycles through the list in whole passes.  A job is the
work one caller waits for.  ``check`` runs after the job, untimed: it raises
``Mismatch`` on any wrong output and returns the job's quantum cost.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import neqrseg.circuit as circuit
import neqrseg.cli as cli
import neqrseg.cost as cost
import neqrseg.image as image
import neqrseg.neqr as neqr
import neqrseg.qasm as qasm
import neqrseg.segmentation as segmentation
import neqrseg.tracked as tracked
from neqrseg.image import ImageGray
from neqrseg.segmentation import ThresholdConfig, classical_segment


class Mismatch(Exception):
    """A job finished but its output is wrong."""


@dataclass
class Input:
    """One entry of a workload's job list."""

    index: int
    pixels: int
    expected: Any  # the correct output, computed during set-up
    data: dict = field(default_factory=dict)


def random_image(rng: random.Random, n: int, q: int) -> ImageGray:
    """Random pixels with exactly half of all color bits set (rounded down).

    Preparation emits one gate per set bit, so a fixed count keeps the
    circuit's size, and with it the job's cost, the same for every seed.
    """
    pixels = 4**n
    bits = [0] * (pixels * q)
    for i in rng.sample(range(len(bits)), len(bits) // 2):
        bits[i] = 1
    return ImageGray(n, q, tuple(
        int("".join(map(str, bits[p * q:(p + 1) * q])), 2) for p in range(pixels)
    ))


def gradient_image(rng: random.Random, n: int, q: int) -> ImageGray:
    """A linear ramp over the full gray range in a seeded direction, plus noise.

    Values spread evenly over 0..2^q-1, so about half of all color bits are
    set; preparation emits one gate per set bit.
    """
    side, top = 1 << n, (1 << q) - 1
    angle = rng.uniform(0.0, 2.0 * math.pi)
    dx, dy = math.cos(angle), math.sin(angle)
    reach = (side - 1) * (abs(dx) + abs(dy)) or 1.0
    noise = top // 16
    pixels = []
    for y in range(side):
        for x in range(side):
            ramp = ((x - (side - 1) / 2) * dx + (y - (side - 1) / 2) * dy) / reach + 0.5
            value = round(ramp * top) + rng.randint(-noise, noise)
            pixels.append(min(max(value, 0), top))
    return ImageGray(n, q, tuple(pixels))


def thresholds_for(rng: random.Random, q: int, count: int) -> tuple[int, ...]:
    return tuple(sorted(rng.sample(range(1, 1 << q), count)))


class Workload:
    name: str
    inputs: int  # length of the seeded job list

    def make(self, rng: random.Random, workdir: Path) -> list[Input]:
        """The job list: images from ``rng``, configurations from the name."""
        raise NotImplementedError

    def before(self, inp: Input) -> None:
        """Untimed step before each job."""

    def run(self, inp: Input) -> Any:
        raise NotImplementedError

    def check(self, inp: Input, result: Any) -> int:
        raise NotImplementedError


class CliSegment(Workload):
    """``neqrseg segment`` from PGM in to PGM out, through ``cli.main``."""

    def image(self, rng: random.Random) -> ImageGray:
        raise NotImplementedError

    def config(self, fixed: random.Random) -> ThresholdConfig:
        raise NotImplementedError

    def backend_args(self, inp: Input, rng: random.Random) -> list[str]:
        raise NotImplementedError

    def make(self, rng, workdir):
        fixed = random.Random(self.name)
        inputs = []
        for i in range(self.inputs):
            img, config = self.image(rng), self.config(fixed)
            files = {
                kind: workdir / f"{self.name}-{i}.{kind}"
                for kind in ("in.pgm", "out.pgm", "cost.json", "hist.csv")
            }
            files["in.pgm"].write_bytes(image.write_image_pgm(img))
            inp = Input(
                i, 4**img.n, classical_segment(img, config),
                {"files": files, "image": img, "config": config},
            )
            inp.data["argv"] = [
                "segment",
                "--input", str(files["in.pgm"]),
                "--t", ",".join(str(t) for t in config.thresholds),
                *self.backend_args(inp, rng),
                "--out", str(files["out.pgm"]),
                "--cost-report", str(files["cost.json"]),
            ]
            inputs.append(inp)
        return inputs

    def before(self, inp):
        # a stale output from an earlier job must not pass the check
        for kind in ("out.pgm", "cost.json", "hist.csv"):
            inp.data["files"][kind].unlink(missing_ok=True)

    def run(self, inp):
        return cli.main(inp.data["argv"])

    def check(self, inp, result):
        files = inp.data["files"]
        if result != 0:
            raise Mismatch(f"cli.main returned {result}")
        got = image.read_image_pgm(files["out.pgm"].read_bytes())
        if got != inp.expected:
            raise Mismatch("segmented PGM differs from classical_segment")
        return json.loads(files["cost.json"].read_text())["actualCost"]


class TrackedCli(CliSegment):
    name = "tracked-32x32"
    inputs = 1

    def image(self, rng):
        return gradient_image(rng, 5, 8)

    def config(self, fixed):
        return ThresholdConfig.with_default_levels(8, thresholds_for(fixed, 8, 2))

    def backend_args(self, inp, rng):
        return ["--backend", "tracked"]


class SampledCli(CliSegment):
    name = "sampled-4x4"
    inputs = 2
    shots = 1024

    def image(self, rng):
        return random_image(rng, 2, 3)

    def config(self, fixed):
        return ThresholdConfig.with_default_levels(3, thresholds_for(fixed, 3, 2))

    def backend_args(self, inp, rng):
        exact = tracked.run_tracked(
            segmentation.build_pipeline(inp.data["image"], inp.data["config"])
        )
        inp.data["support"] = set(exact.readout_distribution())
        return [
            "--backend", "statevector",
            "--shots", str(self.shots),
            "--seed", str(rng.randrange(1 << 32)),
            "--histogram", str(inp.data["files"]["hist.csv"]),
        ]

    def check(self, inp, result):
        actual_cost = super().check(inp, result)
        rows = inp.data["files"]["hist.csv"].read_text().splitlines()[1:]
        if {row.split(",", 1)[0] for row in rows} != inp.data["support"]:
            raise Mismatch("histogram bitstrings differ from the tracked readout support")
        return actual_cost


class OracleSweep(Workload):
    name = "oracle-sweep"
    inputs = 48  # every (q, n, threshold count) below, once

    def make(self, rng, workdir):
        fixed = random.Random(self.name)
        inputs = []
        for q in range(3, 9):
            for n in (1, 2):
                for count in range(1, 5):
                    thresholds = thresholds_for(fixed, q, count)
                    top = (1 << q) - 1
                    levels = (fixed.randint(0, top), *(fixed.randint(t, top) for t in thresholds))
                    config = ThresholdConfig(q, thresholds, levels)
                    img = random_image(rng, n, q)
                    inputs.append(Input(
                        len(inputs), 4**n, classical_segment(img, config),
                        {"image": img, "config": config},
                    ))
        return inputs

    def run(self, inp):
        built = segmentation.build_pipeline(inp.data["image"], inp.data["config"])
        direct = neqr.decode(tracked.run_tracked(built))
        ledger = cost.quantum_cost(built)
        parsed = qasm.parse_circuit_text(qasm.export_circuit_text(built))
        relaid = circuit.Circuit(parsed.width, built.layout).extend(parsed)
        lowered = neqr.decode(tracked.run_tracked(relaid))
        return direct, lowered, ledger

    def check(self, inp, result):
        direct, lowered, ledger = result
        if direct != inp.expected:
            raise Mismatch("tracked decode differs from classical_segment")
        if lowered != inp.expected:
            raise Mismatch("re-simulated lowered QASM differs from classical_segment")
        return ledger.actual_cost


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (TrackedCli(), SampledCli(), OracleSweep())
}
