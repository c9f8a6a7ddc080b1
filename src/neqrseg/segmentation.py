"""Multi-threshold segmentation: classical oracle, stage builders and pipeline.

Thresholds T_1 < ... < T_N split the gray range into N + 1 bands; band k
(values in [T_{k-1}, T_k)) is replaced by the level g_k.  The circuit runs
the comparisons against descending thresholds so each band can be written
from just two live comparison flags:

  * highest band first: compare against T_N, rewrite on flag 0 (S1 form);
  * each middle band: compare against the next threshold down, rewrite where
    the previous flag is 1 and the new one 0 (S3 form), then reset the stale
    flag so the result pair slides;
  * after the last comparison the lowest band is written on flag 1 (S2 form).

Rewritten levels must not fall below the threshold of their lower band edge
(validated up front), or a later comparison would reclassify them.  Each
stage builder appends its named stage to the circuit it is given; the band
rewrites read that circuit's register layout.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .circuit import Circuit, Control, RegisterLayout, neg, pos
from .comparator import build_comparator
from .cost import quantum_cost
from .image import ImageGray, plain_ints
from .neqr import build_preparation


@dataclass(frozen=True)
class ThresholdConfig:
    """Strictly increasing thresholds plus one replacement level per band."""

    q: int
    thresholds: tuple[int, ...]
    levels: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", *plain_ints((self.q,), "q"))
        object.__setattr__(self, "thresholds", plain_ints(self.thresholds, "threshold"))
        object.__setattr__(self, "levels", plain_ints(self.levels, "level"))
        if self.q < 1:
            raise ValueError("q must be at least 1")
        top = (1 << self.q) - 1
        if not self.thresholds:
            raise ValueError("need at least one threshold")
        if any(not 1 <= t <= top for t in self.thresholds):
            raise ValueError(f"thresholds must lie in 1..{top}")
        if any(b <= a for a, b in zip(self.thresholds, self.thresholds[1:])):
            raise ValueError("thresholds must be strictly increasing")
        if len(self.levels) != len(self.thresholds) + 1:
            raise ValueError(
                f"{len(self.thresholds)} thresholds need "
                f"{len(self.thresholds) + 1} levels, got {len(self.levels)}"
            )
        if any(not 0 <= g <= top for g in self.levels):
            raise ValueError(f"levels must lie in 0..{top}")
        for k in range(1, len(self.levels)):
            if self.levels[k] < self.thresholds[k - 1]:
                raise ValueError(
                    f"level {self.levels[k]} for band {k + 1} lies below its "
                    f"lower edge {self.thresholds[k - 1]}; a later comparison "
                    "would reclassify it"
                )

    @classmethod
    def with_default_levels(
        cls, q: int, thresholds: tuple[int, ...] | list[int]
    ) -> "ThresholdConfig":
        """Levels (0, T_2, ..., T_N, 2^q - 1): extremes plus upper band edges."""
        thresholds = tuple(thresholds)
        levels = (0, *thresholds[1:], (1 << q) - 1)
        return cls(q, thresholds, levels)


def default_thresholds(q: int, count: int) -> tuple[int, ...]:
    """Canonical threshold ladder: doubling powers of two when they fit."""
    if count < 1:
        raise ValueError("need at least one threshold")
    if count > (1 << q) - 1:
        raise ValueError(f"cannot fit {count} distinct thresholds in 1..{(1 << q) - 1}")
    if count <= q:
        return tuple(1 << (q - count + k) for k in range(count))
    return tuple(range(1, count + 1))


def classical_segment(image: ImageGray, config: ThresholdConfig) -> ImageGray:
    """Reference banding applied pixel by pixel."""
    if config.q != image.q:
        raise ValueError(f"config is for q={config.q} but image has q={image.q}")

    def band(value: int) -> int:
        for k, t in enumerate(config.thresholds):
            if value < t:
                return config.levels[k]
        return config.levels[-1]

    return ImageGray(image.n, image.q, tuple(band(v) for v in image.pixels))


def _layout_of(circuit: Circuit) -> RegisterLayout:
    if circuit.layout is None:
        raise ValueError("the band rewrites need a circuit with a register layout")
    return circuit.layout


def _conditional_write(
    circuit: Circuit, condition: tuple[Control, ...], value: int, aux: int
) -> None:
    # Flip color bit k exactly when the condition holds and the bit differs
    # from the wanted value; the aux qubit breaks the control-equals-target
    # cycle and is reset after every bit.
    layout = circuit.layout
    for k, cq in enumerate(layout.color):
        want = value >> (layout.q - 1 - k) & 1
        circuit.controlled_x((*condition, Control(cq, not want)), aux)
        circuit.cx(aux, cq)
        circuit.reset(aux)


def build_s1(circuit: Circuit, level: int, *, stage: str, flag: int) -> Circuit:
    """Append stage ``stage``: write ``level`` to color wherever ``flag`` is 0."""
    layout = _layout_of(circuit)
    with circuit.stage(stage, ("s1-paper", 7 * layout.q)):
        _conditional_write(circuit, (neg(flag),), level, layout.cmp_aux[0])
    return circuit


def build_s2(circuit: Circuit, level: int, *, stage: str, flag: int) -> Circuit:
    """Append stage ``stage``: write ``level`` to color wherever ``flag`` is 1."""
    layout = _layout_of(circuit)
    with circuit.stage(stage, ("s2-paper", 7 * layout.q)):
        _conditional_write(circuit, (pos(flag),), level, layout.cmp_aux[0])
    return circuit


def build_s3(
    circuit: Circuit, level: int, *, stage: str, upper_flag: int, lower_flag: int
) -> Circuit:
    """Append stage ``stage``: write ``level`` where ``upper_flag`` is 1 and
    ``lower_flag`` is 0.

    The two-flag condition is folded into one aux qubit so the per-bit writes
    stay Toffoli sized; that aux is cleared again at the end.
    """
    layout = _layout_of(circuit)
    cond_aux, bit_aux = layout.cmp_aux
    with circuit.stage(stage, ("s3-paper", 7 * layout.q + 10)):
        circuit.controlled_x((pos(upper_flag), neg(lower_flag)), cond_aux)
        _conditional_write(circuit, (pos(cond_aux),), level, bit_aux)
        circuit.reset(cond_aux)
    return circuit


def build_pipeline(image: ImageGray, config: ThresholdConfig) -> Circuit:
    """Full circuit: preparation, then one compare/rewrite round per threshold.

    The wiring is the preparation's, ``RegisterLayout(image.n, image.q)``,
    and every later stage is appended to the preparation circuit in place.

    Stage order for two thresholds: prep, init-T-1, compare-1, segment-1 (top
    band), reset-T-1, init-T-2, compare-2, segment-2 (bottom band), segment-3
    (middle band).  More thresholds repeat the middle rounds with the result
    pair sliding: the stale flag is reset right after the band it guarded.
    """
    if config.q != image.q:
        raise ValueError(f"config is for q={config.q} but image has q={image.q}")
    circuit = build_preparation(image)
    layout = circuit.layout
    q = layout.q
    count = len(config.thresholds)
    descending = tuple(reversed(config.thresholds))
    segment = (f"segment-{i}" for i in itertools.count(1))
    previous_slot: int | None = None
    for k, threshold in enumerate(descending, start=1):
        slot = layout.results[(k - 1) % 2]
        with circuit.stage(f"init-T-{k}", ("threshold-init-paper", q)):
            for j, tq in enumerate(layout.threshold):
                if threshold >> (q - 1 - j) & 1:
                    circuit.x(tq)
        build_comparator(
            circuit, layout.color, layout.threshold, layout.cmp_aux, slot, stage=f"compare-{k}"
        )
        if k == 1:
            build_s1(circuit, config.levels[-1], stage=next(segment), flag=slot)
        if k == count:
            build_s2(circuit, config.levels[0], stage=next(segment), flag=slot)
        if k > 1:
            level = config.levels[count + 1 - k]
            build_s3(circuit, level, stage=next(segment), upper_flag=previous_slot, lower_flag=slot)
        if k < count:
            if k > 1:
                with circuit.stage(f"reset-y-{k}"):
                    circuit.reset(previous_slot)
            with circuit.stage(f"reset-T-{k}", ("threshold-reset-paper", q)):
                for tq in layout.threshold:
                    circuit.reset(tq)
        previous_slot = slot
    return circuit


@dataclass(frozen=True)
class ComparisonRow:
    """One algorithm's published figures, plus our measured cost when built."""

    algorithm: str
    thresholds: int
    auxiliary_qubits: int
    quantum_cost: int
    segmentations: int
    actual_cost: int | None = None


def reference_pipeline(q: int, count: int = 2) -> Circuit:
    """Canonical pipeline used for measured costs; the image is irrelevant
    because preparation is never counted."""
    blank = ImageGray(1, q, (0,) * 4)
    config = ThresholdConfig.with_default_levels(q, default_thresholds(q, count))
    return build_pipeline(blank, config)


def comparison_table(q: int) -> list[ComparisonRow]:
    """Published costs at gray depth ``q``, ours last with its measured cost."""
    if q < 1:
        raise ValueError("q must be at least 1")
    ours_actual = quantum_cost(reference_pipeline(q)).actual_cost if q > 1 else None
    return [
        ComparisonRow("IS", 1, 3 * q - 1, 127 * q - 91, 2),
        ComparisonRow("NMQCIS", 1, 18, 48 * q - 6, 2),
        ComparisonRow("DQIS", 2, 5, 70 * q - 14, 2),
        ComparisonRow("ours", 2, 4, 60 * q - 6, 3, actual_cost=ours_actual),
    ]
