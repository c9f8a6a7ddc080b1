"""Multi-threshold segmentation: classical oracle, sub-circuits and pipeline.

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
(validated up front), or a later comparison would reclassify them.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .circuit import Circuit, Control, RegisterLayout, neg, pos
from .comparator import ComparatorSpec, build_comparator, comparator_formula_cost
from .cost import quantum_cost
from .image import ImageGray
from .neqr import build_preparation


@dataclass(frozen=True)
class ThresholdConfig:
    """Strictly increasing thresholds plus one replacement level per band."""

    q: int
    thresholds: tuple[int, ...]
    levels: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "thresholds", tuple(self.thresholds))
        object.__setattr__(self, "levels", tuple(self.levels))
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


def _conditional_write(
    circuit: Circuit,
    layout: RegisterLayout,
    condition: tuple[Control, ...],
    value: int,
    aux: int,
) -> None:
    # Flip color bit k exactly when the condition holds and the bit differs
    # from the wanted value; the aux qubit breaks the control-equals-target
    # cycle and is reset after every bit.
    q = layout.q
    for k, cq in enumerate(layout.color):
        want = value >> (q - 1 - k) & 1
        circuit.controlled_x((*condition, Control(cq, not want)), aux)
        circuit.cx(aux, cq)
        circuit.reset(aux)


def build_s1(
    layout: RegisterLayout,
    level: int,
    *,
    stage: str = "segment-1",
    flag: int | None = None,
) -> Circuit:
    """Write ``level`` into the color register wherever ``flag`` is 0."""
    flag = layout.results[0] if flag is None else flag
    circuit = Circuit(layout.width)
    with circuit.stage(stage, ("s1-paper", 7 * layout.q)):
        _conditional_write(circuit, layout, (neg(flag),), level, layout.cmp_aux[0])
    return circuit


def build_s2(
    layout: RegisterLayout,
    level: int,
    *,
    stage: str = "segment-2",
    flag: int | None = None,
) -> Circuit:
    """Write ``level`` into the color register wherever ``flag`` is 1."""
    flag = layout.results[1] if flag is None else flag
    circuit = Circuit(layout.width)
    with circuit.stage(stage, ("s2-paper", 7 * layout.q)):
        _conditional_write(circuit, layout, (pos(flag),), level, layout.cmp_aux[0])
    return circuit


def build_s3(
    layout: RegisterLayout,
    level: int,
    *,
    stage: str = "segment-3",
    upper_flag: int | None = None,
    lower_flag: int | None = None,
) -> Circuit:
    """Write ``level`` where ``upper_flag`` is 1 and ``lower_flag`` is 0.

    The two-flag condition is folded into one aux qubit so the per-bit writes
    stay Toffoli sized; that aux is cleared again at the end.
    """
    upper = layout.results[0] if upper_flag is None else upper_flag
    lower = layout.results[1] if lower_flag is None else lower_flag
    cond_aux, bit_aux = layout.cmp_aux
    circuit = Circuit(layout.width)
    with circuit.stage(stage, ("s3-paper", 7 * layout.q + 10)):
        circuit.controlled_x((pos(upper), neg(lower)), cond_aux)
        _conditional_write(circuit, layout, (pos(cond_aux),), level, bit_aux)
        circuit.reset(cond_aux)
    return circuit


def build_pipeline(image: ImageGray, config: ThresholdConfig) -> Circuit:
    """Full circuit: preparation, then one compare/rewrite round per threshold.

    The wiring is the preparation's, ``RegisterLayout(image.n, image.q)``.

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
        circuit.extend(
            build_comparator(
                ComparatorSpec(
                    a_register=layout.color,
                    b_register=layout.threshold,
                    aux=layout.cmp_aux,
                    result=slot,
                    stage_name=f"compare-{k}",
                ),
                width=layout.width,
            )
        )
        if k == 1:
            circuit.extend(
                build_s1(layout, config.levels[-1], stage=next(segment), flag=slot)
            )
        if k == count:
            circuit.extend(
                build_s2(layout, config.levels[0], stage=next(segment), flag=slot)
            )
        if k > 1:
            circuit.extend(
                build_s3(
                    layout,
                    config.levels[count + 1 - k],
                    stage=next(segment),
                    upper_flag=previous_slot,
                    lower_flag=slot,
                )
            )
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
class PipelineCostFormulas:
    """Quoted closed-form costs for the two-threshold pipeline at a given q.

    ``total`` is the headline figure 60q - 6; ``component_sum`` adds up the
    quoted parts (two comparators, the segmentation block and the threshold
    loads) and comes to 60q - 16.  The two disagree by construction; both are
    reported rather than reconciled.
    """

    q: int
    comparator: int
    segmentation: int
    threshold_init: int
    total: int
    component_sum: int


def pipeline_cost_formulas(q: int) -> PipelineCostFormulas:
    comparator = comparator_formula_cost(q)
    segmentation = 21 * q + 10
    threshold_init = 3 * q
    return PipelineCostFormulas(
        q=q,
        comparator=comparator,
        segmentation=segmentation,
        threshold_init=threshold_init,
        total=60 * q - 6,
        component_sum=2 * comparator + segmentation + threshold_init,
    )


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
    """Cross-algorithm cost comparison at gray depth ``q``."""
    ours_total = pipeline_cost_formulas(q).total
    ours_actual = None
    if (1 << q) - 1 >= 2:
        ours_actual = quantum_cost(reference_pipeline(q)).actual_cost
    return [
        ComparisonRow("IS", 1, 3 * q - 1, 127 * q - 91, 2),
        ComparisonRow("NMQCIS", 1, 18, 48 * q - 6, 2),
        ComparisonRow("DQIS", 2, 5, 70 * q - 14, 2),
        ComparisonRow("ours", 2, 4, ours_total, 3, actual_cost=ours_actual),
    ]
