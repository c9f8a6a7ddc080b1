import itertools
import random

import numpy as np
import pytest

from neqrseg import (
    Circuit,
    ImageGray,
    RegisterLayout,
    Stage,
    ThresholdConfig,
    build_pipeline,
    build_s1,
    build_s2,
    build_s3,
    classical_segment,
    comparison_table,
    decode,
    default_thresholds,
    quantum_cost,
    reference_pipeline,
    run_tracked,
)
from conftest import SEGMENTED_4X4
from oracles import apply_to_basis, extract_bits, insert_bits


# ---------------------------------------------------------------- config


def test_config_validation_messages():
    with pytest.raises(ValueError, match="strictly increasing"):
        ThresholdConfig(3, (4, 2), (0, 4, 7))
    with pytest.raises(ValueError, match="1..7"):
        ThresholdConfig(3, (0, 4), (0, 4, 7))
    with pytest.raises(ValueError, match="2 levels"):
        ThresholdConfig(3, (4,), (0,))
    with pytest.raises(ValueError, match="levels must lie"):
        ThresholdConfig(3, (4,), (0, 9))
    with pytest.raises(ValueError, match="at least one threshold"):
        ThresholdConfig(3, (), (0,))
    with pytest.raises(ValueError, match="q must be"):
        ThresholdConfig(0, (1,), (0, 1))


@pytest.mark.parametrize(
    "args,fragment",
    [
        ((3, (2.5,), (0, 7)), "threshold 2.5 is not an integer"),
        ((3, (True,), (0, 7)), "threshold True is not an integer"),
        ((3, (2,), (0, 7.0)), "level 7.0 is not an integer"),
        ((3, (2,), (False, 7)), "level False is not an integer"),
        ((3.0, (2,), (0, 7)), "q 3.0 is not an integer"),
    ],
)
def test_config_refuses_bools_and_non_integers(args, fragment):
    with pytest.raises(ValueError, match=fragment):
        ThresholdConfig(*args)


def test_config_stores_plain_ints_from_numpy_integers():
    cfg = ThresholdConfig(np.int8(3), np.array([2, 4]), (np.int64(0), 4, np.uint8(7)))
    assert cfg == ThresholdConfig(3, (2, 4), (0, 4, 7))
    assert {type(v) for v in (cfg.q, *cfg.thresholds, *cfg.levels)} == {int}


def test_config_rejects_reclassifiable_levels():
    with pytest.raises(ValueError, match="lies below its lower edge"):
        ThresholdConfig(3, (2, 4), (0, 4, 3))
    with pytest.raises(ValueError, match="reclassify"):
        ThresholdConfig(3, (2, 4), (0, 1, 7))


def test_config_accepts_levels_on_the_edge():
    cfg = ThresholdConfig(3, (2, 4), (1, 2, 4))
    assert cfg.levels == (1, 2, 4)


def test_default_levels():
    cfg = ThresholdConfig.with_default_levels(3, (2, 4))
    assert cfg.levels == (0, 4, 7)
    assert ThresholdConfig.with_default_levels(8, (100,)).levels == (0, 255)
    assert ThresholdConfig.with_default_levels(8, (50, 100, 150)).levels == (
        0,
        100,
        150,
        255,
    )


def test_default_thresholds():
    assert default_thresholds(3, 1) == (4,)
    assert default_thresholds(3, 2) == (2, 4)
    assert default_thresholds(3, 3) == (1, 2, 4)
    assert default_thresholds(2, 3) == (1, 2, 3)
    assert default_thresholds(8, 2) == (64, 128)
    with pytest.raises(ValueError, match="cannot fit"):
        default_thresholds(1, 2)
    with pytest.raises(ValueError, match="at least one"):
        default_thresholds(3, 0)


# ---------------------------------------------------------------- oracle


def test_classical_segment_frozen_sample(sample_4x4, sample_config):
    assert classical_segment(sample_4x4, sample_config).pixels == SEGMENTED_4X4


def test_classical_segment_band_edges():
    cfg = ThresholdConfig.with_default_levels(3, (2, 4))
    img = ImageGray(1, 3, (1, 2, 3, 4))
    assert classical_segment(img, cfg).pixels == (0, 4, 4, 7)


def test_classical_segment_q_mismatch():
    cfg = ThresholdConfig.with_default_levels(3, (2,))
    with pytest.raises(ValueError, match="config is for q=3"):
        classical_segment(ImageGray(1, 2, (0, 1, 2, 3)), cfg)


# ------------------------------------------------------- band rewrite stages


def evaluate(circuit, assignment):
    for op in circuit.ops:
        if op.kind.value == "reset":
            assignment &= ~(1 << op.target)
        else:
            assignment = apply_to_basis(op, assignment)
    return assignment


LAYOUT = RegisterLayout(1, 3)


def host():
    return Circuit(LAYOUT.width, LAYOUT)


def _start(color, flags):
    state = insert_bits(0, LAYOUT.color, color)
    for qb, bit in flags.items():
        state = insert_bits(state, (qb,), bit)
    return state


@pytest.mark.parametrize("level", [0, 3, 5, 7])
def test_s1_rewrites_only_flag_zero(level):
    flag = LAYOUT.results[0]
    circuit = build_s1(host(), level, stage="segment-1", flag=flag)
    for color, bit in itertools.product(range(8), (0, 1)):
        end = evaluate(circuit, _start(color, {flag: bit}))
        expected = color if bit else level
        assert extract_bits(end, LAYOUT.color) == expected
        assert extract_bits(end, (flag,)) == bit
        assert extract_bits(end, LAYOUT.cmp_aux) == 0


@pytest.mark.parametrize("level", [0, 3, 5, 7])
def test_s2_rewrites_only_flag_one(level):
    flag = LAYOUT.results[1]
    circuit = build_s2(host(), level, stage="segment-2", flag=flag)
    for color, bit in itertools.product(range(8), (0, 1)):
        end = evaluate(circuit, _start(color, {flag: bit}))
        expected = level if bit else color
        assert extract_bits(end, LAYOUT.color) == expected
        assert extract_bits(end, (flag,)) == bit
        assert extract_bits(end, LAYOUT.cmp_aux) == 0


@pytest.mark.parametrize("level", [0, 3, 5, 7])
def test_s3_rewrites_only_upper_and_not_lower(level):
    upper, lower = LAYOUT.results
    circuit = build_s3(
        host(), level, stage="segment-3", upper_flag=upper, lower_flag=lower
    )
    for color, ub, lb in itertools.product(range(8), (0, 1), (0, 1)):
        end = evaluate(circuit, _start(color, {upper: ub, lower: lb}))
        expected = level if (ub, lb) == (1, 0) else color
        assert extract_bits(end, LAYOUT.color) == expected
        assert extract_bits(end, (upper,)) == ub
        assert extract_bits(end, (lower,)) == lb
        assert extract_bits(end, LAYOUT.cmp_aux) == 0


def test_band_circuit_formula_registrations():
    y0, y1 = LAYOUT.results
    s1 = build_s1(host(), 1, stage="segment-1", flag=y0)
    s2 = build_s2(host(), 1, stage="segment-2", flag=y1)
    s3 = build_s3(host(), 1, stage="segment-3", upper_flag=y0, lower_flag=y1)
    assert s1.stage_named("segment-1").quoted == ("s1-paper", 21)
    assert s2.stage_named("segment-2").quoted == ("s2-paper", 21)
    assert s3.stage_named("segment-3").quoted == ("s3-paper", 31)


def test_band_circuit_flag_overrides():
    flag = LAYOUT.results[1]
    circuit = build_s1(host(), 5, flag=flag, stage="alt")
    end = evaluate(circuit, _start(0, {flag: 0}))
    assert extract_bits(end, LAYOUT.color) == 5
    assert circuit.stage_names() == ["alt"]


@pytest.mark.parametrize(
    "build,flags",
    [
        (build_s1, {"flag": 0}),
        (build_s2, {"flag": 0}),
        (build_s3, {"upper_flag": 0, "lower_flag": 1}),
    ],
)
def test_band_builders_refuse_a_circuit_without_layout(build, flags):
    bare = Circuit(LAYOUT.width)
    with pytest.raises(ValueError, match="register layout"):
        build(bare, 1, stage="segment", **flags)
    assert bare.ops == [] and bare.stages == []


# ---------------------------------------------------------------- pipeline


def test_two_threshold_stage_order(sample_4x4, sample_config):
    pipe = build_pipeline(sample_4x4, sample_config)
    assert pipe.stage_names() == [
        "prep",
        "init-T-1",
        "compare-1",
        "segment-1",
        "reset-T-1",
        "init-T-2",
        "compare-2",
        "segment-2",
        "segment-3",
    ]


def test_three_threshold_stage_order():
    cfg = ThresholdConfig.with_default_levels(3, (2, 4, 6))
    pipe = build_pipeline(ImageGray(1, 3, (0, 1, 2, 3)), cfg)
    assert pipe.stage_names() == [
        "prep",
        "init-T-1",
        "compare-1",
        "segment-1",
        "reset-T-1",
        "init-T-2",
        "compare-2",
        "segment-2",
        "reset-y-2",
        "reset-T-2",
        "init-T-3",
        "compare-3",
        "segment-3",
        "segment-4",
    ]


def test_pipeline_matches_oracle_on_sample(sample_4x4, sample_config):
    result = decode(run_tracked(build_pipeline(sample_4x4, sample_config)))
    assert result == classical_segment(sample_4x4, sample_config)
    assert result.pixels == SEGMENTED_4X4


@pytest.mark.parametrize("thresholds", [(3, 5), (3, 6), (1, 3), (2, 5)])
def test_pipeline_matches_oracle_other_threshold_pairs(sample_4x4, thresholds):
    cfg = ThresholdConfig.with_default_levels(3, thresholds)
    result = decode(run_tracked(build_pipeline(sample_4x4, cfg)))
    assert result == classical_segment(sample_4x4, cfg)


def test_single_threshold_pipeline(sample_4x4):
    cfg = ThresholdConfig.with_default_levels(3, (4,))
    pipe = build_pipeline(sample_4x4, cfg)
    assert pipe.stage_names() == [
        "prep",
        "init-T-1",
        "compare-1",
        "segment-1",
        "segment-2",
    ]
    result = decode(run_tracked(pipe))
    assert result == classical_segment(sample_4x4, cfg)


def test_exhaustive_all_2x2_images_q2():
    configs = [
        ThresholdConfig.with_default_levels(2, pair)
        for pair in [(1, 2), (1, 3), (2, 3)]
    ]
    for packed in range(256):
        pixels = tuple(packed >> (2 * i) & 3 for i in range(4))
        image = ImageGray(1, 2, pixels)
        for cfg in configs:
            got = decode(run_tracked(build_pipeline(image, cfg)))
            assert got == classical_segment(image, cfg), (pixels, cfg.thresholds)


def test_three_threshold_pipeline_matches_oracle(sample_4x4):
    cfg = ThresholdConfig.with_default_levels(3, (2, 4, 6))
    result = decode(run_tracked(build_pipeline(sample_4x4, cfg)))
    assert result == classical_segment(sample_4x4, cfg)
    assert result.pixels == (4, 4, 4, 4, 4, 4, 0, 0, 0, 6, 0, 6, 0, 6, 6, 7)


def test_four_threshold_pipeline_matches_oracle(sample_4x4):
    cfg = ThresholdConfig.with_default_levels(3, (1, 2, 4, 6))
    result = decode(run_tracked(build_pipeline(sample_4x4, cfg)))
    assert result == classical_segment(sample_4x4, cfg)


def test_three_thresholds_with_edge_levels_random_images():
    # every mid level sits exactly on its band's lower edge
    cfg = ThresholdConfig(3, (2, 4, 6), (0, 2, 4, 7))
    rng = random.Random(31)
    for _ in range(10):
        image = ImageGray(2, 3, tuple(rng.randrange(8) for _ in range(16)))
        result = decode(run_tracked(build_pipeline(image, cfg)))
        assert result == classical_segment(image, cfg)


def test_single_threshold_binarization_of_zero_image():
    cfg = ThresholdConfig(3, (1,), (0, 7))
    zeros = ImageGray(2, 3, (0,) * 16)
    assert decode(run_tracked(build_pipeline(zeros, cfg))) == zeros
    assert classical_segment(zeros, cfg) == zeros


def test_flag_pair_never_reads_below_only(sample_4x4, sample_config):
    """Right before the final band write the flags can be 00, 10 or 11 but
    never 01: a pixel under the low threshold is always under the high one."""
    pipe = build_pipeline(sample_4x4, sample_config)
    cut = pipe.stage_named("segment-3").start
    prefix = Circuit(pipe.width, pipe.layout)
    for op in pipe.ops[:cut]:
        prefix.append(op)
    prep = pipe.stage_named("prep")
    prefix.stages.append(Stage(prep.name, prep.start, prep.stop))
    upper, lower = pipe.layout.results
    for branch in run_tracked(prefix).branches:
        bits = (
            extract_bits(int(branch), (upper,)),
            extract_bits(int(branch), (lower,)),
        )
        assert bits != (0, 1), branch


def test_pipeline_width_is_threshold_count_invariant():
    for count in (1, 2, 3, 4):
        cfg = ThresholdConfig.with_default_levels(3, default_thresholds(3, count))
        pipe = build_pipeline(ImageGray(2, 3, (0,) * 16), cfg)
        assert pipe.width == 14


def test_pipeline_q_mismatch():
    cfg = ThresholdConfig.with_default_levels(2, (2,))
    with pytest.raises(ValueError, match="config is for q=2"):
        build_pipeline(ImageGray(1, 3, (0, 1, 2, 3)), cfg)


# ------------------------------------------------------------------- costs


def test_reference_pipeline_cost_by_formula():
    for q in range(2, 9):
        ledger = quantum_cost(reference_pipeline(q))
        assert ledger.cost_by_formula == {
            "threshold-init-paper": 2 * q,
            "comparator-paper": 2 * (18 * q - 13),
            "s1-paper": 7 * q,
            "threshold-reset-paper": q,
            "s2-paper": 7 * q,
            "s3-paper": 7 * q + 10,
        }
        assert ledger.formula_cost == 60 * q - 16
        assert comparison_table(q)[-1].quantum_cost == 60 * q - 6
    with pytest.raises(ValueError):  # no two-threshold pipeline at q = 1
        reference_pipeline(1)


def test_pipeline_formula_cost_matches_component_sum(sample_4x4, sample_config):
    ledger = quantum_cost(build_pipeline(sample_4x4, sample_config))
    assert ledger.formula_cost == quantum_cost(reference_pipeline(3)).formula_cost == 164
    assert ledger.actual_cost == 188


def test_comparison_table_q3():
    rows = {r.algorithm: r for r in comparison_table(3)}
    assert rows["IS"].quantum_cost == 290
    assert rows["NMQCIS"].quantum_cost == 138
    assert rows["DQIS"].quantum_cost == 196
    assert rows["ours"].quantum_cost == 174
    assert rows["ours"].auxiliary_qubits == 4
    assert rows["ours"].segmentations == 3
    assert rows["ours"].actual_cost == 188
    assert rows["IS"].actual_cost is None


def test_comparison_table_q1_has_no_measured_cost():
    rows = {r.algorithm: r for r in comparison_table(1)}
    assert rows["DQIS"].quantum_cost == 56
    assert rows["ours"].actual_cost is None
    with pytest.raises(ValueError, match="q must be"):
        comparison_table(0)
