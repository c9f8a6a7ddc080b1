"""End-to-end acceptance checks.

Each test covers one numbered criterion, prints a single PASS/FAIL line
(run with ``pytest -s`` to see them) and enforces the stated time budget.
All expected values are frozen outputs of the independent classical oracle
or externally quoted constants; none were produced by the circuits under
test.
"""
import math
import random
import time

import pytest

from neqrseg import (
    Circuit,
    ImageGray,
    RegisterLayout,
    ThresholdConfig,
    build_comparator,
    build_pipeline,
    build_preparation,
    classical_segment,
    comparator_formula_cost,
    comparison_table,
    decode,
    default_thresholds,
    quantum_cost,
    reference_pipeline,
    run,
    run_tracked,
    sample_shots,
)
from conftest import SAMPLE_2X2, SAMPLE_4X4, SEGMENTED_4X4
from oracles import extract_bits, from_basis, insert_bits, without_stages


def check(number, label, body, budget=None):
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"criterion {number}: FAIL - {label}")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed > budget:
        print(
            f"criterion {number}: FAIL - {label} "
            f"(took {elapsed:.2f}s, budget {budget:g}s)"
        )
        pytest.fail(f"criterion {number} exceeded its {budget:g}s budget")
    timing = f" ({elapsed:.2f}s of {budget:g}s)" if budget is not None else ""
    print(f"criterion {number}: PASS - {label}{timing}")


def test_criterion_1_preparation_state():
    def body():
        prep = build_preparation(SAMPLE_2X2)
        layout = prep.layout
        state = run(prep, seed=0)
        amps = dict(zip(state.indices.tolist(), state.amplitudes.tolist()))
        expected = {}
        for label, value in enumerate(SAMPLE_2X2.pixels):
            idx = insert_bits(insert_bits(0, layout.position, label), layout.color, value)
            expected[idx] = 0.5
        support = [idx for idx, amp in amps.items() if abs(amp) > 1e-10]
        assert sorted(support) == sorted(expected)
        for idx, amp in expected.items():
            assert abs(amps[idx] - amp) <= 1e-10

        rng = random.Random(424242)
        for _ in range(100):
            n, q = rng.randint(0, 2), rng.randint(1, 4)
            image = ImageGray(
                n, q, tuple(rng.randrange(1 << q) for _ in range(4**n))
            )
            assert decode(run_tracked(build_preparation(image))) == image

    check(1, "2x2 8-bit preparation amplitudes exact; 100 encode/decode round "
             "trips", body, budget=1.0)


def test_criterion_2_comparator_exhaustive():
    def body():
        from oracles import apply_to_basis

        for q in (1, 2, 3, 4):
            a_register, b_register = tuple(range(q)), tuple(range(q, 2 * q))
            aux, result = (2 * q, 2 * q + 1), 2 * q + 2
            circuit = build_comparator(
                Circuit(2 * q + 3), a_register, b_register, aux, result, stage="compare"
            )
            for a in range(1 << q):
                for b in range(1 << q):
                    state = insert_bits(0, a_register, a)
                    state = insert_bits(state, b_register, b)
                    for op in circuit.ops:
                        if op.kind.value == "reset":
                            state &= ~(1 << op.target)
                        else:
                            state = apply_to_basis(op, state)
                    assert extract_bits(state, a_register) == a
                    assert extract_bits(state, b_register) == b
                    assert extract_bits(state, aux) == 0
                    assert extract_bits(state, (result,)) == int(a < b)

    check(2, "comparator truth table exhaustive for q = 1..4, operands "
             "restored, aux cleaned", body, budget=5.0)


def test_criterion_3_worked_pixel():
    def body():
        config = ThresholdConfig.with_default_levels(3, (2, 4))
        pipe = build_pipeline(SAMPLE_4X4, config)
        layout = pipe.layout
        body_only = without_stages(pipe, "prep")
        start = insert_bits(0, layout.color, 0b001)
        start = insert_bits(start, layout.position, 0b0010)
        result = run_tracked(from_basis(body_only, start))
        assert len(result.branches) == 1
        end = int(result.branches[0])
        assert extract_bits(end, layout.color) == 0b000
        assert extract_bits(end, layout.position) == 0b0010
        assert extract_bits(end, layout.cmp_aux) == 0

    check(3, "pixel with gray 001 at position 0010 rewrites to 000", body)


# Independently recorded expected output for the 4x4 sample with thresholds
# (2, 4).  Three entries (positions 8, 11, 14) are known-suspect in the
# source material and are allowed to disagree with the oracle.
REFERENCE_LISTING = {
    0: 4, 1: 4, 2: 4, 3: 4, 4: 4, 5: 4, 6: 0, 7: 0,
    8: 0, 9: 7, 10: 0, 11: 7, 12: 0, 13: 7, 14: 4, 15: 7,
}
SUSPECT_POSITIONS = {8, 11, 14}


def test_criterion_4_sample_segmentation_tracked():
    def body():
        config = ThresholdConfig.with_default_levels(3, (2, 4))
        result = decode(run_tracked(build_pipeline(SAMPLE_4X4, config)))
        oracle = classical_segment(SAMPLE_4X4, config)
        assert result == oracle
        assert result.pixels == SEGMENTED_4X4
        mismatched = {
            p for p in range(16) if result.pixels[p] != REFERENCE_LISTING[p]
        }
        assert len(mismatched) <= 2, mismatched
        assert mismatched <= SUSPECT_POSITIONS, mismatched

    check(4, "tracked 4x4 run matches the oracle on all 16 pixels and the "
             "reference listing on >= 14", body, budget=1.0)


def test_criterion_5_sampled_segmentation_statevector():
    def body():
        config = ThresholdConfig.with_default_levels(3, (2, 4))
        pipe = build_pipeline(SAMPLE_4X4, config)
        support = {
            key
            for key, weight in run_tracked(pipe).readout_distribution().items()
            if weight > 0
        }
        shots = 1024
        records = sample_shots(pipe, shots, seed=0)
        assert len(records) == 16
        assert {r.bitstring for r in records} == support
        tolerance = 4 * math.sqrt((1 / 16) * (15 / 16) / shots)
        for r in records:
            assert abs(r.probability - 1 / 16) < tolerance, r

    check(5, "1024 sampled shots hit exactly the 16 expected outcomes, each "
             "within 4 sigma of 1/16", body, budget=10.0)


def test_criterion_6_cost_constants():
    def body():
        assert comparator_formula_cost(1) == 5
        assert comparator_formula_cost(3) == 41
        assert comparator_formula_cost(8) == 131
        assert comparison_table(3)[-1].quantum_cost == 174
        assert quantum_cost(reference_pipeline(3)).formula_cost == 164
        table = {row.algorithm: row.quantum_cost for row in comparison_table(3)}
        assert table == {"IS": 290, "NMQCIS": 138, "DQIS": 196, "ours": 174}

    check(6, "quoted cost constants reproduced exactly", body)


def test_criterion_7_width_invariance():
    def body():
        blank = ImageGray(2, 3, (0,) * 16)
        for count in (1, 2, 3, 4):
            thresholds = default_thresholds(3, count)
            config = ThresholdConfig.with_default_levels(3, thresholds)
            assert build_pipeline(blank, config).width == 14

    check(7, "pipeline width stays 14 for 1..4 thresholds at q=3, n=2", body)


def test_criterion_8_randomized_three_threshold_runs():
    def body():
        rng = random.Random(20250412)
        for _ in range(100):
            image = ImageGray(2, 3, tuple(rng.randrange(8) for _ in range(16)))
            thresholds = tuple(sorted(rng.sample(range(1, 8), 3)))
            if rng.random() < 0.5:
                config = ThresholdConfig.with_default_levels(3, thresholds)
            else:
                levels = (rng.randrange(0, 8),) + tuple(
                    rng.randrange(t, 8) for t in thresholds
                )
                config = ThresholdConfig(3, thresholds, levels)
            result = decode(run_tracked(build_pipeline(image, config)))
            assert result == classical_segment(image, config), (
                image.pixels,
                config,
            )

    check(8, "100 random 4x4 images with random 3-threshold configurations "
             "match the oracle", body, budget=30.0)


def test_criterion_9_small_instance_sampling_accuracy():
    def body():
        rng = random.Random(99)
        threshold_sets = [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]
        shots = 4096
        for trial in range(3):
            image = ImageGray(1, 2, tuple(rng.randrange(4) for _ in range(4)))
            config = ThresholdConfig.with_default_levels(
                2, rng.choice(threshold_sets)
            )
            pipe = build_pipeline(image, config)
            exact = {
                key: float(weight)
                for key, weight in run_tracked(pipe).readout_distribution().items()
            }
            records = sample_shots(pipe, shots, seed=1000 + trial)
            sampled = {r.bitstring: r.probability for r in records}
            keys = set(exact) | set(sampled)
            tvd = 0.5 * sum(
                abs(exact.get(k, 0.0) - sampled.get(k, 0.0)) for k in keys
            )
            assert tvd < 0.05, (trial, tvd)

    check(9, "sampled 2x2 distributions within 0.05 total variation of the "
             "exact law", body, budget=30.0)
