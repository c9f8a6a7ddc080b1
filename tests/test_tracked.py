import math
import random
from fractions import Fraction

import numpy as np
import pytest

from neqrseg import (
    BranchMap,
    Circuit,
    CollisionError,
    Control,
    GateKind,
    GateOp,
    ImageGray,
    RegisterLayout,
    ThresholdConfig,
    apply_to_basis,
    assert_no_collision,
    build_pipeline,
    build_preparation,
    classical_segment,
    decode,
    insert_bits,
    pos,
    run_tracked,
    sample_shots,
)
from neqrseg.tracked import apply_permutation


def test_apply_to_basis_refuses_non_permutations():
    with pytest.raises(ValueError):
        apply_to_basis(GateOp(GateKind.H, 0), 0)
    with pytest.raises(ValueError):
        apply_to_basis(GateOp(GateKind.RESET, 0), 1)


def test_apply_to_basis_controls():
    op = GateOp(GateKind.X, 2, (pos(0), pos(1)))
    assert apply_to_basis(op, 0b011) == 0b111
    assert apply_to_basis(op, 0b001) == 0b001


def test_kernel_matches_reference_gate():
    rng = random.Random(5)
    width = 8
    indices = np.arange(1 << width, dtype=np.int64)
    for _ in range(300):
        count = rng.randint(0, 5)
        wires = rng.sample(range(width), count + 1)
        op = GateOp(
            GateKind.X, wires[0], tuple(Control(w, rng.random() < 0.5) for w in wires[1:])
        )
        assert op.mask.bit_count() == len(op.controls)
        assert op.value & ~op.mask == 0
        flipped = apply_permutation(indices, op).tolist()
        assert flipped == [apply_to_basis(op, i) for i in range(1 << width)]


def test_prep_only_run_reproduces_the_image(sample_4x4):
    prep = build_preparation(sample_4x4)
    result = run_tracked(prep)
    assert len(result.branches) == 16
    assert set(result.readout_distribution().values()) == {Fraction(1, 16)}
    mapping = result.position_color_map()
    assert mapping == {p: sample_4x4.pixels[p] for p in range(16)}


def test_h_outside_prep_is_refused():
    c = Circuit(2)
    c.h(0)
    with pytest.raises(ValueError, match="statevector"):
        run_tracked(c)


def test_h_on_non_position_qubit_refused():
    layout = RegisterLayout(1, 2)
    c = Circuit(layout.width, layout)
    with c.stage("prep"):
        c.h(layout.color[0])
    with pytest.raises(ValueError, match="position qubit"):
        run_tracked(c)


def test_repeated_h_refused():
    c = Circuit(1)
    with c.stage("prep"):
        c.h(0).h(0)
    with pytest.raises(ValueError, match="second H"):
        run_tracked(c)


def test_h_on_nonzero_qubit_refused():
    c = Circuit(1)
    c.x(0)
    with c.stage("prep"):
        c.h(0)
    # the X sits before the stage span, so the qubit is |1> at the H
    with pytest.raises(ValueError, match=r"\|0> in every branch"):
        run_tracked(c)


def test_h_on_set_branch_refused_inside_prep():
    c = Circuit(2)
    with c.stage("prep"):
        c.x(0).h(0)
    with pytest.raises(ValueError, match=r"\|0>"):
        run_tracked(c)


def test_reset_clears_bit_in_every_branch():
    c = Circuit(2)
    with c.stage("prep"):
        c.h(0)
    c.cx(0, 1).reset(0)
    result = run_tracked(c)
    assignments = sorted(int(b) for b in result.branches)
    assert assignments == [0b00, 0b10]


def test_permutation_part_is_reversible():
    c = Circuit(3)
    with c.stage("prep"):
        c.h(0).h(1)
    body = [
        GateOp(GateKind.X, 2, (pos(0),)),
        GateOp(GateKind.X, 2, (pos(0), pos(1))),
        GateOp(GateKind.X, 1),
    ]
    for op in body:
        c.append(op)
    for op in reversed(body):
        c.append(op)
    result = run_tracked(c)
    assert sorted(int(b) for b in result.branches) == [0b00, 0b01, 0b10, 0b11]


def test_initial_assignment_range_checked():
    with pytest.raises(ValueError, match="initial"):
        run_tracked(Circuit(2), initial=4)


def test_width_beyond_int64_indices_refused():
    with pytest.raises(ValueError, match="62-qubit limit"):
        run_tracked(Circuit(63))


def test_collision_detection():
    layout = RegisterLayout(1, 1)
    at = lambda position, color: insert_bits(
        insert_bits(0, layout.position, position), layout.color, color
    )
    clean = BranchMap(layout.width, np.array([at(0, 0), at(1, 0)]), layout)
    assert_no_collision(clean)
    colliding = BranchMap(layout.width, np.array([at(1, 0), at(1, 1)]), layout)
    with pytest.raises(CollisionError, match="position tag 01"):
        assert_no_collision(colliding)
    with pytest.raises(CollisionError):
        colliding.position_color_map()
    with pytest.raises(CollisionError):
        decode(colliding)


def test_array_queries_match_per_branch_loops():
    """The vectorised queries agree with per-branch loops over the indices."""
    rng = random.Random(3)
    for _ in range(200):
        layout = RegisterLayout(rng.randint(0, 2), rng.randint(1, 3))
        count = 4**layout.n
        positions = (
            rng.sample(range(count), rng.randint(1, count))
            if rng.random() < 0.5
            else [rng.randrange(count) for _ in range(rng.randint(1, 2 * count))]
        )
        indices = [
            insert_bits(rng.randrange(1 << layout.width), layout.position, p)
            for p in positions
        ]
        branch_map = BranchMap(layout.width, np.array(indices), layout)

        law: dict[str, Fraction] = {}
        for b in indices:
            key = layout.readout_bitstring(b)
            law[key] = law.get(key, Fraction(0)) + Fraction(1, len(indices))
        assert list(branch_map.readout_distribution().items()) == list(law.items())

        seen: dict[int, int] = {}
        for b in indices:
            p = layout.position_value(b)
            if p in seen:
                w = layout.width
                message = (
                    f"branches {seen[p]:0{w}b} and {b:0{w}b} share "
                    f"position tag {p:0{2 * layout.n}b}"
                )
                with pytest.raises(CollisionError) as caught:
                    assert_no_collision(branch_map)
                assert str(caught.value) == message
                break
            seen[p] = b
        else:
            lookup = {p: layout.color_value(b) for p, b in seen.items()}
            assert branch_map.position_color_map() == lookup
            if len(lookup) == count:
                assert decode(branch_map).pixels == tuple(
                    lookup[p] for p in range(count)
                )


def test_layout_required_for_position_queries():
    bare = BranchMap(2, np.array([0]))
    with pytest.raises(ValueError, match="layout"):
        bare.position_color_map()


def test_readout_distribution_sums_to_one(sample_4x4, sample_config):
    pipe = build_pipeline(sample_4x4, sample_config)
    dist = run_tracked(pipe).readout_distribution()
    assert sum(dist.values(), Fraction(0)) == 1
    assert all(len(k) == sample_4x4.q + 2 * sample_4x4.n for k in dist)


def test_tracked_matches_statevector_sampling():
    """Cross-validate the two backends on a full (small) pipeline."""
    image = ImageGray(1, 2, (0, 1, 2, 3))
    config = ThresholdConfig.with_default_levels(2, (2,))
    pipe = build_pipeline(image, config)
    exact = run_tracked(pipe).readout_distribution()

    shots = 4096
    records = sample_shots(pipe, shots, seed=11)
    sampled = {r.bitstring: r.probability for r in records}
    assert set(sampled) <= set(k for k, v in exact.items() if v > 0)
    sigma = math.sqrt(0.25 * 0.75 / shots)
    for key, weight in exact.items():
        assert abs(sampled.get(key, 0.0) - float(weight)) < 4 * sigma

    mapping = run_tracked(pipe).position_color_map()
    oracle = classical_segment(image, config)
    assert tuple(mapping[p] for p in range(4)) == oracle.pixels
