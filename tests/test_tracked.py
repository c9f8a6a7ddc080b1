import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    assert_no_collision,
    build_pipeline,
    build_preparation,
    classical_segment,
    decode,
    default_thresholds,
    export_circuit_text,
    parse_circuit_text,
    pos,
    run_tracked,
    sample_shots,
)
from neqrseg.tracked import apply_permutation
from oracles import apply_to_basis, from_basis, insert_bits


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
    assert decode(result) == sample_4x4


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
            if len(lookup) == count:
                assert decode(branch_map).pixels == tuple(
                    lookup[p] for p in range(count)
                )
            else:
                gap = min(set(range(count)) - set(lookup))
                missing = f"position {gap:0{2 * layout.n}b} missing"
                with pytest.raises(ValueError, match=missing):
                    decode(branch_map)


def test_layout_required_for_position_queries():
    bare = BranchMap(2, np.array([0]))
    with pytest.raises(ValueError, match="layout"):
        assert_no_collision(bare)


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

    assert decode(run_tracked(pipe)) == classical_segment(image, config)


def per_op_reference(circuit):
    """Fold the ops one at a time: the fan-out, a masked XOR or a cleared bit."""
    branches = np.zeros(1, dtype=np.int64)
    for op in circuit.ops:
        if op.kind is GateKind.H:
            branches = np.column_stack((branches, branches | 1 << op.target)).ravel()
        elif op.kind is GateKind.RESET:
            branches = branches & ~(1 << op.target)
        else:
            branches = apply_permutation(branches, op)
    return branches


def assert_same_branches(circuit):
    got = run_tracked(circuit).branches
    want = per_op_reference(circuit)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@st.composite
def fan_out_circuits(draw):
    """A prep stage fanning out on k wires, mostly X ops whose controls cover
    every wire H'd so far (extra controls and polarities drawn), broken up by
    arbitrary Xs and resets, some on an H'd wire."""
    if draw(st.booleans()):
        layout = RegisterLayout(draw(st.integers(1, 2)), draw(st.integers(1, 2)))
        width, h_pool = layout.width, list(layout.position)
    else:
        layout, width = None, draw(st.integers(2, 8))
        h_pool = list(range(width))
    h_wires = draw(st.permutations(h_pool))[: draw(st.integers(0, min(4, len(h_pool))))]
    h_bits = sum(1 << w for w in h_wires)
    initial = draw(st.integers(0, (1 << width) - 1)) & ~h_bits
    wires = st.integers(0, width - 1)
    free = [w for w in range(width) if w not in h_wires]
    c = Circuit(width, layout)
    with c.stage("prep"):
        for done in range(len(h_wires) + 1):
            split, pending = h_wires[:done], set(h_wires[done:])
            if done:
                c.h(split[-1])
            for _ in range(draw(st.integers(0, 8 if done == len(h_wires) else 2))):
                kind = draw(st.sampled_from(["mcx"] * 6 + ["x", "reset"]))
                if kind == "mcx" and free:
                    target = draw(st.sampled_from(free))
                    extra = draw(st.sets(st.sampled_from(free)))
                    controls = [
                        Control(w, draw(st.booleans()))
                        for w in (*split, *sorted(extra - {target}))
                    ]
                    c.append(GateOp(GateKind.X, target, tuple(draw(st.permutations(controls)))))
                    continue
                target = draw(wires.filter(lambda w: w not in pending))
                if kind == "reset":
                    c.reset(target)
                else:
                    others = draw(st.sets(wires.filter(lambda w: w != target)))
                    c.append(GateOp(GateKind.X, target, tuple(
                        Control(w, draw(st.booleans())) for w in sorted(others)
                    )))
    return c, initial


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(fan_out_circuits())
def test_scatter_runs_match_the_per_op_fold(case):
    circuit, initial = case
    assert_same_branches(from_basis(circuit, initial))


def test_x_on_an_h_wire_turns_the_scatter_off_for_good():
    """After the CNOT onto the H'd wire q0, two branches share each value of
    q1, so a scatter keyed on q1 alone could miss the branch |01>."""
    c = Circuit(3)
    with c.stage("prep"):
        c.h(0).h(1)
    c.cx(1, 0)
    c.append(GateOp(GateKind.X, 2, (pos(0), Control(1, False))))
    c.append(GateOp(GateKind.X, 2, (pos(0), pos(1))))
    assert sorted(run_tracked(c).branches.tolist()) == [0b000, 0b010, 0b101, 0b111]
    assert_same_branches(c)


@pytest.mark.parametrize("q", range(1, 9))
def test_default_ladders_and_their_exports_match_the_per_op_fold(q):
    rng = random.Random(q)
    for n in range(4):
        image = ImageGray(n, q, tuple(rng.randrange(1 << q) for _ in range(4**n)))
        for count in range(1, min(4, (1 << q) - 1) + 1):
            config = ThresholdConfig.with_default_levels(q, default_thresholds(q, count))
            c = build_pipeline(image, config)
            assert_same_branches(c)
            parsed = parse_circuit_text(export_circuit_text(c))
            assert_same_branches(Circuit(parsed.width, c.layout).extend(parsed))


def test_128x128_pipeline_runs_within_its_budget():
    rng = random.Random(128)
    image = ImageGray(7, 8, tuple(rng.randrange(256) for _ in range(4**7)))
    config = ThresholdConfig.with_default_levels(8, (64, 128))
    c = build_pipeline(image, config)
    start = time.perf_counter()
    result = run_tracked(c)
    elapsed = time.perf_counter() - start
    assert decode(result) == classical_segment(image, config)
    assert elapsed < 1.0, f"run_tracked took {elapsed:.2f}s of its 1s budget"
