import contextlib
import math
import random
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
from neqrseg.statevector import apply_permutation
from oracles import apply_to_basis, exact_law, from_basis, insert_bits


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


def test_h_outside_prep_fans_out():
    c = Circuit(2)
    c.h(0)
    result = run_tracked(c)
    assert result.branches.tolist() == [0b00, 0b01]
    counts = Counter(result.branches.tolist())
    law = {b: Fraction(k, len(result.branches)) for b, k in counts.items()}
    assert law == {0b00: Fraction(1, 2), 0b01: Fraction(1, 2)}


def test_h_after_a_held_prep_is_refused(sample_4x4):
    c = build_preparation(sample_4x4)
    c.h(0)
    with pytest.raises(ValueError, match="statevector"):
        run_tracked(c)


def test_h_on_a_color_qubit_runs_and_decode_collides():
    """The run is exact; two branches share position tag 00, which only
    ``decode`` needs to be distinct."""
    layout = RegisterLayout(1, 2)
    c = Circuit(layout.width, layout)
    with c.stage("prep"):
        c.h(layout.color[0])
    result = run_tracked(c)
    assert result.branches.tolist() == [0, 1 << layout.color[0]]
    with pytest.raises(CollisionError, match="position tag 00"):
        decode(result)


def test_repeated_h_refused():
    c = Circuit(1)
    with c.stage("prep"):
        c.h(0).h(0)
    with pytest.raises(ValueError, match=r"\|0> in every branch.*use the statevector backend"):
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
    """A fan-out on k wires, mostly X ops whose controls cover every wire
    H'd so far (extra controls and polarities drawn), broken up by
    arbitrary Xs and resets, some on an H'd wire; and the basis state it
    starts from.  The first steps sit in a prep stage and the rest outside
    any stage, and an H may follow a reset and a second H of a wire H'd
    earlier."""
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

    def step(done):
        split, pending = h_wires[:done], set(h_wires[done:])
        if done:
            if done > 1 and draw(st.booleans()):
                again = draw(st.sampled_from(split[:-1]))
                c.reset(again).h(again)
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

    in_prep = draw(st.integers(0, len(h_wires) + 1))
    with c.stage("prep"):
        for done in range(in_prep):
            step(done)
    for done in range(in_prep, len(h_wires) + 1):
        step(done)
    return c, initial


@st.composite
def held_circuits(draw):
    """A held image, then Xs with drawn controls and resets on any wire,
    position and color wires included."""
    n, q = draw(st.integers(0, 2)), draw(st.integers(1, 3))
    pixels = draw(st.lists(st.integers(0, (1 << q) - 1), min_size=4**n, max_size=4**n))
    c = build_preparation(ImageGray(n, q, tuple(pixels)))
    wires = st.integers(0, c.width - 1)
    for _ in range(draw(st.integers(0, 8))):
        target = draw(wires)
        if draw(st.booleans()):
            c.reset(target)
            continue
        others = draw(st.sets(wires.filter(lambda w: w != target)))
        c.append(GateOp(GateKind.X, target, tuple(
            Control(w, draw(st.booleans())) for w in sorted(others)
        )))
    return c


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.one_of(fan_out_circuits().map(lambda case: from_basis(*case)), held_circuits()))
def test_runs_match_the_per_op_fold(circuit):
    """Op-built circuits and held images alike; the fold reads ``ops``, so a
    held image's prep is folded op by op."""
    assert_same_branches(circuit)


def every_octet_circuit():
    """62 wires: two Hs give four branches, then an X on wire 61 with a
    control in every octet, of both polarities, that fires in one of them;
    a reset and a second H of wire 9 fan out to eight, and the walk goes on."""
    c = Circuit(62)
    c.x(0).x(16).h(9).h(17)
    c.append(GateOp(GateKind.X, 61, (
        pos(0), Control(8, False), pos(9), pos(16), pos(17),
        *(Control(w, False) for w in range(24, 62, 8)),
    )))
    c.reset(9).h(9)
    c.append(GateOp(GateKind.X, 60, (pos(61), Control(9, False))))
    return c


@st.composite
def wide_circuits(draw):
    """Bare circuits 1-62 wires wide from a drawn basis state: runs of Xs
    with up to six mixed-polarity controls on any wire, and resets, each run
    maybe followed by an H on a wire that is |0> in every branch, so the
    walk runs, fans out and runs again on 1-16 branches."""
    width = draw(st.integers(1, 62))
    wires = st.integers(0, width - 1)
    initial = draw(st.integers(0, (1 << width) - 1))
    c = Circuit(width)
    for qb in range(width):
        if initial >> qb & 1:
            c.x(qb)
    clean = {qb for qb in range(width) if not initial >> qb & 1}
    for _ in range(draw(st.integers(1, 5))):
        for _ in range(draw(st.integers(0, 6))):
            target = draw(wires)
            if draw(st.integers(0, 4)) == 0:
                c.reset(target)
                clean.add(target)
                continue
            others = draw(st.lists(wires.filter(lambda w: w != target), max_size=6, unique=True))
            c.append(GateOp(GateKind.X, target, tuple(
                Control(w, draw(st.booleans())) for w in others
            )))
            clean.discard(target)
        if clean and draw(st.booleans()):
            wire = draw(st.sampled_from(sorted(clean)))
            c.h(wire)
            clean.discard(wire)
    return c


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@example(every_octet_circuit())
@given(wide_circuits())
def test_wide_runs_match_the_per_op_fold(circuit):
    assert_same_branches(circuit)


@st.composite
def held_table_circuits(draw):
    """A held image with more labels than colors and stored Xs and resets
    off the position wires; and the same ops with one more that is an H, or
    that reads, writes or resets a position wire."""
    n = draw(st.integers(1, 3))
    q = draw(st.integers(1, 2 * n - 1))
    pixels = tuple(draw(st.lists(st.integers(0, (1 << q) - 1), min_size=4**n, max_size=4**n)))
    width, p = RegisterLayout(n, q).width, 2 * n
    off, anywhere = st.integers(p, width - 1), st.integers(0, width - 1)

    def x(target, wires):
        others = draw(st.lists(wires.filter(lambda w: w != target), max_size=4, unique=True))
        return GateOp(GateKind.X, target, tuple(Control(w, draw(st.booleans())) for w in others))

    ops = [
        GateOp(GateKind.RESET, draw(off)) if draw(st.integers(0, 3)) == 0 else x(draw(off), off)
        for _ in range(draw(st.integers(0, 10)))
    ]
    spoiler = draw(st.sampled_from(["h", "x on", "x read", "reset"]))
    if spoiler == "h":  # right after prep, on a threshold, aux or result wire
        spoiled = [GateOp(GateKind.H, draw(st.integers(p + q, width - 1))), *ops]
    else:
        at, wire = draw(st.integers(0, len(ops))), draw(st.integers(0, p - 1))
        if spoiler == "x on":
            extra = x(wire, anywhere)
        elif spoiler == "reset":
            extra = GateOp(GateKind.RESET, wire)
        else:
            read = x(draw(off), off)
            extra = GateOp(GateKind.X, read.target, (Control(wire, draw(st.booleans())), *read.controls))
        spoiled = [*ops[:at], extra, *ops[at:]]
    circuits = []
    for body in (ops, spoiled):
        c = build_preparation(ImageGray(n, q, pixels))
        for op in body:
            c.append(op)
        circuits.append(c)
    return circuits


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(held_table_circuits())
def test_held_images_match_the_per_op_fold_on_and_off_the_color_table(circuits):
    """The first circuit walks its colors once, the second its branches."""
    for circuit in circuits:
        assert_same_branches(circuit)


def test_every_default_ladder_segments_every_color():
    """q 1-12 with 1-4 default thresholds, on an image holding every color in
    a shuffled order and more labels than colors, so the run walks the color
    table; all 45 pipelines in 2 s."""
    rng = random.Random(12)
    start = time.perf_counter()
    for q in range(1, 13):
        n = q // 2 + 1
        colors = rng.sample(range(1 << q), 1 << q)
        image = ImageGray(n, q, tuple(colors[i % len(colors)] for i in range(4**n)))
        for count in range(1, min(4, (1 << q) - 1) + 1):
            config = ThresholdConfig.with_default_levels(q, default_thresholds(q, count))
            assert decode(run_tracked(build_pipeline(image, config))) == classical_segment(image, config)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"45 pipelines took {elapsed:.2f}s of their 2s budget"


@st.composite
def h_anywhere_circuits(draw):
    """Up to 14 ops at most ``MAX_DENSE_WIDTH`` wide: H on any wire, some
    right after a reset of that wire, resets, and Xs with 0-3 controls of
    drawn polarity.  The circuit is bare, laid out, or a held image (whose
    H-free wires are the non-position ones); its ops fall into runs that sit
    in a stage or outside any."""
    shape = draw(st.sampled_from(["bare", "laid out", "held"]))
    if shape == "bare":
        c = Circuit(draw(st.integers(1, 5)))
    else:
        n, q = draw(st.sampled_from([(0, 1), (0, 2), (1, 1)]))
        if shape == "laid out":
            c = Circuit(RegisterLayout(n, q).width, RegisterLayout(n, q))
        else:
            pixels = draw(st.lists(st.integers(0, (1 << q) - 1), min_size=4**n, max_size=4**n))
            c = build_preparation(ImageGray(n, q, tuple(pixels)))
    wires = st.integers(0, c.width - 1)
    ops = draw(st.lists(st.sampled_from(["h", "reset, h", "reset", "x"]), max_size=14))
    cuts = sorted(draw(st.lists(st.integers(0, len(ops)), max_size=3)))
    for k, (start, stop) in enumerate(zip([0, *cuts], [*cuts, len(ops)])):
        with c.stage(f"run-{k}") if draw(st.booleans()) else contextlib.nullcontext():
            for kind in ops[start:stop]:
                target = draw(wires)
                if kind == "x":
                    others = draw(st.lists(wires.filter(lambda w: w != target), max_size=3, unique=True))
                    c.append(GateOp(GateKind.X, target, tuple(
                        Control(w, draw(st.booleans())) for w in others
                    )))
                    continue
                if kind.startswith("reset"):
                    c.reset(target)
                if kind.endswith("h"):
                    c.h(target)
    return c


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(h_anywhere_circuits())
def test_accepted_runs_have_the_exact_law(circuit):
    """Every circuit ``run_tracked`` accepts has, over basis indices, the
    law of a dense density-matrix run; the rest are refused for an H whose
    wire is set in some branch."""
    try:
        result = run_tracked(circuit)
    except ValueError as exc:
        assert "|0> in every branch" in str(exc)
        return
    law = np.bincount(result.branches, minlength=1 << circuit.width) / len(result.branches)
    np.testing.assert_allclose(law, exact_law(circuit), rtol=0, atol=1e-12)


def test_x_on_a_position_wire_after_a_held_prep():
    """The CNOT onto position wire q0 leaves two branches with each value of
    q1, and the Xs after it see the moved wire."""
    c = build_preparation(ImageGray(1, 1, (0, 1, 0, 1)))  # color on q2
    c.cx(1, 0)
    c.append(GateOp(GateKind.X, 2, (pos(0), Control(1, False))))
    c.append(GateOp(GateKind.X, 2, (pos(0), pos(1))))
    assert sorted(run_tracked(c).branches.tolist()) == [0b000, 0b001, 0b110, 0b111]
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


def test_256x256_segmentation_runs_within_its_budget():
    """Build, run and decode at 256x256 8-bit: the held image keeps prep's
    262,000-odd ops unbuilt."""
    rng = random.Random(256)
    image = ImageGray(8, 8, tuple(rng.randrange(256) for _ in range(4**8)))
    config = ThresholdConfig.with_default_levels(8, (64, 128))
    start = time.perf_counter()
    result = decode(run_tracked(build_pipeline(image, config)))
    elapsed = time.perf_counter() - start
    assert result == classical_segment(image, config)
    assert elapsed < 1.0, f"build, run and decode took {elapsed:.2f}s of their 1s budget"


def test_512x512_run_within_its_budget():
    """The held image's 262,144 branches look their pixel up in a table of
    256 colors, walked once."""
    rng = random.Random(512)
    image = ImageGray(9, 8, tuple(rng.randrange(256) for _ in range(4**9)))
    config = ThresholdConfig.with_default_levels(8, (64, 128))
    c = build_pipeline(image, config)
    start = time.perf_counter()
    result = run_tracked(c)
    elapsed = time.perf_counter() - start
    assert decode(result) == classical_segment(image, config)
    assert elapsed < 0.05, f"run_tracked took {elapsed * 1e3:.1f}ms of its 50ms budget"
