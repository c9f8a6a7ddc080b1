import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from neqrseg import (
    BranchMap,
    Circuit,
    GateKind,
    ImageGray,
    RegisterLayout,
    Stage,
    ThresholdConfig,
    build_pipeline,
    build_preparation,
    decode,
    export_circuit_text,
    quantum_cost,
    run,
    run_tracked,
    sample_shots,
)
from oracles import built_by_ops, insert_bits, prep_by_ops


def random_image(rng, n, q):
    return ImageGray(n, q, tuple(rng.randrange(1 << q) for _ in range(4**n)))


def expected_support(image, layout):
    """Basis indices in increasing order, and their amplitudes."""
    amp = 1.0 / (1 << image.n)
    indices = sorted(
        insert_bits(insert_bits(0, layout.position, label), layout.color, value)
        for label, value in enumerate(image.pixels)
    )
    return indices, np.full(len(indices), amp, dtype=complex)


@pytest.mark.parametrize("n,q", [(1, 2), (1, 3), (2, 2)])
def test_preparation_amplitudes_exact(n, q):
    rng = random.Random(100 * n + q)
    for _ in range(5):
        image = random_image(rng, n, q)
        prep = build_preparation(image)
        state = run(prep, seed=0)
        indices, expected = expected_support(image, prep.layout)
        assert state.indices.tolist() == indices
        assert np.allclose(state.amplitudes, expected, atol=1e-12)


def test_all_zero_image_needs_only_hadamards():
    prep = build_preparation(ImageGray(2, 3, (0,) * 16))
    assert [op.kind for op in prep.ops] == [GateKind.H] * 4
    assert prep.stage_names() == ["prep"]


def test_preparation_cost_is_excluded():
    prep = build_preparation(ImageGray(1, 8, (255, 1, 2, 3)))
    ledger = quantum_cost(prep)
    assert ledger.actual_cost == 0
    assert list(ledger.stages) == ["prep"]


def test_encode_decode_identity():
    rng = random.Random(77)
    for _ in range(25):
        n = rng.randint(0, 2)
        q = rng.randint(1, 4)
        image = random_image(rng, n, q)
        assert decode(run_tracked(build_preparation(image))) == image


def test_decode_missing_position():
    layout = RegisterLayout(1, 1)
    only_three = BranchMap(
        layout.width,
        np.array([insert_bits(0, layout.position, p) for p in range(3)]),
        layout,
    )
    with pytest.raises(ValueError, match="missing from the branch map"):
        decode(only_three)


def test_decode_needs_a_layout():
    with pytest.raises(ValueError, match="layout"):
        decode(BranchMap(2, np.array([0])))


def test_decode_with_explicit_layout():
    layout = RegisterLayout(1, 2)
    branches = np.array([
        insert_bits(insert_bits(0, layout.position, p), layout.color, p)
        for p in range(4)
    ])
    assert decode(BranchMap(layout.width, branches, layout)) == ImageGray(1, 2, (0, 1, 2, 3))


@st.composite
def pipelines(draw):
    """An image of n 0..3 and q 1..8, and a valid config of 1-4 thresholds."""
    n, q = draw(st.integers(0, 3)), draw(st.integers(1, 8))
    top = (1 << q) - 1
    pixels = draw(st.lists(st.integers(0, top), min_size=4**n, max_size=4**n))
    count = draw(st.integers(1, min(4, top)))
    thresholds = sorted(draw(st.sets(st.integers(1, top), min_size=count, max_size=count)))
    levels = [draw(st.integers(0, top))]
    levels += [draw(st.integers(t, top)) for t in thresholds]
    return ImageGray(n, q, tuple(pixels)), ThresholdConfig(q, tuple(thresholds), tuple(levels))


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(pipelines(), st.integers(0, 2**32 - 1))
def test_held_prep_matches_the_circuit_built_op_by_op(case, seed):
    """Every consumer reads the held image as it reads the same prep built
    op by op."""
    held = build_pipeline(*case)
    ops = built_by_ops(held)
    assert held.ops == ops.ops and len(held) == len(ops)
    assert held.stages == ops.stages
    got, want = run_tracked(held), run_tracked(ops)
    assert got.branches.tobytes() == want.branches.tobytes()
    assert list(got.readout_distribution().items()) == list(
        want.readout_distribution().items()
    )
    per_stage = lambda c: {k: v.as_dict() for k, v in quantum_cost(c).stages.items()}
    assert per_stage(held) == per_stage(ops)
    assert export_circuit_text(held) == export_circuit_text(ops)
    got, want = run(held, seed=seed), run(ops, seed=seed)
    assert got.indices.tobytes() == want.indices.tobytes()
    assert got.amplitudes.tobytes() == want.amplitudes.tobytes()
    assert sample_shots(held, 500, seed=seed) == sample_shots(ops, 500, seed=seed)


def test_held_prep_lists_its_ops_in_the_oracle_order(sample_4x4):
    prep = build_preparation(sample_4x4)
    assert prep.ops == prep_by_ops(sample_4x4).ops
    assert len(prep) == 4 + sum(bin(v).count("1") for v in sample_4x4.pixels)
    assert prep.gates == [] and prep.pixels.tolist() == list(sample_4x4.pixels)
    with pytest.raises(ValueError):
        prep.pixels[0] = 1


def test_appends_and_rollback_after_a_held_prep(sample_4x4):
    """Every write goes to the stored ops, after the held prep's span."""
    c = build_preparation(sample_4x4)
    held = len(c)
    c.x(c.layout.threshold[0])
    with pytest.raises(RuntimeError, match="boom"):
        with c.stage("work"):
            c.x(c.layout.threshold[1]).x(c.layout.threshold[2])
            raise RuntimeError("boom")
    assert len(c) == held + 1 and len(c.gates) == 1
    with c.stage("work"):
        c.x(c.layout.cmp_aux[0])
    c.append_span(Stage("copied", 0, 0), c.gates[:1])
    assert [(s.name, s.start, s.stop) for s in c.stages] == [
        ("prep", 0, held), ("work", held + 1, held + 2), ("copied", held + 2, held + 3)
    ]
    assert list(c.spans())[1] == (None, held, held + 1)
    assert c.ops[held:] == c.gates and len(c.gates) == 3


@pytest.mark.parametrize(
    "layout,pixels",
    [
        (RegisterLayout(1, 2), (1, 2, 3)),
        (RegisterLayout(1, 2), (1, 2, 3, 4)),
        (RegisterLayout(1, 2), (1, 2, 3, -1)),
        (None, (1, 2, 3, 0)),
    ],
)
def test_a_held_image_must_fit_its_layout(layout, pixels):
    with pytest.raises(ValueError, match="one q-bit pixel per position"):
        Circuit(RegisterLayout(1, 2).width, layout, pixels=pixels)


def test_pixels_past_63_bits_are_refused_not_truncated():
    image = ImageGray(0, 70, (1 << 69,))
    with pytest.raises(ValueError, match="past 63 bits"):
        build_preparation(image)
    assert quantum_cost(build_preparation(ImageGray(0, 70, (0,)))).stages["prep"].actual_cost == 0
