import random

import numpy as np
import pytest

from neqrseg import (
    BranchMap,
    GateKind,
    ImageGray,
    RegisterLayout,
    build_preparation,
    decode,
    insert_bits,
    quantum_cost,
    run,
    run_tracked,
)


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
