"""Differential tests: every path from an image to a segmentation agrees.

On random images, threshold ladders and levels, ``classical_segment`` is the
oracle for the tracked run of the built circuit, for the tracked run of its
exported text parsed back, and for the CLI's majority vote over sampled
shots.  The parsed text's ledger equals the built circuit's, stage by stage,
and the sampled outcomes are exactly the tracked readout's support.
"""
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from neqrseg import (  # noqa: E402
    Circuit,
    ImageGray,
    ThresholdConfig,
    build_pipeline,
    classical_segment,
    decode,
    export_circuit_text,
    parse_circuit_text,
    quantum_cost,
    run_tracked,
    sample_shots,
)
from neqrseg.cli import _majority_image  # noqa: E402


@st.composite
def segmentations(draw):
    q = draw(st.integers(1, 4))
    n = draw(st.integers(0, 2))
    top = (1 << q) - 1
    count = draw(st.integers(1, min(3, top)))
    thresholds = sorted(draw(st.sets(st.integers(1, top), min_size=count, max_size=count)))
    levels = [draw(st.integers(0, top))] + [draw(st.integers(t, top)) for t in thresholds]
    pixels = draw(st.lists(st.integers(0, top), min_size=4**n, max_size=4**n))
    return ImageGray(n, q, tuple(pixels)), ThresholdConfig(q, tuple(thresholds), tuple(levels))


def _per_stage(circuit):
    return {name: counts.as_dict() for name, counts in quantum_cost(circuit).stages.items()}


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(segmentations())
def test_tracked_and_exported_text_match_classical_segment(case):
    image, config = case
    want = classical_segment(image, config)
    c = build_pipeline(image, config)
    assert decode(run_tracked(c)) == want
    parsed = parse_circuit_text(export_circuit_text(c))
    assert decode(run_tracked(Circuit(parsed.width, c.layout).extend(parsed))) == want
    assert _per_stage(parsed) == _per_stage(c)


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(segmentations(), st.integers(0, 2**32 - 1))
def test_sampled_shots_cover_the_tracked_support_and_vote_classical_segment(case, seed):
    image, config = case
    c = build_pipeline(image, config)
    records = sample_shots(c, 1024, seed=seed)
    assert {r.bitstring for r in records} == set(run_tracked(c).readout_distribution())
    assert _majority_image(records, c.layout) == (classical_segment(image, config), [])
