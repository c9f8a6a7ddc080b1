import itertools

import numpy as np
import pytest

from neqrseg import (
    Circuit,
    ImageGray,
    RegisterLayout,
    ThresholdConfig,
    build_comparator,
    build_preparation,
    comparator_formula_cost,
    run_tracked,
)
from oracles import apply_to_basis, extract_bits, insert_bits


def default_wires(q):
    """Operands a and b (MSB first), the aux pair and the result, from wire 0 up."""
    return tuple(range(q)), tuple(range(q, 2 * q)), (2 * q, 2 * q + 1), 2 * q + 2


def default_comparator(q):
    return build_comparator(Circuit(2 * q + 3), *default_wires(q), stage="compare")


def evaluate(circuit, assignment):
    for op in circuit.ops:
        if op.kind.value == "reset":
            assignment &= ~(1 << op.target)
        else:
            assignment = apply_to_basis(op, assignment)
    return assignment


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_comparator_truth_table_exhaustive(q):
    a, b, aux, y = default_wires(q)
    circuit = default_comparator(q)
    for a_val, b_val in itertools.product(range(1 << q), repeat=2):
        start = insert_bits(0, a, a_val)
        start = insert_bits(start, b, b_val)
        end = evaluate(circuit, start)
        assert extract_bits(end, a) == a_val, (a_val, b_val)
        assert extract_bits(end, b) == b_val, (a_val, b_val)
        assert extract_bits(end, aux) == 0, (a_val, b_val)
        assert extract_bits(end, (y,)) == int(a_val < b_val), (a_val, b_val)


@pytest.mark.parametrize("q", range(1, 9))
def test_comparator_on_every_operand_pair(q):
    """All 4^q (a, b) pairs in one tracked run: an H on every operand wire
    fans out, then the comparator runs over every branch."""
    a, b, aux, y = default_wires(q)
    circuit = Circuit(2 * q + 3)
    for qb in (*a, *b):
        circuit.h(qb)
    branches = run_tracked(build_comparator(circuit, a, b, aux, y, stage="compare")).branches
    assert np.array_equal(np.sort(branches & (1 << 2 * q) - 1), np.arange(1 << 2 * q))
    a_val, b_val = extract_bits(branches, a), extract_bits(branches, b)
    assert np.array_equal(extract_bits(branches, (y,)), a_val < b_val)
    assert not extract_bits(branches, aux).any()


@pytest.mark.parametrize("q", [1, 3])
def test_result_qubit_is_xored_not_overwritten(q):
    a, b, aux, y = default_wires(q)
    circuit = default_comparator(q)
    start = insert_bits(0, a, 1)  # a=1, b=0 -> predicate false
    start = insert_bits(start, (y,), 1)
    end = evaluate(circuit, start)
    assert extract_bits(end, (y,)) == 1


def test_ties_never_set_the_flag():
    a, b, aux, y = default_wires(3)
    circuit = default_comparator(3)
    for v in range(8):
        start = insert_bits(insert_bits(0, a, v), b, v)
        assert extract_bits(evaluate(circuit, start), (y,)) == 0


def test_comparator_in_superposition():
    """Compare every pixel of an encoded image against a fixed threshold."""
    layout = RegisterLayout(1, 3)
    image = ImageGray(1, 3, (0, 3, 4, 7))
    threshold = 4
    circuit = build_preparation(image)
    for k, qb in enumerate(layout.threshold):
        if threshold >> (layout.q - 1 - k) & 1:
            circuit.x(qb)
    build_comparator(
        circuit, layout.color, layout.threshold, layout.cmp_aux, layout.results[0], stage="compare"
    )
    for branch in run_tracked(circuit).branches:
        color = layout.color_value(int(branch))
        flag = extract_bits(int(branch), (layout.results[0],))
        assert flag == int(color < threshold)
        assert extract_bits(int(branch), layout.threshold) == threshold
        assert extract_bits(int(branch), layout.cmp_aux) == 0


def test_formula_values():
    assert comparator_formula_cost(1) == 5
    assert comparator_formula_cost(3) == 41
    assert comparator_formula_cost(8) == 131
    with pytest.raises(ValueError):
        comparator_formula_cost(0)


def test_formula_registered_on_stage():
    circuit = default_comparator(2)
    assert circuit.stage_named("compare").quoted == ("comparator-paper", 23)


def test_spec_validation():
    host = Circuit(6)
    with pytest.raises(ValueError, match="overlap"):
        build_comparator(host, (0,), (0,), (1, 2), 3, stage="compare")
    with pytest.raises(ValueError, match="equal size"):
        build_comparator(host, (0, 1), (2,), (3, 4), 5, stage="compare")
    with pytest.raises(ValueError, match="q must be"):
        build_comparator(host, (), (), (0, 1), 2, stage="compare")
    with pytest.raises(ValueError, match="two aux"):
        build_comparator(host, (0,), (1,), (2,), 3, stage="compare")
    assert host.ops == [] and host.stages == []


def test_custom_stage_name_and_width():
    host = Circuit(9)
    circuit = build_comparator(host, (0,), (1,), (2, 3), 4, stage="cmp-x")
    assert circuit is host
    assert circuit.width == 9
    assert circuit.stage_names() == ["cmp-x"]


def test_comparator_on_a_too_narrow_host_leaves_it_unchanged():
    host = Circuit(8)
    with host.stage("prep"):
        host.x(0)
    before_ops, before_stages = list(host.ops), list(host.stages)
    # the aux wire 8 lies outside: four gates are appended before it is hit
    with pytest.raises(ValueError, match="q8 outside circuit of width 8"):
        build_comparator(host, (0, 1, 2), (3, 4, 5), (6, 8), 7, stage="compare")
    assert host.ops == before_ops
    assert host.stages == before_stages
    # the host stays usable, and the stage name is still free
    build_comparator(host, (0,), (1,), (2, 3), 4, stage="compare")
    assert host.stage_names() == ["prep", "compare"]
