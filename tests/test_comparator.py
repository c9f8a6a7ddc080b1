import itertools

import pytest

from neqrseg import (
    Circuit,
    ComparatorSpec,
    ImageGray,
    RegisterLayout,
    ThresholdConfig,
    build_comparator,
    build_preparation,
    comparator_formula_cost,
    extract_bits,
    insert_bits,
    run_tracked,
)
from neqrseg.tracked import apply_to_basis


def default_spec(q):
    return ComparatorSpec(
        a_register=tuple(range(q)),
        b_register=tuple(range(q, 2 * q)),
        aux=(2 * q, 2 * q + 1),
        result=2 * q + 2,
    )


def evaluate(circuit, assignment):
    for op in circuit.ops:
        if op.kind.value == "reset":
            assignment &= ~(1 << op.target)
        else:
            assignment = apply_to_basis(op, assignment)
    return assignment


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_comparator_truth_table_exhaustive(q):
    spec = default_spec(q)
    circuit = build_comparator(spec)
    for a_val, b_val in itertools.product(range(1 << q), repeat=2):
        start = insert_bits(0, spec.a_register, a_val)
        start = insert_bits(start, spec.b_register, b_val)
        end = evaluate(circuit, start)
        assert extract_bits(end, spec.a_register) == a_val, (a_val, b_val)
        assert extract_bits(end, spec.b_register) == b_val, (a_val, b_val)
        assert extract_bits(end, spec.aux) == 0, (a_val, b_val)
        assert extract_bits(end, (spec.result,)) == int(a_val < b_val), (a_val, b_val)


@pytest.mark.parametrize("q", [1, 3])
def test_result_qubit_is_xored_not_overwritten(q):
    spec = default_spec(q)
    circuit = build_comparator(spec)
    start = insert_bits(0, spec.a_register, 1)  # a=1, b=0 -> predicate false
    start = insert_bits(start, (spec.result,), 1)
    end = evaluate(circuit, start)
    assert extract_bits(end, (spec.result,)) == 1


def test_ties_never_set_the_flag():
    spec = default_spec(3)
    circuit = build_comparator(spec)
    for v in range(8):
        start = insert_bits(insert_bits(0, spec.a_register, v), spec.b_register, v)
        assert extract_bits(evaluate(circuit, start), (spec.result,)) == 0


def test_comparator_in_superposition():
    """Compare every pixel of an encoded image against a fixed threshold."""
    layout = RegisterLayout.standard(1, 3)
    image = ImageGray(1, 3, (0, 3, 4, 7))
    threshold = 4
    circuit = build_preparation(image, layout)
    for k, qb in enumerate(layout.threshold):
        if threshold >> (layout.q - 1 - k) & 1:
            circuit.x(qb)
    spec = ComparatorSpec(
        a_register=layout.color,
        b_register=layout.threshold,
        aux=layout.cmp_aux,
        result=layout.results[0],
    )
    circuit.extend(build_comparator(spec, layout.width))
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
    circuit = build_comparator(default_spec(2))
    assert circuit.stage_named("compare").quoted == ("comparator-paper", 23)


def test_spec_validation():
    with pytest.raises(ValueError, match="overlap"):
        ComparatorSpec(a_register=(0,), b_register=(0,), aux=(1, 2), result=3)
    with pytest.raises(ValueError, match="equal size"):
        ComparatorSpec(a_register=(0, 1), b_register=(2,), aux=(3, 4), result=5)
    with pytest.raises(ValueError, match="q must be"):
        ComparatorSpec(a_register=(), b_register=(), aux=(0, 1), result=2)
    with pytest.raises(ValueError, match="two aux"):
        ComparatorSpec(a_register=(0,), b_register=(1,), aux=(2,), result=3)


def test_custom_stage_name_and_width():
    spec = ComparatorSpec(
        a_register=(0,), b_register=(1,), aux=(2, 3), result=4, stage_name="cmp-x"
    )
    circuit = build_comparator(spec, width=9)
    assert circuit.width == 9
    assert circuit.stage_names() == ["cmp-x"]
