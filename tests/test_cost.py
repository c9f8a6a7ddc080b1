import random

import pytest

from neqrseg import (
    Circuit,
    ComparatorSpec,
    build_comparator,
    neg,
    parse_circuit_text,
    quantum_cost,
)
from neqrseg.cost import TOFFOLI_WEIGHT, UNSTAGED


def test_basic_weights():
    c = Circuit(3)
    with c.stage("work"):
        c.ccx(0, 1, 2).cx(0, 1).reset(2)
    ledger = quantum_cost(c)
    counts = ledger.stages["work"]
    assert counts.toffoli == 1
    assert counts.cnot == 1
    assert counts.reset == 1
    assert counts.actual_cost == TOFFOLI_WEIGHT + 2
    assert ledger.actual_cost == 7


def test_negative_controls_add_basis_flips():
    c = Circuit(2)
    with c.stage("work"):
        c.cx(neg(0), 1)
    counts = quantum_cost(c).stages["work"]
    # one X either side of the negatively controlled wire
    assert counts.single_qubit == 2
    assert counts.cnot == 1
    assert counts.actual_cost == 3


def test_prep_stage_never_counted():
    c = Circuit(2)
    with c.stage("prep"):
        c.h(0).h(1).cx(0, 1)
    ledger = quantum_cost(c)
    assert ledger.actual_cost == 0
    assert list(ledger.stages) == ["prep"]
    assert ledger.stages["prep"].single_qubit == 2  # tallied, just not charged
    # even when costed on its own
    ledger = quantum_cost(c.subcircuit(["prep"]))
    assert ledger.actual_cost == 0
    assert list(ledger.stages) == ["prep"]


def test_unstaged_ops_get_their_own_bucket():
    c = Circuit(2)
    c.x(0)
    with c.stage("work"):
        c.x(1)
    ledger = quantum_cost(c)
    assert set(ledger.stages) == {UNSTAGED, "work"}
    assert ledger.actual_cost == 2


def test_unknown_stage_rejected():
    c = Circuit(1)
    with c.stage("work"):
        c.x(0)
    with pytest.raises(ValueError):
        quantum_cost(c.subcircuit(["nope"]))
    with pytest.raises(ValueError, match="duplicate"):
        quantum_cost(c.subcircuit(["work", "work"]))


def test_mcx_weight_schedule():
    # costed as exported: one spare wire gives a 4-Toffoli borrowed ladder
    c = Circuit(5)
    with c.stage("work"):
        c.controlled_x((0, 1, 2), 3)
    counts = quantum_cost(c).stages["work"]
    assert counts.toffoli == 4
    assert counts.actual_cost == 20
    # with no spare wire it cannot be exported, so it cannot be costed
    c = Circuit(4)
    with c.stage("work"):
        c.controlled_x((0, 1, 2), 3)
    with pytest.raises(ValueError, match="spare"):
        quantum_cost(c)


def test_comparator_cost_q3():
    spec = ComparatorSpec(
        a_register=(0, 1, 2), b_register=(3, 4, 5), aux=(6, 7), result=8
    )
    ledger = quantum_cost(build_comparator(spec))
    counts = ledger.stages["compare"]
    assert counts.toffoli == 6
    assert counts.cnot == 5
    assert counts.reset == 4
    assert counts.actual_cost == 49
    assert ledger.formula_cost == 41
    assert ledger.cost_by_formula == {"comparator-paper": 41}


def test_cost_is_additive_over_stages():
    rng = random.Random(9)
    c = Circuit(6)
    for name in ["a", "b", "c"]:
        with c.stage(name):
            for _ in range(rng.randint(1, 12)):
                wires = rng.sample(range(6), rng.randint(1, 4))
                c.controlled_x(tuple(wires[1:]), wires[0])
    ledger = quantum_cost(c)
    assert ledger.actual_cost == sum(
        counts.actual_cost for counts in ledger.stages.values()
    )
    only_b = quantum_cost(c.subcircuit(["b"]))
    assert only_b.actual_cost == ledger.stages["b"].actual_cost


def test_counts_as_dict_keys():
    c = Circuit(3)
    with c.stage("work"):
        c.x(0).cx(0, 1).ccx(0, 1, 2).reset(2)
    d = quantum_cost(c).stages["work"].as_dict()
    assert d == {
        "singleQubit": 1,
        "cnot": 1,
        "toffoli": 1,
        "reset": 1,
        "cost": 8,
    }


def test_a_stage_named_like_the_old_gap_bucket_keeps_its_own_ledger():
    built = Circuit(3)
    with built.stage("(unstaged)"):
        built.ccx(0, 1, 2)
    built.x(0)
    parsed = parse_circuit_text(
        "OPENQASM 2.0;\nqreg q[3];\n// stage:(unstaged)\nccx q[0],q[1],q[2];\n"
        "// stage:\nx q[0];\n"
    )
    for c in (built, parsed):
        ledger = quantum_cost(c)
        assert list(ledger.stages) == ["(unstaged)", UNSTAGED]
        assert ledger.stages["(unstaged)"].actual_cost == TOFFOLI_WEIGHT
        assert ledger.stages[UNSTAGED].actual_cost == 1
        assert ledger.actual_cost == 6


def test_no_stage_can_take_the_gap_bucket_name():
    with pytest.raises(ValueError, match="whitespace"):
        with Circuit(1).stage(UNSTAGED):
            pass
