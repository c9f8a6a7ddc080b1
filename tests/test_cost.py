import random

import pytest

from neqrseg import (
    Circuit,
    ComparatorSpec,
    build_comparator,
    mcx_weight,
    neg,
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
    assert "prep" not in ledger.counted
    assert ledger.stages["prep"].single_qubit == 2  # tallied, just not charged
    # even when asked for explicitly
    ledger = quantum_cost(c, counted_stages=["prep"])
    assert ledger.actual_cost == 0
    assert ledger.counted == ()


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
        quantum_cost(c, counted_stages=["nope"])
    with pytest.raises(ValueError, match="more than once"):
        quantum_cost(c, counted_stages=["work", "work"])


def test_mcx_weight_schedule():
    assert mcx_weight(3) == 20
    assert mcx_weight(4) == 30
    c = Circuit(4)
    with c.stage("work"):
        c.controlled_x((0, 1, 2), 3)
    assert quantum_cost(c).actual_cost == 20


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
    only_b = quantum_cost(c, counted_stages=["b"])
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
        "mcx": 0,
        "reset": 1,
        "cost": 8,
    }
