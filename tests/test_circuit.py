import random

import pytest

from neqrseg import (
    Circuit,
    Control,
    GateKind,
    GateOp,
    RegisterLayout,
    apply_to_basis,
    extract_bits,
    insert_bits,
    neg,
    pos,
)


def test_gateop_arity_validation():
    with pytest.raises(ValueError):
        GateOp(GateKind.H, 0, (pos(1),))
    with pytest.raises(ValueError):
        GateOp(GateKind.RESET, 0, (pos(1),))
    with pytest.raises(ValueError):
        GateOp(GateKind.CNOT, 0)
    with pytest.raises(ValueError):
        GateOp(GateKind.TOFFOLI, 0, (pos(1),))
    with pytest.raises(ValueError):
        GateOp(GateKind.MCX, 0, (pos(1), pos(2)))
    GateOp(GateKind.MCX, 0, (pos(1), pos(2), pos(3)))


def test_gateop_distinctness():
    with pytest.raises(ValueError):
        GateOp(GateKind.CNOT, 5, (pos(5),))
    with pytest.raises(ValueError):
        GateOp(GateKind.TOFFOLI, 0, (pos(1), neg(1)))


def test_append_checks_width():
    c = Circuit(2)
    c.h(0).cx(0, 1)
    assert len(c) == 2
    with pytest.raises(ValueError):
        c.x(2)
    with pytest.raises(ValueError, match="q2 outside circuit of width 2"):
        c.cx(2, 0)


def test_controlled_x_kind_selection():
    c = Circuit(6)
    c.controlled_x((), 0)
    c.controlled_x((1,), 0)
    c.controlled_x((1, 2), 0)
    c.controlled_x((1, 2, 3), 0)
    kinds = [op.kind for op in c.ops]
    assert kinds == [GateKind.X, GateKind.CNOT, GateKind.TOFFOLI, GateKind.MCX]


def test_stage_bookkeeping():
    c = Circuit(3)
    with c.stage("prep"):
        c.h(0).h(1)
    with c.stage("work"):
        c.cx(0, 2)
    assert c.stage_names() == ["prep", "work"]
    assert [op.kind for op in c.stage_ops("prep")] == [GateKind.H, GateKind.H]
    span = c.stage_named("work")
    assert (span.start, span.stop) == (2, 3)
    with pytest.raises(ValueError):
        c.stage_named("missing")


def test_stage_reopen_and_nesting_rejected():
    c = Circuit(2)
    with c.stage("a"):
        c.x(0)
        with pytest.raises(ValueError):
            with c.stage("b"):
                pass
    with pytest.raises(ValueError):
        with c.stage("a"):
            pass
    for bad in ("", "a b"):
        with pytest.raises(ValueError, match="whitespace"):
            with c.stage(bad):
                pass


def test_subcircuit_and_without_stages():
    c = Circuit(3)
    with c.stage("prep"):
        c.h(0)
    with c.stage("mid"):
        c.x(1)
    with c.stage("end"):
        c.x(2)
    sub = c.subcircuit(["mid", "end"])
    assert [op.target for op in sub.ops] == [1, 2]
    assert sub.stage_names() == ["mid", "end"]
    assert c.without_stages("prep").stage_names() == ["mid", "end"]


def test_extend_merges_ops_stages_and_formulas():
    host = Circuit(4)
    with host.stage("prep"):
        host.h(0)
    frag = Circuit(3)
    with frag.stage("work", ("demo", 5)):
        frag.ccx(0, 1, 2)
    host.extend(frag)
    assert host.stage_names() == ["prep", "work"]
    assert host.stage_named("work").start == 1
    assert host.stage_named("work").quoted == ("demo", 5)
    clash = Circuit(2)
    with clash.stage("prep"):
        pass
    with pytest.raises(ValueError):
        host.extend(clash)


def test_extend_rejects_wider_fragment():
    with pytest.raises(ValueError):
        Circuit(2).extend(Circuit(3))


def test_standard_layout_shape():
    lay = RegisterLayout.standard(2, 3)
    assert lay.width == 14
    assert lay.q == 3 and lay.n == 2
    assert lay.color == (6, 5, 4)
    assert lay.position == (3, 2, 1, 0)
    assert lay.threshold == (9, 8, 7)
    assert lay.cmp_aux == (10, 11)
    assert lay.results == (12, 13)
    assert lay.measurement_qubits == (6, 5, 4, 3, 2, 1, 0)


def test_layout_rejects_overlap():
    with pytest.raises(ValueError):
        RegisterLayout(
            color=(0,), position=(1, 2), threshold=(0,), cmp_aux=(3, 4), results=(5, 6)
        )


def test_bit_helpers_round_trip():
    rng = random.Random(11)
    qubits = (5, 2, 7, 0)
    for _ in range(50):
        base = rng.getrandbits(9)
        value = rng.getrandbits(4)
        packed = insert_bits(base, qubits, value)
        assert extract_bits(packed, qubits) == value


def test_readout_bitstring_is_color_then_position():
    lay = RegisterLayout.standard(1, 2)
    idx = insert_bits(insert_bits(0, lay.color, 0b10), lay.position, 0b01)
    assert lay.readout_bitstring(idx) == "1001"


def test_permutation_gates_self_inverse_on_basis_states():
    rng = random.Random(3)
    width = 8
    for _ in range(200):
        kind = rng.choice([GateKind.X, GateKind.CNOT, GateKind.TOFFOLI, GateKind.MCX])
        count = {GateKind.X: 0, GateKind.CNOT: 1, GateKind.TOFFOLI: 2}.get(
            kind, rng.randint(3, 5)
        )
        wires = rng.sample(range(width), count + 1)
        op = GateOp(
            kind,
            wires[0],
            tuple(Control(w, rng.random() < 0.5) for w in wires[1:]),
        )
        basis = rng.getrandbits(width)
        assert apply_to_basis(op, apply_to_basis(op, basis)) == basis
