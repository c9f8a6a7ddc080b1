import random

import numpy as np
import pytest

from neqrseg import (
    Circuit,
    Control,
    GateKind,
    GateOp,
    RegisterLayout,
    Stage,
    neg,
    pos,
)
from oracles import apply_to_basis, extract_bits, insert_bits, without_stages


def test_gateop_arity_validation():
    with pytest.raises(ValueError):
        GateOp(GateKind.H, 0, (pos(1),))
    with pytest.raises(ValueError):
        GateOp(GateKind.RESET, 0, (pos(1),))


def test_gateop_distinctness():
    with pytest.raises(ValueError):
        GateOp(GateKind.X, 5, (pos(5),))
    with pytest.raises(ValueError):
        GateOp(GateKind.X, 0, (pos(1), neg(1)))


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
    assert [op.mnemonic for op in c.ops] == ["x", "cx", "ccx", "mcx"]


def test_stage_bookkeeping():
    c = Circuit(3)
    with c.stage("prep"):
        c.h(0).h(1)
    with c.stage("work"):
        c.cx(0, 2)
    assert c.stage_names() == ["prep", "work"]
    assert [op.kind for op in c.subcircuit(["prep"]).ops] == [GateKind.H, GateKind.H]
    span = c.stage_named("work")
    assert (span.start, span.stop) == (2, 3)
    with pytest.raises(ValueError):
        c.stage_named("missing")


def test_stage_that_raises_is_rolled_back():
    c = Circuit(3)
    with c.stage("prep"):
        c.h(0)
    c.x(1)
    before_ops, before_stages = list(c.ops), list(c.stages)
    with pytest.raises(RuntimeError, match="boom"):
        with c.stage("work", ("demo", 2)):
            c.x(2).cx(0, 1)
            raise RuntimeError("boom")
    assert c.ops == before_ops
    assert c.stages == before_stages
    # the stage is closed and its name still free
    with c.stage("work"):
        c.x(2)
    assert c.stage_names() == ["prep", "work"]
    assert c.stage_named("work").start == 2


def test_append_span_refuses_an_open_stage():
    c = Circuit(2)
    with pytest.raises(RuntimeError, match="boom"):
        with c.stage("a"):
            with pytest.raises(ValueError, match="stage 'a' is still open"):
                c.append_span(Stage("b", 0, 0), [GateOp(GateKind.X, 0)])
            with pytest.raises(ValueError, match="stage 'a' is still open"):
                c.append_span(None, [GateOp(GateKind.X, 0)])
            raise RuntimeError("boom")
    assert c.ops == [] and c.stages == [] and list(c.spans()) == []
    # once the stage is closed the span goes in
    c.append_span(Stage("b", 0, 0), [GateOp(GateKind.X, 0)])
    assert c.stages == [Stage("b", 0, 1)]


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
    for bad in ("", "a b", "a=b"):
        with pytest.raises(ValueError, match="formula name"):
            with c.stage("b", (bad, 1)):
                pass
    for bad in (2.5, True, "7"):
        with pytest.raises(ValueError, match="quoted value"):
            with c.stage("b", ("f", bad)):
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
    assert without_stages(c, "prep").stage_names() == ["mid", "end"]
    loose = Circuit(2)
    with loose.stage("prep"):
        loose.h(0)
    loose.x(1)
    assert [op.target for op in without_stages(loose, "prep").ops] == [1]
    mixed = Circuit(3)
    mixed.x(2)
    with mixed.stage("prep"):
        mixed.h(0)
    mixed.x(1)
    with mixed.stage("mid", ("demo", 1)):
        mixed.x(2).x(0)
    mixed.x(0)
    kept = without_stages(mixed, "prep")
    assert [op.target for op in kept.ops] == [2, 1, 2, 0, 0]
    assert kept.stages == [Stage("mid", 2, 4, ("demo", 1))]


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
    with clash.stage("t"):
        clash.x(0)
    with clash.stage("prep"):
        clash.x(1)
    before = list(host.ops)
    with pytest.raises(ValueError):
        host.extend(clash)
    assert host.ops == before
    assert host.stage_names() == ["prep", "work"]


def test_extend_rejects_wider_fragment():
    with pytest.raises(ValueError):
        Circuit(2).extend(Circuit(3))


def test_standard_layout_shape():
    lay = RegisterLayout(2, 3)
    assert lay.width == 14
    assert lay.q == 3 and lay.n == 2
    assert lay.color == (6, 5, 4)
    assert lay.position == (3, 2, 1, 0)
    assert lay.threshold == (9, 8, 7)
    assert lay.cmp_aux == (10, 11)
    assert lay.results == (12, 13)
    assert lay.color + lay.position == (6, 5, 4, 3, 2, 1, 0)


def test_layout_bit_fields_match_register_tuples():
    rng = random.Random(5)
    for n in range(4):
        for q in range(1, 9):
            lay = RegisterLayout(n, q)
            wires = (
                lay.position + lay.color + lay.threshold + lay.cmp_aux + lay.results
            )
            assert sorted(wires) == list(range(lay.width))
            ints = [rng.getrandbits(lay.width) for _ in range(200)]
            arr = np.array(ints, dtype=np.int64)
            for read, qubits in (
                (lay.color_value, lay.color),
                (lay.position_value, lay.position),
                (lay.readout_value, lay.color + lay.position),
            ):
                assert [read(i) for i in ints] == [extract_bits(i, qubits) for i in ints]
                assert np.array_equal(read(arr), extract_bits(arr, qubits))


def test_bit_helpers_round_trip():
    rng = random.Random(11)
    qubits = (5, 2, 7, 0)
    for _ in range(50):
        base = rng.getrandbits(9)
        value = rng.getrandbits(4)
        packed = insert_bits(base, qubits, value)
        assert extract_bits(packed, qubits) == value


def test_readout_bitstring_is_color_then_position():
    lay = RegisterLayout(1, 2)
    idx = insert_bits(insert_bits(0, lay.color, 0b10), lay.position, 0b01)
    assert lay.readout_bitstring(idx) == "1001"


def test_permutation_gates_self_inverse_on_basis_states():
    rng = random.Random(3)
    width = 8
    for _ in range(200):
        count = rng.choice([0, 1, 2, 3])
        if count == 3:
            count = rng.randint(3, 5)
        wires = rng.sample(range(width), count + 1)
        op = GateOp(
            GateKind.X,
            wires[0],
            tuple(Control(w, rng.random() < 0.5) for w in wires[1:]),
        )
        basis = rng.getrandbits(width)
        assert apply_to_basis(op, apply_to_basis(op, basis)) == basis


def test_spans_cover_every_op_once_in_order():
    rng = random.Random(17)
    seen = set()
    for _ in range(200):
        c = Circuit(3)
        for k in range(rng.randint(0, 6)):
            targets = [rng.randrange(3) for _ in range(rng.randint(0, 3))]
            if rng.random() < 0.5:
                with c.stage(f"s{k}"):
                    for t in targets:
                        c.x(t)
            else:
                for t in targets:
                    c.x(t)
        spans = list(c.spans())
        assert [i for _, start, stop in spans for i in range(start, stop)] == list(
            range(len(c.ops))
        )
        assert [s for s, _, _ in spans if s is not None] == sorted(
            c.stages, key=lambda s: s.start
        )
        for s, start, stop in spans:
            if s is not None:
                assert (start, stop) == (s.start, s.stop)
                seen.add("empty stage" if start == stop else "stage")
            else:
                assert stop > start
                where = "start" if start == 0 else "end" if stop == len(c) else "middle"
                seen.add(f"gap at {where}")
        kinds = [s is None for s, _, _ in spans]
        assert not any(a and b for a, b in zip(kinds, kinds[1:]))
    assert seen == {"stage", "empty stage", "gap at start", "gap at middle", "gap at end"}


def test_subcircuit_refuses_a_repeated_name():
    c = Circuit(1)
    with c.stage("a", ("demo", 3)):
        c.x(0)
    with pytest.raises(ValueError, match="duplicate stage name 'a'"):
        c.subcircuit(["a", "a"])
    assert c.subcircuit(["a"]).stages == [Stage("a", 0, 1, ("demo", 3))]
