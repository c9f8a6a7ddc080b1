"""The exporter against its op-by-op reference, and the parser on repeats.

``export_circuit_text`` makes the text of each distinct X flank and ladder
once per call, and ``parse_circuit_text`` parses each distinct statement
line once; ``oracles.export_by_ops`` lowers and formats every op on its own.
On random circuits (held images, mixed-polarity MCX with too few spare wires
for one ladder, empty stages, unstaged gaps) both texts are byte-equal and
parse back to ``lower(circuit)``.
"""
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from neqrseg import (  # noqa: E402
    Circuit,
    Control,
    GateKind,
    GateOp,
    RegisterLayout,
    export_circuit_text,
    lower,
    neg,
    parse_circuit_text,
    pos,
)
from oracles import export_by_ops  # noqa: E402


@st.composite
def gate_ops(draw, width):
    """H, reset, or an X with up to two controls, or with three or more as
    long as one wire is left to borrow (possibly fewer than ``m - 2``)."""
    kind = draw(st.sampled_from([GateKind.H, GateKind.RESET, GateKind.X, GateKind.X]))
    wires = draw(st.permutations(range(width)))
    m = 0
    if kind is GateKind.X:
        m = draw(st.integers(0, max(min(2, width - 1), width - 2)))
    polarity = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    return GateOp(kind, wires[m], tuple(map(Control, wires[:m], polarity)))


@st.composite
def circuits(draw):
    """A circuit that may hold an image, then staged and unstaged runs of
    gates, any of them empty, some stages quoting a cost."""
    if draw(st.booleans()):
        layout = RegisterLayout(draw(st.integers(0, 2)), draw(st.integers(1, 4)))
        top = (1 << layout.q) - 1
        pixels = draw(st.lists(st.integers(0, top), min_size=4**layout.n, max_size=4**layout.n))
        c = Circuit(layout.width, layout, pixels)
    else:
        c = Circuit(draw(st.integers(1, 12)))
    for i in range(draw(st.integers(0, 6))):
        ops = draw(st.lists(gate_ops(c.width), max_size=6))
        if draw(st.booleans()):
            for op in ops:
                c.append(op)
            continue
        quoted = draw(st.none() | st.tuples(st.sampled_from(["f", "paper"]), st.integers(-99, 999)))
        with c.stage(f"s{i}", quoted):
            for op in ops:
                c.append(op)
    return c


def _split_ladders() -> Circuit:
    # 6 mixed-polarity controls on width 9 leave 2 spare wires, fewer than
    # one ladder's 4, so that MCX splits; 5 controls leave 3, enough for one
    c = Circuit(9)
    c.controlled_x((neg(0), pos(1), neg(2), pos(3), neg(4), pos(5)), 6)
    with c.stage("again"):
        c.controlled_x((neg(0), pos(1), neg(2), pos(3), neg(4), pos(5)), 6)
        c.controlled_x((pos(8), neg(7), pos(1), neg(0), pos(3)), 2)
    c.x(0)
    return c


def _held() -> Circuit:
    layout = RegisterLayout(2, 2)
    c = Circuit(layout.width, layout, [v % 4 for v in range(16)])
    with c.stage("empty"):
        pass
    c.controlled_x((neg(0), neg(1), pos(2)), layout.results[0])
    return c


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(circuits())
@example(_split_ladders())
@example(_held())
def test_export_matches_the_op_by_op_reference(c):
    text = export_circuit_text(c)
    assert text == export_by_ops(c)
    parsed, low = parse_circuit_text(text), lower(c)
    assert parsed.width == low.width
    assert parsed.ops == low.ops
    assert parsed.stages == low.stages  # quotes included


def test_repeated_lines_parse_to_equal_ops():
    # the same statement, indented or not, six times in one stage
    body = "ccx q[2],q[0],q[1];\n  ccx q[2],q[0],q[1];\n" * 3
    parsed = parse_circuit_text("OPENQASM 2.0;\nqreg q[3];\n// stage:a\n" + body + "x q[0];\n")
    assert parsed.ops == [GateOp(GateKind.X, 1, (pos(2), pos(0)))] * 6 + [GateOp(GateKind.X, 0)]
    assert [(s.name, s.start, s.stop) for s in parsed.stages] == [("a", 0, 7)]
