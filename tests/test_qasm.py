import itertools
import random

import pytest

from neqrseg import (
    Circuit,
    Control,
    GateKind,
    GateOp,
    ImageGray,
    QasmParseError,
    ThresholdConfig,
    build_pipeline,
    classical_segment,
    decode,
    export_circuit_text,
    lower,
    parse_circuit_text,
    pos,
    neg,
    quantum_cost,
    run_tracked,
)
from neqrseg.qasm import MAX_QREG_WIDTH
from oracles import apply_to_basis


def test_export_header_and_simple_gates():
    c = Circuit(3)
    c.h(0).x(1).cx(0, 2).ccx(0, 1, 2).reset(1)
    text = export_circuit_text(c)
    assert text.splitlines() == [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        "qreg q[3];",
        "h q[0];",
        "x q[1];",
        "cx q[0],q[2];",
        "ccx q[0],q[1],q[2];",
        "reset q[1];",
    ]


def test_negative_control_exports_as_x_flank():
    c = Circuit(2)
    c.cx(neg(0), 1)
    body = export_circuit_text(c).splitlines()[3:]
    assert body == ["x q[0];", "cx q[0],q[1];", "x q[0];"]


def test_stage_comments_round_trip():
    c = Circuit(3)
    c.x(0)
    with c.stage("alpha"):
        c.x(1).x(2)
    c.x(0)
    with c.stage("beta"):
        c.reset(2)
    text = export_circuit_text(c)
    lines = text.splitlines()
    assert lines[4] == "// stage:alpha"
    assert lines[7] == "// stage:"  # unstaged gap after alpha
    parsed = parse_circuit_text(text)
    assert parsed.ops == lower(c).ops
    assert parsed.stages == lower(c).stages


def test_empty_stage_then_unstaged_tail():
    c = Circuit(2)
    with c.stage("empty"):
        pass
    c.x(0)
    parsed = parse_circuit_text(export_circuit_text(c))
    assert parsed.stages == lower(c).stages
    assert [op.kind for op in parsed.ops] == [GateKind.X]


def _random_op(rng, width):
    choices = ["h", "x", "reset", "cx", "ccx"]
    if width >= 5:
        choices.append("mcx")
    pick = rng.choice([k for k in choices if _min_width(k) <= width])
    if pick == "mcx":
        m = rng.randint(3, (width + 1) // 2)
        wires = rng.sample(range(width), m + 1)
        kind = GateKind.X
    else:
        arity = {"h": 1, "x": 1, "reset": 1, "cx": 2, "ccx": 3}[pick]
        wires = rng.sample(range(width), arity)
        kind = {
            "h": GateKind.H,
            "x": GateKind.X,
            "reset": GateKind.RESET,
            "cx": GateKind.X,
            "ccx": GateKind.X,
        }[pick]
    controls = tuple(Control(w, rng.random() < 0.7) for w in wires[:-1])
    return GateOp(kind, wires[-1], controls)


def _min_width(kind):
    return {"h": 1, "x": 1, "reset": 1, "cx": 2, "ccx": 3, "mcx": 5}[kind]


def _per_stage(circuit):
    return {name: counts.as_dict() for name, counts in quantum_cost(circuit).stages.items()}


def test_random_circuits_round_trip():
    rng = random.Random(20240817)
    for trial in range(40):
        width = rng.randint(1, 16)
        c = Circuit(width)
        total = rng.randint(0, 200)
        placed = 0
        while placed < total:
            if rng.random() < 0.4:
                run_len = min(rng.randint(1, 8), total - placed)
                with c.stage(f"s{len(c.stages)}"):
                    for _ in range(run_len):
                        c.append(_random_op(rng, width))
                placed += run_len
            else:
                c.append(_random_op(rng, width))
                placed += 1
        text = export_circuit_text(c)
        parsed = parse_circuit_text(text)
        low = lower(c)
        assert parsed.width == low.width
        assert parsed.ops == low.ops
        assert parsed.stages == low.stages
        # exporting an already-lowered circuit is a fixed point
        assert export_circuit_text(parsed) == text
        # the ledger costs each op as it is exported
        assert _per_stage(c) == _per_stage(low)


def test_mcx_ladder_semantics_exhaustive():
    """The borrowed-ancilla expansion must act like MCX for *every* ancilla
    state, not just |0> ancillas."""
    for m in range(3, 7):
        width = 2 * m - 1  # controls + target + (m-2) borrowed wires
        c = Circuit(width)
        controls = tuple(range(m))
        c.controlled_x(controls, m)
        low = lower(c)
        assert all(op.mnemonic == "ccx" for op in low.ops)
        assert len(low.ops) == 4 * (m - 2)
        mcx = GateOp(GateKind.X, m, tuple(pos(qb) for qb in controls))
        for basis in range(1 << width):
            state = basis
            for op in low.ops:
                state = apply_to_basis(op, state)
            assert state == apply_to_basis(mcx, basis)


def test_mcx_split_on_one_borrowed_wire_exhaustive():
    """With one or two spare wires, often fewer than the ladder's m - 2, the
    lowered MCX (a ladder, or the split on one borrowed wire of Barenco et al.
    1995, Lemma 7.3) must act like MCX for every basis state, spares included."""
    for m in range(3, 9):
        for spare in (1, 2):
            width = m + 1 + spare
            c = Circuit(width)
            controls = tuple(range(m))
            c.controlled_x(controls, m)
            low = lower(c)
            assert all(len(op.controls) <= 2 for op in low.ops)
            mcx = GateOp(GateKind.X, m, tuple(pos(qb) for qb in controls))
            for basis in range(1 << width):
                state = basis
                for op in low.ops:
                    state = apply_to_basis(op, state)
                assert state == apply_to_basis(mcx, basis), (m, spare, basis)


def test_mcx_with_negative_controls_lowered_correctly():
    width = 7
    c = Circuit(width)
    c.controlled_x((neg(0), neg(1), neg(2)), 3)
    low = lower(c)
    mcx = GateOp(GateKind.X, 3, (neg(0), neg(1), neg(2)))
    for basis in range(1 << width):
        state = basis
        for op in low.ops:
            state = apply_to_basis(op, state)
        assert state == apply_to_basis(mcx, basis)


def test_mcx_without_room_is_rejected():
    c = Circuit(4)
    c.controlled_x((0, 1, 2), 3)
    with pytest.raises(ValueError, match="spare"):
        export_circuit_text(c)


_REPEATS = 1000
_HEAD = "OPENQASM 2.0;\nqreg q[3];\n"


@pytest.mark.parametrize(
    "text,line,fragment",
    [
        ("OPENQASM 2.0;\nqreg r[2];\n", 2, "named 'q'"),
        ("OPENQASM 2.0;\nqreg q[2];\nqreg q[2];\n", 3, "duplicate"),
        ("OPENQASM 2.0;\nqreg q[0];\n", 2, "must hold 1 to"),
        (f"OPENQASM 2.0;\nqreg q[{MAX_QREG_WIDTH + 1}];\n", 2, "must hold 1 to"),
        pytest.param(
            f"OPENQASM 2.0;\nqreg q[{'9' * 5000}];\n", 2, "must hold 1 to", id="qreg-5000-digits"
        ),
        ("OPENQASM 2.0;\nh q[0];\n", 2, "before qreg"),
        ("OPENQASM 2.0;\nqreg q[2];\nrz q[0];\n", 3, "unknown mnemonic"),
        ("OPENQASM 2.0;\nqreg q[2];\ncx q[0];\n", 3, "takes 2"),
        ("OPENQASM 2.0;\nqreg q[2];\nx q[5];\n", 3, "outside"),
        pytest.param(
            f"OPENQASM 2.0;\nqreg q[2];\nx q[{'9' * 5000}];\n", 3, "malformed", id="qubit-5000-digits"
        ),
        ("OPENQASM 2.0;\nqreg q[2];\nx q[0]\n", 3, "malformed"),
        ("OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[0];\n", 3, "also be a control"),
        ("OPENQASM 2.0;\n", 1, "missing qreg"),
        ("OPENQASM 3.0;\nqreg q[1];\nx q[0];\n", 1, "unsupported header"),
        ('OPENQASM 2.0;\ninclude "other.inc";\nqreg q[1];\n', 2, "unsupported header"),
        (
            "OPENQASM 2.0;\nqreg q[1];\n// stage:a\nx q[0];\n// stage:a\nx q[0];\n",
            5,
            "repeated stage marker",
        ),
        ("OPENQASM 2.0;\nqreg q[1];\n// stage:work 41\n", 3, "malformed stage marker"),
        ("OPENQASM 2.0;\nqreg q[1];\n// stage: two words\n", 3, "malformed stage marker"),
        ("OPENQASM 2.0;\nqreg q[1];\n// stage: f=3\n", 3, "malformed stage marker"),
        ("OPENQASM 2.0;\nqreg q[1];\n// stage:a f=3 g=4\n", 3, "malformed stage marker"),
        pytest.param(
            f"OPENQASM 2.0;\nqreg q[1];\n// stage:a f={'9' * 5000}\n", 3, "malformed stage marker",
            id="quote-5000-digits",
        ),
        pytest.param("OPENQASM 2.0;\nqreg q[\u0663];\n", 2, "malformed qreg", id="qreg-arabic-indic"),
        pytest.param(
            "OPENQASM 2.0;\nqreg q[3];\nx q[\u0662];\n", 3, "malformed qubit", id="qubit-arabic-indic"
        ),
        pytest.param(
            "OPENQASM 2.0;\nqreg q[1];\n// stage:a f=\u0667\n", 3, "malformed stage marker",
            id="quote-arabic-indic",
        ),
        # a bad line after many copies of a good one, which parse once
        pytest.param(
            _HEAD + "ccx q[0],q[1],q[2];\n" * _REPEATS + "ccx q[0],q[1],q[3];\n",
            3 + _REPEATS, "outside", id="repeats-then-qubit-out-of-range",
        ),
        pytest.param(
            _HEAD + "ccx q[0],q[1],q[2];\n" * _REPEATS + "ccx q[0],q[0],q[2];\n",
            3 + _REPEATS, "distinct", id="repeats-then-repeated-control",
        ),
        pytest.param(
            "OPENQASM 2.0;\ncx q[0],q[1];\nqreg q[3];\n" + "cx q[0],q[1];\n" * _REPEATS,
            2, "before qreg", id="gate-before-qreg-repeated-later",
        ),
        pytest.param(
            _HEAD + "cx q[0],q[1];\n" * _REPEATS + "qreg q[3];\ncx q[0],q[1];\n",
            3 + _REPEATS, "duplicate qreg", id="repeats-then-duplicate-qreg",
        ),
    ],
)
def test_parse_errors_carry_line_numbers(text, line, fragment):
    with pytest.raises(QasmParseError) as err:
        parse_circuit_text(text)
    assert err.value.line == line
    assert fragment in str(err.value)


def test_parser_accepts_the_widest_register():
    top = MAX_QREG_WIDTH - 1
    c = parse_circuit_text(f"OPENQASM 2.0;\nqreg q[00{MAX_QREG_WIDTH}];\ncx q[{top}],q[0];\n")
    assert c.width == MAX_QREG_WIDTH
    assert c.ops == [GateOp(GateKind.X, 0, (Control(top),))]


def test_parser_tolerates_blank_lines_and_include():
    text = (
        "OPENQASM 2.0;\n"
        'include "qelib1.inc";\n'
        "\n"
        "qreg q[2];\n"
        "// a free comment\n"
        "x q[1];\n"
    )
    c = parse_circuit_text(text)
    assert c.width == 2
    assert [op.target for op in c.ops] == [1]


def test_all_toffoli_control_orders_parse_back():
    for a, b in itertools.permutations(range(3), 2):
        t = 3 - a - b
        c = Circuit(3)
        c.ccx(a, b, t)
        assert parse_circuit_text(export_circuit_text(c)).ops == c.ops


def test_exported_pipelines_resimulate_to_the_classical_result():
    rng = random.Random(31)
    for _ in range(30):
        q, n = rng.randint(2, 5), rng.randint(0, 2)
        top = (1 << q) - 1
        thresholds = sorted(rng.sample(range(1, top + 1), rng.randint(1, min(3, top))))
        levels = [rng.randint(0, top)] + [rng.randint(t, top) for t in thresholds]
        config = ThresholdConfig(q, tuple(thresholds), tuple(levels))
        image = ImageGray(n, q, tuple(rng.randint(0, top) for _ in range(4**n)))
        c = build_pipeline(image, config)
        parsed = parse_circuit_text(export_circuit_text(c))
        assert parsed.stages == lower(c).stages  # quotes included
        got, want = quantum_cost(parsed), quantum_cost(lower(c))
        assert got.actual_cost == want.actual_cost
        assert got.formula_cost == want.formula_cost
        assert got.cost_by_formula == want.cost_by_formula
        rerun = Circuit(parsed.width, c.layout).extend(parsed)
        assert decode(run_tracked(rerun)) == classical_segment(image, config)


@pytest.mark.parametrize("n,q", [(4, 1), (5, 2)])
def test_exports_with_too_few_wires_for_one_ladder_resimulate(n, q):
    # The 2n-control preparation MCX needs 2n - 2 spare wires for one ladder,
    # but a pipeline leaves only 2q + 3.
    rng = random.Random(n)
    top = (1 << q) - 1
    config = ThresholdConfig.with_default_levels(q, (1,) if q == 1 else (1, 2))
    image = ImageGray(n, q, tuple(rng.randint(0, top) for _ in range(4**n)))
    c = build_pipeline(image, config)
    parsed = parse_circuit_text(export_circuit_text(c))
    assert parsed.stages == lower(c).stages
    rerun = Circuit(parsed.width, c.layout).extend(parsed)
    assert decode(run_tracked(rerun)) == classical_segment(image, config)
