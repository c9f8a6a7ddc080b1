"""OpenQASM 2.0 subset export and parsing.

The emitted subset is ``h``, ``x``, ``cx``, ``ccx`` and ``reset`` on a single
register ``q``.  Negative controls are lowered to X-flanked positive controls
and multi-controlled X gates are expanded through a borrowed-ancilla Toffoli
ladder, so every exported line is directly executable.  ``// stage:<name>``
comments mark stage starts and are recovered on parsing; a bare ``// stage:``
closes a stage when unstaged ops follow, and a repeated name is an error.
"""
from __future__ import annotations

import re

from .circuit import Circuit, Control, GateKind, GateOp, Stage


class QasmParseError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _mcx_ladder(controls: list[int], target: int, ancillas: list[int]) -> list[GateOp]:
    """Expand an all-positive MCX into Toffolis using borrowed ancillas.

    The ladder works for ancillas in any state (each is restored), which is
    what lets the exporter pick arbitrary spare wires.  An m-control gate
    expands to 4*(m-2) Toffolis.
    """
    m = len(controls)
    ccx = lambda a, b, t: GateOp(GateKind.X, t, (Control(a), Control(b)))
    half = [ccx(controls[m - 1], ancillas[m - 3], target)]
    for i in range(m - 2, 1, -1):
        half.append(ccx(controls[i], ancillas[i - 2], ancillas[i - 1]))
    half.append(ccx(controls[0], controls[1], ancillas[0]))
    for i in range(2, m - 1):
        half.append(ccx(controls[i], ancillas[i - 2], ancillas[i - 1]))
    return half + half


def _lower_op(op: GateOp, width: int) -> list[GateOp]:
    if not op.controls:
        return [op]
    flips = [GateOp(GateKind.X, c.qubit) for c in op.controls if not c.positive]
    ctrl_qubits = [c.qubit for c in op.controls]
    if len(ctrl_qubits) > 2:
        used = set(ctrl_qubits) | {op.target}
        free = [qb for qb in range(width) if qb not in used]
        need = len(ctrl_qubits) - 2
        if len(free) < need:
            raise ValueError(
                f"lowering an MCX with {len(ctrl_qubits)} controls needs {need} "
                f"spare qubits; width {width} leaves only {len(free)}"
            )
        body = _mcx_ladder(ctrl_qubits, op.target, free[:need])
    else:
        body = [GateOp(op.kind, op.target, tuple(Control(qb) for qb in ctrl_qubits))]
    return flips + body + flips


def lower(circuit: Circuit) -> Circuit:
    """Rewrite to positive controls and at most two controls per gate.

    Each of ``circuit.spans()`` lowers to one span, its stage kept whole."""
    out = Circuit(circuit.width, circuit.layout)
    for s, start, stop in circuit.spans():
        out.append_span(
            s, [low for op in circuit.ops[start:stop] for low in _lower_op(op, out.width)]
        )
    return out


def _format_op(op: GateOp) -> str:
    args = ",".join(f"q[{qb}]" for qb in op.qubits)
    return f"{op.mnemonic} {args};"


def export_circuit_text(circuit: Circuit) -> str:
    """Serialize the lowered circuit, one statement per line."""
    low = lower(circuit)
    lines = ["OPENQASM 2.0;", f"qreg q[{low.width}];"]
    after_stage = False
    for s, start, stop in low.spans():
        if s is not None:
            lines.append(f"// stage:{s.name}")
        elif after_stage:
            lines.append("// stage:")
        after_stage = s is not None
        lines.extend(_format_op(op) for op in low.ops[start:stop])
    return "\n".join(lines) + "\n"


_QREG_RE = re.compile(r"^qreg\s+(\w+)\s*\[\s*(\d+)\s*\]\s*;$")
_GATE_RE = re.compile(r"^(\w+)\s+(.*?)\s*;$")
_QUBIT_RE = re.compile(r"^q\s*\[\s*(\d+)\s*\]$")
_STAGE_RE = re.compile(r"^//\s*stage:\s*(\S*)\s*$")

# mnemonic -> (kind, qubit count); the last qubit is the target
_GATES = {"h": (GateKind.H, 1), "x": (GateKind.X, 1), "reset": (GateKind.RESET, 1),
          "cx": (GateKind.X, 2), "ccx": (GateKind.X, 3)}


def parse_circuit_text(text: str) -> Circuit:
    """Parse the exported subset back into a circuit (stages included)."""
    width: int | None = None
    ops: list[GateOp] = []
    # (op index, stage name or None-to-close) events in order of appearance
    events: list[tuple[int, str | None]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("//"):
            m = _STAGE_RE.match(line)
            if m:
                name = m.group(1) or None
                if name is not None and any(seen == name for _, seen in events):
                    raise QasmParseError(line_no, f"repeated stage marker {name!r}")
                events.append((len(ops), name))
            continue
        if line.startswith("OPENQASM") or line.startswith("include"):
            continue
        if line.startswith("qreg"):
            m = _QREG_RE.match(line)
            if not m:
                raise QasmParseError(line_no, f"malformed qreg declaration: {line!r}")
            if m.group(1) != "q":
                raise QasmParseError(line_no, "only a register named 'q' is supported")
            if width is not None:
                raise QasmParseError(line_no, "duplicate qreg declaration")
            width = int(m.group(2))
            if width < 1:
                raise QasmParseError(line_no, "register must hold at least one qubit")
            continue
        m = _GATE_RE.match(line)
        if not m:
            raise QasmParseError(line_no, f"malformed statement: {line!r}")
        mnemonic, arg_text = m.groups()
        if mnemonic not in _GATES:
            raise QasmParseError(line_no, f"unknown mnemonic {mnemonic!r}")
        if width is None:
            raise QasmParseError(line_no, "gate before qreg declaration")
        kind, arity = _GATES[mnemonic]
        args = [a.strip() for a in arg_text.split(",")] if arg_text else []
        if len(args) != arity:
            raise QasmParseError(
                line_no, f"{mnemonic} takes {arity} qubit(s), got {len(args)}"
            )
        qubits = []
        for a in args:
            qm = _QUBIT_RE.match(a)
            if not qm:
                raise QasmParseError(line_no, f"malformed qubit reference {a!r}")
            qb = int(qm.group(1))
            if qb >= width:
                raise QasmParseError(line_no, f"qubit q[{qb}] outside qreg q[{width}]")
            qubits.append(qb)
        try:
            ops.append(
                GateOp(kind, qubits[-1], tuple(Control(qb) for qb in qubits[:-1]))
            )
        except ValueError as exc:
            raise QasmParseError(line_no, str(exc)) from None

    if width is None:
        raise QasmParseError(1, "missing qreg declaration")
    circuit = Circuit(width)
    circuit.ops.extend(ops)  # every qubit was checked against the qreg
    open_name: str | None = None
    open_start = 0
    for at, name in events:
        if open_name is not None:
            circuit.stages.append(Stage(open_name, open_start, at))
        open_name, open_start = name, at
    if open_name is not None:
        circuit.stages.append(Stage(open_name, open_start, len(ops)))
    return circuit
