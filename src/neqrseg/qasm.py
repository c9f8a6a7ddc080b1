"""OpenQASM 2.0 subset export and parsing.

The emitted subset is ``reset`` and the ``qelib1.inc`` gates ``h``, ``x``,
``cx`` and ``ccx`` on one register ``q``.  ``lower_op`` turns negative
controls into X-flanked positive controls and MCX gates into borrowed-ancilla
Toffolis, so every exported line is standard OpenQASM 2.0; the cost ledger
tallies what it emits.  ``// stage:<name>``, plus `` <formula>=<value>`` for
a quoted cost, marks a stage start and a bare ``// stage:`` a gap after one;
parsing recovers both, and refuses a repeated or malformed marker and any
header but ``OPENQASM 2.0;`` and ``include "qelib1.inc";``.
"""
from __future__ import annotations

import re

from .circuit import Circuit, Control, GateKind, GateOp, Stage

# Widest register the parser accepts.  Each qubit index becomes a bit of an
# int mask, so an unbounded qreg lets one short line ask for gigabytes.
MAX_QREG_WIDTH = 4096


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


def _positive_mcx(controls: list[int], target: int, width: int) -> list[GateOp]:
    """All-positive MCX lowered to Toffolis on wires borrowed from ``width``."""
    m = len(controls)
    if m <= 2:
        return [GateOp(GateKind.X, target, tuple(Control(qb) for qb in controls))]
    used = set(controls) | {target}
    free = [qb for qb in range(width) if qb not in used]
    if len(free) >= m - 2:
        return _mcx_ladder(controls, target, free[: m - 2])
    if not free:
        raise ValueError(f"lowering an MCX with {m} controls needs a spare qubit")
    # Too few wires for one ladder: split on one borrowed wire ``a`` (Barenco
    # et al. 1995, Lemma 7.3), [X a if c1, X target if c2 and a] twice.  The
    # target flips by AND(c1)·AND(c2) and ``a`` is restored; each part
    # borrows the other's controls, enough wires for its own ladder.
    a, half = free[0], (m + 1) // 2
    split = _positive_mcx(controls[:half], a, width) + _positive_mcx(
        controls[half:] + [a], target, width
    )
    return split + split


def lower_op(op: GateOp, width: int) -> list[GateOp]:
    """``op`` as exported at ``width``: gates with at most two positive controls."""
    if not op.controls:
        return [op]
    flips = [GateOp(GateKind.X, c.qubit) for c in op.controls if not c.positive]
    body = _positive_mcx([c.qubit for c in op.controls], op.target, width)
    return flips + body + flips


def lower(circuit: Circuit) -> Circuit:
    """Rewrite to positive controls and at most two controls per gate.

    Each of ``circuit.spans()`` lowers to one span, its stage kept whole."""
    out = Circuit(circuit.width, circuit.layout)
    for s, start, stop in circuit.spans():
        out.append_span(
            s, [low for op in circuit.ops[start:stop] for low in lower_op(op, out.width)]
        )
    return out


def _format_op(op: GateOp) -> str:
    args = ",".join(f"q[{qb}]" for qb in op.qubits)
    return f"{op.mnemonic} {args};"


def export_circuit_text(circuit: Circuit) -> str:
    """Serialize the lowered circuit, one statement per line."""
    low = lower(circuit)
    lines = [*_HEADER, f"qreg q[{low.width}];"]
    after_stage = False
    for s, start, stop in low.spans():
        if s is not None:
            quote = "" if s.quoted is None else " {}={}".format(*s.quoted)
            lines.append(f"// stage:{s.name}{quote}")
        elif after_stage:
            lines.append("// stage:")
        after_stage = s is not None
        lines.extend(_format_op(op) for op in low.ops[start:stop])
    return "\n".join(lines) + "\n"


# the only header lines written, and the only ones the parser accepts
_HEADER = ("OPENQASM 2.0;", 'include "qelib1.inc";')
_QREG_RE = re.compile(r"^qreg\s+(\w+)\s*\[\s*([0-9]+)\s*\]\s*;$")
_GATE_RE = re.compile(r"^(\w+)\s+(.*?)\s*;$")
# int() refuses over 4300 digits, so qubit indices and quotes take at most 18
_QUBIT_RE = re.compile(r"^q\s*\[\s*([0-9]{1,18})\s*\]$")
_MARKER_RE = re.compile(r"//\s*stage:")
_STAGE_RE = re.compile(r"//\s*stage:(?:(\S+)(?: ([^\s=]+)=(-?[0-9]{1,18}))?)?")

# mnemonic -> (kind, qubit count); the last qubit is the target
_GATES = {"h": (GateKind.H, 1), "x": (GateKind.X, 1), "reset": (GateKind.RESET, 1),
          "cx": (GateKind.X, 2), "ccx": (GateKind.X, 3)}


def parse_circuit_text(text: str) -> Circuit:
    """Parse the exported subset back into a circuit (stages included)."""
    width: int | None = None
    ops: list[GateOp] = []
    # (op index, stage name or None-to-close, quote) in order of appearance
    events: list[tuple[int, str | None, tuple[str, int] | None]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if _MARKER_RE.match(line):
            m = _STAGE_RE.fullmatch(line)
            if not m:
                raise QasmParseError(line_no, f"malformed stage marker: {line!r}")
            name, formula, value = m.groups()
            if name is not None and any(seen == name for _, seen, _ in events):
                raise QasmParseError(line_no, f"repeated stage marker {name!r}")
            quoted = None if formula is None else (formula, int(value))
            events.append((len(ops), name, quoted))
            continue
        if line.startswith(("OPENQASM", "include")) and line not in _HEADER:
            raise QasmParseError(line_no, f"unsupported header {line!r}")
        if line.startswith(("//", "OPENQASM", "include")):
            continue
        if line.startswith("qreg"):
            m = _QREG_RE.match(line)
            if not m:
                raise QasmParseError(line_no, f"malformed qreg declaration: {line!r}")
            if m.group(1) != "q":
                raise QasmParseError(line_no, "only a register named 'q' is supported")
            if width is not None:
                raise QasmParseError(line_no, "duplicate qreg declaration")
            # int() refuses over 4300 digits, and a 20-digit width is far past the bound
            width = int(m.group(2)) if len(m.group(2)) < 20 else 0
            if not 1 <= width <= MAX_QREG_WIDTH:
                raise QasmParseError(line_no, f"register must hold 1 to {MAX_QREG_WIDTH} qubits")
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
    stops = [at for at, _, _ in events[1:]] + [len(ops)]
    for (start, name, quoted), stop in zip(events, stops):
        if name is not None:
            circuit.stages.append(Stage(name, start, stop, quoted))
    return circuit
