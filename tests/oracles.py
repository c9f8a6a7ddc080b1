"""Reference helpers the tests check the library against.

None of these is used by the library itself.  ``apply_to_basis`` applies one
gate to one basis state, bit by bit, independently of either simulator's
kernel; ``extract_bits`` and ``insert_bits`` read and write a
register given its MSB-first wires; ``from_basis`` starts a circuit from a
basis state other than |0...0>, since every simulator starts from |0...0>.
``prep_by_ops`` builds NEQR preparation as stored ops, the reference a held
image is checked against, and ``built_by_ops`` swaps it in for a circuit's
held image.  ``export_by_ops`` writes a circuit's QASM one lowered op per
line, the reference for ``export_circuit_text``.  ``exact_law`` runs a
narrow circuit on a dense density matrix, the reference for the law of a
tracked run.
"""
from __future__ import annotations

from typing import Iterable

import numpy as np

from neqrseg import Circuit, Control, GateKind, GateOp, ImageGray, RegisterLayout, lower


def apply_to_basis(op: GateOp, assignment: int) -> int:
    """Apply a permutation gate to a basis state given as a bit vector."""
    if op.kind in (GateKind.H, GateKind.RESET):
        raise ValueError(f"{op.kind.name} is not a basis permutation")
    for c in op.controls:
        if bool(assignment >> c.qubit & 1) != c.positive:
            return assignment
    return assignment ^ (1 << op.target)


MAX_DENSE_WIDTH = 8


def exact_law(circuit: Circuit) -> np.ndarray:
    """Law over basis indices of ``circuit`` run from |0...0>: the diagonal
    of its density matrix, evolved op by op with no basis tracking.

    X permutes rows and columns through ``apply_to_basis``; H is applied to
    both sides of the matrix; reset is the channel that maps |1> to |0> on
    its wire, summing the two diagonal blocks of that wire and dropping the
    off-diagonal ones.  Every entry stays real.
    """
    if circuit.width > MAX_DENSE_WIDTH:
        raise ValueError(f"width {circuit.width} is above the dense oracle's {MAX_DENSE_WIDTH}")
    index = np.arange(1 << circuit.width)
    rho = np.zeros((len(index), len(index)))
    rho[0, 0] = 1.0
    for op in circuit.ops:
        bit = 1 << op.target
        clear, set_ = index & ~bit, index | bit
        if op.kind is GateKind.H:
            sign = np.where(index & bit, -1.0, 1.0)
            rho = (rho[clear] + sign[:, None] * rho[set_]) / np.sqrt(2)
            rho = (rho[:, clear] + sign[None, :] * rho[:, set_]) / np.sqrt(2)
        elif op.kind is GateKind.RESET:
            kept = np.outer(index & bit == 0, index & bit == 0)
            rho = np.where(kept, rho + rho[np.ix_(set_, set_)], 0.0)
        else:
            image = [apply_to_basis(op, i) for i in index.tolist()]
            moved = np.empty_like(rho)
            moved[np.ix_(image, image)] = rho
            rho = moved
    return np.diag(rho).copy()


def extract_bits(basis_index: int, qubits: Iterable[int]) -> int:
    """Read the value of a register given MSB-first qubit indices.

    ``basis_index`` may be an int or an int64 index array; an array keeps its
    shape even when the register is empty.
    """
    value = basis_index & 0
    for qb in qubits:
        value = value << 1 | (basis_index >> qb & 1)
    return value


def insert_bits(basis_index: int, qubits: Iterable[int], value: int) -> int:
    """Return ``basis_index`` with the register at ``qubits`` set to ``value``."""
    qubits = tuple(qubits)
    for i, qb in enumerate(qubits):
        bit = value >> (len(qubits) - 1 - i) & 1
        basis_index = (basis_index & ~(1 << qb)) | (bit << qb)
    return basis_index


def without_stages(circuit: Circuit, *names: str) -> Circuit:
    """Copy without the named stages; every other op keeps its order."""
    for name in names:
        circuit.stage_named(name)
    out = Circuit(circuit.width, circuit.layout)
    for s, start, stop in circuit.spans():
        if s is None or s.name not in names:
            out.append_span(s, circuit.ops[start:stop])
    return out


def image_from_rows(rows: list[list[int]], q: int) -> ImageGray:
    side = len(rows)
    for row in rows:
        if len(row) != side:
            raise ValueError(
                f"{side} rows need {side} values each, got a row of {len(row)}"
            )
    n = max(side - 1, 0).bit_length()
    flat = tuple(v for row in rows for v in row)
    return ImageGray(n, q, flat)


def from_basis(circuit: Circuit, index: int) -> Circuit:
    """``circuit`` run from basis state ``index``: one X per set bit of
    ``index``, unstaged, then every op and stage of ``circuit``."""
    start = Circuit(circuit.width, circuit.layout)
    for qb in range(circuit.width):
        if index >> qb & 1:
            start.x(qb)
    return start.extend(circuit)


def prep_by_ops(image: ImageGray) -> Circuit:
    """NEQR preparation of ``image`` as stored ops: H on every position wire,
    then one X per set color bit of each pixel, controlled on its label."""
    layout = RegisterLayout(image.n, image.q)
    p = 2 * image.n
    circuit = Circuit(layout.width, layout)
    with circuit.stage("prep"):
        for qb in layout.position:
            circuit.h(qb)
        polarities = [(qb, (Control(qb, False), Control(qb, True))) for qb in layout.position]
        for label, value in enumerate(image.pixels):
            if value == 0:
                continue
            controls = tuple(pair[label >> qb & 1] for qb, pair in polarities)
            for cq in layout.color:
                if value >> (cq - p) & 1:
                    circuit.append(GateOp(GateKind.X, cq, controls))
    return circuit


def built_by_ops(circuit: Circuit) -> Circuit:
    """``circuit`` with its held image replaced by ``prep_by_ops``; every
    later op and stage is copied as it is."""
    layout = circuit.layout
    out = prep_by_ops(ImageGray(layout.n, layout.q, circuit.pixels.tolist()))
    for s, start, stop in circuit.spans():
        if s is None or s.name != "prep":
            out.append_span(s, circuit.span_ops(start, stop))
    return out


def export_by_ops(circuit: Circuit) -> str:
    """``circuit`` as OpenQASM, op by op: ``lower(circuit)``, then one line
    per lowered op, with a ``// stage:`` marker (and quote) at each stage
    start and a bare one at each gap after a stage."""
    low = lower(circuit)
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{low.width}];"]
    after_stage = False
    for s, start, stop in low.spans():
        if s is not None:
            quote = "" if s.quoted is None else f" {s.quoted[0]}={s.quoted[1]}"
            lines.append(f"// stage:{s.name}{quote}")
        elif after_stage:
            lines.append("// stage:")
        after_stage = s is not None
        for op in low.gates[start:stop]:
            lines.append(f"{op.mnemonic} {','.join(f'q[{qb}]' for qb in op.qubits)};")
    return "\n".join(lines) + "\n"
