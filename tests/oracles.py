"""Reference helpers the tests check the library against.

None of these is used by the library itself.  ``apply_to_basis`` applies one
gate to one basis state, bit by bit, independently of the masked XOR both
simulators share; ``extract_bits`` and ``insert_bits`` read and write a
register given its MSB-first wires; ``from_basis`` starts a circuit from a
basis state other than |0...0>, since every simulator starts from |0...0>.
"""
from __future__ import annotations

from typing import Iterable

from neqrseg import Circuit, GateKind, GateOp, ImageGray


def apply_to_basis(op: GateOp, assignment: int) -> int:
    """Apply a permutation gate to a basis state given as a bit vector."""
    if op.kind in (GateKind.H, GateKind.RESET):
        raise ValueError(f"{op.kind.name} is not a basis permutation")
    for c in op.controls:
        if bool(assignment >> c.qubit & 1) != c.positive:
            return assignment
    return assignment ^ (1 << op.target)


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
