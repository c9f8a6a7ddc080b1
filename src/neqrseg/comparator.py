"""Reversible less-than comparator with a reusable aux pair.

Writes ``[a < b]`` into the result qubit (ties give 0), leaves both operand
registers bitwise unchanged and returns both aux qubits to |0> through
trailing resets.  Bits are consumed most significant first; one aux qubit
carries the running "all higher bits equal" flag into the next stage while
the other scores the current bit, and resets let the pair swap roles instead
of growing with q.
"""
from __future__ import annotations

from dataclasses import dataclass

from .circuit import Circuit, neg, pos


def comparator_formula_cost(q: int) -> int:
    """Closed-form cost 18q - 13 quoted for the q-bit comparator."""
    if q < 1:
        raise ValueError("q must be at least 1")
    return 18 * q - 13


@dataclass(frozen=True)
class ComparatorSpec:
    """Wiring of one comparator: operand registers MSB first, aux pair, result."""

    a_register: tuple[int, ...]
    b_register: tuple[int, ...]
    aux: tuple[int, int]
    result: int
    stage_name: str = "compare"

    def __post_init__(self) -> None:
        object.__setattr__(self, "a_register", tuple(self.a_register))
        object.__setattr__(self, "b_register", tuple(self.b_register))
        object.__setattr__(self, "aux", tuple(self.aux))
        if not self.a_register:
            raise ValueError("q must be at least 1")
        if len(self.a_register) != len(self.b_register):
            raise ValueError("operand registers must have equal size")
        if len(self.aux) != 2:
            raise ValueError("the comparator uses exactly two aux qubits")
        wires = (*self.a_register, *self.b_register, *self.aux, self.result)
        if len(set(wires)) != len(wires):
            raise ValueError("comparator registers overlap")

    @property
    def q(self) -> int:
        return len(self.a_register)


def build_comparator(spec: ComparatorSpec, width: int | None = None) -> Circuit:
    """Fragment computing result ^= [a < b] under the contract above."""
    if width is None:
        width = max(*spec.a_register, *spec.b_register, *spec.aux, spec.result) + 1
    a, b = spec.a_register, spec.b_register
    u, v = spec.aux
    y = spec.result
    q = spec.q
    circuit = Circuit(width)
    quoted = ("comparator-paper", comparator_formula_cost(q))
    with circuit.stage(spec.stage_name, quoted):
        # Highest bit decides outright.  With more bits its tie flag lands in
        # u; the b bit briefly holds a XOR b so equality is a single control.
        circuit.ccx(neg(a[0]), pos(b[0]), y)
        if q > 1:
            circuit.cx(a[0], b[0])
            circuit.cx(neg(b[0]), u)
            circuit.cx(a[0], b[0])
            tie, scratch = u, v
            for i in range(1, q - 1):
                circuit.ccx(neg(a[i]), pos(b[i]), scratch)
                circuit.ccx(tie, scratch, y)
                circuit.reset(scratch)
                circuit.cx(a[i], b[i])
                circuit.ccx(pos(tie), neg(b[i]), scratch)
                circuit.cx(a[i], b[i])
                circuit.reset(tie)
                tie, scratch = scratch, tie
            circuit.ccx(neg(a[-1]), pos(b[-1]), scratch)
            circuit.ccx(tie, scratch, y)
            circuit.reset(scratch)
            circuit.reset(tie)
    return circuit
