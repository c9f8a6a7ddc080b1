"""Reversible less-than comparator with a reusable aux pair.

``build_comparator`` appends one stage to the circuit it is given.  The
stage writes ``[a < b]`` into the result qubit (ties give 0), leaves both
operand registers bitwise unchanged and returns both aux qubits to |0>
through trailing resets.  Bits are consumed most significant first; one aux
qubit carries the running "all higher bits equal" flag into the next stage
while the other scores the current bit, and resets let the pair swap roles
instead of growing with q.
"""
from __future__ import annotations

from typing import Sequence

from .circuit import Circuit, neg, pos


def comparator_formula_cost(q: int) -> int:
    """Closed-form cost 18q - 13 quoted for the q-bit comparator."""
    if q < 1:
        raise ValueError("q must be at least 1")
    return 18 * q - 13


def build_comparator(
    circuit: Circuit, a: Sequence[int], b: Sequence[int], aux: Sequence[int], y: int, *, stage: str
) -> Circuit:
    """Append stage ``stage`` computing ``y ^= [a < b]`` to ``circuit``.

    ``a`` and ``b`` are the operand registers, MSB first, and ``aux`` the
    aux pair; all wires must be distinct.  Returns ``circuit``.
    """
    if len(a) != len(b):
        raise ValueError("operand registers must have equal size")
    if len(aux) != 2:
        raise ValueError("the comparator uses exactly two aux qubits")
    wires = (*a, *b, *aux, y)
    if len(set(wires)) != len(wires):
        raise ValueError("comparator registers overlap")
    q = len(a)
    u, v = aux
    with circuit.stage(stage, ("comparator-paper", comparator_formula_cost(q))):
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
