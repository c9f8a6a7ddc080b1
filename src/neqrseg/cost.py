"""Weighted gate counting over circuit stages, beside the costs they quote.

Each op is costed as the QASM exporter emits it: ``qasm.lower_op`` is the
one definition of what a gate lowers to, so the ledger of a circuit equals
the ledger of its exported text, stage by stage.  A lowered op is an ``h``,
``x``, ``cx``, ``ccx`` or ``reset`` with positive controls.  Weights follow
the usual reversible-logic convention: single-qubit gates, CNOT and reset
cost 1 each, a Toffoli costs 5.  Preparation is tallied but excluded from
every total.  A stage's quoted closed form is its ``Stage.quoted``, the one
source of quoted costs.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .circuit import PREP_STAGE, Circuit, Control, GateKind, GateOp, popcounts
from .qasm import lower_op

TOFFOLI_WEIGHT = 5

# Ledger key of the ops outside every stage.  It holds a space, which no
# stage name can (``Circuit.stage`` and the QASM stage marker refuse one).
UNSTAGED = "(no stage)"


@lru_cache(maxsize=None)
def _lowered_tally(
    kind: GateKind, controls: int, negative: int, width: int
) -> tuple[int, int, int, int]:
    """``GateCounts`` fields of ``lower_op`` on a ``kind`` gate with
    ``controls`` controls, ``negative`` of them negative, at ``width``.  They
    depend on nothing else, so one stand-in op on the low wires is lowered."""
    op = GateOp(kind, controls, tuple(Control(qb, qb >= negative) for qb in range(controls)))
    gates = Counter(low.mnemonic for low in lower_op(op, width))
    return gates["h"] + gates["x"], gates["cx"], gates["ccx"], gates["reset"]


def _shapes(circuit: Circuit, start: int, stop: int) -> Counter:
    """Tally of ``(kind, controls, negative controls)`` over one of
    ``circuit.spans()``.  A held prep's is read off its pixels: 2n Hs, and
    for each k, one X with 2n controls, k negative, per set color bit of the
    pixels whose label has k zero bits."""
    if start >= circuit.held:
        return Counter(
            (op.kind, len(op.controls), (op.mask ^ op.value).bit_count())
            for op in circuit.span_ops(start, stop)
        )
    p = 2 * circuit.layout.n
    zeros = p - popcounts(np.arange(len(circuit.pixels), dtype=np.int64), p)
    per_k = np.bincount(zeros, popcounts(circuit.pixels, circuit.layout.q), p + 1)
    mcx = Counter({(GateKind.X, p, k): int(x) for k, x in enumerate(per_k)})
    return mcx + Counter({(GateKind.H, 0, 0): p})  # + drops the zero counts


@dataclass
class GateCounts:
    """Gate tallies for one stage, as its ops are exported."""

    single_qubit: int = 0
    cnot: int = 0
    toffoli: int = 0
    reset: int = 0

    def count(self, shapes: Counter, width: int) -> None:
        """Add ops of a circuit of ``width`` qubits, each as lowered, given
        as a tally of their shapes (see ``_shapes``)."""
        for shape, times in shapes.items():
            single, cnot, toffoli, reset = _lowered_tally(*shape, width)
            self.single_qubit += times * single
            self.cnot += times * cnot
            self.toffoli += times * toffoli
            self.reset += times * reset

    @property
    def actual_cost(self) -> int:
        return self.single_qubit + self.cnot + TOFFOLI_WEIGHT * self.toffoli + self.reset

    def as_dict(self) -> dict[str, int]:
        return {
            "singleQubit": self.single_qubit,
            "cnot": self.cnot,
            "toffoli": self.toffoli,
            "reset": self.reset,
            "cost": self.actual_cost,
        }


@dataclass
class CostLedger:
    """Per-stage counts and quotes; both totals are read off them.

    ``actual_cost`` is the weighted count over every ``stages`` entry but
    ``PREP_STAGE``; ``formula_cost`` sums ``cost_by_formula``, the
    closed-form values quoted by those stages (``Stage.quoted``, set by the
    builders) keyed by formula name.  The preparation stage is tallied but
    never contributes to either total.
    """

    stages: dict[str, GateCounts] = field(default_factory=dict)
    cost_by_formula: dict[str, int] = field(default_factory=dict)

    @property
    def actual_cost(self) -> int:
        return sum(c.actual_cost for name, c in self.stages.items() if name != PREP_STAGE)

    @property
    def formula_cost(self) -> int:
        return sum(self.cost_by_formula.values())


def quantum_cost(circuit: Circuit) -> CostLedger:
    """Tally gate costs for every stage but prep, and for the unstaged gaps.

    The gaps of ``circuit.spans()`` are bucketed under ``UNSTAGED``.  To cost
    only some stages, cost ``circuit.subcircuit(names)``, which keeps their
    quotes and refuses unknown or repeated names.  An op that cannot be
    exported (an MCX with no spare wire) raises ``ValueError``, as exporting
    it does.
    """
    ledger = CostLedger()
    for s, start, stop in circuit.spans():
        counts = ledger.stages.setdefault(UNSTAGED if s is None else s.name, GateCounts())
        counts.count(_shapes(circuit, start, stop), circuit.width)
        if s is not None and s.name != PREP_STAGE and s.quoted is not None:
            formula, value = s.quoted
            ledger.cost_by_formula[formula] = ledger.cost_by_formula.get(formula, 0) + value
    if UNSTAGED in ledger.stages:  # the gap bucket is listed last
        ledger.stages[UNSTAGED] = ledger.stages.pop(UNSTAGED)
    return ledger
