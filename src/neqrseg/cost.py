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

from .circuit import Circuit, Control, GateKind, GateOp
from .qasm import lower_op

TOFFOLI_WEIGHT = 5

PREP_STAGE = "prep"
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


@dataclass
class GateCounts:
    """Gate tallies for one stage, as its ops are exported."""

    single_qubit: int = 0
    cnot: int = 0
    toffoli: int = 0
    reset: int = 0

    def count(self, ops: list[GateOp], width: int) -> None:
        """Add ``ops`` of a circuit of ``width`` qubits, each as lowered."""
        shapes = Counter(
            (op.kind, len(op.controls), (op.mask ^ op.value).bit_count()) for op in ops
        )
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
    """Per-stage counts plus the measured and formula-based totals.

    ``actual_cost`` is the weighted count over the counted stages;
    ``formula_cost`` sums the closed-form values quoted by those stages
    (``Stage.quoted``, set by the builders); ``cost_by_formula`` breaks that
    sum down by formula name.  The preparation stage never contributes to
    either total.
    """

    stages: dict[str, GateCounts] = field(default_factory=dict)
    counted: tuple[str, ...] = ()
    actual_cost: int = 0
    formula_cost: int = 0
    cost_by_formula: dict[str, int] = field(default_factory=dict)


def quantum_cost(circuit: Circuit) -> CostLedger:
    """Tally gate costs for every stage but prep, and for the unstaged gaps.

    The gaps of ``circuit.spans()`` are bucketed under ``UNSTAGED``.  To cost
    only some stages, cost ``circuit.subcircuit(names)``, which keeps their
    quotes and refuses unknown or repeated names.  An op that cannot be
    exported (an MCX with no spare wire) raises ``ValueError``, as exporting
    it does.
    """
    per_stage: dict[str, GateCounts] = {}
    for s, start, stop in circuit.spans():
        counts = per_stage.setdefault(UNSTAGED if s is None else s.name, GateCounts())
        counts.count(circuit.ops[start:stop], circuit.width)
    if UNSTAGED in per_stage:  # the gap bucket is listed last
        per_stage[UNSTAGED] = per_stage.pop(UNSTAGED)

    counted = tuple(name for name in per_stage if name != PREP_STAGE)
    ledger = CostLedger(
        stages=per_stage,
        counted=counted,
        actual_cost=sum(per_stage[name].actual_cost for name in counted),
    )
    for s in circuit.stages:
        if s.name != PREP_STAGE and s.quoted is not None:
            formula, value = s.quoted
            ledger.formula_cost += value
            ledger.cost_by_formula[formula] = ledger.cost_by_formula.get(formula, 0) + value
    return ledger
