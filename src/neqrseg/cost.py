"""Weighted gate counting over circuit stages, beside the costs they quote.

Weights follow the usual reversible-logic convention: single-qubit gates,
CNOT and reset cost 1 each, a Toffoli costs 5.  An X is tallied by its
control count (``GateOp.mnemonic``): none is a single-qubit gate, one a
CNOT, two a Toffoli, and m >= 3 an MCX carrying a declared ladder weight of
10*(m-1); MCX only appears in preparation, which is excluded from every
total.  Negative controls are charged as if lowered to X-flanked positive
controls: two extra single-qubit gates per negative control.  A stage's
quoted closed form is its ``Stage.quoted``, the one source of quoted costs.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .circuit import Circuit, GateOp

TOFFOLI_WEIGHT = 5

PREP_STAGE = "prep"
# Ledger key of the ops outside every stage.  It holds a space, which no
# stage name can (``Circuit.stage`` and the QASM stage marker refuse one).
UNSTAGED = "(no stage)"


def mcx_weight(num_controls: int) -> int:
    """Declared cost of a multi-controlled X with ``num_controls`` controls."""
    if num_controls < 3:
        raise ValueError("MCX has at least 3 controls")
    return 2 * (num_controls - 1) * TOFFOLI_WEIGHT


@dataclass
class GateCounts:
    """Gate tallies for one stage, with negative controls already lowered."""

    single_qubit: int = 0
    cnot: int = 0
    toffoli: int = 0
    mcx: int = 0
    reset: int = 0
    mcx_weight_total: int = 0

    def count(self, op: GateOp) -> None:
        self.single_qubit += 2 * (op.mask ^ op.value).bit_count()
        match op.mnemonic:
            case "h" | "x":
                self.single_qubit += 1
            case "cx":
                self.cnot += 1
            case "ccx":
                self.toffoli += 1
            case "mcx":
                self.mcx += 1
                self.mcx_weight_total += mcx_weight(len(op.controls))
            case "reset":
                self.reset += 1

    @property
    def actual_cost(self) -> int:
        return (
            self.single_qubit
            + self.cnot
            + TOFFOLI_WEIGHT * self.toffoli
            + self.mcx_weight_total
            + self.reset
        )

    def as_dict(self) -> dict[str, int]:
        return {
            "singleQubit": self.single_qubit,
            "cnot": self.cnot,
            "toffoli": self.toffoli,
            "mcx": self.mcx,
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
    quotes and refuses unknown or repeated names.
    """
    per_stage: dict[str, GateCounts] = {}
    for s, start, stop in circuit.spans():
        counts = per_stage.setdefault(UNSTAGED if s is None else s.name, GateCounts())
        for op in circuit.ops[start:stop]:
            counts.count(op)
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
            ledger.cost_by_formula[formula] = (
                ledger.cost_by_formula.get(formula, 0) + value
            )
    return ledger
