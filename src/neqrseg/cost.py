"""Weighted gate counting over circuit stages.

Weights follow the usual reversible-logic convention: single-qubit gates,
CNOT and reset cost 1 each, a Toffoli costs 5.  A multi-controlled X with m
controls carries a declared ladder weight of 10*(m-1); it only appears in
preparation, which is excluded from every total.  Negative controls are
charged as if lowered to X-flanked positive controls: two extra single-qubit
gates per negative control.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .circuit import Circuit, GateKind, GateOp

TOFFOLI_WEIGHT = 5

PREP_STAGE = "prep"
UNSTAGED = "(unstaged)"


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
        if op.kind in (GateKind.H, GateKind.X):
            self.single_qubit += 1
        elif op.kind is GateKind.CNOT:
            self.cnot += 1
        elif op.kind is GateKind.TOFFOLI:
            self.toffoli += 1
        elif op.kind is GateKind.MCX:
            self.mcx += 1
            self.mcx_weight_total += mcx_weight(len(op.controls))
        elif op.kind is GateKind.RESET:
            self.reset += 1
        else:  # pragma: no cover - enum is closed
            raise ValueError(f"unknown gate kind {op.kind}")

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


def quantum_cost(
    circuit: Circuit, counted_stages: list[str] | None = None
) -> CostLedger:
    """Tally gate costs for ``counted_stages`` (default: everything but prep).

    Ops outside any stage are bucketed under ``(unstaged)`` and counted only
    when no explicit stage list is given.  Unknown or repeated stage names
    raise.
    """
    per_stage: dict[str, GateCounts] = {}
    staged = [False] * len(circuit.ops)
    for s in circuit.stages:
        counts = per_stage.setdefault(s.name, GateCounts())
        for i in range(s.start, s.stop):
            counts.count(circuit.ops[i])
            staged[i] = True
    loose = GateCounts()
    for i, op in enumerate(circuit.ops):
        if not staged[i]:
            loose.count(op)
    has_loose = any(not flag for flag in staged)
    if has_loose:
        per_stage[UNSTAGED] = loose

    if counted_stages is None:
        counted = [s.name for s in circuit.stages if s.name != PREP_STAGE]
        if has_loose:
            counted.append(UNSTAGED)
    else:
        for i, name in enumerate(counted_stages):
            if name != UNSTAGED and name not in (s.name for s in circuit.stages):
                raise ValueError(f"unknown stage {name!r}")
            if name in counted_stages[:i]:
                raise ValueError(f"stage {name!r} listed more than once")
        counted = [name for name in counted_stages if name != PREP_STAGE]

    quotes = {s.name: s.quoted for s in circuit.stages if s.quoted is not None}
    ledger = CostLedger(stages=per_stage, counted=tuple(counted))
    for name in counted:
        ledger.actual_cost += per_stage.get(name, GateCounts()).actual_cost
        if name in quotes:
            formula, value = quotes[name]
            ledger.formula_cost += value
            ledger.cost_by_formula[formula] = (
                ledger.cost_by_formula.get(formula, 0) + value
            )
    return ledger
