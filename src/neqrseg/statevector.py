"""Sparse statevector simulator with measurement-based mid-circuit reset.

Everything here except H permutes computational basis states, so the one
genuinely quantum move is the reset: a projective measurement of the target
qubit (outcome drawn from its marginal probability) followed by a flip back
to |0> when the outcome was 1.  A reset therefore collapses whatever the
target was entangled with; per-shot faithfulness comes from re-running the
whole circuit for every shot.

The state is stored as its support only: distinct int64 basis indices
(little endian, qubit j is bit j) and their complex amplitudes.  The
circuit's ops are read as they stand: a permutation gate is the tracked
backend's masked XOR (:func:`neqrseg.tracked.apply_permutation`) on the
indices, H splits each entry and merges partners, and a reset measures over
the support.  :func:`run` scatters the support into a dense vector at the
end, which is why widths are capped at 26 qubits; :func:`sample_shots` keeps
the same cap.  Every stochastic entry point takes an explicit seed and draws
from ``numpy.random.default_rng`` (PCG64): one draw per reset, then one final
draw over the cumulative probabilities in basis-index order.  Identical seeds
give identical shot sequences, and each shot of ``sample_shots`` derives its
own generator from (seed, shot index) so shots are independent and
order-insensitive.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .circuit import Circuit, GateKind, GateOp, extract_bits
from .tracked import apply_permutation

MAX_WIDTH = 26
NORM_TOL = 1e-10

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


@dataclass
class QuantumState:
    """Final amplitudes of a simulation, plus the seed that produced them."""

    amplitudes: np.ndarray
    width: int
    seed: int


@dataclass(frozen=True)
class ShotRecord:
    bitstring: str
    count: int
    probability: float


def _check_inputs(circuit: Circuit, initial: int) -> None:
    if circuit.width > MAX_WIDTH:
        raise ValueError(
            f"width {circuit.width} exceeds the {MAX_WIDTH}-qubit statevector guard"
        )
    if not 0 <= initial < (1 << circuit.width):
        raise ValueError(
            f"initial basis index {initial} does not fit width {circuit.width}"
        )


def _execute(
    ops: Iterable[GateOp],
    initial: int,
    rng: np.random.Generator,
    check_norm: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """One trajectory over the support: distinct basis indices, amplitudes."""
    indices = np.array([initial], dtype=np.int64)
    amps = np.ones(1, dtype=np.complex128)
    for op in ops:
        kind, target = op.kind, op.target
        bit = 1 << target
        if kind is GateKind.H:
            # Pair each index with its partner across the target bit; a
            # missing partner has amplitude 0.  Exact zeros leave the support.
            base, slot = np.unique(indices & ~bit, return_inverse=True)
            pair = np.zeros((len(base), 2), dtype=np.complex128)
            pair[slot, indices >> target & 1] = amps
            a0, a1 = pair.T
            indices = np.concatenate((base, base | bit))
            amps = np.concatenate(((a0 + a1) * _INV_SQRT2, (a0 - a1) * _INV_SQRT2))
            nonzero = amps != 0
            indices, amps = indices[nonzero], amps[nonzero]
        elif kind is GateKind.RESET:
            # Measure the target, then flip the 1 outcome back to 0.
            ones = (indices & bit) != 0
            p1 = float(np.vdot(amps[ones], amps[ones]).real)
            outcome = 1 if rng.random() < p1 else 0
            p_keep = p1 if outcome else 1.0 - p1
            if p_keep < 1e-12:
                raise RuntimeError(
                    "reset collapsed onto a zero-norm branch; "
                    "amplitude bookkeeping bug"
                )
            keep = ones if outcome else ~ones
            indices = indices[keep] & ~bit
            amps = amps[keep] * (1.0 / math.sqrt(p_keep))
        else:
            indices = apply_permutation(indices, op)
        if check_norm and abs(float(np.vdot(amps, amps).real) - 1.0) > NORM_TOL:
            raise RuntimeError("state norm drifted beyond tolerance")
    return indices, amps


def run(circuit: Circuit, initial: int = 0, *, seed: int) -> QuantumState:
    """Simulate one trajectory from the basis state ``initial``."""
    _check_inputs(circuit, initial)
    rng = np.random.default_rng(seed)
    indices, support_amps = _execute(circuit.ops, initial, rng, check_norm=True)
    amps = np.zeros(1 << circuit.width, dtype=np.complex128)
    amps[indices] = support_amps
    return QuantumState(amps, circuit.width, seed)


def _record_key(circuit: Circuit, basis_index: int) -> str:
    if circuit.layout is not None:
        return circuit.layout.readout_bitstring(basis_index)
    return format(basis_index, f"0{circuit.width}b")


def sample_shots(
    circuit: Circuit, shots: int, *, seed: int, initial: int = 0
) -> list[ShotRecord]:
    """Run ``shots`` independent end-to-end trajectories and tally outcomes.

    Each shot ends with a full measurement; outcomes are aggregated by the
    (color, position) readout when the circuit has a layout, else by the full
    bitstring, and returned sorted by bitstring.
    """
    _check_inputs(circuit, initial)
    if shots < 1:
        raise ValueError("shots must be at least 1")
    counter: Counter[str] = Counter()
    for shot in range(shots):
        rng = np.random.default_rng([seed, shot])
        indices, amps = _execute(circuit.ops, initial, rng, check_norm=False)
        order = np.argsort(indices)
        indices, amps = indices[order], amps[order]
        probs = amps.real**2 + amps.imag**2
        total = probs.sum()
        if abs(total - 1.0) > NORM_TOL:
            raise RuntimeError("state norm drifted beyond tolerance")
        edges = np.cumsum(probs)
        k = int(np.searchsorted(edges, rng.random() * total, side="right"))
        idx = int(indices[min(k, len(probs) - 1)])
        counter[_record_key(circuit, idx)] += 1
    return [
        ShotRecord(bits, count, count / shots)
        for bits, count in sorted(counter.items())
    ]


def probabilities(state: QuantumState, qubits: list[int]) -> dict[str, float]:
    """Marginal distribution over ``qubits`` (first index = most significant)."""
    qubits = list(qubits)
    if len(set(qubits)) != len(qubits):
        raise ValueError("qubit subset must be distinct")
    if any(not 0 <= qb < state.width for qb in qubits):
        raise ValueError("qubit subset outside state width")
    probs = state.amplitudes.real**2 + state.amplitudes.imag**2
    support = np.flatnonzero(probs)
    keys = extract_bits(support, qubits)
    marginal = np.bincount(keys, probs[support], minlength=1 << len(qubits))
    if abs(marginal.sum() - 1.0) > NORM_TOL:
        raise RuntimeError("marginal does not sum to 1")
    digits = len(qubits)
    return {format(i, f"0{digits}b"): float(p) for i, p in enumerate(marginal)}


def records_to_csv(records: list[ShotRecord]) -> str:
    """Histogram rows as ``bitstring,count,probability`` CSV text."""
    rows = [f"{r.bitstring},{r.count},{r.probability}" for r in records]
    return "\n".join(["bitstring,count,probability", *rows]) + "\n"
