"""Sparse statevector simulator with measurement-based mid-circuit reset.

Everything here except H permutes computational basis states, so the one
genuinely quantum move is the reset: a projective measurement of the target
qubit followed by a flip back to |0> on outcome 1, which collapses whatever
the target was entangled with.  The state is stored as its support only:
distinct int64 basis indices (qubit j is bit j) and complex amplitudes.  A
permutation gate is the tracked backend's masked XOR
(:func:`neqrseg.tracked.apply_permutation`), H splits each entry and merges
partners, and a reset measures over the support.  A circuit holding an image
starts at its preparation's support.

One walk of the reset tree serves both entry points, as Qiskit Aer's shot
branching does, up to 62 qubits.  A node's k shots split at its reset as
k1 ~ Binomial(k, p1), and each child holding shots carries on collapsed and
renormalised.  Each node draws from its own PCG64 stream derived from
(seed, path of outcomes), so a seed fixes the result byte for byte.
:func:`sample_shots` gives each leaf one multinomial draw over its support
in basis-index order; :func:`run` walks with one shot and returns the one
leaf's support.  The law is that of independent trajectories.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, GateKind, GateOp
from .tracked import apply_permutation, check_tracked_width, start_branches

NORM_TOL = 1e-10

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


@dataclass
class QuantumState:
    """One trajectory's final support over ``width`` qubits, by basis index."""

    indices: np.ndarray
    amplitudes: np.ndarray
    width: int


@dataclass(frozen=True)
class ShotRecord:
    bitstring: str
    count: int
    probability: float


def _reset_spans(ops: list[GateOp]) -> list[tuple[list[GateOp], GateOp | None]]:
    """(reset-free ops, the reset after them) pairs; the last has no reset."""
    spans, start = [], 0
    for i, op in enumerate(ops):
        if op.kind is GateKind.RESET:
            spans.append((ops[start:i], op))
            start = i + 1
    return spans + [(ops[start:], None)]


def _evolve(
    ops: list[GateOp], indices: np.ndarray, amps: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Apply reset-free ops to the support: distinct basis indices, amplitudes."""
    for op in ops:
        target = op.target
        if op.kind is GateKind.H:
            # Pair each index with its partner across the target bit; a
            # missing partner has amplitude 0.  Exact zeros leave the support.
            bit = 1 << target
            base, slot = np.unique(indices & ~bit, return_inverse=True)
            pair = np.zeros((len(base), 2), dtype=np.complex128)
            pair[slot, indices >> target & 1] = amps
            a0, a1 = pair.T
            indices = np.concatenate((base, base | bit))
            amps = np.concatenate(((a0 + a1) * _INV_SQRT2, (a0 - a1) * _INV_SQRT2))
            nonzero = amps != 0
            indices, amps = indices[nonzero], amps[nonzero]
        else:
            indices = apply_permutation(indices, op)
    return indices, amps


def _measure(indices: np.ndarray, amps: np.ndarray, probs: np.ndarray, target: int):
    """Probability of outcome 1 at a reset of ``target``, and the collapse
    onto either outcome, renormalised and with the target back at 0."""
    ones = (indices & (1 << target)) != 0
    p1 = float(probs[ones].sum())

    def collapse(outcome: int) -> tuple[np.ndarray, np.ndarray]:
        p_keep = p1 if outcome else 1.0 - p1
        if p_keep < 1e-12:
            raise RuntimeError(
                "reset collapsed onto a zero-norm branch; amplitude bookkeeping bug"
            )
        keep = ones if outcome else ~ones
        return indices[keep] & ~(1 << target), amps[keep] * (1.0 / math.sqrt(p_keep))

    return p1, collapse


def _node_rng(seed: int, path: tuple[int, ...]) -> np.random.Generator:
    # spawn_key numbers the node as SeedSequence.spawn would; [seed, *path]
    # is zero-padded, so the root and its all-zero descendants would collide.
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=path))


def _leaves(circuit: Circuit, shots: int, seed: int):
    """Walk the reset tree from |0...0> with ``shots`` shots, yielding
    ``(path, held, indices, amps, probs)`` at each leaf that holds shots:
    its outcomes, its shots, and its support sorted by basis index."""
    check_tracked_width(circuit.width)
    if shots < 1:
        raise ValueError("shots must be at least 1")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    spans = _reset_spans(circuit.gates)
    # The root starts after any held prep, each amplitude the float that
    # prep's 2n Hs leave: 2n = log2 of the support.
    indices, amp = np.sort(start_branches(circuit)), 1.0
    for _ in range(len(indices).bit_length() - 1):
        amp *= _INV_SQRT2
    # (reset outcomes so far, shots held, support indices, amplitudes)
    stack = [((), shots, indices, np.full(len(indices), amp, dtype=np.complex128))]
    while stack:
        path, held, indices, amps = stack.pop()
        ops, reset = spans[len(path)]
        indices, amps = _evolve(ops, indices, amps)
        # Sum in basis-index order, so the draws depend on the state alone.
        order = np.argsort(indices)
        indices, amps = indices[order], amps[order]
        probs = amps.real**2 + amps.imag**2
        if abs(probs.sum() - 1.0) > NORM_TOL:
            raise RuntimeError("state norm drifted beyond tolerance")
        if reset is None:
            yield path, held, indices, amps, probs
            continue
        p1, collapse = _measure(indices, amps, probs, reset.target)
        # A certain outcome takes no draw (and binomial refuses 1 + 1e-16).
        ones = held if p1 >= 1.0 else 0
        if 0.0 < p1 < 1.0:
            ones = int(_node_rng(seed, path).binomial(held, p1))
        for outcome, count in ((0, held - ones), (1, ones)):
            if count:
                stack.append((path + (outcome,), count, *collapse(outcome)))


def run(circuit: Circuit, *, seed: int) -> QuantumState:
    """Follow one trajectory from |0...0>: the single leaf of a one-shot walk."""
    ((_, _, indices, amps, _),) = _leaves(circuit, 1, seed)
    return QuantumState(indices, amps, circuit.width)


def _record_key(circuit: Circuit, basis_index: int) -> str:
    if circuit.layout is not None:
        return circuit.layout.readout_bitstring(basis_index)
    return format(basis_index, f"0{circuit.width}b")


def sample_shots(circuit: Circuit, shots: int, *, seed: int) -> list[ShotRecord]:
    """Sample ``shots`` runs from |0...0> in one walk of the reset tree.

    Outcomes are aggregated by the (color, position) readout when the
    circuit has a layout, else by the full bitstring, and returned sorted by
    bitstring.
    """
    counter: Counter[str] = Counter()
    for path, held, indices, _, probs in _leaves(circuit, shots, seed):
        counts = _node_rng(seed, path).multinomial(held, probs / probs.sum())
        for idx, count in zip(indices[counts > 0].tolist(), counts[counts > 0].tolist()):
            counter[_record_key(circuit, idx)] += count
    return [
        ShotRecord(bits, count, count / shots)
        for bits, count in sorted(counter.items())
    ]


def records_to_csv(records: list[ShotRecord]) -> str:
    """Histogram rows as ``bitstring,count,probability`` CSV text."""
    rows = [f"{r.bitstring},{r.count},{r.probability}" for r in records]
    return "\n".join(["bitstring,count,probability", *rows]) + "\n"
