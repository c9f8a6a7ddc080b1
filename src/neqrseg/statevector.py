"""Sparse statevector simulator with measurement-based mid-circuit reset.

Everything here except H permutes computational basis states, so the one
genuinely quantum move is the reset: a projective measurement of the target
qubit followed by a flip back to |0> on outcome 1, which collapses whatever
the target was entangled with.  The state is stored as its support only:
distinct int64 basis indices (qubit j is bit j) and complex amplitudes.  A
permutation gate is one masked XOR over the indices
(:func:`apply_permutation`); the spans between resets are a few ops long,
too short to repay the tracked backend's bit planes.  H splits each entry
and merges partners, and a reset measures over the support.  A circuit
holding an image starts at its preparation's support.

One walk of the reset tree serves both entry points, as Qiskit Aer's shot
branching does, up to 62 qubits.  It goes level by level: every live
trajectory's support sits in one set of arrays, each entry tagged with its
node, and each op runs once over all of them.  At each reset every live
node's norm is checked, and its k shots split as k1 ~ Binomial(k, p1); a
reset whose whole support agrees on the bit takes no draw.  Each child
holding shots carries on collapsed and renormalised.  Each node draws from
its own PCG64 stream derived from (seed, path of outcomes), so a seed fixes
the result byte for byte.
:func:`sample_shots` gives each leaf one multinomial draw over its support
in basis-index order; :func:`run` walks with one shot and returns the one
leaf's support.  The law is that of independent trajectories.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, GateKind, GateOp
from .tracked import check_tracked_width, start_branches

NORM_TOL = 1e-10
MAX_SHOTS = (1 << 63) - 1  # numpy's binomial and multinomial take int64 counts

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


def apply_permutation(indices: np.ndarray, op: GateOp) -> np.ndarray:
    """Flip the target in every index where ``index & op.mask == op.value``."""
    fires = (indices & op.mask) == op.value
    return indices ^ (fires.astype(np.int64) << op.target)


def _reset_spans(ops: list[GateOp]) -> list[tuple[list[GateOp], GateOp | None]]:
    """(reset-free ops, the reset after them) pairs; the last has no reset."""
    spans, start = [], 0
    for i, op in enumerate(ops):
        if op.kind is GateKind.RESET:
            spans.append((ops[start:i], op))
            start = i + 1
    return spans + [(ops[start:], None)]


def _hadamard(target: int, indices: np.ndarray, amps: np.ndarray, node: np.ndarray):
    """H over every live trajectory at once.  Entries pair by (node, index
    with the target bit cleared), so no pair crosses two trajectories; a
    missing partner has amplitude 0, and exact zeros leave the support."""
    bit = 1 << target
    bases, rank = np.unique(indices & ~bit, return_inverse=True)
    keys, slot = np.unique(node * len(bases) + rank, return_inverse=True)
    pair = np.zeros((len(keys), 2), dtype=np.complex128)
    pair[slot, indices >> target & 1] = amps
    a0, a1 = pair.T
    node, rank = np.divmod(keys, len(bases))
    indices = np.concatenate((bases[rank], bases[rank] | bit))
    amps = np.concatenate(((a0 + a1) * _INV_SQRT2, (a0 - a1) * _INV_SQRT2))
    nonzero = amps != 0
    return indices[nonzero], amps[nonzero], np.concatenate((node, node))[nonzero]


def _node_rng(seed: int, path: tuple[int, ...]) -> np.random.Generator:
    # spawn_key numbers the node as SeedSequence.spawn would; [seed, *path]
    # is zero-padded, so the root and its all-zero descendants would collide.
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=path))


def _leaves(circuit: Circuit, shots: int, seed: int):
    """Walk the reset tree from |0...0> with ``shots`` shots, level by level,
    yielding ``(path, held, indices, amps, probs)`` at each leaf that holds
    shots: its outcomes, its shots, and its support sorted by basis index."""
    check_tracked_width(circuit.width)
    if shots < 1:
        raise ValueError("shots must be at least 1")
    if shots > MAX_SHOTS:
        raise ValueError("shots must be at most 2^63 - 1")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    # The root starts after any held prep, each amplitude the float that
    # prep's 2n Hs leave: 2n = log2 of the support.
    indices, amp = np.sort(start_branches(circuit)), 1.0
    for _ in range(len(indices).bit_length() - 1):
        amp *= _INV_SQRT2
    amps = np.full(len(indices), amp, dtype=np.complex128)
    # Entry i of the live support belongs to trajectory node[i], whose reset
    # outcomes so far are paths[node[i]] and whose shots are held[node[i]].
    node, paths, held = np.zeros(len(indices), dtype=np.intp), [()], [shots]
    for ops, reset in _reset_spans(circuit.gates):
        for op in ops:
            if op.kind is GateKind.H:
                indices, amps, node = _hadamard(op.target, indices, amps, node)
            else:
                indices = apply_permutation(indices, op)
        # Each node's slice in basis-index order, so its sums and draws
        # depend on its state alone.
        order = np.lexsort((indices, node))
        indices, amps, node = indices[order], amps[order], node[order]
        probs = amps.real**2 + amps.imag**2
        if np.any(np.abs(np.bincount(node, probs, len(paths)) - 1.0) > NORM_TOL):
            raise RuntimeError("state norm drifted beyond tolerance")
        bounds = np.searchsorted(node, np.arange(len(paths) + 1)).tolist()
        if reset is None:
            for k, path in enumerate(paths):
                s = slice(bounds[k], bounds[k + 1])
                yield path, held[k], indices[s], amps[s], probs[s]
            return
        bit = 1 << reset.target
        ones = (indices & bit) != 0
        n_ones = np.bincount(node[ones], minlength=len(paths)).tolist()
        child = np.full(2 * len(paths), -1, dtype=np.intp)
        paths_next, held_next, scale = [], [], []
        for k, path in enumerate(paths):
            lo, hi = bounds[k], bounds[k + 1]
            # Sum in basis-index order over the node's own slice.  An outcome
            # its whole support agrees on takes no draw: p1 may round to just
            # off 1, and binomial refuses 1 + 1e-16.
            p1 = float(probs[lo:hi][ones[lo:hi]].sum()) if n_ones[k] else 0.0
            k1 = held[k] if n_ones[k] == hi - lo or p1 >= 1.0 else 0
            if n_ones[k] < hi - lo and 0.0 < p1 < 1.0:
                k1 = int(_node_rng(seed, path).binomial(held[k], p1))
            for outcome, count in ((0, held[k] - k1), (1, k1)):
                if count:
                    p_keep = p1 if outcome else 1.0 - p1
                    if p_keep < 1e-12:
                        raise RuntimeError(
                            "reset collapsed onto a zero-norm branch; "
                            "amplitude bookkeeping bug"
                        )
                    child[2 * k + outcome] = len(paths_next)
                    paths_next.append(path + (outcome,))
                    held_next.append(count)
                    scale.append(1.0 / math.sqrt(p_keep))
        # Each entry moves to its (node, outcome) child, collapsed and
        # renormalised with the target back at 0, in one gather.
        dest = child[2 * node + ones]
        keep = dest >= 0
        node, paths, held = dest[keep], paths_next, held_next
        indices = indices[keep] & ~bit
        amps = amps[keep] * np.array(scale)[node]


def run(circuit: Circuit, *, seed: int) -> QuantumState:
    """Follow one trajectory from |0...0>: the single leaf of a one-shot walk."""
    ((_, _, indices, amps, _),) = _leaves(circuit, 1, seed)
    return QuantumState(indices, amps, circuit.width)


def sample_shots(circuit: Circuit, shots: int, *, seed: int) -> list[ShotRecord]:
    """Sample ``shots`` runs from |0...0> in one walk of the reset tree.

    Outcomes are aggregated by the (color, position) readout when the
    circuit has a layout, else by the full bitstring, and returned sorted by
    bitstring.
    """
    drawn, drawn_counts = [], []
    for path, held, indices, _, probs in _leaves(circuit, shots, seed):
        counts = _node_rng(seed, path).multinomial(held, probs / probs.sum())
        drawn.append(indices[counts > 0])
        drawn_counts.append(counts[counts > 0])
    keys, counts, bits = np.concatenate(drawn), np.concatenate(drawn_counts), circuit.width
    if circuit.layout is not None:
        keys, bits = circuit.layout.readout_value(keys), circuit.layout.q + 2 * circuit.layout.n
    # Summed per distinct key in int64, exactly; fixed-width bitstrings sort
    # as their keys do, so one string is made per key, in order.
    order = np.argsort(keys)
    keys, counts = keys[order], counts[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    totals = np.add.reduceat(counts, starts)
    return [
        ShotRecord(format(key, f"0{bits}b"), count, count / shots)
        for key, count in zip(keys[starts].tolist(), totals.tolist())
    ]


def records_to_csv(records: list[ShotRecord]) -> str:
    """Histogram rows as ``bitstring,count,probability`` CSV text."""
    rows = [f"{r.bitstring},{r.count},{r.probability}" for r in records]
    return "\n".join(["bitstring,count,probability", *rows]) + "\n"
