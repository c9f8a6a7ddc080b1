"""Exact basis-tracked backend, and the sparse kernel both simulators share.

After an H-only fan-out in the preparation stage, every branch of the
superposition stays a classical bit vector: X/CNOT/TOFFOLI/MCX flip bits and
RESET clears the target deterministically per branch.  The whole evolution is
therefore an int64 array of basis indices, one per branch, with no sampling
and no floating point; int64 is why widths above 62 qubits are refused.  That
array is the result: :class:`BranchMap` holds it read-only, and every query
reads positions and colors off it in one vectorised pass.  All branches weigh
1/2^splits, so the weight is derived, never stored.  Each op carries its
control mask and value (:class:`~neqrseg.circuit.GateOp`), and
:func:`apply_permutation` applies a permutation gate to every index at once as
one masked XOR.

Until an X or reset hits an H'd wire, the branches hold every pattern of the
H'd wires once, so an X controlled on all of them fires on at most one branch.
A run of such Xs, none controlled on a wire an earlier one flips (NEQR's prep),
is one scatter: a sorted lookup of each op's row, then one
``np.bitwise_xor.at``.  Every other op takes the masked XOR over all branches.

The bookkeeping is sound only while distinct branches carry distinct position
tags; otherwise merging a reset incoherently could disagree with amplitude
interference.  ``assert_no_collision`` checks the tag condition, and H gates
are refused outside the preparation stage (or on a qubit that is not |0> in
every branch) because they would create exactly that kind of interference.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

import numpy as np

from .circuit import PREP_STAGE, Circuit, GateKind, GateOp, RegisterLayout

MAX_TRACKED_WIDTH = 62


class CollisionError(ValueError):
    pass


def apply_permutation(indices: np.ndarray, op: GateOp) -> np.ndarray:
    """Flip the target in every index where ``index & op.mask == op.value``."""
    fires = (indices & op.mask) == op.value
    return indices ^ (fires.astype(np.int64) << op.target)


@dataclass(eq=False)
class BranchMap:
    """Equally weighted set of classical branches of a tracked run.

    ``branches`` is an int64 array of basis indices, one per branch.
    """

    width: int
    branches: np.ndarray
    layout: RegisterLayout | None = None

    def _require_layout(self) -> RegisterLayout:
        if self.layout is None:
            raise ValueError("branch map has no register layout")
        return self.layout

    def readout_distribution(self) -> dict[str, Fraction]:
        """Exact law of the (color, position) readout, keyed like histograms."""
        layout = self._require_layout()
        readout = layout.readout_value(self.branches)
        values, first, counts = np.unique(
            readout, return_index=True, return_counts=True
        )
        total = len(self.branches)
        return {
            layout.readout_bitstring(int(values[i])): Fraction(int(counts[i]), total)
            for i in np.argsort(first)
        }


def assert_no_collision(branch_map: BranchMap) -> None:
    """Raise unless every branch carries a distinct position tag, read
    through the map's own layout."""
    layout = branch_map._require_layout()
    positions = layout.position_value(branch_map.branches)
    _, first = np.unique(positions, return_index=True)
    if len(first) == len(positions):
        return
    repeat = np.ones(len(positions), dtype=bool)
    repeat[first] = False
    later = int(np.argmax(repeat))
    p = int(positions[later])
    earlier = int(branch_map.branches[np.argmax(positions == p)])
    w = branch_map.width
    raise CollisionError(
        f"branches {earlier:0{w}b} and {int(branch_map.branches[later]):0{w}b} "
        f"share position tag {p:0{len(layout.position)}b}"
    )


def check_tracked_width(width: int) -> None:
    """Refuse a width whose basis indices do not fit an int64."""
    if width > MAX_TRACKED_WIDTH:
        raise ValueError(
            f"width {width} exceeds the {MAX_TRACKED_WIDTH}-qubit limit "
            "of int64 basis indices"
        )


def run_tracked(circuit: Circuit) -> BranchMap:
    """Track a circuit exactly from |0...0>, all branches at once.

    H is accepted only inside the ``prep`` stage, at most once per qubit, on
    a qubit that is |0> in every branch (and, when the circuit has a layout,
    only on position qubits).  Anything else would make basis tracking
    unsound; such circuits belong on the statevector backend.
    """
    check_tracked_width(circuit.width)
    prep = next((s for s in circuit.stages if s.name == PREP_STAGE), None)
    prep_start, prep_stop = (prep.start, prep.stop) if prep else (0, 0)
    branches = np.zeros(1, dtype=np.int64)
    h_seen: set[int] = set()
    # The H'd wires; -1, which no control mask covers, once an X or reset
    # hits one, since the branches may then repeat a pattern of them.
    split = 0
    ops, i = circuit.ops, 0
    while i < len(ops):
        op = ops[i]
        kind, target = op.kind, op.target
        if kind is not GateKind.H and split >> target & 1:
            split = -1
        if kind is GateKind.H:
            if not prep_start <= i < prep_stop:
                raise ValueError(
                    "H outside the prep stage makes basis tracking unsound; "
                    "use the statevector backend for this circuit"
                )
            if circuit.layout is not None and target not in circuit.layout.position:
                raise ValueError(
                    f"prep-stage H must act on a position qubit, not q{target}"
                )
            if target in h_seen:
                raise ValueError(
                    f"second H on q{target} could interfere; "
                    "use the statevector backend"
                )
            bit = 1 << target
            if np.any(branches & bit):
                raise ValueError(
                    f"H on q{target} requires the qubit to be |0> in every branch"
                )
            h_seen.add(target)
            split |= bit
            branches = np.column_stack((branches, branches | bit)).ravel()
        elif kind is GateKind.RESET:
            branches = branches & ~(1 << target)
        elif op.mask & split == split:
            i = _scatter_run(branches, ops, i, split)
            continue
        else:
            branches = apply_permutation(branches, op)
        i += 1
    branches.flags.writeable = False
    return BranchMap(circuit.width, branches, circuit.layout)


def _scatter_run(branches: np.ndarray, ops: list[GateOp], start: int, split: int) -> int:
    """Apply, in place, the longest run of Xs from ``start`` that are
    controlled on all of ``split`` and on no wire an earlier one flips;
    return where it stops.  ``bitwise_xor.at`` folds repeated targets."""
    run, written = [], 0
    for op in islice(ops, start, None):
        if op.kind is not GateKind.X or op.mask & split != split or op.mask & written:
            break
        written |= 1 << op.target
        run += (op.mask, op.value, op.target)
    masks, values, targets = np.array(run, dtype=np.int64).reshape(-1, 3).T
    keys = branches & split
    order = np.argsort(keys)
    rows = order[np.searchsorted(keys[order], values & split)]
    fires = (branches[rows] & masks) == values
    np.bitwise_xor.at(branches, rows[fires], np.int64(1) << targets[fires])
    return start + len(masks)
