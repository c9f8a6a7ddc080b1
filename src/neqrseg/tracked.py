"""Exact basis-tracked backend, and the sparse kernel both simulators share.

Every branch stays a classical bit vector: H doubles the branches on a wire
they all hold at 0, X/CNOT/TOFFOLI/MCX flip bits and RESET clears the target
deterministically per branch.  The whole evolution is therefore an int64
array of basis indices, one per branch, with no sampling and no floating
point; int64 is why widths above 62 qubits are refused.  That array is the
result: :class:`BranchMap` holds it read-only, and every query reads
positions and colors off it in one vectorised pass.  All branches weigh
1/2^splits, so the weight is derived, never stored.  Each op carries its
control mask and value (:class:`~neqrseg.circuit.GateOp`), and
:func:`apply_permutation` applies a permutation gate to every index at once as
one masked XOR.

A circuit holding an image starts from its prep's outcome, one branch per
label with the pixel in the color register (:func:`start_branches`), and
never builds the prep's ops.

The equally weighted branches are the exact diagonal of the density matrix,
the law of the final readout.  Permutations and resets map that diagonal to
itself without reading its off-diagonal terms.  H is accepted only on a wire
that is |0> in every branch, where it acts on a |0><0| factor and the fan-out
is exact; any other H needs the statevector backend.  Distinct position tags
are not needed for exactness, only by ``decode``, which raises
``CollisionError`` or "missing" without them.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .circuit import Circuit, GateKind, GateOp, RegisterLayout

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


def start_branches(circuit: Circuit) -> np.ndarray:
    """|0...0>, or after a held image's prep, branch ``i`` with label ``i``
    and pixel ``i`` in the color register: the H fan-out's order."""
    if circuit.pixels is None:
        return np.zeros(1, dtype=np.int64)
    return np.arange(len(circuit.pixels), dtype=np.int64) | circuit.pixels << 2 * circuit.layout.n


def run_tracked(circuit: Circuit) -> BranchMap:
    """Track a circuit exactly from |0...0>, all branches at once.

    A held image's prep is not run: the branches start at its outcome.  H
    is accepted on any wire that is |0> in every branch, wherever it sits;
    anything else could interfere and belongs on the statevector backend.
    """
    check_tracked_width(circuit.width)
    branches = start_branches(circuit)
    for op in circuit.gates:
        kind, target = op.kind, op.target
        if kind is GateKind.H:
            bit = 1 << target
            if np.any(branches & bit):
                raise ValueError(
                    f"H on q{target} requires the qubit to be |0> in every branch; "
                    "use the statevector backend for this circuit"
                )
            branches = np.column_stack((branches, branches | bit)).ravel()
        elif kind is GateKind.RESET:
            branches = branches & ~(1 << target)
        else:
            branches = apply_permutation(branches, op)
    branches.flags.writeable = False
    return BranchMap(circuit.width, branches, circuit.layout)
