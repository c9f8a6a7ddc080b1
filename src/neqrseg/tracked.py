"""Exact basis-tracked backend.

Every branch stays a classical bit vector: H doubles the branches on a wire
they all hold at 0, X/CNOT/TOFFOLI/MCX flip bits and RESET clears the target
deterministically per branch.  The whole evolution is therefore an int64
array of basis indices, one per branch, with no sampling and no floating
point; int64 is why widths above 62 qubits are refused.  That array is the
result: :class:`BranchMap` holds it read-only, and every query reads
positions and colors off it in one vectorised pass.  All branches weigh
1/2^splits, so the weight is derived, never stored.

Between Hs the walk holds each wire as a bit plane, one Python int whose
bit ``i`` is the wire in branch ``i``: an X with k controls
(:class:`~neqrseg.circuit.GateOp`) is k ANDs and one XOR of planes, and a
reset zeroes its plane.  An H turns the planes back into the index array,
fans it out, and the next op turns it into planes again.

A circuit holding an image starts from its prep's outcome, one branch per
label with the pixel in the color register (:func:`start_branches`), and
never builds the prep's ops; :func:`run_tracked` says when it walks the
image's colors instead of its branches.

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


def _planes(branches: np.ndarray, width: int) -> list[int]:
    """Each wire's bit plane: bit ``i`` of plane ``w`` is bit ``w`` of branch
    ``i``.  Made one octet column of the little-endian indices at a time."""
    octets = np.ascontiguousarray(branches, dtype="<i8").view(np.uint8).reshape(-1, 8)
    planes = []
    for k in range((width + 7) // 8):
        bits = np.unpackbits(octets[:, k], bitorder="little").reshape(-1, 8)
        rows = np.packbits(bits.T, axis=1, bitorder="little")
        planes += [int.from_bytes(row.tobytes(), "little") for row in rows]
    return planes[:width]


def _branches(planes: list[int], count: int) -> np.ndarray:
    """The int64 indices of ``count`` branches, back from their bit planes."""
    octets, size = np.zeros((count, 8), dtype=np.uint8), (count + 7) // 8
    for k in range(0, len(planes), 8):
        rows = b"".join(p.to_bytes(size, "little") for p in planes[k : k + 8])
        bits = np.unpackbits(
            np.frombuffer(rows, dtype=np.uint8).reshape(-1, size),
            axis=1, count=count, bitorder="little",
        )
        octets[:, k // 8] = np.packbits(bits, axis=0, bitorder="little")[0]
    return octets.view("<i8").ravel().astype(np.int64, copy=False)


def _walk(branches: np.ndarray, ops: list[GateOp], width: int) -> np.ndarray:
    """Run ``ops`` over every branch.  X and reset act on the bit planes, an
    X with k controls as k int ANDs; an H fans out the index array."""
    planes = None
    for op in ops:
        target = op.target
        if op.kind is GateKind.H:
            if planes is not None:
                branches, planes = _branches(planes, len(branches)), None
            bit = 1 << target
            if np.any(branches & bit):
                raise ValueError(
                    f"H on q{target} requires the qubit to be |0> in every branch; "
                    "use the statevector backend for this circuit"
                )
            branches = np.column_stack((branches, branches | bit)).ravel()
            continue
        if planes is None:
            planes, full = _planes(branches, width), (1 << len(branches)) - 1
        if op.kind is GateKind.RESET:
            planes[target] = 0
            continue
        fire = full
        for qubit, positive in op.controls:
            fire &= planes[qubit] if positive else ~planes[qubit]
        planes[target] ^= fire
    return branches if planes is None else _branches(planes, len(branches))


def run_tracked(circuit: Circuit) -> BranchMap:
    """Track a circuit exactly from |0...0>, all branches at once.

    A held image's prep is not run: the branches start at its outcome.  If
    no stored op is an H or touches a position wire, each branch is its
    label plus a function of its pixel, so with fewer colors than labels the
    ops walk the 2^q colors once and each branch looks its pixel up in that
    table.  H is accepted on any wire that is |0> in every branch, wherever
    it sits; anything else could interfere and belongs on the statevector
    backend.
    """
    check_tracked_width(circuit.width)
    layout, pixels, ops = circuit.layout, circuit.pixels, circuit.gates
    # With an image held, len(pixels) - 1 is the mask of the position wires.
    if pixels is not None and 1 << layout.q < len(pixels) and not any(
        op.kind is GateKind.H or (op.mask | 1 << op.target) & (len(pixels) - 1) for op in ops
    ):
        table = _walk(np.arange(1 << layout.q, dtype=np.int64) << 2 * layout.n, ops, circuit.width)
        branches = np.arange(len(pixels), dtype=np.int64) | table[pixels]
    else:
        branches = _walk(start_branches(circuit), ops, circuit.width)
    branches.flags.writeable = False
    return BranchMap(circuit.width, branches, circuit.layout)
