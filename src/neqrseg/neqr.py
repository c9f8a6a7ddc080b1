"""NEQR preparation circuits and branch-map decoding.

An image is encoded as an equal superposition over position labels with the
gray value written into the color register of each branch: H on every
position qubit, then one multi-controlled X per set bit of each pixel, the
controls carrying the position pattern through their polarities.
"""
from __future__ import annotations

import numpy as np

from .circuit import PREP_STAGE, Circuit, Control, RegisterLayout
from .image import ImageGray
from .tracked import BranchMap, assert_no_collision


def build_preparation(image: ImageGray) -> Circuit:
    """Circuit writing ``image`` into the color/position registers (stage prep).

    The layout is ``RegisterLayout(image.n, image.q)``.  Position wire ``j``
    is bit ``j`` of the label and color wire ``2n + j`` bit ``j`` of the
    gray value, so each pixel's controls read the label's bits directly.
    """
    layout = RegisterLayout(image.n, image.q)
    p = 2 * image.n
    circuit = Circuit(layout.width, layout)
    with circuit.stage(PREP_STAGE):
        for qb in layout.position:
            circuit.h(qb)
        for label, value in enumerate(image.pixels):
            if value == 0:
                continue
            controls = tuple(
                Control(qb, bool(label >> qb & 1)) for qb in layout.position
            )
            for cq in layout.color:
                if value >> (cq - p) & 1:
                    circuit.controlled_x(controls, cq)
    return circuit


def decode(branch_map: BranchMap) -> ImageGray:
    """Rebuild the image through the map's own layout; every position must be present."""
    assert_no_collision(branch_map)
    layout = branch_map.layout
    pixels = np.full(4**layout.n, -1, dtype=np.int64)
    pixels[layout.position_value(branch_map.branches)] = layout.color_value(
        branch_map.branches
    )
    missing = np.flatnonzero(pixels < 0)
    if missing.size:
        raise ValueError(
            f"position {int(missing[0]):0{2 * layout.n}b} missing from the branch map"
        )
    return ImageGray(layout.n, layout.q, tuple(pixels.tolist()))
