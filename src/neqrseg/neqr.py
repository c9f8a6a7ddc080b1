"""NEQR preparation circuits and branch-map decoding.

An image is encoded as an equal superposition over position labels with the
gray value written into the color register of each branch: H on every
position qubit, then one multi-controlled X per set bit of each pixel, the
controls carrying the position pattern through their polarities.  The
circuit holds the pixel array in place of those ops, and every simulator,
the cost ledger and the exporter read the array.
"""
from __future__ import annotations

import numpy as np

from .circuit import Circuit, RegisterLayout
from .image import ImageGray
from .tracked import BranchMap, assert_no_collision


def build_preparation(image: ImageGray) -> Circuit:
    """Circuit holding ``image`` as its prep stage, on ``RegisterLayout(image.n, image.q)``.

    The stage is the pixel array; ``Circuit.ops`` lists the ops it stands
    for.  Position wire ``j`` is bit ``j`` of the label and color
    wire ``2n + j`` bit ``j`` of the gray value.
    """
    layout = RegisterLayout(image.n, image.q)
    return Circuit(layout.width, layout, pixels=image.pixels)


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
