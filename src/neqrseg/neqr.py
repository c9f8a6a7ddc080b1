"""NEQR preparation circuits and branch-map decoding.

An image is encoded as an equal superposition over position labels with the
gray value written into the color register of each branch: H on every
position qubit, then one multi-controlled X per set bit of each pixel, the
controls carrying the position pattern through their polarities.
"""
from __future__ import annotations

import numpy as np

from .circuit import Circuit, Control, RegisterLayout
from .image import ImageGray
from .tracked import BranchMap, assert_no_collision


def _check_layout(image: ImageGray, layout: RegisterLayout) -> None:
    if layout.n != image.n or layout.q != image.q:
        raise ValueError(
            f"layout is for n={layout.n}, q={layout.q} but image has "
            f"n={image.n}, q={image.q}"
        )


def build_preparation(image: ImageGray, layout: RegisterLayout | None = None) -> Circuit:
    """Circuit writing ``image`` into the color/position registers (stage prep)."""
    if layout is None:
        layout = RegisterLayout.standard(image.n, image.q)
    _check_layout(image, layout)
    q, p = image.q, 2 * image.n
    circuit = Circuit(layout.width, layout)
    with circuit.stage("prep"):
        for qb in layout.position:
            circuit.h(qb)
        for label, value in enumerate(image.pixels):
            if value == 0:
                continue
            controls = tuple(
                Control(qb, bool(label >> (p - 1 - i) & 1))
                for i, qb in enumerate(layout.position)
            )
            for k, cq in enumerate(layout.color):
                if value >> (q - 1 - k) & 1:
                    circuit.controlled_x(controls, cq)
    return circuit


def decode(branch_map: BranchMap, layout: RegisterLayout | None = None) -> ImageGray:
    """Rebuild the image from a tracked run; every position must be present."""
    layout = layout or branch_map.layout
    if layout is None:
        raise ValueError("decoding needs a register layout")
    assert_no_collision(branch_map, layout)
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
