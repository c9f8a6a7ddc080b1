"""Square grayscale images with power-of-two sides, plus plain PGM (P2) io."""
from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable


def plain_ints(values: Iterable, what: str) -> tuple[int, ...]:
    """``values`` as plain ints; a bool or a value ``operator.index``
    refuses raises ValueError naming it, so no pixel, threshold or level is
    silently truncated or printed as ``True``."""
    values = tuple(values)
    if set(map(type, values)) <= {int}:
        return values
    for v in values:
        if isinstance(v, bool) or not hasattr(type(v), "__index__"):
            raise ValueError(f"{what} {v!r} is not an integer")
    return tuple(map(operator.index, values))


@dataclass(frozen=True)
class ImageGray:
    """A 2^n x 2^n image of q-bit gray values, row major (label = row||col)."""

    n: int
    q: int
    pixels: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", *plain_ints((self.n,), "n"))
        object.__setattr__(self, "q", *plain_ints((self.q,), "q"))
        object.__setattr__(self, "pixels", plain_ints(self.pixels, "pixel value"))
        if self.n < 0:
            raise ValueError("n must be non-negative")
        if self.q < 1:
            raise ValueError("q must be at least 1")
        if len(self.pixels) != 4**self.n:
            raise ValueError(
                f"a 2^{self.n} x 2^{self.n} image needs {4 ** self.n} pixels, "
                f"got {len(self.pixels)}"
            )
        top = self.max_value
        if not 0 <= min(self.pixels) <= max(self.pixels) <= top:
            v = next(v for v in self.pixels if not 0 <= v <= top)
            raise ValueError(f"pixel value {v} outside 0..{top}: does not fit in {self.q} bits")

    @property
    def side(self) -> int:
        return 1 << self.n

    @property
    def max_value(self) -> int:
        return (1 << self.q) - 1

    def get(self, y: int, x: int) -> int:
        if not (0 <= y < self.side and 0 <= x < self.side):
            raise IndexError("pixel coordinates out of range")
        return self.pixels[y * self.side + x]

    def rows(self) -> list[tuple[int, ...]]:
        s = self.side
        return [self.pixels[r * s : (r + 1) * s] for r in range(s)]


def _ascii_ints(tokens: list[str]) -> tuple[int, ...]:
    """``tokens`` as ints; ValueError unless their join is empty or ASCII ``[0-9]+`` (no sign,
    ``_`` or Unicode digit: one check for all tokens) and each is within int()'s 4300 digits."""
    digits = "".join(tokens) or "0"
    return tuple(map(int, tokens if digits.isascii() and digits.isdigit() else [""]))


def read_image_pgm(data: bytes | str) -> ImageGray:
    """Parse a plain (P2) PGM; maxval must be exactly 2^q - 1."""
    text = data.decode("ascii", errors="replace") if isinstance(data, bytes) else data
    tokens: list[str] = []
    for line in text.splitlines():
        tokens.extend(line.split("#", 1)[0].split())
    if not tokens or tokens[0] != "P2":
        raise ValueError("not a plain PGM (P2) file")
    try:
        fields = _ascii_ints(tokens[1:4])
    except ValueError:
        raise ValueError("malformed PGM header") from None
    if len(fields) < 3:
        raise ValueError("truncated PGM header")
    width, height, maxval = fields
    if width != height:
        raise ValueError(f"image must be square, got {width}x{height}")
    if width < 1 or width & (width - 1):
        raise ValueError(f"image side must be a power of two, got {width}")
    if maxval < 1 or maxval & (maxval + 1):
        raise ValueError(f"maxval {maxval} is not of the form 2^q - 1")
    q = maxval.bit_length()
    values = tokens[4:]
    if len(values) < width * height:
        raise ValueError(
            f"expected {width * height} pixel values, got {len(values)}"
        )
    if len(values) > width * height:
        raise ValueError("trailing data after pixel values")
    try:
        pixels = _ascii_ints(values)
    except ValueError:
        raise ValueError("malformed pixel value") from None
    return ImageGray((width - 1).bit_length(), q, pixels)


def write_image_pgm(image: ImageGray) -> bytes:
    # One %-format over the whole pixel tuple formats every value in C, with
    # no Python call per value (str() per value, by map or generator, is
    # about twice as slow).
    s = image.side
    body = "\n".join([" ".join(["%d"] * s)] * s) % image.pixels
    return f"P2\n{s} {s}\n{image.max_value}\n{body}\n".encode("ascii")
