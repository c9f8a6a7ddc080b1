"""Square grayscale images with power-of-two sides, plus plain PGM (P2) io."""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ImageGray:
    """A 2^n x 2^n image of q-bit gray values, row major (label = row||col)."""

    n: int
    q: int
    pixels: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "pixels", tuple(self.pixels))
        if self.n < 0:
            raise ValueError("n must be non-negative")
        if self.q < 1:
            raise ValueError("q must be at least 1")
        if len(self.pixels) != 4**self.n:
            raise ValueError(
                f"a 2^{self.n} x 2^{self.n} image needs {4 ** self.n} pixels, "
                f"got {len(self.pixels)}"
            )
        top = 1 << self.q
        for v in self.pixels:
            if not 0 <= v < top:
                raise ValueError(f"pixel value {v} does not fit in {self.q} bits")

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


def _plain_int(token: str) -> int:
    """``int(token)``; ValueError unless ASCII ``[0-9]+`` (no sign, ``_`` or Unicode digit)."""
    return int(token if token.isascii() and token.isdigit() else "")


def read_image_pgm(data: bytes | str) -> ImageGray:
    """Parse a plain (P2) PGM; maxval must be exactly 2^q - 1."""
    text = data.decode("ascii", errors="replace") if isinstance(data, bytes) else data
    tokens: list[str] = []
    for line in text.splitlines():
        tokens.extend(line.split("#", 1)[0].split())
    if not tokens or tokens[0] != "P2":
        raise ValueError("not a plain PGM (P2) file")
    try:
        fields = [_plain_int(t) for t in tokens[1:4]]
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
        pixels = tuple(_plain_int(v) for v in values)
    except ValueError:
        raise ValueError("malformed pixel value") from None
    for v in pixels:
        if not 0 <= v <= maxval:
            raise ValueError(f"pixel value {v} outside 0..{maxval}")
    return ImageGray((width - 1).bit_length(), q, pixels)


def write_image_pgm(image: ImageGray) -> bytes:
    lines = ["P2", f"{image.side} {image.side}", f"{image.max_value}"]
    lines.extend(" ".join(str(v) for v in row) for row in image.rows())
    return ("\n".join(lines) + "\n").encode("ascii")
