"""8-bit grayscale images and binary PGM ("P5") file I/O.

Color inputs are out of scope; convert upstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class GrayImage:
    """Row-major 8-bit grayscale raster."""

    width: int
    height: int
    intensities: np.ndarray

    def __post_init__(self) -> None:
        data = np.asarray(self.intensities, dtype=np.uint8).reshape(-1)
        if data.size != self.width * self.height:
            raise ValueError(
                f"expected {self.width * self.height} samples, got {data.size}"
            )
        object.__setattr__(self, "intensities", data)

    @classmethod
    def from_array(cls, array: np.ndarray) -> "GrayImage":
        arr = np.asarray(array)
        if arr.ndim != 2:
            raise ValueError(f"expected a 2D array, got shape {arr.shape}")
        clipped = np.clip(np.rint(arr), 0, 255).astype(np.uint8)
        return cls(arr.shape[1], arr.shape[0], clipped)

    def to_float(self) -> np.ndarray:
        return self.intensities.reshape(self.height, self.width).astype(float)


def _read_header_token(data: bytes, pos: int) -> tuple[bytes, int]:
    # Skip whitespace and '#' comment lines between header tokens.
    while pos < len(data):
        c = data[pos : pos + 1]
        if c.isspace():
            pos += 1
        elif c == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
        else:
            break
    start = pos
    while pos < len(data) and not data[pos : pos + 1].isspace():
        pos += 1
    if start == pos:
        raise ValueError("truncated PGM header")
    return data[start:pos], pos


def read_pgm(path: str | Path) -> GrayImage:
    """Read a binary (P5) portable graymap with maxval up to 255."""
    data = Path(path).read_bytes()
    magic, pos = _read_header_token(data, 0)
    if magic != b"P5":
        raise ValueError(f"not a binary PGM file (magic {magic!r})")
    fields = []
    for _ in range(3):
        token, pos = _read_header_token(data, pos)
        fields.append(int(token))
    width, height, maxval = fields
    if not (0 < maxval <= 255):
        raise ValueError(f"unsupported maxval {maxval} (8-bit only)")
    pos += 1  # single whitespace byte after maxval
    pixels = np.frombuffer(data, dtype=np.uint8, count=width * height, offset=pos)
    if pixels.size != width * height:
        raise ValueError("truncated PGM pixel data")
    return GrayImage(width, height, pixels.copy())


def write_pgm(path: str | Path, image: GrayImage | np.ndarray) -> None:
    """Write a binary (P5) portable graymap."""
    if not isinstance(image, GrayImage):
        image = GrayImage.from_array(np.asarray(image))
    header = f"P5\n{image.width} {image.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + image.intensities.tobytes())
