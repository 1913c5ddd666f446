"""Binary PGM ("P5") file I/O for 8-bit grayscale frames, held as
(height, width) uint8 arrays.

Color inputs are out of scope; convert upstream.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


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


def read_pgm(path: str | Path) -> np.ndarray:
    """Read a binary (P5) portable graymap with maxval up to 255 into a
    (height, width) uint8 array."""
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
    return pixels.reshape(height, width).copy()


def write_pgm(path: str | Path, image: np.ndarray) -> None:
    """Write a 2-D array as a binary (P5) portable graymap, rounding its
    values to the nearest integer and clipping them into [0, 255]."""
    arr = np.asarray(image)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2D array, got shape {arr.shape}")
    pixels = np.clip(np.rint(arr), 0, 255).astype(np.uint8)
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii")
    Path(path).write_bytes(header + pixels.tobytes())
