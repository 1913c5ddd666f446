"""Axis-aligned bounding boxes and the IoU metric used everywhere else."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, slots=True)
class BoundingBox:
    """Corner-form box (x1, y1, x2, y2) in pixels.

    Coordinates are finite reals and may lie outside the frame; boxes are
    never clipped to image bounds. Width and height must be strictly
    positive.
    """

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        # A difference of floats is finite only when both are, and nonzero
        # only when they differ, so one test covers NaN, infinities, empty
        # extent and a width or height that overflows between finite corners.
        inf = math.inf
        w, h = self.x2 - self.x1, self.y2 - self.y1
        if not (0.0 < w < inf and 0.0 < h < inf):
            values = (self.x1, self.y1, self.x2, self.y2, w, h)
            kind = "degenerate" if all(map(math.isfinite, values)) else "non-finite"
            raise ValueError(f"{kind} box: ({self.x1}, {self.y1}, {self.x2}, {self.y2})")

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.x1 + self.x2), 0.5 * (self.y1 + self.y2))


# Largest |coordinate| of a detection box, in pixels. Far larger boxes
# wedge the tracker, every later step raising: the filter's variances
# overflow (near 2e153 px tall), or a coasting box shrinks to the 1e-3 px
# size floor where floats are spaced wider than that and has zero extent.
# Within this limit positions stay below 1e12 px over coasts of tens of
# thousands of frames.
DETECTION_LIMIT = 1e7


@dataclass(frozen=True, slots=True)
class Detection:
    """A detector output: box with coordinates within +-DETECTION_LIMIT,
    confidence in [0, 1], frame index."""

    box: BoundingBox
    confidence: float
    frame: int

    def __post_init__(self):
        # The box's x1 < x2 and y1 < y2, so its corners bound every coordinate.
        b, limit = self.box, DETECTION_LIMIT
        if not (-limit <= b.x1 and -limit <= b.y1 and b.x2 <= limit and b.y2 <= limit):
            raise ValueError(
                f"box ({b.x1}, {b.y1}, {b.x2}, {b.y2}) reaches beyond "
                f"+-{DETECTION_LIMIT:g} px"
            )
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence {self.confidence} outside [0, 1]")
        if self.frame < 0:
            raise ValueError(f"negative frame index {self.frame}")


def to_center_form(box: BoundingBox) -> tuple[float, float, float, float]:
    """(x1, y1, x2, y2) -> (cx, cy, w, h)."""
    w = box.x2 - box.x1
    h = box.y2 - box.y1
    return (box.x1 + 0.5 * w, box.y1 + 0.5 * h, w, h)


def from_center_form(cx: float, cy: float, w: float, h: float) -> BoundingBox:
    """(cx, cy, w, h) -> corner-form box. Rejects non-positive sizes."""
    if w <= 0 or h <= 0:
        raise ValueError(f"non-positive size: w={w}, h={h}")
    return BoundingBox(cx - 0.5 * w, cy - 0.5 * h, cx + 0.5 * w, cy + 0.5 * h)


def corners_to_centers(boxes: np.ndarray) -> np.ndarray:
    """(T, 4) corner-form rows -> (T, 4) center-form rows, as to_center_form."""
    size = boxes[:, 2:] - boxes[:, :2]
    return np.concatenate([boxes[:, :2] + 0.5 * size, size], axis=1)


def centers_to_corners(boxes: np.ndarray) -> np.ndarray:
    """(T, 4) center-form rows -> (T, 4) corner-form rows, as from_center_form
    (without its size check)."""
    half = 0.5 * boxes[:, 2:]
    return np.concatenate([boxes[:, :2] - half, boxes[:, :2] + half], axis=1)


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection area over union area; 0 when disjoint."""
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    area_a = (a.x2 - a.x1) * (a.y2 - a.y1)
    area_b = (b.x2 - b.x1) * (b.y2 - b.y1)
    return inter / (area_a + area_b - inter)


def iou_matrix(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between two (..., N, 4) and (..., M, 4) corner-form
    arrays, giving (..., N, M); leading dimensions broadcast.

    Element-wise the arithmetic is that of `iou`, so both compare equal
    to a threshold on the same pairs.
    """
    if boxes_a.size == 0 or boxes_b.size == 0:
        return np.zeros(
            np.broadcast_shapes(boxes_a.shape[:-2], boxes_b.shape[:-2])
            + (boxes_a.shape[-2], boxes_b.shape[-2]),
            dtype=np.float64,
        )
    a = boxes_a[..., :, None, :]
    b = boxes_b[..., None, :, :]
    iw = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    ih = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = np.maximum(iw, 0.0) * np.maximum(ih, 0.0)
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    return inter / (area_a + area_b - inter)


def iou_pairs(
    boxes_a: np.ndarray, boxes_b: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """IoU for selected (row, col) pairs only.

    Element-wise identical arithmetic to iou_matrix, so gated and fully
    connected cost paths agree bit-for-bit on shared pairs.
    """
    at = np.ascontiguousarray(boxes_a.T)
    bt = np.ascontiguousarray(boxes_b.T)
    ax1, ay1, ax2, ay2 = (at[j].take(rows) for j in range(4))
    bx1, by1, bx2, by2 = (bt[j].take(cols) for j in range(4))
    iw = np.minimum(ax2, bx2) - np.maximum(ax1, bx1)
    ih = np.minimum(ay2, by2) - np.maximum(ay1, by1)
    inter = np.maximum(iw, 0.0) * np.maximum(ih, 0.0)
    area_a = (ax2 - ax1) * (ay2 - ay1)
    area_b = (bx2 - bx1) * (by2 - by1)
    return inter / (area_a + area_b - inter)


def boxes_to_array(boxes) -> np.ndarray:
    """Stack BoundingBox objects into an (N, 4) float array."""
    if not boxes:
        return np.zeros((0, 4), dtype=np.float64)
    return np.array([[b.x1, b.y1, b.x2, b.y2] for b in boxes], dtype=np.float64)
