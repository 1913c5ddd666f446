"""Spatial association gating via a 3D integral image.

The frame is divided into a coarse cell grid, GRID_CELLS columns by
rows. Each detection gets one binary layer marking the cells its box
touches. A per-layer 2D integral image then answers "which detections
share at least one cell with this region" with four lookups per layer,
so each track retrieves its candidate detections without scoring every
pair. IoU is computed only on candidates and thresholded; the surviving
pairs form a sparse cost matrix for the assignment step.

Cell snapping is outward and off-frame coordinates clamp to the border
cells, so the candidate set contains every pair with positive box
overlap, up to rounding at a cell border: boxes overlapping by an ulp
there (IoU ~1e-16) may snap to disjoint cells. Any gate far above that
makes the post-threshold pair set identical to scoring every pair, for
any grid and any box extension; the grid is therefore fixed, and it
sets only the speed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import TrackerConfig
from .geometry import BoundingBox, boxes_to_array, iou_matrix, iou_pairs

# (columns, rows) of the cell grid the tracker gates on.
GRID_CELLS = (16, 8)


@dataclass(frozen=True)
class CellGrid:
    """M columns by N rows of equal cells covering the frame."""

    m_cells: int
    n_cells: int
    frame_width: float
    frame_height: float

    def __post_init__(self) -> None:
        if self.m_cells < 1 or self.n_cells < 1:
            raise ValueError("grid needs at least one cell per axis")
        if self.frame_width <= 0 or self.frame_height <= 0:
            raise ValueError("frame dimensions must be positive")

    @property
    def cell_width(self) -> float:
        return self.frame_width / self.m_cells

    @property
    def cell_height(self) -> float:
        return self.frame_height / self.n_cells

    def spans(self, boxes: np.ndarray) -> np.ndarray:
        """Inclusive cell spans of a (K, 4) corner array, as (K, 4) int
        columns [col1, col2, row1, row2].

        Snapping is outward (floor/ceil) and the indices are clipped to
        the grid, so a box hanging past the frame edge snaps to the
        border cells. Clipping two intersecting index intervals to the
        same range keeps them intersecting, hence any two overlapping
        boxes share a cell no matter where they sit.
        """
        col1 = np.floor(boxes[:, 0] / self.cell_width).astype(np.int64)
        col2 = np.ceil(boxes[:, 2] / self.cell_width).astype(np.int64) - 1
        row1 = np.floor(boxes[:, 1] / self.cell_height).astype(np.int64)
        row2 = np.ceil(boxes[:, 3] / self.cell_height).astype(np.int64) - 1
        return np.stack(
            [
                np.clip(col1, 0, self.m_cells - 1),
                np.clip(col2, 0, self.m_cells - 1),
                np.clip(row1, 0, self.n_cells - 1),
                np.clip(row2, 0, self.n_cells - 1),
            ],
            axis=1,
        )


@dataclass
class EncodingMaps:
    """One binary cell map per detection: layers has shape (K, N, M)."""

    grid: CellGrid
    layers: np.ndarray


@dataclass
class IntegralImage3D:
    """Per-layer 2D integral images, padded with a zero row/column so a
    rectangle sum is always four in-bounds lookups.

    padded has shape (N+1, M+1, K); padded[r, c, k] counts the one-cells
    of layer k in rows < r and columns < c.
    """

    grid: CellGrid
    padded: np.ndarray

    @property
    def k_layers(self) -> int:
        return self.padded.shape[2]

    @property
    def cumulative(self) -> np.ndarray:
        """(K, N, M) view: cumulative count from cell (0,0) through (n,m)."""
        return np.moveaxis(self.padded[1:, 1:, :], 2, 0)

    def region_counts(self, spans: np.ndarray) -> np.ndarray:
        """Shared-cell counts for query cell spans.

        spans: (T, 4) int [col1, col2, row1, row2] inclusive.
        Returns (T, K): per layer, how many one-cells fall inside each span.
        """
        c1, c2, r1, r2 = spans[:, 0], spans[:, 1], spans[:, 2], spans[:, 3]
        p = self.padded
        # uint8 differences may wrap, but the four-corner sum is exact
        # modulo 256 and the true count never exceeds the cell total.
        out = p[r2 + 1, c2 + 1]
        out -= p[r1, c2 + 1]
        out -= p[r2 + 1, c1]
        out += p[r1, c1]
        return out


def build_maps(
    detections: list[BoundingBox], grid: CellGrid, extension: float = 1.0
) -> EncodingMaps:
    """Rasterize each detection into its binary cell layer."""
    if extension < 1.0:
        raise ValueError("extension must be >= 1")
    k = len(detections)
    layers = np.zeros((k, grid.n_cells, grid.m_cells), dtype=bool)
    if k == 0:
        return EncodingMaps(grid, layers)
    boxes = boxes_to_array(detections)
    if extension != 1.0:
        cx = 0.5 * (boxes[:, 0] + boxes[:, 2])
        cy = 0.5 * (boxes[:, 1] + boxes[:, 3])
        hw = 0.5 * (boxes[:, 2] - boxes[:, 0]) * extension
        hh = 0.5 * (boxes[:, 3] - boxes[:, 1]) * extension
        boxes = np.stack([cx - hw, cy - hh, cx + hw, cy + hh], axis=1)
    spans = grid.spans(boxes)
    cols = np.arange(grid.m_cells)
    rows = np.arange(grid.n_cells)
    col_hit = (cols >= spans[:, 0:1]) & (cols <= spans[:, 1:2])  # (K, M)
    row_hit = (rows >= spans[:, 2:3]) & (rows <= spans[:, 3:4])  # (K, N)
    layers = row_hit[:, :, None] & col_hit[:, None, :]
    return EncodingMaps(grid, layers)


def build_integral(maps: EncodingMaps) -> IntegralImage3D:
    """Cumulative counts per layer: each cell adds the cells above, to the
    left, minus the doubly counted corner, plus its own value."""
    k, n, m = maps.layers.shape
    # uint8 suffices: a layer's cumulative count is at most the number of
    # grid cells (m * n <= 255 for any sane grid).
    if m * n > 255:
        raise ValueError("grid too fine for 8-bit integral counters")
    padded = np.zeros((n + 1, m + 1, k), dtype=np.uint8)
    if k:
        counts = np.moveaxis(maps.layers, 0, 2).astype(np.uint8)
        np.cumsum(counts, axis=0, out=counts)
        np.cumsum(counts, axis=1, out=counts)
        padded[1:, 1:, :] = counts
    return IntegralImage3D(maps.grid, padded)


def query(
    integral: IntegralImage3D, track_box: BoundingBox, grid: CellGrid
) -> np.ndarray:
    """Indices of detections sharing at least one cell with the box."""
    if integral.k_layers == 0:
        return np.empty(0, dtype=np.int64)
    counts = integral.region_counts(grid.spans(boxes_to_array([track_box])))[0]
    return np.nonzero(counts)[0]


@dataclass
class GatedCost:
    """Sparse admissible-pair cost matrix.

    (rows[i], cols[i]) is an admissible track/detection pair with cost
    costs[i] = 1 - IoU; every other pair is forbidden.
    """

    n_tracks: int
    n_detections: int
    rows: np.ndarray
    cols: np.ndarray
    costs: np.ndarray

    def pair_count(self) -> int:
        return len(self.costs)


def gated_cost(
    track_boxes: list[BoundingBox],
    detection_boxes: list[BoundingBox],
    grid: CellGrid,
    config: TrackerConfig,
) -> GatedCost:
    """Build the candidate sets via the integral image, then score only
    candidate pairs with IoU and apply the gate cut."""
    t, k = len(track_boxes), len(detection_boxes)
    if t == 0 or k == 0:
        return _empty_cost(t, k)
    integral = build_integral(build_maps(detection_boxes, grid))

    tb = boxes_to_array(track_boxes)
    counts = integral.region_counts(grid.spans(tb))  # (T, K)
    flat = np.flatnonzero(counts)  # row-major, same order np.nonzero gives
    if len(flat) == 0:
        return _empty_cost(t, k)
    rows = flat // k
    cols = flat - rows * k

    db = boxes_to_array(detection_boxes)
    overlaps = iou_pairs(tb, db, rows, cols)
    keep = overlaps >= config.iou_gate
    return GatedCost(t, k, rows[keep], cols[keep], 1.0 - overlaps[keep])


def fully_connected_cost(
    track_boxes: list[BoundingBox],
    detection_boxes: list[BoundingBox],
    config: TrackerConfig,
) -> GatedCost:
    """Reference path: score every pair, apply the same gate cut.

    Admissible pairs and costs agree with gated_cost exactly (same IoU
    arithmetic, and gating never drops a pair at or above the gate), so
    swapping the two paths cannot change downstream results.
    """
    t, k = len(track_boxes), len(detection_boxes)
    if t == 0 or k == 0:
        return _empty_cost(t, k)
    tb = boxes_to_array(track_boxes)
    db = boxes_to_array(detection_boxes)
    overlaps = iou_matrix(tb, db)
    rows, cols = np.nonzero(overlaps >= config.iou_gate)
    return GatedCost(t, k, rows, cols, 1.0 - overlaps[rows, cols])


def _empty_cost(t: int, k: int) -> GatedCost:
    return GatedCost(
        t,
        k,
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=float),
    )
