import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from motrack.config import TrackerConfig
from motrack.gating import (
    GRID_CELLS,
    CellGrid,
    EncodingMaps,
    build_integral,
    build_maps,
    fully_connected_cost,
    gated_cost,
    query,
)
from motrack.geometry import BoundingBox, boxes_to_array, iou


CFG = TrackerConfig()
GRID = CellGrid(*GRID_CELLS, 1920.0, 1080.0)

# Dense-matrix entry of a pair the cost rules out.
FORBIDDEN = 4e9


def dense(cost) -> np.ndarray:
    out = np.full((cost.n_tracks, cost.n_detections), FORBIDDEN)
    out[cost.rows, cost.cols] = cost.costs
    return out


def random_box(rng, width=1920.0, height=1080.0, spread=1.0):
    w = rng.uniform(10, 200)
    h = rng.uniform(10, 300)
    cx = rng.uniform(-0.1 * width, (0.1 + spread) * width)
    cy = rng.uniform(-0.1 * height, (0.1 + spread) * height)
    return BoundingBox(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)


def snapped_cells(grid, box):
    """Reference cell rasterization: snap outward, clip to the grid."""
    cw, ch = grid.cell_width, grid.cell_height
    last_c, last_r = grid.m_cells - 1, grid.n_cells - 1
    c1 = min(max(math.floor(box.x1 / cw), 0), last_c)
    c2 = min(max(math.ceil(box.x2 / cw) - 1, 0), last_c)
    r1 = min(max(math.floor(box.y1 / ch), 0), last_r)
    r2 = min(max(math.ceil(box.y2 / ch) - 1, 0), last_r)
    return {(r, c) for r in range(r1, r2 + 1) for c in range(c1, c2 + 1)}


def cell_span(grid, box):
    return tuple(grid.spans(boxes_to_array([box]))[0].tolist())


# ------------------------------------------------------------------ cell grid


def test_cell_span_snaps_outward():
    grid = CellGrid(4, 4, 400.0, 400.0)  # 100 px cells
    # box interior to cell (1,1) only
    assert cell_span(grid, BoundingBox(110, 110, 190, 190)) == (1, 1, 1, 1)
    # crossing the 200 px boundary by a hair still claims the next cell
    assert cell_span(grid, BoundingBox(110, 110, 200.01, 190)) == (1, 2, 1, 1)


def test_cell_span_clips_to_frame():
    grid = CellGrid(4, 4, 400.0, 400.0)
    assert cell_span(grid, BoundingBox(-50, -50, 30, 30)) == (0, 0, 0, 0)
    assert cell_span(grid, BoundingBox(350, 380, 900, 900)) == (3, 3, 3, 3)


def test_cell_span_off_frame_snaps_to_border_cells():
    grid = CellGrid(4, 4, 400.0, 400.0)
    assert cell_span(grid, BoundingBox(500, 100, 600, 200)) == (3, 3, 1, 1)
    assert cell_span(grid, BoundingBox(-80, -90, -10, -5)) == (0, 0, 0, 0)


def test_grid_validation():
    with pytest.raises(ValueError):
        CellGrid(0, 8, 1920.0, 1080.0)
    with pytest.raises(ValueError):
        CellGrid(16, 8, -5.0, 1080.0)


# ------------------------------------------------------------- encoding maps


def test_build_maps_empty():
    maps = build_maps([], GRID, 1.0)
    assert maps.layers.shape == (0, GRID.n_cells, GRID.m_cells)


def test_build_maps_single_known_layer():
    grid = CellGrid(4, 4, 400.0, 400.0)
    maps = build_maps([BoundingBox(10, 10, 190, 190)], grid, 1.0)
    layer = maps.layers[0]
    assert layer.sum() == 4
    assert layer[:2, :2].all()


def test_build_maps_full_frame_detection():
    grid = CellGrid(4, 4, 400.0, 400.0)
    maps = build_maps([BoundingBox(-10, -10, 500, 500)], grid, 1.0)
    assert maps.layers[0].all()


def test_build_maps_matches_reference_rasterization():
    rng = np.random.default_rng(0)
    for _ in range(30):
        boxes = [random_box(rng, spread=1.2) for _ in range(25)]
        maps = build_maps(boxes, GRID, 1.0)
        for k, box in enumerate(boxes):
            want = snapped_cells(GRID, box)
            got = {tuple(rc) for rc in np.argwhere(maps.layers[k])}
            assert got == want


def test_build_maps_extension_scales_about_center():
    grid = CellGrid(4, 4, 400.0, 400.0)
    box = BoundingBox(140, 140, 160, 160)  # interior to cell (1,1)
    assert build_maps([box], grid, 1.0).layers[0].sum() == 1
    # 6x extension reaches 90..210 px, spilling into neighbours
    assert build_maps([box], grid, 6.0).layers[0].sum() == 9


def test_build_maps_rejects_shrinking_extension():
    with pytest.raises(ValueError):
        build_maps([BoundingBox(0, 0, 10, 10)], GRID, 0.5)


# ----------------------------------------------------------- integral image


def direct_integral(layers):
    """Direct double summation, the definition the cumulative table must match."""
    k, n, m = layers.shape
    out = np.zeros((k, n, m), dtype=np.int64)
    for kk in range(k):
        for r in range(n):
            for c in range(m):
                out[kk, r, c] = int(layers[kk, : r + 1, : c + 1].sum())
    return out


def test_build_integral_small_known_case():
    grid = CellGrid(4, 4, 400.0, 400.0)
    maps = build_maps([BoundingBox(10, 10, 190, 190)], grid, 1.0)
    integral = build_integral(maps)
    cum = integral.cumulative
    assert cum[0, 1, 1] == 4
    assert cum[0, 3, 3] == 4
    assert cum[0, 0, 0] == 1


def test_build_integral_zero_layer():
    grid = CellGrid(4, 4, 400.0, 400.0)
    maps = EncodingMaps(grid, np.zeros((1, 4, 4), dtype=bool))
    assert build_integral(maps).cumulative.sum() == 0


def test_build_integral_matches_direct_summation():
    rng = np.random.default_rng(1)
    for _ in range(20):
        boxes = [random_box(rng, spread=1.2) for _ in range(rng.integers(1, 30))]
        integral = build_integral(build_maps(boxes, GRID, 1.0))
        want = direct_integral(build_maps(boxes, GRID, 1.0).layers)
        assert np.array_equal(integral.cumulative.astype(np.int64), want)


def test_integral_monotone_along_axes():
    rng = np.random.default_rng(2)
    boxes = [random_box(rng) for _ in range(40)]
    cum = build_integral(build_maps(boxes, GRID, 1.0)).cumulative
    assert (np.diff(cum.astype(int), axis=1) >= 0).all()
    assert (np.diff(cum.astype(int), axis=2) >= 0).all()


def test_integral_last_cell_equals_layer_total():
    rng = np.random.default_rng(3)
    boxes = [random_box(rng) for _ in range(40)]
    maps = build_maps(boxes, GRID, 1.0)
    cum = build_integral(maps).cumulative
    assert np.array_equal(cum[:, -1, -1].astype(int), maps.layers.sum(axis=(1, 2)))


def test_region_counts_exact_for_full_grid_span():
    """A full-frame region on a full-frame detection exercises the largest
    possible count; 8-bit arithmetic must still report it exactly."""
    big = [BoundingBox(-10, -10, 2000, 1100) for _ in range(3)]
    integral = build_integral(build_maps(big, GRID, 1.0))
    counts = integral.region_counts(
        np.array([[0, GRID.m_cells - 1, 0, GRID.n_cells - 1]])
    )
    assert counts.tolist() == [[128, 128, 128]]


# ---------------------------------------------------------------------- query


def brute_candidates(track_box, det_boxes):
    mine = snapped_cells(GRID, track_box)
    out = []
    for k, d in enumerate(det_boxes):
        if mine & snapped_cells(GRID, d):
            out.append(k)
    return out


def test_query_disjoint_region_empty():
    grid = CellGrid(4, 4, 400.0, 400.0)
    integral = build_integral(build_maps([BoundingBox(10, 10, 190, 190)], grid, 1.0))
    assert query(integral, BoundingBox(210, 210, 390, 390), grid).size == 0
    hit = query(integral, BoundingBox(110, 110, 290, 290), grid)
    assert hit.tolist() == [0]


def test_query_matches_brute_force_oracle():
    rng = np.random.default_rng(4)
    for _ in range(50):
        dets = [random_box(rng, spread=1.1) for _ in range(rng.integers(0, 60))]
        integral = build_integral(build_maps(dets, GRID, 1.0))
        for _ in range(10):
            track = random_box(rng, spread=1.1)
            got = query(integral, track, GRID).tolist()
            assert got == brute_candidates(track, dets)


def test_query_off_frame_track_sees_border_cell_sharers():
    # Boxes past the same frame corner share the clamped corner cell, so
    # a pair that overlaps off-screen is still offered to the IoU cut.
    dets = [
        BoundingBox(5010.0, 5020.0, 5090.0, 5120.0),
        BoundingBox(100.0, 100.0, 160.0, 220.0),
    ]
    integral = build_integral(build_maps(dets, GRID, 1.0))
    far = BoundingBox(5000.0, 5000.0, 5100.0, 5100.0)
    assert query(integral, far, GRID).tolist() == [0]


# ------------------------------------------------------------------ cost paths


def test_gated_cost_identical_pair():
    box = BoundingBox(100, 100, 200, 300)
    cost = gated_cost([box], [box], GRID, CFG)
    assert cost.rows.tolist() == [0]
    assert cost.cols.tolist() == [0]
    assert cost.costs.tolist() == [0.0]


def test_gate_excludes_weak_overlap():
    a = BoundingBox(0, 0, 100, 100)
    shift = 66.7  # IoU just about 0.2
    b = BoundingBox(shift, 0, 100 + shift, 100)
    assert iou(a, b) < 0.3
    cost = gated_cost([a], [b], GRID, CFG)
    assert cost.pair_count() == 0


def test_gated_equals_fully_connected():
    rng = np.random.default_rng(6)
    for _ in range(50):
        tracks = [random_box(rng, spread=1.1) for _ in range(rng.integers(1, 40))]
        dets = [random_box(rng, spread=1.1) for _ in range(rng.integers(1, 40))]
        g = gated_cost(tracks, dets, GRID, CFG)
        f = fully_connected_cost(tracks, dets, CFG)
        assert np.array_equal(g.rows, f.rows)
        assert np.array_equal(g.cols, f.cols)
        assert np.array_equal(g.costs, f.costs)


def test_gating_soundness_never_drops_gated_pair():
    rng = np.random.default_rng(7)
    for _ in range(30):
        tracks = [random_box(rng, spread=1.1) for _ in range(20)]
        dets = [random_box(rng, spread=1.1) for _ in range(20)]
        g = gated_cost(tracks, dets, GRID, CFG)
        admissible = set(zip(g.rows.tolist(), g.cols.tolist()))
        for i, t in enumerate(tracks):
            for j, d in enumerate(dets):
                if iou(t, d) >= CFG.iou_gate:
                    assert (i, j) in admissible


def test_cost_values_are_one_minus_iou():
    rng = np.random.default_rng(8)
    tracks = [random_box(rng) for _ in range(15)]
    dets = [random_box(rng) for _ in range(15)]
    g = gated_cost(tracks, dets, GRID, CFG)
    for r, c, v in zip(g.rows, g.cols, g.costs):
        assert v == pytest.approx(1.0 - iou(tracks[r], dets[c]), abs=1e-12)


def test_dense_uses_forbidden_sentinel():
    tracks = [BoundingBox(0, 0, 50, 50)]
    dets = [BoundingBox(1000, 1000, 1050, 1050)]
    mat = dense(gated_cost(tracks, dets, GRID, CFG))
    assert mat.shape == (1, 1)
    assert mat[0, 0] == FORBIDDEN


def test_empty_inputs():
    assert gated_cost([], [], GRID, CFG).pair_count() == 0
    assert gated_cost([BoundingBox(0, 0, 10, 10)], [], GRID, CFG).pair_count() == 0
    assert fully_connected_cost([], [BoundingBox(0, 0, 10, 10)], CFG).pair_count() == 0


# Boxes around a frame of up to 2000 px a side, reaching well past every
# edge, so some lie partly and some wholly off the frame.
coords = st.floats(-2500.0, 4500.0, allow_nan=False)
sides = st.floats(0.5, 1500.0, allow_nan=False)


@st.composite
def box_lists(draw, max_size):
    boxes = []
    for _ in range(draw(st.integers(0, max_size))):
        x1, y1 = draw(coords), draw(coords)
        boxes.append(BoundingBox(x1, y1, x1 + draw(sides), y1 + draw(sides)))
    return boxes


@st.composite
def gating_inputs(draw):
    m_cells = draw(st.integers(1, 255))
    n_cells = draw(st.integers(1, 255 // m_cells))
    width = draw(st.floats(1.0, 2000.0))
    height = draw(st.floats(1.0, 2000.0))
    grid = CellGrid(m_cells, n_cells, width, height)
    tracks = draw(box_lists(12))
    # Detections near the tracks as well as anywhere, so gated pairs occur.
    dets = draw(box_lists(12))
    near = draw(st.lists(st.sampled_from(tracks), max_size=8)) if tracks else []
    for t in near:
        dx, dy = draw(st.floats(-0.8, 0.8)), draw(st.floats(-0.8, 0.8))
        w, h = t.x2 - t.x1, t.y2 - t.y1
        dets.append(BoundingBox(t.x1 + dx * w, t.y1 + dy * h, t.x2 + dx * w, t.y2 + dy * h))
    return grid, tracks, dets


# The gate stays far above rounding: two boxes that overlap by one ulp
# across a cell border can snap to disjoint cells, at an IoU near 1e-16.
@given(gating_inputs(), st.floats(0.01, 1.0))
@settings(max_examples=300, deadline=None)
def test_gating_is_exact_on_any_grid(inputs, iou_gate):
    grid, tracks, dets = inputs
    config = TrackerConfig(iou_gate=iou_gate)
    g = gated_cost(tracks, dets, grid, config)
    f = fully_connected_cost(tracks, dets, config)
    assert np.array_equal(g.rows, f.rows)
    assert np.array_equal(g.cols, f.cols)
    assert np.array_equal(g.costs, f.costs)
