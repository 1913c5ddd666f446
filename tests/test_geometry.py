import numpy as np
import pytest
from hypothesis import given, strategies as st

from motrack.geometry import (
    DETECTION_LIMIT,
    BoundingBox,
    Detection,
    boxes_to_array,
    centers_to_corners,
    corners_to_centers,
    from_center_form,
    iou,
    iou_matrix,
    iou_pairs,
    to_center_form,
)


def valid_boxes():
    coord = st.floats(-500, 1500, allow_nan=False, allow_infinity=False)
    size = st.floats(0.5, 400, allow_nan=False, allow_infinity=False)
    return st.builds(
        lambda x, y, w, h: BoundingBox(x, y, x + w, y + h), coord, coord, size, size
    )


def test_box_requires_positive_extent():
    with pytest.raises(ValueError):
        BoundingBox(0, 0, 0, 10)
    with pytest.raises(ValueError):
        BoundingBox(0, 5, 10, 5)
    with pytest.raises(ValueError):
        BoundingBox(10, 0, 0, 10)


@pytest.mark.parametrize(
    "coords",
    [
        (100, 100, float("inf"), 200),
        (float("-inf"), 100, 150, 200),
        (100, float("-inf"), 150, float("inf")),
        (100, 100, 150, float("nan")),
        (float("nan"), 100, 150, 200),
        # Finite corners whose width and height overflow to inf.
        (-1e308, -1e308, 1e308, 1e308),
    ],
)
def test_box_rejects_non_finite_coordinates(coords):
    with pytest.raises(ValueError, match="non-finite box"):
        BoundingBox(*coords)


def test_box_accessors():
    b = BoundingBox(1, 2, 4, 8)
    assert b.width == 3
    assert b.height == 6
    assert b.center == (2.5, 5.0)


def test_detection_carries_confidence():
    d = Detection(BoundingBox(0, 0, 10, 10), confidence=0.7, frame=3)
    assert d.confidence == 0.7
    assert d.frame == 3


def test_detection_refuses_a_box_beyond_the_limit():
    # A track spawned on the 1e160 px tall box used to turn NaN on its
    # first update, and every later step then raised.
    limit = DETECTION_LIMIT
    for box in (
        BoundingBox(0, 0, 10, 1e160),
        BoundingBox(-2 * limit, 0, 0, 10),
        BoundingBox(0, 0, 10, limit + 1),
    ):
        with pytest.raises(ValueError, match="reaches beyond"):
            Detection(box, 0.9, 1)
    at_limit = BoundingBox(-limit, -limit, limit, limit)
    assert Detection(at_limit, 0.9, 1).box == at_limit


def test_iou_identical_boxes():
    b = BoundingBox(0, 0, 10, 10)
    assert iou(b, b) == 1.0


def test_iou_disjoint_boxes():
    assert iou(BoundingBox(0, 0, 10, 10), BoundingBox(20, 20, 30, 30)) == 0.0


def test_iou_half_shift():
    # intersection 50, union 150
    a = BoundingBox(0, 0, 10, 10)
    b = BoundingBox(5, 0, 15, 10)
    assert iou(a, b) == pytest.approx(1.0 / 3.0)


def test_iou_touching_edges_is_zero():
    a = BoundingBox(0, 0, 10, 10)
    b = BoundingBox(10, 0, 20, 10)
    assert iou(a, b) == 0.0


@given(valid_boxes(), valid_boxes())
def test_iou_symmetric(a, b):
    assert iou(a, b) == iou(b, a)


@given(valid_boxes())
def test_iou_self_is_one(b):
    assert iou(b, b) == pytest.approx(1.0)


@given(valid_boxes(), valid_boxes(), st.floats(0.1, 20))
def test_iou_scale_invariant(a, b, s):
    sa = BoundingBox(a.x1 * s, a.y1 * s, a.x2 * s, a.y2 * s)
    sb = BoundingBox(b.x1 * s, b.y1 * s, b.x2 * s, b.y2 * s)
    assert iou(sa, sb) == pytest.approx(iou(a, b), abs=1e-9)


@given(valid_boxes(), valid_boxes())
def test_iou_bounded(a, b):
    v = iou(a, b)
    assert 0.0 <= v <= 1.0


def test_center_form_round_trip_simple():
    assert to_center_form(BoundingBox(0, 0, 10, 20)) == (5, 10, 10, 20)
    b = from_center_form(2, 3, 4, 5)
    assert (b.x1, b.y1, b.x2, b.y2) == (0, 0.5, 4, 5.5)


@given(valid_boxes())
def test_center_form_round_trip(b):
    cx, cy, w, h = to_center_form(b)
    back = from_center_form(cx, cy, w, h)
    assert back.x1 == pytest.approx(b.x1, abs=1e-9)
    assert back.y1 == pytest.approx(b.y1, abs=1e-9)
    assert back.x2 == pytest.approx(b.x2, abs=1e-9)
    assert back.y2 == pytest.approx(b.y2, abs=1e-9)


def test_iou_matrix_matches_scalar():
    rng = np.random.default_rng(0)
    boxes_a = [
        BoundingBox(x, y, x + w, y + h)
        for x, y, w, h in zip(
            rng.uniform(0, 500, 12),
            rng.uniform(0, 500, 12),
            rng.uniform(5, 80, 12),
            rng.uniform(5, 80, 12),
        )
    ]
    boxes_b = boxes_a[5:] + [BoundingBox(0, 0, 600, 600)]
    m = iou_matrix(boxes_to_array(boxes_a), boxes_to_array(boxes_b))
    for i, a in enumerate(boxes_a):
        for j, b in enumerate(boxes_b):
            assert m[i, j] == pytest.approx(iou(a, b), abs=1e-12)


def test_iou_pairs_bit_identical_to_matrix():
    """The sparse path must agree with the dense path to the last bit, not
    merely within tolerance -- downstream equality tests depend on it."""
    rng = np.random.default_rng(1)
    a = np.column_stack(
        [
            rng.uniform(0, 800, 40),
            rng.uniform(0, 400, 40),
            np.zeros(40),
            np.zeros(40),
        ]
    )
    a[:, 2] = a[:, 0] + rng.uniform(10, 90, 40)
    a[:, 3] = a[:, 1] + rng.uniform(10, 90, 40)
    b = a[rng.permutation(40)] + rng.uniform(-30, 30, (40, 4))
    b[:, 2] = np.maximum(b[:, 2], b[:, 0] + 1)
    b[:, 3] = np.maximum(b[:, 3], b[:, 1] + 1)
    dense = iou_matrix(a, b)
    rows, cols = np.nonzero(dense >= 0)  # every pair
    sparse = iou_pairs(a, b, rows, cols)
    assert np.array_equal(sparse, dense[rows, cols])


def test_boxes_to_array_empty_and_order():
    assert boxes_to_array([]).shape == (0, 4)
    arr = boxes_to_array([BoundingBox(1, 2, 3, 4), BoundingBox(5, 6, 7, 8)])
    assert arr.tolist() == [[1, 2, 3, 4], [5, 6, 7, 8]]


@given(st.lists(valid_boxes(), max_size=6))
def test_array_center_forms_match_scalar(boxes):
    corners = boxes_to_array(boxes)
    centers = corners_to_centers(corners)
    assert centers.tolist() == [list(to_center_form(b)) for b in boxes]
    back = centers_to_corners(centers)
    assert back.tolist() == [
        [f.x1, f.y1, f.x2, f.y2] for f in (from_center_form(*c) for c in centers.tolist())
    ]
