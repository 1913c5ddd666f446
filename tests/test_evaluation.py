"""IDF1 from the blocked co-occurrence count against the per-pair oracle."""

from unittest import mock

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from motrack import evaluation
from motrack.assignment import solve_dense
from motrack.evaluation import evaluate
from motrack.geometry import BoundingBox, iou


def reference_idf1(hypotheses, ground_truth, threshold):
    """IDF1 by intersecting the frame sets of every GT/hypothesis id pair
    and scoring shared frames with the scalar `iou`."""
    total_gt = sum(len(h) for h in ground_truth.values())
    total_hyp = sum(len(h) for h in hypotheses.values())
    if total_hyp == 0:
        return 0.0
    gt_ids = sorted(ground_truth)
    hyp_ids = sorted(hypotheses)
    counts = np.zeros((len(gt_ids), len(hyp_ids)))
    for gi, gid in enumerate(gt_ids):
        g_hist = ground_truth[gid]
        for hi, hid in enumerate(hyp_ids):
            h_hist = hypotheses[hid]
            shared = set(g_hist) & set(h_hist)
            counts[gi, hi] = sum(
                1 for f in shared if iou(g_hist[f], h_hist[f]) >= threshold
            )

    # Maximize total co-occurring frames over a one-to-one id matching.
    cost = -counts
    if cost.shape[0] > cost.shape[1]:
        cost = cost.T
    row_col = solve_dense(cost)
    idtp = -float(sum(cost[r, c] for r, c in enumerate(row_col)))
    return 2.0 * idtp / (total_gt + total_hyp)


# A coarse integer grid puts many pairs exactly on IoU 1/2, 1/3 and 1.
grid_boxes = st.builds(
    lambda x, y, w, h: BoundingBox(x, y, x + w, y + h),
    st.integers(0, 3), st.integers(0, 3), st.integers(1, 3), st.integers(1, 3),
)


def trajectories(first_frame, max_ids):
    # Empty histories are allowed: an id may own no box at all.
    history = st.dictionaries(
        st.integers(first_frame, first_frame + 5), grid_boxes, max_size=6
    )
    return st.dictionaries(st.integers(0, 9), history, max_size=max_ids)


@st.composite
def sequences(draw):
    ground_truth = draw(trajectories(0, 5))
    # Shifted hypotheses share no frame with the ground truth.
    first = draw(st.sampled_from([0, 0, 0, 10]))
    hypotheses = draw(trajectories(first, 5))  # may be empty
    return hypotheses, ground_truth


@settings(max_examples=300, deadline=None)
@given(
    sequences(),
    st.sampled_from([0.5, 1 / 3, 1.0, 0.25]),
    st.sampled_from([1, 5, 1 << 16]),
)
def test_blocked_idf1_equals_per_pair_reference(seq, threshold, block_pairs):
    hypotheses, ground_truth = seq
    assume(any(ground_truth.values()))
    with mock.patch.object(evaluation, "_IOU_BLOCK_PAIRS", block_pairs):
        report = evaluate(hypotheses, ground_truth, threshold)
    assert report.idf1 == reference_idf1(hypotheses, ground_truth, threshold)
    assert report.hyp_boxes == sum(len(h) for h in hypotheses.values())
