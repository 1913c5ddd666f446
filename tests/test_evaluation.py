"""CLEAR-MOT and IDF1 from the blocked frame-table pass against per-frame
and per-pair oracles."""

from itertools import permutations
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from motrack import evaluation
from motrack.assignment import km_solve
from motrack.evaluation import evaluate
from motrack.gating import GatedCost
from motrack.geometry import BoundingBox, iou, iou_matrix


def astuple(box):
    return (box.x1, box.y1, box.x2, box.y2)


def reference_clear_mot(hypotheses, ground_truth, threshold):
    """(mota, fp, fn, ids, matches) by a per-frame loop over every frame
    either side has: a GT id keeps last frame's hypothesis while their
    scalar `iou` stays at or above `threshold` (ascending GT ids, first
    claim wins); the leftover boxes are matched by `km_solve` on 1 - IoU
    over the pairs at or above `threshold`."""
    gt_frames, hyp_frames = {}, {}
    for frames, trajectories in ((gt_frames, ground_truth), (hyp_frames, hypotheses)):
        for tid, history in trajectories.items():
            for frame, box in history.items():
                frames.setdefault(frame, {})[tid] = box

    mapping = {}  # gt id -> last matched hyp id
    fp = fn = ids = matches = 0
    for frame in sorted(set(gt_frames) | set(hyp_frames)):
        gt_here = gt_frames.get(frame, {})
        hyp_here = hyp_frames.get(frame, {})
        pairs, used, left_gt = [], set(), []
        for gid in sorted(gt_here):
            prev = mapping.get(gid)
            if (
                prev in hyp_here
                and prev not in used
                and iou(gt_here[gid], hyp_here[prev]) >= threshold
            ):
                pairs.append((gid, prev))
                used.add(prev)
            else:
                left_gt.append(gid)
        left_hyp = [hid for hid in sorted(hyp_here) if hid not in used]
        if left_gt and left_hyp:
            overlaps = iou_matrix(
                np.array([astuple(gt_here[g]) for g in left_gt]),
                np.array([astuple(hyp_here[h]) for h in left_hyp]),
            )
            rows, cols = np.nonzero(overlaps >= threshold)
            cost = GatedCost(
                len(left_gt), len(left_hyp), rows, cols, 1.0 - overlaps[rows, cols]
            )
            for r, c in km_solve(cost).pairs:
                gid, hid = left_gt[r], left_hyp[c]
                if gid in mapping and mapping[gid] != hid:
                    ids += 1
                pairs.append((gid, hid))
        for gid, hid in pairs:
            mapping[gid] = hid
        matches += len(pairs)
        fn += len(gt_here) - len(pairs)
        fp += len(hyp_here) - len(pairs)

    total_gt = sum(len(h) for h in ground_truth.values())
    return 1.0 - (fp + fn + ids) / total_gt, fp, fn, ids, matches


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

    # Maximize total co-occurring frames over a one-to-one id matching,
    # by trying every matching (the strategies draw at most 5 ids a side).
    # Counts are non-negative, so some largest matching attains the best.
    if counts.shape[0] > counts.shape[1]:
        counts = counts.T
    n_small, n_large = counts.shape
    idtp = max(
        sum(counts[i, j] for i, j in enumerate(chosen))
        for chosen in permutations(range(n_large), n_small)
    )
    return 2.0 * float(idtp) / (total_gt + total_hyp)


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
    if draw(st.booleans()):
        # Two hypothesis ids hold one box on every frame, and a drawn
        # subset of two GT ids holds it on each frame: both GT ids may
        # then last have matched the same hypothesis on a frame where it
        # overlaps them both, with the other hypothesis free.
        box = draw(grid_boxes)
        pairs = st.lists(st.integers(0, 9), min_size=2, max_size=2, unique=True)
        a, b = draw(pairs)
        for hid in draw(pairs):
            hypotheses[hid] = dict.fromkeys(range(6), box)
        for frame in range(6):
            for gid in draw(st.sampled_from([(), (a,), (b,), (a, b)])):
                ground_truth.setdefault(gid, {})[frame] = box
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


@settings(max_examples=300, deadline=None)
@given(
    sequences(),
    st.sampled_from([0.5, 1 / 3, 1.0, 0.25]),
    st.sampled_from([1, 5, 1 << 16]),
)
def test_clear_mot_equals_per_frame_reference(seq, threshold, block_pairs):
    # Blocks of one or five pairs carry the id mapping across block edges.
    hypotheses, ground_truth = seq
    assume(any(ground_truth.values()))
    with mock.patch.object(evaluation, "_IOU_BLOCK_PAIRS", block_pairs):
        report = evaluate(hypotheses, ground_truth, threshold)
    assert (
        report.mota, report.fp, report.fn, report.ids, report.matches
    ) == reference_clear_mot(hypotheses, ground_truth, threshold)


def test_lower_gt_id_keeps_a_shared_last_hypothesis():
    # Hypothesis 7 follows GT 1 on frame 1 and GT 2 on frame 2, so both
    # last matched it. On frame 3 it overlaps both: GT 1 claims it first,
    # and GT 2 goes to the leftover matching, takes hypothesis 8 and
    # switches identity. Had GT 2 claimed first, GT 1 would find no match.
    a, b = BoundingBox(0, 0, 10, 10), BoundingBox(2, 0, 12, 10)
    h7, h8 = BoundingBox(1, 0, 11, 10), BoundingBox(4, 0, 14, 10)
    assert iou(a, h8) < 0.5 <= min(iou(a, h7), iou(b, h7), iou(b, h8))
    ground_truth = {1: {1: a, 3: a}, 2: {2: b, 3: b}}
    hypotheses = {7: {1: h7, 2: h7, 3: h7}, 8: {3: h8}}
    report = evaluate(hypotheses, ground_truth)
    assert (report.mota, report.fp, report.fn, report.ids, report.matches) == (
        0.75, 0, 0, 1, 4
    )
    assert reference_clear_mot(hypotheses, ground_truth, 0.5) == (0.75, 0, 0, 1, 4)
