"""Hand-worked cases for the benchmark's oracles and output checks.

Run with: python3 -m pytest perfbench/tests
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import hostspeed
import oracles
import workloads
from motrack.geometry import BoundingBox


def box(x1, y1, x2, y2):
    return BoundingBox(float(x1), float(y1), float(x2), float(y2))


# -- IoU and the gating pair set -----------------------------------------


def test_iou_table_hand_values():
    a = np.array([[0, 0, 2, 2], [10, 10, 12, 12]], dtype=float)
    b = np.array([[1, 1, 3, 3], [0, 0, 2, 2], [2, 0, 4, 2]], dtype=float)
    got = oracles.iou_table(a, b)
    # 1x1 overlap of two 2x2 boxes: 1 / (4 + 4 - 1); identical boxes: 1;
    # boxes sharing only an edge: 0.
    assert got[0, 0] == pytest.approx(1 / 7)
    assert got[0, 1] == 1.0
    assert got[0, 2] == 0.0
    assert not got[1].any()


def test_admissible_pairs_apply_the_gate_inclusively():
    tracks = np.array([[0, 0, 10, 10], [100, 100, 110, 110]], dtype=float)
    dets = np.array(
        [
            [0, 0, 10, 10],  # IoU 1 with track 0
            [5, 0, 15, 10],  # IoU 50 / 150 = 1/3 with track 0
            [0, 0, 10, 3],  # IoU 30 / 100 = 0.3 with track 0, exactly the gate
            [200, 200, 210, 210],  # overlaps nothing
        ],
        dtype=float,
    )
    rows, cols, costs = oracles.admissible_pairs(tracks, dets, 0.3)
    assert list(zip(rows, cols)) == [(0, 0), (0, 1), (0, 2)]
    assert costs == pytest.approx([0.0, 2 / 3, 0.7])
    rows, _, _ = oracles.admissible_pairs(tracks, dets[:0], 0.3)
    assert len(rows) == 0


# -- matching --------------------------------------------------------------


def test_matching_prefers_more_pairs_over_lower_cost():
    # Cheapest single pair is (0, 0) at 0.1, but it blocks row 1; the
    # two-pair matching (0, 1) + (1, 0) costs 0.5 and must win.
    size, total = oracles.optimal_matching(2, 2, [0, 0, 1], [0, 1, 0], [0.1, 0.2, 0.3])
    assert (size, total) == (2, pytest.approx(0.5))


def test_matching_minimises_cost_among_largest():
    # Rows 0 and 1 can each take column 0 or 1; costs favour the diagonal.
    size, total = oracles.optimal_matching(
        2, 3, [0, 0, 1, 1], [0, 1, 0, 1], [0.1, 0.9, 0.8, 0.2]
    )
    assert (size, total) == (2, pytest.approx(0.3))


def test_matching_without_pairs_is_empty():
    assert oracles.optimal_matching(3, 4, [], [], []) == (0, 0.0)
    assert oracles.optimal_matching(0, 4, [], [], []) == (0, 0.0)


# -- IDF1 ------------------------------------------------------------------


def test_idf1_identity_split_halves_the_score():
    # One GT target over four frames, tracked by hypothesis 1 for two
    # frames and hypothesis 2 for the other two: IDTP 2, IDF1 4 / 8.
    b = box(0, 0, 10, 20)
    gt = {7: {f: b for f in range(1, 5)}}
    hyp = {1: {1: b, 2: b}, 2: {3: b, 4: b}}
    assert oracles.idf1_counts(gt, hyp) == (2, 4, 4)
    assert oracles.idf1([oracles.idf1_counts(gt, hyp)]) == 0.5


def test_idf1_uses_overlap_threshold_and_one_to_one_ids():
    # GT 1 is matched on three frames by hyp 5 and on one frame by hyp 6;
    # GT 2 is only ever near hyp 6. The best one-to-one mapping is
    # 1->5 (3) plus 2->6 (2); a hypothesis box at IoU 1/3 never counts.
    a, c = box(0, 0, 10, 10), box(100, 0, 110, 10)
    shifted = box(5, 0, 15, 10)  # IoU 1/3 with a
    gt = {1: {1: a, 2: a, 3: a, 4: a}, 2: {1: c, 2: c}}
    hyp = {5: {1: a, 2: a, 3: a, 4: shifted}, 6: {1: c, 2: c, 4: a}}
    idtp, n_gt, n_hyp = oracles.idf1_counts(gt, hyp)
    assert (idtp, n_gt, n_hyp) == (5, 6, 7)
    assert oracles.idf1([(idtp, n_gt, n_hyp)]) == pytest.approx(10 / 13)


def test_micro_idf1_of_the_fixed_aggregate_case():
    case = workloads.aggregate_case()
    counts = [oracles.idf1_counts(g, h) for h, g in case.values()]
    assert counts == [(10, 10, 10), (10, 10, 30)]
    assert oracles.idf1(counts) == pytest.approx(2 / 3)


# -- output checks ---------------------------------------------------------


def track(track_id, boxes, fills=()):
    return SimpleNamespace(
        track_id=track_id,
        history=dict(boxes),
        confidences={f: (-1.0 if f in fills else 1.0) for f in boxes},
    )


def packet(frame, *boxes):
    return SimpleNamespace(
        frame=frame, detections=[SimpleNamespace(box=b) for b in boxes]
    )


def test_fills_must_sit_between_detection_backed_frames():
    b = box(0, 0, 10, 10)
    inside = track(1, {1: b, 2: b, 3: b}, fills={2})
    trailing = track(2, {1: b, 2: b, 3: b}, fills={3})
    assert checks.fills_inside_gaps([inside])
    assert not checks.fills_inside_gaps([trailing])


def test_detection_checks():
    a, c = box(0, 0, 10, 10), box(50, 0, 60, 10)
    packets = [packet(1, a, c)]
    assert checks.outputs_are_detections([track(1, {1: a}), track(2, {1: c})], packets)
    assert not checks.outputs_are_detections([track(1, {1: box(0, 0, 10, 11)})], packets)
    assert checks.detections_used_once([track(1, {1: a}), track(2, {1: c})], packets)
    assert not checks.detections_used_once([track(1, {1: a}), track(2, {1: a})], packets)


def test_mot_round_trip_allows_only_the_format_rounding():
    written = [track(3, {1: box(0.004, 0.0, 10.0, 10.0)})]
    assert checks.mot_round_trip(written, {3: {1: box(0.0, 0.0, 10.0, 10.0)}})
    assert not checks.mot_round_trip(written, {3: {1: box(0.02, 0.0, 10.0, 10.0)}})
    assert not checks.mot_round_trip(written, {4: {1: box(0.0, 0.0, 10.0, 10.0)}})


def test_warp_error_is_corner_displacement():
    ident = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    moved = ident.copy()
    moved[:, 2] = (3.0, 4.0)
    assert checks.warp_error_px(moved, ident, 320, 240) == 5.0
    turned = np.array([[math.cos(0.01), -math.sin(0.01), 0.0], [math.sin(0.01), math.cos(0.01), 0.0]])
    # A rotation about the origin moves the far corner the most.
    far = math.hypot(320, 240) * 2 * math.sin(0.005)
    assert checks.warp_error_px(turned, ident, 320, 240) == pytest.approx(far)


# -- scaling to the reference kernel ---------------------------------------


def _host(runs):
    """A HostClock with kernel runs given as (start_ns, end_ns, seconds)."""
    host = hostspeed.HostClock()
    for start, end, seconds in runs:
        host.starts.append(start)
        host.ends.append(end)
        host.kernel_s.append(seconds)
    return host


def test_measure_leaves_out_kernel_runs_and_scales_each_piece():
    ref = hostspeed.REF_KERNEL_S
    # The middle kernel run took twice the reference: the pieces next to
    # it are scaled by ref / mean(ref, 2 ref) = 2/3.
    host = _host([(0, 10, ref), (100, 110, 2 * ref), (200, 210, ref)])
    raw, scaled = host.measure(20, 150)
    assert raw == pytest.approx((80 + 40) * 1e-9)
    assert scaled == pytest.approx((80 + 40) * 1e-9 * 2 / 3)
    raw, scaled = host.measure(120, 130)
    assert (raw, scaled) == pytest.approx((10e-9, 10e-9 * 2 / 3))


def test_measure_is_wall_time_at_reference_speed():
    ref = hostspeed.REF_KERNEL_S
    host = _host([(0, 5, ref), (50, 55, ref)])
    assert host.measure(5, 50) == pytest.approx((45e-9, 45e-9))


def test_measure_refuses_an_interval_outside_the_kernel_runs():
    host = _host([(0, 5, 0.01), (50, 55, 0.01)])
    with pytest.raises(ValueError):
        host.measure(60, 70)


def test_running_takes_kernel_runs_around_the_block():
    host = hostspeed.HostClock()
    with host.running():
        pass
    assert len(host.kernel_s) >= 2
    assert host.starts == sorted(host.starts)
