"""Output checks: the tracker's results against the oracles and against
properties the method guarantees. Each function returns True when the
output passes; none of them reads a stored copy of earlier output."""

from __future__ import annotations

import bisect
from collections import Counter

import numpy as np

import oracles

FILL_CONFIDENCE = -1.0
# MOT files carry 2 decimals; allow the rounding plus float noise.
MOT_ROUNDING = 0.005 + 1e-6


def _array(boxes) -> np.ndarray:
    return np.array([[b.x1, b.y1, b.x2, b.y2] for b in boxes], dtype=np.float64).reshape(-1, 4)


def gating_frame(args, cost) -> bool:
    """The admitted pairs and their costs equal all-pairs IoU >= gate."""
    track_boxes, det_boxes, config = args[0], args[1], args[-1]
    rows, cols, costs = oracles.admissible_pairs(
        _array(track_boxes), _array(det_boxes), config.iou_gate
    )
    got = {(int(r), int(c)): float(w) for r, c, w in zip(cost.rows, cost.cols, cost.costs)}
    want = {(int(r), int(c)): float(w) for r, c, w in zip(rows, cols, costs)}
    return (
        len(got) == len(cost.rows)
        and got.keys() == want.keys()
        and all(abs(got[k] - want[k]) <= 1e-12 for k in want)
    )


def assignment_frame(args, assignment) -> bool:
    """km_solve's matching is a valid matching over admissible pairs with
    the oracle's size and total cost, and its leftovers are the rest."""
    cost = args[0]
    admissible = {(int(r), int(c)): float(w) for r, c, w in zip(cost.rows, cost.cols, cost.costs)}
    pairs = [(int(r), int(c)) for r, c in assignment.pairs]
    rows = [r for r, _ in pairs]
    cols = [c for _, c in pairs]
    if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
        return False
    if any(p not in admissible for p in pairs):
        return False
    if sorted(assignment.unmatched_tracks) != sorted(set(range(cost.n_tracks)) - set(rows)):
        return False
    if sorted(assignment.unmatched_detections) != sorted(
        set(range(cost.n_detections)) - set(cols)
    ):
        return False
    size, total = oracles.optimal_matching(
        cost.n_tracks, cost.n_detections, cost.rows, cost.cols, cost.costs
    )
    got_total = sum(admissible[p] for p in pairs)
    return len(pairs) == size and abs(got_total - total) <= 1e-9 * max(1, size)


def _backed(track):
    """(frame, box) of the track's detection-backed boxes."""
    return [
        (f, box)
        for f, box in track.history.items()
        if track.confidences[f] != FILL_CONFIDENCE
    ]


def _key(box) -> tuple:
    return (box.x1, box.y1, box.x2, box.y2)


def _detection_counts(packets) -> dict:
    return {p.frame: Counter(_key(d.box) for d in p.detections) for p in packets}


def outputs_are_detections(tracks, packets) -> bool:
    """Every detection-backed output box is an input detection of its frame."""
    inputs = _detection_counts(packets)
    return all(
        _key(box) in inputs.get(f, ()) for track in tracks for f, box in _backed(track)
    )


def detections_used_once(tracks, packets) -> bool:
    """No detection backs boxes of two tracks on one frame."""
    inputs = _detection_counts(packets)
    used: dict[int, Counter] = {}
    for track in tracks:
        for f, box in _backed(track):
            used.setdefault(f, Counter())[_key(box)] += 1
    return all(
        n <= inputs.get(f, Counter())[key]
        for f, counter in used.items()
        for key, n in counter.items()
    )


def fills_inside_gaps(tracks) -> bool:
    """Each filled box has detection-backed boxes of its track both before
    and after it, so it lies strictly inside a gap."""
    for track in tracks:
        backed = sorted(f for f, _ in _backed(track))
        for f, conf in track.confidences.items():
            if conf != FILL_CONFIDENCE:
                continue
            i = bisect.bisect_left(backed, f)
            if i == 0 or i == len(backed) or backed[i] == f:
                return False
    return True


def long_enough(tracks, min_len: int) -> bool:
    return all(len(track.history) >= min_len for track in tracks)


def idf1_agrees(program_idf1: float, counts: tuple) -> bool:
    return abs(program_idf1 - oracles.idf1([counts])) <= 1e-12


def eval_counts_add_up(report, hyp_boxes: int) -> bool:
    """matches + FN = GT boxes and matches + FP = hypothesis boxes."""
    return (
        report.matches + report.fn == report.total_gt
        and report.matches + report.fp == hyp_boxes
    )


def mot_round_trip(tracks, read_back: dict) -> bool:
    """A result file read back holds the written tracks, up to rounding."""
    if {t.track_id for t in tracks} != set(read_back):
        return False
    for track in tracks:
        boxes = read_back[track.track_id]
        if boxes.keys() != track.history.keys():
            return False
        for f, box in track.history.items():
            got = boxes[f]
            deltas = (
                got.x1 - box.x1,
                got.y1 - box.y1,
                (got.x2 - got.x1) - (box.x2 - box.x1),
                (got.y2 - got.y1) - (box.y2 - box.y1),
            )
            if max(abs(d) for d in deltas) > MOT_ROUNDING:
                return False
    return True


def warp_error_px(estimated, true, width: float, height: float) -> float:
    """Largest displacement between two 2x3 warps over the frame corners."""
    corners = np.array([[0.0, 0.0, 1.0], [width, 0.0, 1.0], [0.0, height, 1.0], [width, height, 1.0]])
    diff = (np.asarray(estimated) - np.asarray(true)) @ corners.T
    return float(np.max(np.hypot(diff[0], diff[1])))
