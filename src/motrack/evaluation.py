"""CLEAR-MOT evaluation: MOTA, FP/FN, identity switches, and IDF1.

Per-frame matching keeps an existing target/hypothesis pairing alive
while its overlap stays above the threshold (continuity preference);
the remaining boxes are matched by minimum-cost assignment on 1 - IoU
restricted to pairs at or above the threshold. IDF1 comes from one
global trajectory-level assignment maximizing per-frame co-occurrence;
over several sequences it is computed from the summed counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .assignment import km_solve
from .gating import GatedCost
from .geometry import BoundingBox, boxes_to_array, iou, iou_matrix

Trajectories = dict[int, dict[int, BoundingBox]]

# Upper bound on the same-frame GT x hypothesis pairs scored in one numpy
# pass of the IDF1 count: large enough that per-call overhead vanishes on
# sparse frames, small enough that the temporaries stay a few MiB.
_IOU_BLOCK_PAIRS = 1 << 16


@dataclass
class EvalReport:
    mota: float
    idf1: float
    fp: int
    fn: int
    ids: int
    total_gt: int
    matches: int = 0
    sequences: dict[str, "EvalReport"] = field(default_factory=dict)
    idtp: int = 0  # ID true positives behind idf1
    hyp_boxes: int = 0

    @property
    def idp(self) -> float:
        """ID precision: IDTP over hypothesis boxes."""
        return self.idtp / self.hyp_boxes if self.hyp_boxes else 0.0

    @property
    def idr(self) -> float:
        """ID recall: IDTP over ground-truth boxes."""
        return self.idtp / self.total_gt

    def summary(self) -> str:
        return (
            f"MOTA {self.mota:.4f}  IDF1 {self.idf1:.4f}  "
            f"FP {self.fp}  FN {self.fn}  IDS {self.ids}  GT {self.total_gt}  "
            f"IDP {self.idp:.4f}  IDR {self.idr:.4f}"
        )


def _frame_view(trajectories: Trajectories) -> dict[int, dict[int, BoundingBox]]:
    frames: dict[int, dict[int, BoundingBox]] = {}
    for tid, history in trajectories.items():
        for frame, box in history.items():
            frames.setdefault(frame, {})[tid] = box
    return frames


def _match_frame(
    gt_items: list[tuple[int, BoundingBox]],
    hyp_items: list[tuple[int, BoundingBox]],
    threshold: float,
) -> list[tuple[int, int]]:
    """Optimal IoU matching for one frame's leftover boxes; returns
    (gt_id, hyp_id) pairs."""
    if not gt_items or not hyp_items:
        return []
    g_boxes = boxes_to_array([b for _, b in gt_items])
    h_boxes = boxes_to_array([b for _, b in hyp_items])
    overlaps = iou_matrix(g_boxes, h_boxes)
    rows, cols = np.nonzero(overlaps >= threshold)
    cost = GatedCost(
        len(gt_items), len(hyp_items), rows, cols, 1.0 - overlaps[rows, cols]
    )
    assignment = km_solve(cost)
    return [
        (gt_items[r][0], hyp_items[c][0]) for r, c in assignment.pairs
    ]


def evaluate(
    hypotheses: Trajectories,
    ground_truth: Trajectories,
    iou_match_threshold: float = 0.5,
) -> EvalReport:
    """Score hypothesis trajectories against ground truth.

    `iou_match_threshold` must lie in (0, 1].
    """
    if not 0.0 < iou_match_threshold <= 1.0:  # also rejects NaN
        raise ValueError(
            f"iou_match_threshold must be in (0, 1], got {iou_match_threshold}"
        )
    total_gt = sum(len(h) for h in ground_truth.values())
    if total_gt == 0:
        raise ValueError("ground truth is empty")

    gt_frames = _frame_view(ground_truth)
    hyp_frames = _frame_view(hypotheses)
    frames = sorted(set(gt_frames) | set(hyp_frames))

    mapping: dict[int, int] = {}  # gt id -> last matched hyp id
    fp = fn = ids = matches = 0

    for frame in frames:
        gt_here = gt_frames.get(frame, {})
        hyp_here = hyp_frames.get(frame, {})

        frame_pairs: list[tuple[int, int]] = []
        used_hyp: set[int] = set()
        leftover_gt: list[tuple[int, BoundingBox]] = []
        for gid in sorted(gt_here):
            prev = mapping.get(gid)
            if (
                prev is not None
                and prev in hyp_here
                and prev not in used_hyp
                and iou(gt_here[gid], hyp_here[prev]) >= iou_match_threshold
            ):
                frame_pairs.append((gid, prev))
                used_hyp.add(prev)
            else:
                leftover_gt.append((gid, gt_here[gid]))
        leftover_hyp = [
            (hid, box) for hid, box in sorted(hyp_here.items()) if hid not in used_hyp
        ]

        for gid, hid in _match_frame(leftover_gt, leftover_hyp, iou_match_threshold):
            if gid in mapping and mapping[gid] != hid:
                ids += 1
            frame_pairs.append((gid, hid))
            used_hyp.add(hid)

        for gid, hid in frame_pairs:
            mapping[gid] = hid
        matches += len(frame_pairs)
        fn += len(gt_here) - len(frame_pairs)
        fp += len(hyp_here) - len(frame_pairs)

    mota = 1.0 - (fp + fn + ids) / total_gt
    total_hyp = sum(len(h) for h in hypotheses.values())
    idtp = _idtp(hypotheses, ground_truth, iou_match_threshold)
    return EvalReport(
        mota, _idf1(idtp, total_gt, total_hyp), fp, fn, ids, total_gt, matches,
        idtp=idtp, hyp_boxes=total_hyp,
    )


def _idf1(idtp: int, total_gt: int, total_hyp: int) -> float:
    return 2.0 * idtp / (total_gt + total_hyp)


def _box_rows(
    trajectories: Trajectories,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every box as its frame, the position of its id in sorted id order,
    and its (x1, y1, x2, y2) row."""
    ids = sorted(trajectories)
    frames = np.fromiter(
        (f for tid in ids for f in trajectories[tid]), dtype=np.int64
    )
    positions = np.repeat(np.arange(len(ids)), [len(trajectories[t]) for t in ids])
    boxes = np.array(
        [(b.x1, b.y1, b.x2, b.y2) for tid in ids for b in trajectories[tid].values()],
        dtype=np.float64,
    ).reshape(-1, 4)
    return frames, positions, boxes


def _frame_table(
    frames: np.ndarray, positions: np.ndarray, boxes: np.ndarray, shared: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The boxes on the sorted `shared` frames as (F, K, 4) rows padded
    with NaN, and the (F, K) id positions beside them. Boxes on other
    frames are left out; K is the most boxes any shared frame holds."""
    rows = np.searchsorted(shared, frames)
    keep = shared[np.minimum(rows, len(shared) - 1)] == frames
    rows, positions, boxes = rows[keep], positions[keep], boxes[keep]
    # Each box takes the next free column of its frame's row.
    order = np.argsort(rows, kind="stable")
    per_row = np.bincount(rows, minlength=len(shared))
    starts = np.cumsum(per_row) - per_row
    cols = np.empty_like(rows)
    cols[order] = np.arange(len(rows)) - starts[rows[order]]

    width = int(per_row.max())
    table = np.full((len(shared), width, 4), np.nan)
    table[rows, cols] = boxes
    ids = np.zeros((len(shared), width), dtype=np.int64)
    ids[rows, cols] = positions
    return table, ids


def _idtp(
    hypotheses: Trajectories, ground_truth: Trajectories, threshold: float
) -> int:
    """ID true positives: the most co-occurring frames over one-to-one
    GT/hypothesis id matchings (Ristani et al., 2016). A pair co-occurs on
    a frame where both have a box with IoU at or above `threshold`."""
    gt_rows = _box_rows(ground_truth)
    hyp_rows = _box_rows(hypotheses)
    shared = np.intersect1d(gt_rows[0], hyp_rows[0])
    if len(shared) == 0:
        return 0
    g_boxes, g_ids = _frame_table(*gt_rows, shared)
    h_boxes, h_ids = _frame_table(*hyp_rows, shared)

    n_hyp = len(hypotheses)
    step = max(1, _IOU_BLOCK_PAIRS // (g_ids.shape[1] * h_ids.shape[1]))
    hits = []
    for lo in range(0, len(shared), step):
        block = slice(lo, lo + step)
        # NaN padding compares false, so only real same-frame pairs count.
        f, gi, hi = np.nonzero(iou_matrix(g_boxes[block], h_boxes[block]) >= threshold)
        hits.append(g_ids[block][f, gi] * n_hyp + h_ids[block][f, hi])
    counts = np.bincount(
        np.concatenate(hits), minlength=len(ground_truth) * n_hyp
    ).reshape(len(ground_truth), n_hyp)
    rows, cols = linear_sum_assignment(counts, maximize=True)
    return int(counts[rows, cols].sum())


def trajectories_from_tracks(tracks) -> Trajectories:
    """Adapt finalized TrackRecords to evaluation input form."""
    return {t.track_id: dict(t.history) for t in tracks}


def evaluate_many(
    pairs: dict[str, tuple[Trajectories, Trajectories]],
    iou_match_threshold: float = 0.5,
) -> EvalReport:
    """Micro-averaged report over named sequences: every metric, IDF1
    included, comes from counts summed over the sequences."""
    if not pairs:
        raise ValueError("no sequences to evaluate")
    sequences = {
        name: evaluate(h, g, iou_match_threshold) for name, (h, g) in pairs.items()
    }
    fp = sum(r.fp for r in sequences.values())
    fn = sum(r.fn for r in sequences.values())
    ids = sum(r.ids for r in sequences.values())
    total = sum(r.total_gt for r in sequences.values())
    matches = sum(r.matches for r in sequences.values())
    idtp = sum(r.idtp for r in sequences.values())
    hyp_boxes = sum(r.hyp_boxes for r in sequences.values())
    report = EvalReport(
        1.0 - (fp + fn + ids) / total,
        _idf1(idtp, total, hyp_boxes),
        fp, fn, ids, total, matches,
        idtp=idtp, hyp_boxes=hyp_boxes,
    )
    report.sequences = sequences
    return report
