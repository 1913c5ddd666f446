"""CLEAR-MOT evaluation: MOTA, FP/FN, identity switches, and IDF1.

Each side's boxes on the frames both sides share go into one frame
table, and one IoU matrix per block of frames serves both metrics.
Per frame, a target keeps last frame's hypothesis while their overlap
stays at or above the threshold (continuity preference); the remaining
boxes are matched by minimum-cost assignment on 1 - IoU restricted to
pairs at or above the threshold. A frame with boxes on one side only
matches nothing, so FP and FN are the box totals less the matches. IDF1
comes from one global trajectory-level assignment maximizing per-frame
co-occurrence; over several sequences it is computed from the summed
counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .assignment import km_solve
from .gating import GatedCost
from .geometry import BoundingBox, iou_matrix

Trajectories = dict[int, dict[int, BoundingBox]]

# Upper bound on the same-frame GT x hypothesis pairs scored in one numpy
# IoU pass: large enough that per-call overhead vanishes on
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
    total_hyp = sum(len(h) for h in hypotheses.values())

    matches, ids, idtp = _shared_frame_counts(
        hypotheses, ground_truth, iou_match_threshold
    )
    fp, fn = total_hyp - matches, total_gt - matches
    return EvalReport(
        1.0 - (fp + fn + ids) / total_gt,
        _idf1(idtp, total_gt, total_hyp),
        fp, fn, ids, total_gt, matches,
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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The boxes on the sorted `shared` frames as (F, K, 4) rows padded
    with NaN, the (F, K) id positions beside them, and the (F,) count of
    boxes on each frame. A frame's boxes fill its first columns in
    ascending id order. Boxes on other frames are left out; K is the most
    boxes any shared frame holds."""
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
    return table, ids, per_row


def _shared_frame_counts(
    hypotheses: Trajectories, ground_truth: Trajectories, threshold: float
) -> tuple[int, int, int]:
    """CLEAR-MOT matches and identity switches, and IDF1's ID true
    positives, from one IoU pass over the frames both sides have boxes on.

    Per frame, a GT id keeps last frame's hypothesis while their IoU is at
    or above `threshold`; GT ids claim in ascending order and the first
    claim wins. The other boxes are matched by `km_solve` on 1 - IoU over
    the pairs at or above `threshold`. IDTP is the most co-occurring
    frames over one-to-one GT/hypothesis id matchings (Ristani et al.,
    2016), where a pair co-occurs on a frame with IoU at or above
    `threshold`."""
    gt_rows = _box_rows(ground_truth)
    hyp_rows = _box_rows(hypotheses)
    shared = np.intersect1d(gt_rows[0], hyp_rows[0])
    if len(shared) == 0:
        return 0, 0, 0
    g_boxes, g_ids, g_count = _frame_table(*gt_rows, shared)
    h_boxes, h_ids, h_count = _frame_table(*hyp_rows, shared)

    n_hyp = len(hypotheses)
    mapping: dict[int, int] = {}  # GT id position -> last matched hyp position
    matches = ids = 0
    hits = []
    step = max(1, _IOU_BLOCK_PAIRS // (g_ids.shape[1] * h_ids.shape[1]))
    for lo in range(0, len(shared), step):
        block = slice(lo, lo + step)
        overlaps = iou_matrix(g_boxes[block], h_boxes[block])
        # NaN padding compares false, so only real same-frame pairs count.
        hit = overlaps >= threshold
        f, gi, hi = np.nonzero(hit)
        hits.append(g_ids[block][f, gi] * n_hyp + h_ids[block][f, hi])

        # The continuity step stays in Python over the mask: per-frame
        # numpy calls cost more than they save on frames of a few boxes.
        for frame_iou, frame_hit, gids, hids, n_g, n_h in zip(
            overlaps, hit, g_ids[block].tolist(), h_ids[block].tolist(),
            g_count[block].tolist(), h_count[block].tolist(),
        ):
            column = {hid: c for c, hid in enumerate(hids[:n_h])}
            used: set[int] = set()
            left_g = []
            for c, gid in enumerate(gids[:n_g]):
                hc = column.get(mapping.get(gid))
                if hc is not None and hc not in used and frame_hit[c, hc]:
                    used.add(hc)
                else:
                    left_g.append(c)
            matches += len(used)
            left_h = [c for c in range(n_h) if c not in used]
            if not (left_g and left_h):
                continue
            sub = frame_iou[np.ix_(left_g, left_h)]
            rows, cols = np.nonzero(sub >= threshold)
            cost = GatedCost(
                len(left_g), len(left_h), rows, cols, 1.0 - sub[rows, cols]
            )
            for r, c in km_solve(cost).pairs:
                gid, hid = gids[left_g[r]], hids[left_h[c]]
                if mapping.get(gid, hid) != hid:
                    ids += 1
                mapping[gid] = hid
                matches += 1

    counts = np.bincount(
        np.concatenate(hits), minlength=len(ground_truth) * n_hyp
    ).reshape(len(ground_truth), n_hyp)
    rows, cols = linear_sum_assignment(counts, maximize=True)
    return matches, ids, int(counts[rows, cols].sum())


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
