"""Independent reference answers for the benchmark's output checks.

None of these call motrack's solver or evaluator. They work on plain
numpy arrays of corner-form boxes (x1, y1, x2, y2) and on scipy's
matching routines, so a fault in motrack's gating, assignment or
evaluation code shows up as a disagreement instead of being copied.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching


def iou_table(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of every box in `a` (N, 4) against every box in `b` (M, 4).

    The arithmetic follows the definition in one fixed order,
    inter / ((area_a + area_b) - inter) with area = (x2 - x1) * (y2 - y1),
    so a pair lying exactly on a threshold compares the same way here as
    in any implementation that evaluates the same expression.
    """
    a = np.asarray(a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 4)
    iw = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
    ih = np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1])
    inter = np.where((iw > 0) & (ih > 0), iw * ih, 0.0)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    return inter / (area_a[:, None] + area_b[None, :] - inter)


def admissible_pairs(
    tracks: np.ndarray, detections: np.ndarray, gate: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every (track, detection) pair with IoU >= gate, scored all-pairs.

    Returns (rows, cols, costs) in row-major order with cost = 1 - IoU.
    """
    if len(tracks) == 0 or len(detections) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.empty(0)
    overlaps = iou_table(tracks, detections)
    rows, cols = np.nonzero(overlaps >= gate)
    return rows, cols, 1.0 - overlaps[rows, cols]


def optimal_matching(
    n_rows: int, n_cols: int, rows, cols, costs
) -> tuple[int, float]:
    """Size and total cost of the best matching over the listed pairs.

    Best means: as many pairs as possible, then the least total cost.
    The size comes from `maximum_bipartite_matching`. The cost comes from
    `linear_sum_assignment` on a dense matrix whose unlisted entries cost
    more than all listed costs together, so trading one listed pair for
    an unlisted one never pays. The two routes must agree on the size.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    costs = np.asarray(costs, dtype=np.float64)
    if n_rows == 0 or n_cols == 0 or len(rows) == 0:
        return 0, 0.0
    graph = csr_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(n_rows, n_cols)
    )
    size = int(np.count_nonzero(maximum_bipartite_matching(graph, perm_type="column") >= 0))
    forbidden = 1.0 + float(np.abs(costs).sum())
    dense = np.full((n_rows, n_cols), forbidden)
    dense[rows, cols] = costs
    r, c = linear_sum_assignment(dense)
    chosen = dense[r, c]
    allowed = chosen < forbidden
    if int(allowed.sum()) != size:
        raise ArithmeticError(
            f"oracle disagreement: matching size {size} vs {int(allowed.sum())}"
        )
    return size, float(chosen[allowed].sum())


def _frame_index(trajectories: dict) -> tuple[list, dict]:
    """Sorted ids and {frame: (id positions, (n, 4) boxes)}."""
    ids = sorted(trajectories)
    rows: dict[int, list] = {}
    for pos, tid in enumerate(ids):
        for frame, box in trajectories[tid].items():
            rows.setdefault(frame, []).append((pos, box.x1, box.y1, box.x2, box.y2))
    frames = {}
    for frame, items in rows.items():
        arr = np.array(items, dtype=np.float64)
        frames[frame] = (arr[:, 0].astype(np.int64), arr[:, 1:])
    return ids, frames


def idf1_counts(
    ground_truth: dict, hypotheses: dict, threshold: float = 0.5
) -> tuple[int, int, int]:
    """(IDTP, GT boxes, hypothesis boxes) after Ristani et al. (2016).

    Trajectories are {id: {frame: box}} with boxes exposing x1, y1, x2, y2.
    A GT/hypothesis id pair co-occurs on a frame where both have a box and
    their IoU is at least `threshold`; IDTP is the largest total
    co-occurrence over one-to-one id matchings.
    """
    gt_ids, gt_frames = _frame_index(ground_truth)
    hyp_ids, hyp_frames = _frame_index(hypotheses)
    n_gt = sum(len(h) for h in ground_truth.values())
    n_hyp = sum(len(h) for h in hypotheses.values())
    if not gt_ids or not hyp_ids:
        return 0, n_gt, n_hyp
    together = np.zeros((len(gt_ids), len(hyp_ids)), dtype=np.int64)
    for frame, (g_pos, g_boxes) in gt_frames.items():
        if frame not in hyp_frames:
            continue
        h_pos, h_boxes = hyp_frames[frame]
        r, c = np.nonzero(iou_table(g_boxes, h_boxes) >= threshold)
        np.add.at(together, (g_pos[r], h_pos[c]), 1)
    r, c = linear_sum_assignment(together, maximize=True)
    return int(together[r, c].sum()), n_gt, n_hyp


def idf1(counts: list[tuple[int, int, int]]) -> float:
    """Micro IDF1 over sequences: 2 sum(IDTP) / (sum(GT) + sum(Hyp))."""
    idtp = sum(c[0] for c in counts)
    boxes = sum(c[1] + c[2] for c in counts)
    return 2.0 * idtp / boxes if boxes else 0.0
