"""Optimal linear assignment over the gated cost matrix.

Semantics: among matchings that avoid forbidden pairs, maximize the
number of matched pairs, then minimize total cost. scipy's
`linear_sum_assignment` solves the problem restricted to the tracks and
detections that have an admissible pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .gating import GatedCost


@dataclass
class Assignment:
    pairs: list[tuple[int, int]] = field(default_factory=list)
    unmatched_tracks: list[int] = field(default_factory=list)
    unmatched_detections: list[int] = field(default_factory=list)


def km_solve(cost: GatedCost) -> Assignment:
    """Assign tracks to detections on the admissible pairs of `cost`.

    Returns an optimal matching: as many pairs as possible, then the
    least total cost. When several matchings tie, which one is returned
    is unspecified. Pairs come in ascending track order; leftovers are
    ascending. Raises ValueError on non-finite costs.

    Every pair not listed costs 1 + sum(|costs|). A full assignment of
    the restricted matrix always has min(rows, columns) entries, so one
    more admissible pair removes one such entry, which saves more than
    any difference in admissible costs can add back: the solver
    maximizes the match count first and minimizes cost second.
    """
    t, k = cost.n_tracks, cost.n_detections
    if not np.isfinite(cost.costs).all():
        raise ValueError("assignment costs must be finite")
    if cost.pair_count() == 0:
        return Assignment([], list(range(t)), list(range(k)))

    rows, row_at = np.unique(cost.rows, return_inverse=True)
    cols, col_at = np.unique(cost.cols, return_inverse=True)
    forbidden = 1.0 + float(np.abs(cost.costs).sum())
    dense = np.full((len(rows), len(cols)), forbidden)
    dense[row_at, col_at] = cost.costs
    r, c = linear_sum_assignment(dense)
    kept = dense[r, c] < forbidden
    matched_rows = rows[r[kept]]
    matched_cols = cols[c[kept]]

    free_tracks = np.ones(t, dtype=bool)
    free_tracks[matched_rows] = False
    free_detections = np.ones(k, dtype=bool)
    free_detections[matched_cols] = False
    return Assignment(
        list(zip(matched_rows.tolist(), matched_cols.tolist())),
        np.flatnonzero(free_tracks).tolist(),
        np.flatnonzero(free_detections).tolist(),
    )
