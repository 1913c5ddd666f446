from itertools import permutations

import numpy as np
import pytest

from motrack.assignment import Assignment, km_solve
from motrack.gating import FORBIDDEN, GatedCost


def from_dense(mat) -> GatedCost:
    """GatedCost with every entry below FORBIDDEN admissible."""
    mat = np.asarray(mat, dtype=float)
    rows, cols = np.nonzero(mat < FORBIDDEN)
    return GatedCost(mat.shape[0], mat.shape[1], rows, cols, mat[rows, cols])


def random_cost(rng) -> GatedCost:
    t = int(rng.integers(1, 8))
    k = int(rng.integers(1, 8))
    mat = np.full((t, k), FORBIDDEN)
    admit = rng.random((t, k)) < rng.uniform(0.2, 0.9)
    mat[admit] = rng.random((t, k))[admit]
    return from_dense(mat)


def assignment_total(cost: GatedCost, assignment: Assignment) -> float:
    """Total cost over the matched pairs (0 for an empty matching)."""
    dense = cost.dense()
    return float(sum(dense[r, c] for r, c in assignment.pairs))


def brute_force_solve(cost: GatedCost) -> tuple[float, int]:
    """Exhaustive reference: enumerate all matchings over admissible pairs,
    maximize cardinality then minimize total cost. Returns (total, size).
    Exponential; for small verification instances only.
    """
    t = cost.n_tracks
    admissible: dict[int, list[tuple[int, float]]] = {r: [] for r in range(t)}
    for r, c, w in zip(cost.rows, cost.cols, cost.costs):
        admissible[int(r)].append((int(c), float(w)))

    best: tuple[int, float] = (-1, np.inf)  # (cardinality, total)

    def recurse(row: int, used_cols: set[int], size: int, total: float) -> None:
        nonlocal best
        if row == t:
            if size > best[0] or (size == best[0] and total < best[1]):
                best = (size, total)
            return
        recurse(row + 1, used_cols, size, total)
        for c, w in admissible[row]:
            if c not in used_cols:
                used_cols.add(c)
                recurse(row + 1, used_cols, size + 1, total + w)
                used_cols.remove(c)

    recurse(0, set(), 0, 0.0)
    return best[1], best[0]


# ------------------------------------------------------------------- km_solve


def test_single_admissible_pair():
    a = km_solve(from_dense([[0.4]]))
    assert a.pairs == [(0, 0)]
    assert a.unmatched_tracks == [] and a.unmatched_detections == []


def test_known_total_two_by_two():
    cost = from_dense([[1.0, 2.0], [2.0, 4.0]])
    a = km_solve(cost)
    assert sorted(a.pairs) == [(0, 1), (1, 0)]
    assert assignment_total(cost, a) == pytest.approx(4.0)


def test_solve_dense_single_cell():
    # A zero cost prices forbidden pairs at exactly 1; the one cell still matches.
    a = km_solve(from_dense([[0.0]]))
    assert a.pairs == [(0, 0)]
    assert a.unmatched_tracks == [] and a.unmatched_detections == []


def test_solve_dense_known_two_by_two():
    # (0,1)+(1,0) totals 4, beating the diagonal's 5; pairs in track order.
    a = km_solve(from_dense([[1.0, 2.0], [2.0, 4.0]]))
    assert a.pairs == [(0, 1), (1, 0)]


def test_forbidden_pairs_never_matched():
    cost = from_dense([[0.1, FORBIDDEN], [0.2, FORBIDDEN]])
    a = km_solve(cost)
    assert a.pairs == [(0, 0)]
    assert a.unmatched_tracks == [1]
    assert a.unmatched_detections == [1]


def test_cardinality_beats_cheapness():
    # A second pair is taken even though (0,0) alone would cost nothing.
    cost = from_dense([[0.0, 0.9], [FORBIDDEN, 0.95]])
    a = km_solve(cost)
    assert sorted(a.pairs) == [(0, 0), (1, 1)]


def test_no_admissible_pairs_leaves_everyone_unmatched():
    cost = GatedCost(3, 2, np.empty(0, int), np.empty(0, int), np.empty(0))
    a = km_solve(cost)
    assert a.pairs == []
    assert a.unmatched_tracks == [0, 1, 2]
    assert a.unmatched_detections == [0, 1]


def test_matches_brute_force_on_small_instances():
    rng = np.random.default_rng(11)
    for _ in range(150):
        cost = random_cost(rng)
        a = km_solve(cost)
        best_total, best_size = brute_force_solve(cost)
        assert len(a.pairs) == best_size
        assert assignment_total(cost, a) == pytest.approx(best_total, abs=1e-9)


def test_constant_shift_keeps_the_matching():
    rng = np.random.default_rng(3)
    for _ in range(40):
        t, k = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        mat = rng.random((t, k))
        shifted = mat + 7.5
        assert km_solve(from_dense(mat)).pairs == km_solve(from_dense(shifted)).pairs


def test_deterministic_resolution_of_ties():
    mat = np.array([[0.5, 0.5], [0.5, 0.5]])
    first = km_solve(from_dense(mat))
    for _ in range(5):
        assert km_solve(from_dense(mat)).pairs == first.pairs


def test_partition_accounting():
    rng = np.random.default_rng(29)
    for _ in range(80):
        cost = random_cost(rng)
        a = km_solve(cost)
        tracks = sorted([t for t, _ in a.pairs] + a.unmatched_tracks)
        dets = sorted([d for _, d in a.pairs] + a.unmatched_detections)
        assert tracks == list(range(cost.n_tracks))
        assert dets == list(range(cost.n_detections))


def test_assignment_total_empty_matching():
    cost = from_dense([[0.3]])
    assert assignment_total(cost, Assignment()) == 0.0


def test_rectangular_leaves_worst_detection():
    a = km_solve(from_dense([[5.0, 1.0, 9.0], [4.0, 8.0, 2.0]]))
    assert a.pairs == [(0, 1), (1, 2)]
    assert a.unmatched_detections == [0]


def test_more_tracks_than_detections():
    a = km_solve(from_dense([[0.5], [0.1], [0.3]]))
    assert a.pairs == [(1, 0)]
    assert a.unmatched_tracks == [0, 2]
    assert a.unmatched_detections == []


def test_empty_problem():
    for t, k in [(0, 4), (3, 0), (0, 0)]:
        a = km_solve(GatedCost(t, k, np.empty(0, int), np.empty(0, int), np.empty(0)))
        assert a.pairs == []
        assert a.unmatched_tracks == list(range(t))
        assert a.unmatched_detections == list(range(k))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_rejects_non_finite_costs(bad):
    cost = GatedCost(1, 2, np.array([0, 0]), np.array([0, 1]), np.array([0.5, bad]))
    with pytest.raises(ValueError):
        km_solve(cost)


def test_dense_square_matches_permutation_search():
    rng = np.random.default_rng(7)
    for _ in range(60):
        n = int(rng.integers(1, 6))
        mat = rng.random((n, n))
        a = km_solve(from_dense(mat))
        assert len(a.pairs) == n
        best = min(sum(mat[i, p[i]] for i in range(n)) for p in permutations(range(n)))
        assert sum(mat[r, c] for r, c in a.pairs) == pytest.approx(best, abs=1e-12)


def test_negative_costs_keep_cardinality_first():
    # (0, 0) alone totals -5, yet the one two-pair matching (total -2) wins.
    a = km_solve(from_dense([[-5.0, -1.0], [FORBIDDEN, 3.0]]))
    assert a.pairs == [(0, 0), (1, 1)]
