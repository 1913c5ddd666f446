"""Benchmark and comparison harnesses.

Three studies, each emitting plain CSV:
- gating speed: candidate-query-plus-cost time, integral-image path vs
  scoring every pair, across growing track/detection counts;
- fill quality: per-frame IoU against hidden ground truth for the
  three-pass gap filler vs coasting on inertia alone;
- window policy: MOTA of the adaptive reconnection window vs a fixed
  window across a sweep of window caps, on a scenario with camera sweep
  and a delayed look-alike newcomer.
"""

from __future__ import annotations

import csv
import dataclasses
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import TrackerConfig
from .evaluation import evaluate, trajectories_from_tracks
from .gating import GRID_CELLS, CellGrid, fully_connected_cost, gated_cost
from .geometry import BoundingBox, iou
from .kalman import MotionParams
from .pipeline import Tracker
from .reconnect import fill_fragment, inertia_fragment
from .synth import SyntheticScenario, generate, handoff_scenario, turn_gap_case
from .tracks import TrackRecord


class BenchError(Exception):
    """An inline correctness check failed during a benchmark."""


@dataclass
class GatingRow:
    k: int
    gated_seconds: float
    full_seconds: float
    ratio: float


@dataclass
class FillRow:
    scenario: int
    frame_offset: int
    fill_iou: float
    inertia_iou: float


@dataclass
class SweepRow:
    l_max: float
    mota_dynamic: float
    mota_fixed: float


def write_csv(rows: list, path: str | Path) -> None:
    if not rows:
        raise ValueError("nothing to write")
    names = [f.name for f in dataclasses.fields(rows[0])]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in rows:
            writer.writerow([getattr(row, n) for n in names])


def _random_boxes(
    rng: np.random.Generator, k: int, width: float, height: float
) -> list[BoundingBox]:
    # Crowd-density sizing: frames packed with many targets mean small
    # far-field pedestrians, not full-height ones.
    w = rng.uniform(24, 72, size=k)
    h = rng.uniform(48, 144, size=k)
    cx = rng.uniform(0, width, size=k)
    cy = rng.uniform(0, height, size=k)
    return [
        BoundingBox(cx[i] - w[i] / 2, cy[i] - h[i] / 2, cx[i] + w[i] / 2, cy[i] + h[i] / 2)
        for i in range(k)
    ]


def _check_same_pairs(a, b, k: int) -> None:
    if not (
        np.array_equal(a.rows, b.rows)
        and np.array_equal(a.cols, b.cols)
        and np.array_equal(a.costs, b.costs)
    ):
        raise BenchError(f"admissible sets diverged at K={k}")


def bench_gating(
    counts: list[int],
    seed: int = 0,
    frame_size: tuple[float, float] = (1920.0, 1080.0),
    config: TrackerConfig | None = None,
    reps: int | None = None,
) -> list[GatingRow]:
    """Mean per-frame time of building the admissible cost matrix, both
    paths, with equal track and detection counts. Both paths are checked
    to produce identical admissible pairs before timing starts."""
    config = config or TrackerConfig()
    grid = CellGrid(*GRID_CELLS, frame_size[0], frame_size[1])
    rng = np.random.default_rng(seed)
    rows: list[GatingRow] = []
    for k in counts:
        if k <= 0:
            raise ValueError("counts must be positive")
        tracks = _random_boxes(rng, k, frame_size[0], frame_size[1])
        dets = _random_boxes(rng, k, frame_size[0], frame_size[1])

        _check_same_pairs(
            gated_cost(tracks, dets, grid, config),
            fully_connected_cost(tracks, dets, config),
            k,
        )

        n_reps = reps or max(10, min(60, 20000 // k))
        gated_time, full_time = _time_means(
            [
                lambda: gated_cost(tracks, dets, grid, config),
                lambda: fully_connected_cost(tracks, dets, config),
            ],
            n_reps,
        )
        rows.append(GatingRow(k, gated_time, full_time, full_time / gated_time))
    return rows


def _time_means(fns, reps: int, warmup: int = 3) -> list[float]:
    """Trimmed mean run time of each function. The functions take turns
    within every repetition, so a change in host speed reaches all of
    them alike instead of whichever happened to be timed then."""
    for _ in range(warmup):
        for fn in fns:
            fn()
    samples: list[list[float]] = [[] for _ in fns]
    for _ in range(reps):
        for fn, times in zip(fns, samples):
            # Untimed first: straight after another function's large
            # arrays a call ran ~40% slower than after its own.
            fn()
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
    # Trimmed mean: drop the slowest quarter to shed scheduler noise.
    means = []
    for times in samples:
        times.sort()
        kept = times[: max(1, (3 * len(times)) // 4)]
        means.append(sum(kept) / len(kept))
    return means


def bench_filling(
    n_scenarios: int = 20,
    seed: int = 0,
) -> list[FillRow]:
    """Per-frame IoU against hidden ground truth for the gap filler and
    the inertia baseline, over seeded direction-change scenarios."""
    params = MotionParams()
    rows: list[FillRow] = []
    for i in range(n_scenarios):
        request, gap_truth = turn_gap_case(seed + i, params)
        filled = fill_fragment(request, params)
        coasted = inertia_fragment(request, params)
        for f in sorted(gap_truth):
            rows.append(
                FillRow(
                    scenario=i,
                    frame_offset=f - request.frame_a,
                    fill_iou=iou(filled[f], gap_truth[f]),
                    inertia_iou=iou(coasted[f], gap_truth[f]),
                )
            )
    return rows


def fill_means(rows: list[FillRow]) -> list[tuple[int, float, float]]:
    """Per-scenario (index, mean fill IoU, mean inertia IoU)."""
    by_scenario: dict[int, list[FillRow]] = {}
    for row in rows:
        by_scenario.setdefault(row.scenario, []).append(row)
    out = []
    for idx in sorted(by_scenario):
        group = by_scenario[idx]
        out.append(
            (
                idx,
                sum(r.fill_iou for r in group) / len(group),
                sum(r.inertia_iou for r in group) / len(group),
            )
        )
    return out


def run_scenario(
    scenario: SyntheticScenario,
    config: TrackerConfig,
) -> list[TrackRecord]:
    """Feed a generated scenario through a fresh tracker and finalize."""
    tracker = Tracker(config=config, frame_size=scenario.frame_size)
    for packet in scenario.packets():
        tracker.step(packet)
    return tracker.finalize()


def window_sweep(
    l_values: list[float] = (30.0, 60.0, 90.0, 120.0),
    seed: int = 0,
) -> list[SweepRow]:
    """MOTA under the adaptive window vs a fixed window as the cap grows.

    Short caps expire the stale track either way; long fixed caps leave
    it alive to swallow the newcomer, while the adaptive window stays
    short under the sweeping camera."""
    scenario = generate(handoff_scenario(), seed)
    rows: list[SweepRow] = []
    for l_max in l_values:
        motas = []
        for fixed in (False, True):
            config = TrackerConfig(l_max=float(l_max), fixed_window=fixed)
            tracks = run_scenario(scenario, config)
            report = evaluate(
                trajectories_from_tracks(tracks), scenario.ground_truth
            )
            motas.append(report.mota)
        rows.append(SweepRow(float(l_max), motas[0], motas[1]))
    return rows
