"""Seeded scenario specs for the three workloads.

Every random choice comes from a generator seeded with the workload seed
and the sequence index, so a seed names one fixed set of inputs. Seeds
change where targets are, how they move and which of them turn or hide,
but not how many there are, how many turn or hide, or how fast the
camera moves: those set how much work a frame holds, and a benchmark
whose work changed with the seed would measure the seed.
"""

from __future__ import annotations

import numpy as np

from motrack.geometry import BoundingBox
from motrack.synth import CameraSpec, ScenarioSpec, TargetSpec

DEFAULT_SEED = 1
# Never used while the benchmark or a change is tuned; confirm gains on it.
HELD_OUT_SEED = 20201

CROWD_SEQUENCES = 4
CROWD_TARGETS = 150
CROWD_FRAMES = 25
CHURN_FRAMES = 800
CHURN_LIVE = 18
CHURN_MEAN_LIFE = 100
ALIGNED_SEQUENCES = 4
ALIGNED_FRAMES = 25
ALIGNED_TARGETS = 4
# Largest corner displacement, in pixels, between an estimated warp and
# the generator's warp for the alignment to count as correct. Estimates
# on these frames stayed at or below 0.55 px on seeds 1-8.
WARP_TOLERANCE_PX = 1.0


def rng_for(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def sub_seed(seed: int, index: int) -> int:
    return int(rng_for(seed, 1000 + index).integers(0, 2**31 - 1))


def _oscillating_camera(rng, vx: float, vy: float) -> CameraSpec:
    """A camera sweeping back and forth at a fixed speed. The seed picks
    only the directions and the sweep period: camera speed sets the
    reconnection window and so moves every score, and drawing it per
    seed would make the seed, not the program, decide the figures."""
    return CameraSpec(
        kind="oscillate",
        vx=float(rng.choice([-vx, vx])),
        vy=float(rng.choice([-vy, vy])),
        period=int(rng.integers(18, 25)),
    )


def _flags(rng, n: int, share: float) -> np.ndarray:
    """Exactly round(share * n) of n targets, chosen by the seed."""
    return rng.permutation(n) < round(share * n)


def _target(rng, start, end, width, height, size_w, size_h, speed, occ_len, occluded, turning):
    w = float(rng.uniform(*size_w))
    h = float(rng.uniform(*size_h))
    turns = []
    if turning and end - start > 20:
        turns.append(
            (
                int(rng.integers(start + 5, end - 5)),
                float(rng.uniform(-speed[0], speed[0])),
                float(rng.uniform(-speed[1], speed[1])),
            )
        )
    occlusions = []
    if occluded and end - start > occ_len[1] + 16:
        length = int(rng.integers(*occ_len))
        a = int(rng.integers(start + 8, end - length - 6))
        occlusions.append((a, a + length - 1))
    return TargetSpec(
        start_frame=start,
        end_frame=end,
        x=float(rng.uniform(w / 2 + 40, width - w / 2 - 40)),
        y=float(rng.uniform(h / 2 + 40, height - h / 2 - 40)),
        vx=float(rng.uniform(-speed[0], speed[0])),
        vy=float(rng.uniform(-speed[1], speed[1])),
        width=w,
        height=h,
        turns=turns,
        occlusions=occlusions,
    )


def crowd_spec(seed: int, index: int) -> ScenarioSpec:
    """150 targets alive on every frame of a 4K sequence."""
    rng = rng_for(seed, index)
    width, height, frames = 3840.0, 2160.0, CROWD_FRAMES
    occluded = _flags(rng, CROWD_TARGETS, 0.3)
    turning = _flags(rng, CROWD_TARGETS, 0.3)
    targets = [
        _target(rng, 1, frames, width, height, (40, 90), (80, 160), (5, 3), (5, 16), occluded[i], turning[i])
        for i in range(CROWD_TARGETS)
    ]
    return ScenarioSpec(
        name=f"crowd-{seed}-{index}",
        width=width,
        height=height,
        frame_count=frames,
        targets=targets,
        camera=_oscillating_camera(rng, 3.5, 0.5),
        pos_noise=1.0,
        size_noise=0.02,
        drop_prob=0.02,
    )


def churn_spec(seed: int) -> ScenarioSpec:
    """A long 1080p stream where targets keep arriving and leaving.

    CHURN_LIVE targets are alive at frame 1; after that one target
    arrives in every slot of CHURN_MEAN_LIFE / CHURN_LIVE frames, at a
    seeded offset inside the slot. Lifetimes are a seeded shuffle of
    evenly spaced values averaging CHURN_MEAN_LIFE frames, so about
    CHURN_LIVE targets are alive at a time on every seed and the seed
    does not change how much work the stream holds.
    """
    rng = rng_for(seed, 0)
    width, height, frames = 1920.0, 1080.0, CHURN_FRAMES
    slot = CHURN_MEAN_LIFE / CHURN_LIVE
    arrivals = int((frames - 1) / slot)
    starts = [1] * CHURN_LIVE + [
        2 + int(i * slot + rng.uniform(0.0, slot)) for i in range(arrivals)
    ]
    lives = np.concatenate(
        [
            rng.permutation(np.linspace(20, 2 * CHURN_MEAN_LIFE - 40, CHURN_LIVE)),
            rng.permutation(np.linspace(40, 2 * CHURN_MEAN_LIFE - 40, arrivals)),
        ]
    )
    n = len(starts)
    occluded = _flags(rng, n, 0.6)
    turning = _flags(rng, n, 0.3)
    targets = [
        _target(
            rng,
            start,
            min(frames, start + int(life) - 1),
            width,
            height,
            (40, 90),
            (80, 160),
            (5, 3),
            (5, 21),
            occluded[i],
            turning[i],
        )
        for i, (start, life) in enumerate(zip(starts, lives))
    ]
    return ScenarioSpec(
        name=f"churn-{seed}",
        width=width,
        height=height,
        frame_count=frames,
        targets=targets,
        camera=_oscillating_camera(rng, 4.0, 0.8),
        pos_noise=1.0,
        size_noise=0.02,
        drop_prob=0.05,
    )


def aligned_spec(seed: int, index: int) -> ScenarioSpec:
    """A handful of small targets over textured frames; the tracker has
    to estimate the camera motion from the images.

    Each target keeps to its own horizontal lane and is never hidden, so
    the workload's scores depend on the alignment, not on crossings or
    gap fills that a few targets make rare on one seed and common on the
    next.
    """
    rng = rng_for(seed, index)
    width, height, frames = 256.0, 192.0, ALIGNED_FRAMES
    lane = (height - 80.0) / ALIGNED_TARGETS
    targets = []
    for i in range(ALIGNED_TARGETS):
        w = float(rng.uniform(14, 24))
        h = float(rng.uniform(0.6, 0.85) * lane)
        targets.append(
            TargetSpec(
                start_frame=1,
                end_frame=frames,
                x=float(rng.uniform(60, width - 60)),
                y=40.0 + (i + 0.5) * lane,
                vx=float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5)),
                vy=0.0,
                width=w,
                height=h,
            )
        )
    return ScenarioSpec(
        name=f"aligned-{seed}-{index}",
        width=width,
        height=height,
        frame_count=frames,
        targets=targets,
        camera=_oscillating_camera(rng, 2.5, 0.6),
        pos_noise=0.5,
        size_noise=0.01,
    )


def aggregate_case() -> dict:
    """Two fixed sequences whose GT-weighted mean IDF1 differs from the
    micro IDF1: 'a' is tracked perfectly (IDF1 1), 'b' has its target
    tracked plus 20 false boxes (IDF1 0.5). Weighted mean 0.75, micro
    IDF1 2*20/(20+40) = 0.667. Independent of the workload seed."""
    frames = range(1, 11)
    box = BoundingBox(10.0, 10.0, 50.0, 90.0)
    track = {f: box for f in frames}
    false_a = {f: BoundingBox(200.0, 10.0, 240.0, 90.0) for f in frames}
    false_b = {f: BoundingBox(400.0, 10.0, 440.0, 90.0) for f in frames}
    return {
        "a": ({1: dict(track)}, {1: dict(track)}),
        "b": ({1: dict(track), 2: false_a, 3: false_b}, {1: dict(track)}),
    }
