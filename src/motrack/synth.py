"""Synthetic multi-target scenario generation.

Produces gap-free ground truth, detection streams with controllable
occlusion windows and noise, a camera warp schedule, and (optionally)
rendered textured frames so the alignment stage has real input. All
randomness flows through one seeded generator, so a (spec, seed) pair
is fully reproducible.

Coordinates are image coordinates: a panning camera shifts every target
by the per-frame camera delta, exactly like scenery in a real pan.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
from scipy import ndimage

from .alignment import AffineWarp
from .geometry import BoundingBox, Detection, from_center_form
from .kalman import KalmanState, MotionParams, km_init, km_predict, km_update
from .pipeline import FramePacket
from .reconnect import FillRequest


@dataclass
class TargetSpec:
    """One target: center start position, per-frame velocity, box size,
    optional velocity changes and occlusion windows (inclusive)."""

    start_frame: int
    end_frame: int
    x: float
    y: float
    vx: float
    vy: float
    width: float
    height: float
    turns: list[tuple[int, float, float]] = field(default_factory=list)
    occlusions: list[tuple[int, int]] = field(default_factory=list)
    bounce: bool = True


@dataclass
class CameraSpec:
    """Camera motion schedule: static, constant pan, or a pan whose sign
    flips every `period` frames (bounded sweep)."""

    kind: str = "static"
    vx: float = 0.0
    vy: float = 0.0
    period: int = 25

    def delta(self, frame: int) -> tuple[float, float]:
        if self.kind == "static":
            return (0.0, 0.0)
        if self.kind == "pan":
            return (self.vx, self.vy)
        if self.kind == "oscillate":
            sign = 1.0 if ((frame // self.period) % 2 == 0) else -1.0
            return (sign * self.vx, sign * self.vy)
        raise ValueError(f"unknown camera kind {self.kind!r}")


@dataclass
class ScenarioSpec:
    name: str = "scenario"
    width: float = 960.0
    height: float = 540.0
    frame_count: int = 80
    targets: list[TargetSpec] = field(default_factory=list)
    camera: CameraSpec = field(default_factory=CameraSpec)
    pos_noise: float = 0.0
    size_noise: float = 0.0
    drop_prob: float = 0.0
    margin: float = 30.0
    confidence: float = 1.0

    def validate(self) -> None:
        if self.frame_count < 1:
            raise ValueError("frame_count must be >= 1")
        for t in self.targets:
            if t.width >= self.width or t.height >= self.height:
                raise ValueError(
                    f"target {t.width}x{t.height} does not fit the "
                    f"{self.width}x{self.height} frame"
                )
            if not 1 <= t.start_frame <= t.end_frame <= self.frame_count:
                raise ValueError("target lifetime outside the sequence")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        data = json.loads(text)
        targets = [
            TargetSpec(
                **{
                    **t,
                    "turns": [tuple(x) for x in t.get("turns", [])],
                    "occlusions": [tuple(x) for x in t.get("occlusions", [])],
                }
            )
            for t in data.pop("targets", [])
        ]
        camera = CameraSpec(**data.pop("camera", {}))
        return cls(targets=targets, camera=camera, **data)


@dataclass
class SyntheticScenario:
    """Generated data: ground truth, detections, warps, camera offsets,
    and which frames each target was hidden on."""

    spec: ScenarioSpec
    ground_truth: dict[int, dict[int, BoundingBox]]
    detections: dict[int, list[Detection]]
    warps: dict[int, AffineWarp]
    offsets: dict[int, tuple[float, float]]
    hidden: dict[int, set[int]]

    @property
    def frame_size(self) -> tuple[float, float]:
        return (self.spec.width, self.spec.height)

    def packets(
        self, with_warps: bool = True, images: dict[int, np.ndarray] | None = None
    ) -> list[FramePacket]:
        out = []
        for f in range(1, self.spec.frame_count + 1):
            out.append(
                FramePacket(
                    frame=f,
                    detections=self.detections.get(f, []),
                    image=None if images is None else images[f],
                    warp=self.warps[f] if with_warps else None,
                )
            )
        return out

    def total_gt_boxes(self) -> int:
        return sum(len(h) for h in self.ground_truth.values())


def _clamp_box(
    cx: float, cy: float, w: float, h: float, width: float, height: float
) -> BoundingBox:
    cx = min(max(cx, w / 2), width - w / 2)
    cy = min(max(cy, h / 2), height - h / 2)
    return from_center_form(cx, cy, w, h)


def generate(spec: ScenarioSpec, seed: int = 0) -> SyntheticScenario:
    spec.validate()
    rng = np.random.default_rng(seed)

    offsets: dict[int, tuple[float, float]] = {1: (0.0, 0.0)}
    warps: dict[int, AffineWarp] = {1: AffineWarp.identity()}
    for f in range(2, spec.frame_count + 1):
        dx, dy = spec.camera.delta(f)
        ox, oy = offsets[f - 1]
        offsets[f] = (ox + dx, oy + dy)
        # Static scenery moves opposite to the camera in image coords.
        warps[f] = AffineWarp.translation(-dx, -dy)

    ground_truth: dict[int, dict[int, BoundingBox]] = {}
    detections: dict[int, list[Detection]] = {f: [] for f in range(1, spec.frame_count + 1)}
    hidden: dict[int, set[int]] = {}

    for tid, target in enumerate(spec.targets, start=1):
        turns = {int(f): (vx, vy) for f, vx, vy in target.turns}
        occluded = set()
        for a, b in target.occlusions:
            occluded.update(range(a, b + 1))
        cx, cy = target.x, target.y
        vx, vy = target.vx, target.vy
        w, h = target.width, target.height
        history: dict[int, BoundingBox] = {}
        hidden_frames: set[int] = set()
        for f in range(target.start_frame, target.end_frame + 1):
            if f in turns:
                vx, vy = turns[f]
            if f > target.start_frame:
                dx, dy = spec.camera.delta(f)
                cx += vx - dx
                cy += vy - dy
            if target.bounce:
                if cx - w / 2 < spec.margin and vx < 0:
                    vx = abs(vx)
                if cx + w / 2 > spec.width - spec.margin and vx > 0:
                    vx = -abs(vx)
                if cy - h / 2 < spec.margin and vy < 0:
                    vy = abs(vy)
                if cy + h / 2 > spec.height - spec.margin and vy > 0:
                    vy = -abs(vy)
            box = _clamp_box(cx, cy, w, h, spec.width, spec.height)
            history[f] = box
            if f in occluded or (spec.drop_prob > 0 and rng.random() < spec.drop_prob):
                hidden_frames.add(f)
                continue
            ncx, ncy = box.center
            nw, nh = w, h
            if spec.pos_noise > 0:
                ncx += rng.normal(0.0, spec.pos_noise)
                ncy += rng.normal(0.0, spec.pos_noise)
            if spec.size_noise > 0:
                nw = max(8.0, nw * (1.0 + rng.normal(0.0, spec.size_noise)))
                nh = max(8.0, nh * (1.0 + rng.normal(0.0, spec.size_noise)))
            det_box = _clamp_box(ncx, ncy, nw, nh, spec.width, spec.height)
            detections[f].append(Detection(det_box, spec.confidence, f))
        ground_truth[tid] = history
        hidden[tid] = hidden_frames

    return SyntheticScenario(spec, ground_truth, detections, warps, offsets, hidden)


# -- texture rendering -------------------------------------------------


def band_limited_texture(
    rng: np.random.Generator, height: int, width: int, smooth: float = 2.5
) -> np.ndarray:
    """Seeded smooth noise with gradient content everywhere, in [30, 225]."""
    noise = ndimage.gaussian_filter(rng.standard_normal((height, width)), smooth)
    lo, hi = noise.min(), noise.max()
    return 30.0 + 195.0 * (noise - lo) / (hi - lo)


def render_frames(
    scenario: SyntheticScenario, seed: int = 0
) -> dict[int, np.ndarray]:
    """Render each frame: background texture shifted by the cumulative
    camera offset, with visible targets drawn as flat gray patches."""
    spec = scenario.spec
    w, h = int(spec.width), int(spec.height)
    max_off = max(
        [1.0]
        + [abs(o[0]) for o in scenario.offsets.values()]
        + [abs(o[1]) for o in scenario.offsets.values()]
    )
    pad = int(math.ceil(max_off)) + 8
    rng = np.random.default_rng(seed)
    base = band_limited_texture(rng, h + 2 * pad, w + 2 * pad)

    ys, xs = np.mgrid[0:h, 0:w]
    frames: dict[int, np.ndarray] = {}
    for f in range(1, spec.frame_count + 1):
        ox, oy = scenario.offsets[f]
        img = ndimage.map_coordinates(
            base,
            np.vstack([(ys + oy + pad).reshape(-1), (xs + ox + pad).reshape(-1)]),
            order=1,
            mode="nearest",
        ).reshape(h, w)
        for tid, history in scenario.ground_truth.items():
            if f not in history or f in scenario.hidden[tid]:
                continue
            box = history[f]
            x1, y1 = max(int(box.x1), 0), max(int(box.y1), 0)
            x2, y2 = min(int(box.x2), w), min(int(box.y2), h)
            if x2 > x1 and y2 > y1:
                img[y1:y2, x1:x2] = 60.0 + (tid * 37) % 150
        frames[f] = np.clip(np.rint(img), 0, 255).astype(np.uint8)
    return frames


# -- purpose-built cases for the harnesses ----------------------------


def random_scenario(
    seed: int,
    n_targets: int | None = None,
    frame_count: int | None = None,
    width: float = 960.0,
    height: float = 540.0,
) -> ScenarioSpec:
    """A varied stress scenario: bouncing targets, random occlusion
    windows and turns, a randomly chosen camera schedule, mild noise."""
    rng = np.random.default_rng(seed)
    n = n_targets or int(rng.integers(5, 13))
    frames = frame_count or int(rng.integers(60, 101))
    targets = []
    for _ in range(n):
        tw = float(rng.uniform(40, 90))
        th = float(rng.uniform(80, 160))
        start = 1 if rng.random() < 0.7 else int(rng.integers(1, frames // 2))
        end = frames if rng.random() < 0.7 else int(rng.integers(frames // 2, frames + 1))
        turns = []
        if rng.random() < 0.4:
            tf = int(rng.integers(start + 5, max(start + 6, end - 5)))
            turns.append(
                (tf, float(rng.uniform(-5, 5)), float(rng.uniform(-3, 3)))
            )
        occlusions = []
        if rng.random() < 0.5 and end - start > 30:
            length = int(rng.integers(8, 22))
            # A short life and a long window leave no room after the
            # margins; the window then opens at the earliest frame.
            a = int(rng.integers(start + 8, max(start + 9, end - length - 4)))
            occlusions.append((a, a + length - 1))
        targets.append(
            TargetSpec(
                start_frame=start,
                end_frame=end,
                x=float(rng.uniform(120, width - 120)),
                y=float(rng.uniform(120, height - 120)),
                vx=float(rng.uniform(-5, 5)),
                vy=float(rng.uniform(-3, 3)),
                width=tw,
                height=th,
                turns=turns,
                occlusions=occlusions,
            )
        )
    kind = ["static", "pan", "oscillate"][int(rng.integers(0, 3))]
    camera = CameraSpec(
        kind=kind,
        vx=float(rng.uniform(1.0, 5.0)) if kind != "static" else 0.0,
        vy=float(rng.uniform(-1.0, 1.0)) if kind == "oscillate" else 0.0,
        period=int(rng.integers(15, 30)),
    )
    return ScenarioSpec(
        name=f"random-{seed}",
        width=width,
        height=height,
        frame_count=frames,
        targets=targets,
        camera=camera,
        pos_noise=float(rng.uniform(0.0, 1.5)),
        size_noise=float(rng.uniform(0.0, 0.03)),
        drop_prob=float(rng.uniform(0.0, 0.05)),
    )


def occlusion_scenario(width: float = 960.0, height: float = 540.0) -> ScenarioSpec:
    """Five constant-velocity targets in separate lanes, each hidden for
    a staggered 30-frame window; static camera; noise-free."""
    targets = []
    for i in range(5):
        start_occ = 20 + i * 22
        targets.append(
            TargetSpec(
                start_frame=1,
                end_frame=150,
                x=120.0 + i * 40.0,
                y=70.0 + i * 100.0,
                vx=2.0 + 0.5 * i,
                vy=0.0,
                width=48.0,
                height=84.0,
                occlusions=[(start_occ, start_occ + 29)],
            )
        )
    return ScenarioSpec(
        name="occlusion-5x30",
        width=width,
        height=height,
        frame_count=150,
        targets=targets,
    )


def handoff_scenario() -> ScenarioSpec:
    """A reconnection trap for the window-policy sweep.

    Target 1 disappears for good at frame 40. Target 5 appears at frame
    100 exactly where target 1's coasted prediction will be by then, and
    keeps moving the same way. The camera sweeps side to side the whole
    time, so an adaptive window expires target 1 before the newcomer
    shows up, while a long fixed window keeps it alive; the stale track
    then captures the newcomer and commits dozens of interpolated boxes
    through empty frames.
    """
    width, height, frames = 960.0, 540.0, 150
    camera = CameraSpec(kind="oscillate", vx=8.0, vy=0.0, period=25)
    v1x, v1y = 1.5, 0.0
    x1, y1 = 260.0, 140.0
    end_a = 40
    start_b = 100

    # Replay target 1's image-coordinate trajectory and extrapolate it
    # through the gap, mirroring the tracker's coasting rule
    # (position += velocity - camera delta).
    cx, cy = x1, y1
    for f in range(2, start_b + 1):
        dx, dy = camera.delta(f)
        cx += v1x - dx
        cy += v1y - dy

    lanes = []
    for i in range(3):
        lanes.append(
            TargetSpec(
                start_frame=1,
                end_frame=frames,
                x=220.0 + 180.0 * i,
                y=320.0 + 80.0 * i,
                vx=2.0 - 1.2 * i,
                vy=0.0,
                width=56.0,
                height=70.0,
                bounce=True,
            )
        )
    target_one = TargetSpec(
        start_frame=1,
        end_frame=end_a,
        x=x1,
        y=y1,
        vx=v1x,
        vy=v1y,
        width=70.0,
        height=110.0,
        bounce=False,
    )
    newcomer = TargetSpec(
        start_frame=start_b,
        end_frame=frames,
        x=cx,
        y=cy,
        vx=v1x,
        vy=v1y,
        width=70.0,
        height=110.0,
        bounce=False,
    )
    return ScenarioSpec(
        name="handoff-trap",
        width=width,
        height=height,
        frame_count=frames,
        targets=[target_one, *lanes, newcomer],
        camera=camera,
        margin=120.0,
    )


def turn_gap_case(
    seed: int, params: MotionParams | None = None
) -> tuple[FillRequest, dict[int, BoundingBox]]:
    """A target that changes direction while its detections are missing.

    Returns the fill request a tracker would build on reconnection (the
    motion state trained on the pre-gap boxes, the post-gap tracklet,
    identity warps) plus the hidden ground-truth boxes of the gap.
    """
    params = params or MotionParams()
    rng = np.random.default_rng(seed)
    w = float(rng.uniform(50, 70))
    h = float(rng.uniform(100, 140))
    speed = float(rng.uniform(4.0, 7.0))
    heading = float(rng.uniform(0, 2 * math.pi))
    turn = float(rng.uniform(math.radians(50), math.radians(110)))
    if rng.random() < 0.5:
        turn = -turn
    v1 = (speed * math.cos(heading), speed * math.sin(heading))
    v2 = (
        speed * math.cos(heading + turn),
        speed * math.sin(heading + turn),
    )

    pre_frames = 15
    gap = int(rng.integers(14, 25))
    frame_a = pre_frames
    frame_b = frame_a + gap
    # The direction change lands early in the gap, as when a target is
    # occluded right while turning: coasting is then wrong for most of
    # the gap, while an endpoint-anchored fill stays close to the path.
    turn_frame = frame_a + int(rng.integers(1, max(2, gap // 4)))
    last = frame_b + 2

    cx, cy = 2000.0, 2000.0  # far from any boundary effect
    gt: dict[int, BoundingBox] = {1: from_center_form(cx, cy, w, h)}
    for f in range(2, last + 1):
        vx, vy = v1 if f <= turn_frame else v2
        cx += vx
        cy += vy
        gt[f] = from_center_form(cx, cy, w, h)

    state: KalmanState = km_init(gt[1], params)
    for f in range(2, frame_a + 1):
        state = km_predict(state, params)
        state = km_update(state, gt[f], params)

    request = FillRequest(
        track_id=1,
        frame_a=frame_a,
        frame_b=frame_b,
        box_a=gt[frame_a],
        box_b=gt[frame_b],
        state_a=state,
        post_b_tracklet=[gt[frame_b], gt[frame_b + 1], gt[frame_b + 2]],
    )
    gap_truth = {f: gt[f] for f in range(frame_a + 1, frame_b)}
    return request, gap_truth


def textured_pair(
    seed: int,
    size: int = 64,
    max_translation: float = 10.0,
    max_rotation_deg: float = 5.0,
) -> tuple[np.ndarray, np.ndarray, AffineWarp]:
    """Two views of one seeded texture related by a known rigid warp.

    Both views are sampled from a larger texture, so no border content is
    invented. Returns (prev, cur, warp) with warp mapping prev to cur.
    """
    rng = np.random.default_rng(seed)
    margin = 32
    big = band_limited_texture(rng, size + 2 * margin, size + 2 * margin, smooth=1.8)

    theta = math.radians(float(rng.uniform(-max_rotation_deg, max_rotation_deg)))
    tx = float(rng.uniform(-max_translation, max_translation))
    ty = float(rng.uniform(-max_translation, max_translation))
    c = (size - 1) / 2.0
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    rot = np.array([[cos_t, -sin_t], [sin_t, cos_t]])
    offset = np.array([tx, ty]) + np.array([c, c]) - rot @ np.array([c, c])
    warp = AffineWarp(np.hstack([rot, offset[:, None]]))

    prev = big[margin : margin + size, margin : margin + size].copy()

    inv_lin = np.linalg.inv(rot)
    inv_off = -inv_lin @ offset
    ys, xs = np.mgrid[0:size, 0:size]
    pts = np.stack([xs.reshape(-1), ys.reshape(-1)], axis=1).astype(float)
    src = pts @ inv_lin.T + inv_off
    cur = ndimage.map_coordinates(
        big,
        np.vstack([src[:, 1] + margin, src[:, 0] + margin]),
        order=1,
        mode="nearest",
    ).reshape(size, size)
    return prev, cur, warp
