"""Patient reconnection of coasting tracks.

Two pieces: a dynamic window that shrinks the allowed miss count as
camera motion or target speed grows, and a gap filler that synthesizes
boxes for the missed frames once a track re-associates. The filler runs
three passes: linear initialization, a forward filtered pass from the
state where the track lost its detection, and a backward filtered pass
trained on the boxes observed just after re-association. The backward
posteriors are the committed fragment; the forward pass shapes them
through its pseudo-observations.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

from .alignment import AffineWarp, invert_warp
from .config import TrackerConfig
from .geometry import BoundingBox, from_center_form, to_center_form
from .kalman import (
    DegenerateStateError,
    KalmanState,
    MotionParams,
    iml_predict,
    km_init,
    km_predict,
    km_update,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ReconnectionPolicy:
    """Window cap and the blend weight between camera and target motion."""

    l_max: float = 120.0
    alpha: float = 0.95

    def __post_init__(self) -> None:
        if self.l_max <= 0:
            raise ValueError("l_max must be positive")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")

    @classmethod
    def from_config(cls, config: TrackerConfig) -> "ReconnectionPolicy":
        return cls(config.l_max, config.alpha)


def reconnection_window(i_cam: float, v_norm: float, policy: ReconnectionPolicy) -> float:
    """Allowed consecutive misses before a coasting track is dropped.

    Equals l_max when the scene is static and the target slow; decays
    exponentially in the blended motion magnitude. Camera intensity is
    clamped to [0, 1] here because the raw metric can exceed 1 for
    pathological warps.
    """
    if not 0.0 <= v_norm <= 1.0:
        raise ValueError("v_norm must lie in [0, 1]")
    i_cam = min(max(i_cam, 0.0), 1.0)
    blend = policy.alpha * i_cam + (1.0 - policy.alpha) * v_norm
    return policy.l_max * math.exp(-blend)


@dataclass
class FillRequest:
    """Everything needed to fill the gap of one reconnected track.

    frame_a: last frame with a committed box before the gap.
    frame_b: frame of re-association.
    state_a: posterior motion state at frame_a.
    post_b_tracklet: committed boxes at frames frame_b, frame_b+1, ...
      (grown by the pipeline as they arrive, capped at the configured
      tracklet length).
    warps: camera warp per frame for frames frame_a+1 .. frame_b.
    """

    track_id: int
    frame_a: int
    frame_b: int
    box_a: BoundingBox
    box_b: BoundingBox
    state_a: KalmanState
    post_b_tracklet: list[BoundingBox]
    warps: dict[int, AffineWarp] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.frame_b <= self.frame_a + 1:
            raise ValueError("a fill needs at least one missing frame")
        if not self.post_b_tracklet:
            raise ValueError("post_b_tracklet must hold the box at frame_b")

    def missing_frames(self) -> range:
        return range(self.frame_a + 1, self.frame_b)

    def warp_at(self, frame: int) -> AffineWarp:
        return self.warps.get(frame, AffineWarp.identity())


def _linear_boxes(req: FillRequest) -> dict[int, BoundingBox]:
    ca = to_center_form(req.box_a)
    cb = to_center_form(req.box_b)
    span = req.frame_b - req.frame_a
    out: dict[int, BoundingBox] = {}
    for f in req.missing_frames():
        s = (f - req.frame_a) / span
        vals = [a + s * (b - a) for a, b in zip(ca, cb)]
        out[f] = from_center_form(*vals)
    return out


def _safe_box(
    state: KalmanState, fallback: BoundingBox, frame: int, pass_name: str
) -> BoundingBox:
    try:
        return state.box()
    except ValueError:
        logger.warning(
            "%s fill pass degenerate at frame %d; using linear box", pass_name, frame
        )
        return fallback


def fill_fragment(
    req: FillRequest, params: MotionParams | None = None
) -> dict[int, BoundingBox]:
    """Boxes for the missing frames, keyed by frame, in ascending order."""
    params = params or MotionParams()
    linear = _linear_boxes(req)

    # Forward pass: replay the gap from the pre-gap state, pulling each
    # prediction toward the linear box for that frame.
    forward: dict[int, BoundingBox] = {}
    state = req.state_a.copy()
    for f in req.missing_frames():
        try:
            state = iml_predict(state, req.warp_at(f), params)
            state = km_update(state, linear[f], params)
            forward[f] = _safe_box(state, linear[f], f, "forward")
        except DegenerateStateError:
            logger.warning("forward fill pass reset at frame %d", f)
            forward[f] = linear[f]
            state = km_init(linear[f], params)

    # Backward pass: train a fresh model on the post-gap boxes in reverse
    # time (implicitly negating velocities), then sweep the gap from the
    # far end pulling toward the forward-pass boxes.
    tracklet = list(req.post_b_tracklet)
    state = km_init(tracklet[-1], params)
    for box in tracklet[-2::-1]:
        state = km_predict(state, params)
        state = km_update(state, box, params)

    backward: dict[int, BoundingBox] = {}
    for f in range(req.frame_b - 1, req.frame_a, -1):
        try:
            state = iml_predict(state, invert_warp(req.warp_at(f + 1)), params)
            state = km_update(state, forward[f], params)
            backward[f] = _safe_box(state, linear[f], f, "backward")
        except DegenerateStateError:
            logger.warning("backward fill pass reset at frame %d", f)
            backward[f] = linear[f]
            state = km_init(linear[f], params)

    return {f: backward[f] for f in req.missing_frames()}


def inertia_fragment(
    req: FillRequest, params: MotionParams | None = None
) -> dict[int, BoundingBox]:
    """Reference baseline: coast the pre-gap state through the gap with
    no pseudo-observations at all (what holding alone would commit)."""
    params = params or MotionParams()
    linear = _linear_boxes(req)
    out: dict[int, BoundingBox] = {}
    state = req.state_a.copy()
    for f in req.missing_frames():
        try:
            state = iml_predict(state, req.warp_at(f), params)
            out[f] = _safe_box(state, linear[f], f, "inertia")
        except DegenerateStateError:
            out[f] = linear[f]
            state = km_init(linear[f], params)
    return out

