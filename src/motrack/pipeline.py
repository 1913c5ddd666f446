"""Per-frame tracking loop.

The tracker keeps one track table: `live`, the unfinished tracks in
creation order, and the (T, 8) means and (T, 3) covariance terms of
their motion states, row for row. Each step: align the frame against the
previous one (or take a caller supplied warp), coast every row through
the warp in one batch, gate and match detections, update the matched
rows, reconnect or spawn, and age out tracks whose miss count exceeded
their dynamic window. Expired rows leave the table and spawned rows join
it at the end of the step. Boxes for missed frames are committed only
when a track reconnects; a track that dies coasting leaves no trace of
the coast in its output.

Gap fills are deferred: the filler wants the first few boxes observed
after re-association to train its backward pass, so a reconnection
registers a fill request that resolves once that tracklet is complete
(or the track stops being matched, or the sequence ends).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .alignment import (
    MIN_ALIGN_DIM,
    AffineWarp,
    CameraMotionLog,
    EccError,
    EccWorkspace,
    camera_intensity,
    ecc_align,
)
from .config import TrackerConfig
from .gating import GRID_CELLS, CellGrid, fully_connected_cost, gated_cost
from .assignment import km_solve
from .geometry import BoundingBox, Detection, boxes_to_array, centers_to_corners
from .kalman import (
    MEAS_DIM,
    KalmanState,
    MotionParams,
    km_init,
    predict_states,
    update_states,
    velocity_norm,
)

# Not called here since the filter runs on all live tracks at once, but
# kept importable from this module: the benchmark's tracer looks up its
# layer functions by name on `motrack.pipeline`.
from .kalman import iml_predict, km_predict, km_update  # noqa: F401
from .reconnect import FillRequest, ReconnectionPolicy, fill_fragment, reconnection_window
from .tracks import FILL_CONFIDENCE, TrackRecord, TrackStatus

logger = logging.getLogger(__name__)


@dataclass
class FramePacket:
    """Input for one frame: detections, and optionally the grayscale
    image as a (height, width) array (for alignment) or a precomputed
    warp (which wins if set).

    A supplied warp must be finite with an invertible linear part: gap
    fills invert it and the reconnection window reads its camera
    intensity. An image must be 2-D and at least MIN_ALIGN_DIM pixels on
    each side. Both are checked on construction and again by
    `Tracker.step`, so a bad one assigned later is refused too, before
    any tracker state changes."""

    frame: int
    detections: list[Detection]
    image: np.ndarray | None = None
    warp: AffineWarp | None = None

    def __post_init__(self) -> None:
        for det in self.detections:
            if det.frame != self.frame:
                raise ValueError(
                    f"detection frame {det.frame} does not match packet {self.frame}"
                )
        self.check_inputs()

    def check_inputs(self) -> None:
        """Raise ValueError on a bad supplied warp or image."""
        if self.warp is not None:
            if not np.isfinite(self.warp.matrix).all():
                raise ValueError(f"frame {self.frame}: supplied warp is not finite")
            if self.warp.det() == 0.0:
                raise ValueError(f"frame {self.frame}: supplied warp has a singular linear part")
        if self.image is not None:
            shape = np.shape(self.image)
            if len(shape) != 2:
                raise ValueError(f"frame {self.frame}: image must be 2-D, got shape {shape}")
            if min(shape) < MIN_ALIGN_DIM:
                raise ValueError(
                    f"frame {self.frame}: image must be at least {MIN_ALIGN_DIM} px "
                    f"on each side, got shape {shape}"
                )


@dataclass
class FillEvent:
    track_id: int
    frame_a: int
    frame_b: int
    count: int


@dataclass
class FrameEvents:
    frame: int
    matches: list[tuple[int, int]] = field(default_factory=list)
    reconnections: list[int] = field(default_factory=list)
    spawns: list[int] = field(default_factory=list)
    expirations: list[int] = field(default_factory=list)
    fills: list[FillEvent] = field(default_factory=list)
    alignment_fallback: bool = False
    # ECC correlation of this frame's estimated warp; None when the warp
    # was supplied, there was no image pair, or alignment fell back.
    alignment_correlation: float | None = None


@dataclass
class TrackStore:
    """All tracks ever created, the id counter, and the warp log."""

    tracks: dict[int, TrackRecord] = field(default_factory=dict)
    next_id: int = 1
    motion_log: CameraMotionLog = field(default_factory=CameraMotionLog)

    def new_track(self, det: Detection) -> TrackRecord:
        track = TrackRecord(track_id=self.next_id, start_frame=det.frame)
        track.commit(det.frame, det.box, det.confidence)
        self.tracks[track.track_id] = track
        self.next_id += 1
        return track


class Tracker:
    """Stateful engine: feed FramePackets in order, then finalize."""

    def __init__(
        self,
        config: TrackerConfig | None = None,
        frame_size: tuple[float, float] = (1920.0, 1080.0),
    ) -> None:
        self.config = config or TrackerConfig()
        self.motion_params = MotionParams()
        # Alignment scratch memory, reused frame to frame; one per tracker
        # so trackers on different threads never share it.
        self.ecc_workspace = EccWorkspace()
        self.grid = CellGrid(*GRID_CELLS, frame_size[0], frame_size[1])
        self.diagonal = math.hypot(frame_size[0], frame_size[1])
        self.policy = ReconnectionPolicy.from_config(self.config)
        self.store = TrackStore()
        # The track table: the unfinished tracks in creation order, and
        # their motion states row for row.
        self.live: list[TrackRecord] = []
        self.means = np.empty((0, 2 * MEAS_DIM))
        self.cov_terms = np.empty((0, 3))
        self.last_frame: int | None = None
        self.prev_image = None
        self.pending_fills: dict[int, FillRequest] = {}
        self.finalized = False

    # -- warp handling -------------------------------------------------

    def _frame_warp(self, packet: FramePacket, events: FrameEvents) -> AffineWarp:
        if packet.warp is not None:
            self.store.motion_log.record(packet.frame, packet.warp)
            return packet.warp
        if packet.image is None or self.prev_image is None:
            self.store.motion_log.record(packet.frame, AffineWarp.identity())
            return AffineWarp.identity()
        if np.shape(packet.image) != np.shape(self.prev_image):
            return self._alignment_fallback(packet.frame, events, "frame size changed")
        try:
            warp, correlation = ecc_align(
                self.prev_image, packet.image, workspace=self.ecc_workspace
            )
        except EccError as exc:
            return self._alignment_fallback(packet.frame, events, exc)
        events.alignment_correlation = correlation
        self.store.motion_log.record(packet.frame, warp)
        return warp

    def _alignment_fallback(self, frame: int, events: FrameEvents, reason) -> AffineWarp:
        logger.warning("alignment failed at frame %d: %s", frame, reason)
        self.store.motion_log.record_fallback(frame)
        events.alignment_fallback = True
        return AffineWarp.identity()

    # -- fill resolution -----------------------------------------------

    def _resolve_fill(self, track_id: int) -> FillEvent:
        req = self.pending_fills.pop(track_id)
        fragment = fill_fragment(req, self.motion_params)
        track = self.store.tracks[track_id]
        for frame, box in fragment.items():
            track.commit_fill(frame, box)
        return FillEvent(track_id, req.frame_a, req.frame_b, len(fragment))

    # -- main loop ------------------------------------------------------

    def step(self, packet: FramePacket) -> FrameEvents:
        if self.finalized:
            raise ValueError("tracker already finalized")
        if self.last_frame is not None and packet.frame != self.last_frame + 1:
            raise ValueError(
                f"frames must be consecutive: got {packet.frame} after {self.last_frame}"
            )
        # Again here: the packet's warp or image may have been assigned
        # after it was built.
        packet.check_inputs()
        events = FrameEvents(packet.frame)
        frame = packet.frame
        params = self.motion_params

        warp = self._frame_warp(packet, events)
        i_cam = camera_intensity(warp)

        # Coast every row of the table through the warp, all in one batch.
        # `self.means` / `self.cov_terms` keep the posteriors until the
        # step ends: if an active track loses its detection this frame,
        # its posterior row anchors the future fill.
        live = self.live
        means, cov_terms, collapsed = predict_states(self.means, self.cov_terms, warp, params)
        for row in np.flatnonzero(collapsed).tolist():
            logger.warning(
                "warp degenerated track %d at frame %d; coasting without it",
                live[row].track_id,
                frame,
            )
        predictions = [
            BoundingBox(*box) for box in centers_to_corners(means[:, :MEAS_DIM]).tolist()
        ]

        detections = [
            d for d in packet.detections if d.confidence >= self.config.confidence_floor
        ]
        det_boxes = [d.box for d in detections]
        # Positional calls, once per step: the benchmark's tracer swaps
        # these module names for wrappers that take positional arguments.
        if self.config.use_gating:
            cost = gated_cost(predictions, det_boxes, self.grid, self.config)
        else:
            cost = fully_connected_cost(predictions, det_boxes, self.config)
        assignment = km_solve(cost)

        # Update before any track changes, so a DegenerateStateError
        # leaves the table and the records as they were.
        if assignment.pairs:
            rows = [row for row, _ in assignment.pairs]
            observed = boxes_to_array([detections[col].box for _, col in assignment.pairs])
            means[rows], cov_terms[rows] = update_states(
                means[rows], cov_terms[rows], observed, params
            )

        for row, col in assignment.pairs:
            track = live[row]
            det = detections[col]
            events.matches.append((track.track_id, col))
            if track.status is TrackStatus.DEACTIVATED:
                frame_a = track.last_frame
                req = FillRequest(
                    track_id=track.track_id,
                    frame_a=frame_a,
                    frame_b=frame,
                    box_a=track.history[frame_a],
                    box_b=det.box,
                    state_a=track.snapshot,
                    post_b_tracklet=[det.box],
                    warps={
                        f: self.store.motion_log.get(f) for f in range(frame_a + 1, frame + 1)
                    },
                )
                track.reactivate()
                self.pending_fills[track.track_id] = req
                events.reconnections.append(track.track_id)
            elif track.track_id in self.pending_fills:
                req = self.pending_fills[track.track_id]
                req.post_b_tracklet.append(det.box)
                if len(req.post_b_tracklet) >= self.config.backward_tracklet_len:
                    events.fills.append(self._resolve_fill(track.track_id))
            track.commit(frame, det.box, det.confidence)

        for row in assignment.unmatched_tracks:
            track = live[row]
            if track.status is TrackStatus.ACTIVE:
                if track.track_id in self.pending_fills:
                    # The post-reconnection tracklet just broke; fill with
                    # however many boxes it gathered.
                    events.fills.append(self._resolve_fill(track.track_id))
                # Copies, so the snapshot keeps no whole table array alive.
                track.deactivate(
                    KalmanState(self.means[row].copy(), self.cov_terms[row].copy())
                )
            if self.config.fixed_window:
                window = self.policy.l_max
            else:
                v_norm = velocity_norm(means[row], self.diagonal)
                window = reconnection_window(i_cam, v_norm, self.policy)
            if frame - track.last_frame - 1 > window:
                track.finish()
                events.expirations.append(track.track_id)

        if events.expirations:
            kept = [row for row, t in enumerate(live) if t.status is not TrackStatus.FINISHED]
            live = [live[row] for row in kept]
            means, cov_terms = means[kept], cov_terms[kept]
        new = [detections[col] for col in assignment.unmatched_detections]
        if new:
            spawned = [self.store.new_track(det) for det in new]
            states = [km_init(det.box, params) for det in new]
            live = live + spawned
            means = np.concatenate([means, [s.mean for s in states]])
            cov_terms = np.concatenate([cov_terms, [s.cov_terms for s in states]])
            events.spawns.extend(track.track_id for track in spawned)
        self.live, self.means, self.cov_terms = live, means, cov_terms

        self.last_frame = frame
        self.prev_image = packet.image
        return events

    def finalize(self) -> list[TrackRecord]:
        """Close the sequence: resolve outstanding fills, freeze every
        track, drop sub-minimum-length trajectories, and return the rest
        ordered by id with frame-ordered histories. A finalized tracker
        steps no more, so it lets go of its track table and alignment
        buffers."""
        if self.finalized:
            raise ValueError("tracker already finalized")
        for track_id in sorted(self.pending_fills):
            self._resolve_fill(track_id)
        kept: list[TrackRecord] = []
        for track in self.store.tracks.values():
            track.finish()
            if track.committed_length() >= self.config.min_track_len:
                # Only a fill commits out of frame order.
                if FILL_CONFIDENCE in track.confidences.values():
                    track.normalize_order()
                kept.append(track)
        self.finalized = True
        self.live = []
        self.means, self.cov_terms = np.empty((0, 2 * MEAS_DIM)), np.empty((0, 3))
        self.ecc_workspace = EccWorkspace()
        return sorted(kept, key=lambda t: t.track_id)
