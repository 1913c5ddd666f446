"""Track bookkeeping: lifecycle status, committed history, and the miss
count of a track that coasts without detections.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .geometry import BoundingBox
from .kalman import KalmanState

# Confidence recorded for boxes synthesized by gap filling, mirroring the
# conventional sentinel in MOT result files.
FILL_CONFIDENCE = -1.0


class TrackStatus(enum.Enum):
    ACTIVE = "active"
    DEACTIVATED = "deactivated"
    FINISHED = "finished"


@dataclass
class TrackRecord:
    """One target's full record.

    `history` holds committed boxes only. Coasting predictions never
    enter it: reconnection commits filled boxes for the gap instead, and
    expiry commits nothing. `snapshot` is the posterior motion state at
    the last committed frame before deactivation; the gap filler restarts
    from it.
    """

    track_id: int
    state: KalmanState
    start_frame: int
    status: TrackStatus = TrackStatus.ACTIVE
    history: dict[int, BoundingBox] = field(default_factory=dict)
    confidences: dict[int, float] = field(default_factory=dict)
    filled_frames: set[int] = field(default_factory=set)
    deactivated_len: int = 0
    window: float = 0.0
    deactivation_frame: int | None = None
    snapshot: KalmanState | None = None

    def __post_init__(self) -> None:
        if self.track_id <= 0:
            raise ValueError("track ids are positive")

    @property
    def last_frame(self) -> int:
        return max(self.history) if self.history else self.start_frame - 1

    def commit(self, frame: int, box: BoundingBox, confidence: float) -> None:
        if self.status is TrackStatus.FINISHED:
            raise ValueError(f"track {self.track_id} is finished, history frozen")
        if frame in self.history:
            raise ValueError(f"track {self.track_id} already has frame {frame}")
        self.history[frame] = box
        self.confidences[frame] = confidence

    def commit_fill(self, frame: int, box: BoundingBox) -> None:
        self.commit(frame, box, FILL_CONFIDENCE)
        self.filled_frames.add(frame)

    def deactivate(self, frame_a: int, snapshot: KalmanState) -> None:
        if self.status is not TrackStatus.ACTIVE:
            raise ValueError("only active tracks deactivate")
        self.status = TrackStatus.DEACTIVATED
        self.deactivation_frame = frame_a
        self.snapshot = snapshot
        self.deactivated_len = 0

    def reactivate(self) -> None:
        if self.status is not TrackStatus.DEACTIVATED:
            raise ValueError("only deactivated tracks reactivate")
        self.status = TrackStatus.ACTIVE
        self.deactivated_len = 0
        self.deactivation_frame = None
        self.snapshot = None

    def finish(self) -> None:
        self.status = TrackStatus.FINISHED

    def hold(self) -> None:
        """Count one more frame coasted without a detection."""
        if self.status is not TrackStatus.DEACTIVATED:
            raise ValueError("holds apply to deactivated tracks only")
        self.deactivated_len += 1

    def sorted_frames(self) -> list[int]:
        return sorted(self.history)

    def committed_length(self) -> int:
        return len(self.history)

    def normalize_order(self) -> None:
        """Rewrite the maps in frame order (late fills insert out of order)."""
        self.history = {f: self.history[f] for f in sorted(self.history)}
        self.confidences = {f: self.confidences[f] for f in sorted(self.confidences)}

    def is_contiguous(self) -> bool:
        frames = self.sorted_frames()
        return not frames or frames[-1] - frames[0] + 1 == len(frames)
