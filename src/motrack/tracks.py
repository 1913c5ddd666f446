"""Track bookkeeping: lifecycle status and committed history.

A record carries no motion state while it is live: the tracker keeps
that in its track table, one row per unfinished track. The miss count of
a coasting track is not stored either. A deactivated track commits
nothing until it reconnects, and fills land only before its last frame,
so `last_frame` is where its gap starts and `frame - last_frame - 1` is
how many frames it has missed.
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
    expiry commits nothing. `last_frame` is the latest committed frame.
    `snapshot` is the posterior motion state at `last_frame`, taken on
    deactivation; the gap filler restarts from it.
    """

    track_id: int
    start_frame: int
    status: TrackStatus = TrackStatus.ACTIVE
    history: dict[int, BoundingBox] = field(default_factory=dict)
    confidences: dict[int, float] = field(default_factory=dict)
    snapshot: KalmanState | None = None
    last_frame: int = field(init=False)

    def __post_init__(self) -> None:
        if self.track_id <= 0:
            raise ValueError("track ids are positive")
        self.last_frame = max(self.history, default=self.start_frame - 1)

    def commit(self, frame: int, box: BoundingBox, confidence: float) -> None:
        if self.status is TrackStatus.FINISHED:
            raise ValueError(f"track {self.track_id} is finished, history frozen")
        if frame in self.history:
            raise ValueError(f"track {self.track_id} already has frame {frame}")
        self.history[frame] = box
        self.confidences[frame] = confidence
        if frame > self.last_frame:
            self.last_frame = frame

    def commit_fill(self, frame: int, box: BoundingBox) -> None:
        self.commit(frame, box, FILL_CONFIDENCE)

    def deactivate(self, snapshot: KalmanState) -> None:
        if self.status is not TrackStatus.ACTIVE:
            raise ValueError("only active tracks deactivate")
        self.status = TrackStatus.DEACTIVATED
        self.snapshot = snapshot

    def reactivate(self) -> None:
        if self.status is not TrackStatus.DEACTIVATED:
            raise ValueError("only deactivated tracks reactivate")
        self.status = TrackStatus.ACTIVE
        self.snapshot = None

    def finish(self) -> None:
        self.status = TrackStatus.FINISHED

    def committed_length(self) -> int:
        return len(self.history)

    def normalize_order(self) -> None:
        """Rewrite the maps in frame order (late fills insert out of order)."""
        self.history = {f: self.history[f] for f in sorted(self.history)}
        self.confidences = {f: self.confidences[f] for f in sorted(self.confidences)}
