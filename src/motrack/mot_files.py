"""MOTChallenge-style comma-separated file I/O.

Record layout: frame,id,x,y,w,h,conf,a,b,c with x,y the top-left corner.
Detection files carry id = -1. Output geometry is rounded to 2 decimal
places; boxes synthesized by gap filling are written with conf = -1 so
they can be told apart from detection-backed boxes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .geometry import BoundingBox, Detection
from .pipeline import FramePacket
from .tracks import TrackRecord


@dataclass(frozen=True)
class MotRecord:
    frame: int
    track_id: int
    x: float
    y: float
    w: float
    h: float
    confidence: float = 1.0
    a: float = -1.0
    b: float = -1.0
    c: float = -1.0

    def __post_init__(self) -> None:
        if self.frame < 1:
            raise ValueError(f"frame must be >= 1, got {self.frame}")
        # Chained comparisons, as in BoundingBox: NaN fails every one.
        inf = math.inf
        if not (
            -inf < self.x < inf and -inf < self.y < inf
            and -inf < self.w < inf and -inf < self.h < inf
        ):
            raise ValueError(f"non-finite box ({self.x}, {self.y}, {self.w}, {self.h})")
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"non-positive box size {self.w}x{self.h}")

    def box(self) -> BoundingBox:
        return BoundingBox(self.x, self.y, self.x + self.w, self.y + self.h)

    def line(self) -> str:
        return (
            f"{self.frame},{self.track_id},{self.x:.2f},{self.y:.2f},"
            f"{self.w:.2f},{self.h:.2f},{self.confidence:.2f},"
            f"{self.a:g},{self.b:g},{self.c:g}"
        )


def read_mot(path: str | Path) -> list[MotRecord]:
    """Parse a MOT text file; malformed lines fail hard with their number."""
    records: list[MotRecord] = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) < 7:
            raise ValueError(f"{path}:{lineno}: expected >= 7 fields, got {len(parts)}")
        try:
            frame = int(float(parts[0]))
            track_id = int(float(parts[1]))
            x, y, w, h, conf = (float(p) for p in parts[2:7])
            extra = [float(p) for p in parts[7:10]]
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
        extra += [-1.0] * (3 - len(extra))
        try:
            records.append(
                MotRecord(frame, track_id, x, y, w, h, conf, *extra)
            )
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return records


def read_detections(path: str | Path) -> list[FramePacket]:
    """Load a detection file into one packet per frame, 1..max_frame;
    frames absent from the file come back as empty packets.

    Raw confidences are clamped into [0, 1]: real detector files carry
    unbounded scores, while everything downstream expects probabilities.
    """
    records = read_mot(path)
    if not records:
        return []
    by_frame: dict[int, list[Detection]] = {}
    for rec in records:
        conf = min(max(rec.confidence, 0.0), 1.0)
        by_frame.setdefault(rec.frame, []).append(
            Detection(rec.box(), conf, rec.frame)
        )
    last = max(by_frame)
    return [FramePacket(f, by_frame.get(f, [])) for f in range(1, last + 1)]


def read_tracks(path: str | Path) -> dict[int, dict[int, BoundingBox]]:
    """Load a result/ground-truth file into trajectory form:
    {track_id: {frame: box}}."""
    trajectories: dict[int, dict[int, BoundingBox]] = {}
    for rec in read_mot(path):
        trajectories.setdefault(rec.track_id, {})[rec.frame] = rec.box()
    return trajectories


def tracks_to_records(tracks: list[TrackRecord]) -> list[MotRecord]:
    records = []
    for track in tracks:
        for frame in track.sorted_frames():
            box = track.history[frame]
            records.append(
                MotRecord(
                    frame=frame,
                    track_id=track.track_id,
                    x=box.x1,
                    y=box.y1,
                    w=box.width,
                    h=box.height,
                    confidence=track.confidences.get(frame, 1.0),
                )
            )
    records.sort(key=lambda r: (r.frame, r.track_id))
    return records


def format_tracks(tracks: list[TrackRecord]) -> str:
    return "".join(rec.line() + "\n" for rec in tracks_to_records(tracks))


def write_tracks(tracks: list[TrackRecord], path: str | Path) -> None:
    Path(path).write_text(format_tracks(tracks))


def write_trajectories(
    trajectories: dict[int, dict[int, BoundingBox]],
    path: str | Path,
    confidence: float = 1.0,
) -> None:
    """Write {id: {frame: box}} form (ground truth, converted results)."""
    records = []
    for tid, history in trajectories.items():
        for frame, box in history.items():
            records.append(
                MotRecord(
                    frame=frame,
                    track_id=tid,
                    x=box.x1,
                    y=box.y1,
                    w=box.width,
                    h=box.height,
                    confidence=confidence,
                )
            )
    records.sort(key=lambda r: (r.frame, r.track_id))
    Path(path).write_text("".join(rec.line() + "\n" for rec in records))


def write_detections(packets: list[FramePacket], path: str | Path) -> None:
    lines = []
    for packet in packets:
        for det in packet.detections:
            rec = MotRecord(
                frame=packet.frame,
                track_id=-1,
                x=det.box.x1,
                y=det.box.y1,
                w=det.box.width,
                h=det.box.height,
                confidence=det.confidence,
            )
            lines.append(rec.line() + "\n")
    Path(path).write_text("".join(lines))
