"""MOTChallenge-style comma-separated file I/O.

Record layout: frame,id,x,y,w,h,conf,a,b,c with x,y the top-left corner.
Detection files carry id = -1. Output geometry is rounded to 2 decimal
places; boxes synthesized by gap filling are written with conf = -1 so
they can be told apart from detection-backed boxes.

The readers skip blank lines and refuse, with a `ValueError` naming the
file's `path:line`, a line with fewer than 7 fields, a field that is not
a number, a frame or id that is infinite or NaN, a frame below 1, a box
that is not finite, and a width or height that is not positive.
`read_tracks` also refuses a second record for the same (id, frame).
`read_detections` clamps confidences into [0, 1]. The writers refuse a
frame below 1.
"""

from __future__ import annotations

import math
from operator import itemgetter
from pathlib import Path
from typing import Callable

from .geometry import BoundingBox, Detection
from .pipeline import FramePacket
from .tracks import TrackRecord


def _check_record(frame: int, x: float, y: float, w: float, h: float) -> None:
    """Raise ValueError unless frame >= 1 and (x, y, w, h) is a finite box
    of positive size: the checks on every record read or written."""
    if frame < 1:
        raise ValueError(f"frame must be >= 1, got {frame}")
    # Chained comparisons: NaN fails every one.
    inf = math.inf
    if not (-inf < x < inf and -inf < y < inf and -inf < w < inf and -inf < h < inf):
        raise ValueError(f"non-finite box ({x}, {y}, {w}, {h})")
    if w <= 0 or h <= 0:
        raise ValueError(f"non-positive box size {w}x{h}")


def _parse(path: str | Path, add: Callable[..., None]) -> None:
    """Check each non-blank line and call
    `add(frame, track_id, x, y, w, h, conf, extra)` with its values, where
    `extra` holds the up to three numbers after conf. A ValueError from
    the checks or from `add` is raised again naming `path:line`."""
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        parts = line.split(",")
        if len(parts) < 7:
            if not line.strip():
                continue
            raise ValueError(f"{path}:{lineno}: expected >= 7 fields, got {len(parts)}")
        try:
            # int() of an infinite float raises OverflowError, of NaN ValueError.
            frame = int(float(parts[0]))
            track_id = int(float(parts[1]))
            x, y, w, h, conf, *extra = map(float, parts[2:10])
            _check_record(frame, x, y, w, h)
            add(frame, track_id, x, y, w, h, conf, extra)
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc


def read_detections(path: str | Path) -> list[FramePacket]:
    """Load a detection file into one packet per frame, 1..max_frame;
    frames absent from the file come back as empty packets.

    Raw confidences are clamped into [0, 1]: real detector files carry
    unbounded scores, while everything downstream expects probabilities.
    """
    by_frame: dict[int, list[Detection]] = {}

    def add(frame, track_id, x, y, w, h, conf, extra):
        box = BoundingBox(x, y, x + w, y + h)
        by_frame.setdefault(frame, []).append(
            Detection(box, min(max(conf, 0.0), 1.0), frame)
        )

    _parse(path, add)
    if not by_frame:
        return []
    last = max(by_frame)
    return [FramePacket(f, by_frame.get(f, [])) for f in range(1, last + 1)]


def read_tracks(path: str | Path) -> dict[int, dict[int, BoundingBox]]:
    """Load a result/ground-truth file into trajectory form:
    {track_id: {frame: box}}. A second record for one (id, frame) is
    refused: keeping either would silently drop a box."""
    trajectories: dict[int, dict[int, BoundingBox]] = {}

    def add(frame, track_id, x, y, w, h, conf, extra):
        history = trajectories.setdefault(track_id, {})
        if frame in history:
            raise ValueError(f"second record for id {track_id} at frame {frame}")
        history[frame] = BoundingBox(x, y, x + w, y + h)

    _parse(path, add)
    return trajectories


def _line(frame: int, track_id: int, box: BoundingBox, confidence: float) -> str:
    """One output line; refuses what `_check_record` refuses."""
    x, y = box.x1, box.y1
    w, h = box.x2 - x, box.y2 - y
    _check_record(frame, x, y, w, h)
    return f"{frame},{track_id},{x:.2f},{y:.2f},{w:.2f},{h:.2f},{confidence:.2f},-1,-1,-1\n"


def write_tracks(tracks: list[TrackRecord], path: str | Path) -> None:
    rows = [
        (frame, track.track_id, box, track.confidences.get(frame, 1.0))
        for track in tracks
        for frame, box in track.history.items()
    ]
    rows.sort(key=itemgetter(0, 1))
    Path(path).write_text("".join([_line(*row) for row in rows]))


def write_trajectories(
    trajectories: dict[int, dict[int, BoundingBox]],
    path: str | Path,
    confidence: float = 1.0,
) -> None:
    """Write {id: {frame: box}} form (ground truth, converted results)."""
    rows = [
        (frame, tid, box)
        for tid, history in trajectories.items()
        for frame, box in history.items()
    ]
    rows.sort(key=itemgetter(0, 1))
    Path(path).write_text("".join([_line(*row, confidence) for row in rows]))


def write_detections(packets: list[FramePacket], path: str | Path) -> None:
    Path(path).write_text(
        "".join(
            [
                _line(packet.frame, -1, det.box, det.confidence)
                for packet in packets
                for det in packet.detections
            ]
        )
    )
