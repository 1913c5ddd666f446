"""Tracker configuration with the fixed operating defaults."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class TrackerConfig:
    """Knobs shared by the gating, reconnection, and lifecycle stages.

    Defaults are the fixed operating point: reconnection cap of 120 frames
    with blend weight 0.95, candidate IoU cut 0.3, and a minimum output
    track length of 5 frames. The gating grid is not a knob: gating is
    exact for any grid (see `gating.py`), so it lives there as a constant.
    """

    l_max: float = 120.0
    alpha: float = 0.95
    iou_gate: float = 0.3
    min_track_len: int = 5
    backward_tracklet_len: int = 3
    confidence_floor: float = 0.0
    # Engineering switches: gating off falls back to fully connected IoU
    # costs; fixed_window is a harness toggle (window = l_max always).
    use_gating: bool = True
    fixed_window: bool = False

    def __post_init__(self):
        if self.l_max <= 0:
            raise ValueError("l_max must be positive")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if not 0.0 < self.iou_gate <= 1.0:
            # A zero gate would admit non-overlapping pairs, which the
            # cell-overlap prefilter cannot see; keep the gate positive.
            raise ValueError("iou_gate must lie in (0, 1]")
        if not 0.0 <= self.confidence_floor <= 1.0:
            raise ValueError("confidence_floor must lie in [0, 1]")
        if self.min_track_len < 1:
            raise ValueError("min_track_len must be at least 1")
        if self.backward_tracklet_len < 1:
            raise ValueError("backward_tracklet_len must be at least 1")
