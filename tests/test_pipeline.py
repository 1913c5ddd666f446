import numpy as np
import pytest

from motrack.alignment import AffineWarp
from motrack.config import TrackerConfig
from motrack.geometry import BoundingBox, Detection
from motrack.pipeline import FramePacket, Tracker
from motrack.tracks import FILL_CONFIDENCE, TrackStatus

SIZE = (960.0, 540.0)


def det(frame, cx, cy, w=60.0, h=120.0, conf=0.9):
    box = BoundingBox(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)
    return Detection(box=box, confidence=conf, frame=frame)


def run(packets, config=None, **kwargs):
    tracker = Tracker(config=config or TrackerConfig(), frame_size=SIZE, **kwargs)
    events = [tracker.step(p) for p in packets]
    return tracker.finalize(), events


def linear_packets(n_frames, cx0=200.0, cy0=270.0, vx=4.0, vy=0.0, skip=()):
    out = []
    for f in range(1, n_frames + 1):
        dets = [] if f in skip else [det(f, cx0 + vx * (f - 1), cy0 + vy * (f - 1))]
        out.append(FramePacket(frame=f, detections=dets))
    return out


# ----------------------------------------------------------------- basic flow


def test_single_target_single_track():
    tracks, _ = run(linear_packets(10, vx=0.0))
    assert len(tracks) == 1
    t = tracks[0]
    assert t.track_id == 1
    assert t.sorted_frames() == list(range(1, 11))
    assert t.filled_frames == set()
    assert all(c == 0.9 for c in t.confidences.values())


def test_two_crossing_targets_keep_their_ids():
    packets = []
    for f in range(1, 31):
        packets.append(
            FramePacket(
                frame=f,
                detections=[
                    det(f, 100.0 + 8.0 * (f - 1), 200.0),
                    det(f, 340.0 - 8.0 * (f - 1), 260.0),
                ],
            )
        )
    tracks, _ = run(packets)
    assert len(tracks) == 2
    # Each track's x must stay monotone; a swap would fold it back.
    for t in tracks:
        xs = [t.history[f].x1 for f in t.sorted_frames()]
        deltas = [b - a for a, b in zip(xs, xs[1:])]
        assert all(d > 0 for d in deltas) or all(d < 0 for d in deltas)


def test_occlusion_gap_is_filled_with_sentinel_confidence():
    skip = set(range(11, 23))
    tracks, events = run(linear_packets(40, skip=skip))
    assert len(tracks) == 1
    t = tracks[0]
    assert t.sorted_frames() == list(range(1, 41))
    assert t.filled_frames == skip
    for f in skip:
        assert t.confidences[f] == FILL_CONFIDENCE
    assert t.is_contiguous()
    fills = [fe for ev in events for fe in ev.fills]
    assert len(fills) == 1 and fills[0].count == len(skip)


def test_thirty_frame_occlusion_reconnects_same_id():
    skip = set(range(21, 51))
    tracks, events = run(linear_packets(80, vx=2.0, skip=skip))
    assert len(tracks) == 1
    assert tracks[0].filled_frames == skip
    recon = [ev.reconnections for ev in events if ev.reconnections]
    assert recon == [[1]]


def test_filled_boxes_stay_near_the_hidden_path():
    skip = set(range(11, 23))
    tracks, _ = run(linear_packets(40, vx=4.0, skip=skip))
    t = tracks[0]
    for f in skip:
        want_cx = 200.0 + 4.0 * (f - 1)
        got_cx = 0.5 * (t.history[f].x1 + t.history[f].x2)
        assert got_cx == pytest.approx(want_cx, abs=2.0)


# ------------------------------------------------------------------ lifecycle


def test_sub_minimum_tracks_are_dropped():
    # 4 committed frames < the 5-frame output floor.
    tracks, _ = run(linear_packets(4))
    assert tracks == []
    tracks, _ = run(linear_packets(5))
    assert len(tracks) == 1


def test_dying_coast_leaves_no_trace():
    packets = linear_packets(30, skip=set(range(11, 31)))
    tracks, events = run(packets, TrackerConfig(l_max=6.0))
    assert len(tracks) == 1
    t = tracks[0]
    assert t.sorted_frames() == list(range(1, 11))
    assert t.filled_frames == set()
    expired = [ev.expirations for ev in events if ev.expirations]
    assert expired == [[1]]


def test_expiry_respects_the_window():
    # Static camera, slow target: the window sits at l_max, so a miss run
    # shorter than l_max reconnects and a longer one expires.
    config = TrackerConfig(l_max=8.0)
    tracks, _ = run(linear_packets(30, vx=0.5, skip=set(range(11, 19))), config)
    assert len(tracks) == 1 and tracks[0].sorted_frames() == list(range(1, 31))
    tracks, _ = run(linear_packets(30, vx=0.5, skip=set(range(11, 21))), config)
    assert [t.sorted_frames() for t in tracks] == [
        list(range(1, 11)),
        list(range(21, 31)),
    ]


def test_every_committed_box_is_detection_or_fill():
    rng = np.random.default_rng(4)
    packets = []
    fed: dict[int, list[BoundingBox]] = {}
    for f in range(1, 41):
        dets = []
        for i in range(3):
            if rng.random() < 0.85:
                dets.append(det(f, 150.0 + 220.0 * i + 3.0 * f, 250.0 + 5.0 * i))
        packets.append(FramePacket(frame=f, detections=dets))
        fed[f] = [d.box for d in dets]
    tracks, _ = run(packets)
    for t in tracks:
        assert t.is_contiguous()
        for f, box in t.history.items():
            if f in t.filled_frames:
                assert t.confidences[f] == FILL_CONFIDENCE
            else:
                assert any(box == b for b in fed[f])


def test_determinism():
    def build():
        rng = np.random.default_rng(9)
        packets = []
        for f in range(1, 31):
            dets = [
                det(f, 150.0 + 4.0 * f + rng.uniform(-1, 1), 200.0),
                det(f, 600.0 - 3.0 * f + rng.uniform(-1, 1), 300.0),
            ]
            packets.append(FramePacket(frame=f, detections=dets))
        return packets

    a, _ = run(build())
    b, _ = run(build())
    assert [(t.track_id, t.history) for t in a] == [(t.track_id, t.history) for t in b]


# ------------------------------------------------------------------ interface


def test_non_consecutive_frames_rejected():
    tracker = Tracker(frame_size=SIZE)
    tracker.step(FramePacket(frame=1, detections=[det(1, 200.0, 200.0)]))
    with pytest.raises(ValueError):
        tracker.step(FramePacket(frame=3, detections=[]))


def test_step_after_finalize_rejected():
    tracker = Tracker(frame_size=SIZE)
    tracker.step(FramePacket(frame=1, detections=[]))
    tracker.finalize()
    with pytest.raises(ValueError):
        tracker.step(FramePacket(frame=2, detections=[]))
    with pytest.raises(ValueError):
        tracker.finalize()


def test_packet_rejects_mismatched_detection_frames():
    with pytest.raises(ValueError):
        FramePacket(frame=3, detections=[det(4, 100.0, 100.0)])


def test_confidence_floor_filters_detections():
    config = TrackerConfig(confidence_floor=0.5)
    packets = [
        FramePacket(frame=f, detections=[det(f, 200.0, 200.0, conf=0.3)])
        for f in range(1, 11)
    ]
    tracks, _ = run(packets, config)
    assert tracks == []


def test_refine_hook_sees_and_replaces_detections():
    calls = []

    def keep_first(dets, store):
        calls.append(len(dets))
        return dets[:1]

    packets = []
    for f in range(1, 11):
        packets.append(
            FramePacket(
                frame=f, detections=[det(f, 200.0, 200.0), det(f, 600.0, 300.0)]
            )
        )
    tracks, _ = run(packets, refine_detections=keep_first)
    assert calls == [2] * 10
    assert len(tracks) == 1


def test_supplied_warp_is_logged_and_applied():
    warp = AffineWarp.translation(-3.0, 0.0)
    packets = [
        FramePacket(frame=1, detections=[det(1, 500.0, 270.0)]),
    ]
    # Static real-world target viewed by a panning camera: image position
    # drifts by the warp each frame.
    for f in range(2, 12):
        packets.append(
            FramePacket(
                frame=f,
                detections=[det(f, 500.0 - 3.0 * (f - 1), 270.0)],
                warp=warp,
            )
        )
    tracker = Tracker(frame_size=SIZE)
    for p in packets:
        tracker.step(p)
    assert np.array_equal(tracker.store.motion_log.get(5).matrix, warp.matrix)
    tracks = tracker.finalize()
    assert len(tracks) == 1 and len(tracks[0].history) == 11


def test_collapsing_warp_leaves_only_that_track_unwarped(caplog):
    # x' = x - y maps both corners of a square box onto one x: only the
    # square track collapses; the tall one is warped as usual.
    shear = AffineWarp(np.array([[1.0, -1.0, 0.0], [0.0, 1.0, 0.0]]))
    tracker = Tracker(frame_size=SIZE)
    tracker.step(FramePacket(1, [det(1, 200.0, 270.0, w=60.0, h=60.0), det(1, 600.0, 270.0)]))
    with caplog.at_level("WARNING", logger="motrack.pipeline"):
        tracker.step(FramePacket(2, [], warp=shear))
    assert [r.getMessage() for r in caplog.records] == [
        "warp degenerated track 1 at frame 2; coasting without it"
    ]
    square, tall = tracker.store.tracks[1], tracker.store.tracks[2]
    assert square.state.mean[:4].tolist() == [200.0, 270.0, 60.0, 60.0]
    assert tall.state.mean[:4].tolist() == [600.0 - 270.0, 270.0, 60.0, 120.0]


def test_tracks_come_back_sorted_and_frozen():
    packets = []
    for f in range(1, 11):
        dets = [det(f, 200.0, 200.0)]
        if f >= 3:
            dets.append(det(f, 700.0, 300.0))
        packets.append(FramePacket(frame=f, detections=dets))
    tracks, _ = run(packets)
    assert [t.track_id for t in tracks] == sorted(t.track_id for t in tracks)
    for t in tracks:
        assert t.status is TrackStatus.FINISHED
        assert list(t.history) == sorted(t.history)
