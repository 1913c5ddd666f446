import importlib.util
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import motrack.pipeline
from motrack.alignment import AffineWarp, EccError, ecc_align
from motrack.config import TrackerConfig
from motrack.geometry import BoundingBox, Detection
from motrack.pipeline import FramePacket, Tracker
from motrack.synth import generate, random_scenario, render_frames, textured_pair
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


def test_alignment_correlation_reported_only_for_estimated_warps(caplog):
    prev, cur, _ = textured_pair(11)
    flat = np.full(prev.shape, 128.0)
    expected_warp, expected_corr = ecc_align(prev, cur)
    tracker = Tracker(frame_size=SIZE)
    frames = [
        FramePacket(1, [], image=prev),  # no previous image
        FramePacket(2, [], image=cur),  # estimated
        FramePacket(3, [], image=prev, warp=AffineWarp.translation(1.0, 0.0)),  # supplied
        FramePacket(4, []),  # no image
        FramePacket(5, [], image=flat),
        FramePacket(6, [], image=flat),  # featureless pair: falls back
    ]
    with caplog.at_level("WARNING", logger="motrack.pipeline"):
        events = [tracker.step(p) for p in frames]
    assert [e.alignment_correlation for e in events] == [None, expected_corr, None, None, None, None]
    assert [e.alignment_fallback for e in events] == [False] * 5 + [True]
    assert np.array_equal(tracker.store.motion_log.get(2).matrix, expected_warp.matrix)
    assert expected_corr > 0.99


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


def load_tracing(monkeypatch):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look it up
    spec.loader.exec_module(tracing)
    return tracing


def test_benchmark_tracer_layer_names_resolve_on_pipeline(monkeypatch):
    # The benchmark's tracer swaps these names on motrack.pipeline for
    # timing wrappers; one a refactor drops fails there only at run time.
    tracing = load_tracing(monkeypatch)
    missing = [n for n in tracing.TIMED_LAYERS if not callable(getattr(motrack.pipeline, n, None))]
    assert not missing


def test_benchmark_tracer_times_every_alignment_and_passes_keywords(monkeypatch):
    # The timing wrapper adds trace= to the keywords Tracker.step passes
    # to ecc_align; every estimated warp must give one span and a
    # non-empty iteration trace.
    tracing = load_tracing(monkeypatch)
    spec = random_scenario(4, n_targets=3, frame_count=9, width=320.0, height=240.0)
    scenario = generate(spec, 4)
    packets = scenario.packets(with_warps=False, images=render_frames(scenario, 4))[:3]
    rec = tracing.Recorder(timing=True)
    originals = tracing.pipeline_originals()
    rec.install(originals)
    try:
        tracker = Tracker(frame_size=scenario.frame_size)
        events = []
        for step, packet in enumerate(packets, 1):
            rec.step = step
            events.append(tracker.step(packet))
    finally:
        tracing.restore(originals)
    assert motrack.pipeline.ecc_align is ecc_align
    estimated = [ev.frame for ev in events if ev.alignment_correlation is not None]
    assert estimated == [2, 3]
    assert [span[2] for span in rec.spans if span[0] == "alignment.ecc"] == [2, 3]
    calls = rec.calls_of("alignment.ecc", 0)
    assert [call[2] for call in calls] == [2, 3]
    for call, ev in zip(calls, events[1:]):
        (warp, correlation), iterations = call[4]
        assert iterations > 0
        assert correlation == ev.alignment_correlation
        assert warp is tracker.store.motion_log.get(ev.frame)


# ------------------------------------------------------- alignment workspace


def call_local_alignments(packets):
    """Per frame, the outcome of ecc_align on the frame pair the tracker
    aligns, each call with its own buffers: (warp matrix, correlation),
    "fallback" for a pair that raises, or None where the tracker does
    not align."""
    out, prev = [], None
    for packet in packets:
        outcome = None
        if packet.warp is None and packet.image is not None and prev is not None:
            try:
                warp, corr = ecc_align(prev, packet.image)
                outcome = (warp.matrix.tolist(), corr)
            except EccError:
                outcome = "fallback"
        out.append(outcome)
        prev = packet.image
    return out


def tracker_alignments(tracker, packets):
    out = []
    for packet in packets:
        ev = tracker.step(packet)
        if ev.alignment_fallback:
            out.append("fallback")
        elif ev.alignment_correlation is None:
            out.append(None)
        else:
            warp = tracker.store.motion_log.get(packet.frame)
            out.append((warp.matrix.tolist(), ev.alignment_correlation))
    return out


def image_packets(images, warps):
    return [
        FramePacket(f, [], image=img, warp=warps.get(f)) for f, img in enumerate(images, 1)
    ]


def test_tracker_workspace_across_sizes_and_fallbacks_matches_call_local():
    a_prev, a_cur, _ = textured_pair(0)
    b_prev, b_cur, _ = textured_pair(3, size=80)
    c_prev, c_cur, _ = textured_pair(7)
    flat = np.full(b_prev.shape, 128.0)
    # A supplied warp hands over to a frame of the other size; the flat
    # frame makes the two pairs around it fall back.
    images = [a_prev, a_cur, b_prev, b_cur, flat, b_prev, b_cur, c_prev, c_cur]
    packets = image_packets(images, {3: AffineWarp.identity(), 8: AffineWarp.identity()})
    expected = call_local_alignments(packets)
    assert [e if e in (None, "fallback") else "warp" for e in expected] == [
        None, "warp", None, "warp", "fallback", "fallback", "warp", None, "warp"
    ]
    assert tracker_alignments(Tracker(frame_size=SIZE), packets) == expected


def test_finalize_lets_go_of_the_alignment_workspace():
    prev, cur, _ = textured_pair(0)
    tracker = Tracker(frame_size=SIZE)
    tracker.step(FramePacket(1, [], image=prev))
    tracker.step(FramePacket(2, [], image=cur))
    workspace = tracker.ecc_workspace
    tracker.finalize()
    assert tracker.ecc_workspace is not workspace


def test_trackers_on_two_threads_keep_their_own_workspaces():
    images = []
    for seed, size in ((0, 64), (3, 80), (7, 64)):
        prev, cur, _ = textured_pair(seed, size=size)
        images += [prev, cur]
    packets = image_packets(images, {3: AffineWarp.identity(), 5: AffineWarp.identity()})
    expected = call_local_alignments(packets)
    results = {}

    def work(name):
        results[name] = [tracker_alignments(Tracker(frame_size=SIZE), packets) for _ in range(3)]

    threads = [threading.Thread(target=work, args=(name,)) for name in "ab"]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive()
    assert results == {"a": [expected] * 3, "b": [expected] * 3}


# -------------------------------------------------------- supplied warp checks


def tracker_state(tracker):
    """Everything a step can change, as plain comparable values."""
    store = tracker.store
    return (
        tracker.last_frame,
        tracker.prev_image,
        store.next_id,
        {f: w.matrix.tolist() for f, w in store.motion_log.warps.items()},
        list(store.motion_log.fallback_frames),
        sorted(tracker.pending_fills),
        [
            (
                t.track_id,
                t.status,
                dict(t.history),
                t.deactivated_len,
                t.window,
                t.state.mean.tolist(),
                t.state.cov_terms.tolist(),
            )
            for t in store.tracks.values()
        ],
    )


@pytest.mark.parametrize(
    "matrix, message",
    [
        # Inside this gap, the fill's backward pass would invert it.
        ([[0.0, 0.0, 5.0], [0.0, 1.0, 0.0]], "singular"),
        # Its camera intensity, and so the reconnection window, would be
        # NaN, and a coasting track would never expire.
        ([[np.nan] * 3, [np.nan] * 3], "not finite"),
        # camera_intensity rejects a zero-norm warp, after the log has it.
        ([[0.0] * 3, [0.0] * 3], "singular"),
    ],
    ids=["singular-in-gap", "all-nan", "all-zero"],
)
def test_bad_supplied_warp_refused_before_the_tracker_changes(matrix, message):
    config = TrackerConfig(l_max=5.0)
    packets = linear_packets(20, vx=0.5, skip=set(range(9, 13)))
    tracker = Tracker(config=config, frame_size=SIZE)
    for packet in packets[:10]:
        tracker.step(packet)
    before = tracker_state(tracker)
    with pytest.raises(ValueError, match=message):
        FramePacket(11, [], warp=AffineWarp(np.array(matrix)))
    assert tracker_state(tracker) == before
    # The refused packet left nothing behind: the rest of the sequence
    # tracks exactly as if it had never been offered.
    for packet in packets[10:]:
        tracker.step(packet)
    tracks, _ = run(packets, config)
    assert [t.history for t in tracker.finalize()] == [t.history for t in tracks]
