import math

import numpy as np
import pytest

from motrack.alignment import AffineWarp
from motrack.geometry import BoundingBox, to_center_form
from motrack.kalman import MotionParams, km_init, km_predict, km_update
from motrack.reconnect import (
    FillRequest,
    ReconnectionPolicy,
    fill_fragment,
    inertia_fragment,
    reconnection_window,
)
from motrack.synth import turn_gap_case


# ------------------------------------------------------------------- window


def test_window_static_scene_hits_the_cap():
    policy = ReconnectionPolicy()
    assert reconnection_window(0.0, 0.0, policy) == pytest.approx(120.0)


def test_window_full_camera_motion_value():
    policy = ReconnectionPolicy(l_max=120.0, alpha=0.95)
    assert reconnection_window(1.0, 0.0, policy) == pytest.approx(46.40892, abs=1e-4)


def test_window_matches_closed_form():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        i_cam = float(rng.uniform(0.0, 1.0))
        v_norm = float(rng.uniform(0.0, 1.0))
        l_max = float(rng.uniform(10.0, 300.0))
        alpha = float(rng.uniform(0.0, 1.0))
        policy = ReconnectionPolicy(l_max=l_max, alpha=alpha)
        want = l_max * math.exp(-(alpha * i_cam + (1.0 - alpha) * v_norm))
        assert abs(reconnection_window(i_cam, v_norm, policy) - want) < 1e-9


def test_window_monotone_decreasing_in_both_arguments():
    policy = ReconnectionPolicy()
    grid = np.linspace(0.0, 1.0, 9)
    for fixed in grid:
        cam = [reconnection_window(x, fixed, policy) for x in grid]
        tgt = [reconnection_window(fixed, x, policy) for x in grid]
        assert all(a >= b for a, b in zip(cam, cam[1:]))
        assert all(a >= b for a, b in zip(tgt, tgt[1:]))


def test_window_clamps_camera_intensity():
    policy = ReconnectionPolicy()
    assert reconnection_window(1.7, 0.2, policy) == reconnection_window(1.0, 0.2, policy)
    assert reconnection_window(-0.3, 0.2, policy) == reconnection_window(0.0, 0.2, policy)


def test_window_rejects_bad_speed_fraction():
    policy = ReconnectionPolicy()
    with pytest.raises(ValueError):
        reconnection_window(0.5, 1.2, policy)
    with pytest.raises(ValueError):
        reconnection_window(0.5, -0.1, policy)


def test_policy_validation():
    with pytest.raises(ValueError):
        ReconnectionPolicy(l_max=0.0)
    with pytest.raises(ValueError):
        ReconnectionPolicy(alpha=1.5)


# -------------------------------------------------------------- fill machinery


def straight_line_request(gap: int = 15, speed: float = 5.0):
    """Constant-velocity target, gap frames hidden, truth known exactly."""
    params = MotionParams()
    w, h = 60.0, 120.0

    def box_at(frame):
        cx = 300.0 + speed * frame
        cy = 400.0 + 0.5 * speed * frame
        return BoundingBox(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)

    state = km_init(box_at(0), params)
    for f in range(1, 11):
        state = km_predict(state, params)
        state = km_update(state, box_at(f), params)
    frame_a, frame_b = 10, 10 + gap + 1
    req = FillRequest(
        track_id=1,
        frame_a=frame_a,
        frame_b=frame_b,
        box_a=box_at(frame_a),
        box_b=box_at(frame_b),
        state_a=state,
        post_b_tracklet=[box_at(frame_b + i) for i in range(3)],
    )
    truth = {f: box_at(f) for f in req.missing_frames()}
    return req, truth, params


def test_fill_request_needs_a_real_gap():
    req, _, params = straight_line_request()
    with pytest.raises(ValueError):
        FillRequest(
            track_id=1,
            frame_a=5,
            frame_b=6,
            box_a=req.box_a,
            box_b=req.box_b,
            state_a=req.state_a,
            post_b_tracklet=[req.box_b],
        )


def test_fill_request_needs_the_reassociation_box():
    req, _, _ = straight_line_request()
    with pytest.raises(ValueError):
        FillRequest(
            track_id=1,
            frame_a=5,
            frame_b=9,
            box_a=req.box_a,
            box_b=req.box_b,
            state_a=req.state_a,
            post_b_tracklet=[],
        )


def test_missing_frames_and_default_warp():
    req, _, _ = straight_line_request(gap=4)
    assert list(req.missing_frames()) == [11, 12, 13, 14]
    assert np.array_equal(req.warp_at(12).matrix, AffineWarp.identity().matrix)


def test_fragment_covers_exactly_the_gap():
    req, _, params = straight_line_request(gap=9)
    frag = fill_fragment(req, params)
    assert sorted(frag) == list(req.missing_frames())
    for box in frag.values():
        assert box.x2 > box.x1 and box.y2 > box.y1


def test_fill_tracks_a_straight_line():
    req, truth, params = straight_line_request(gap=15)
    frag = fill_fragment(req, params)
    for f, box in frag.items():
        cx, cy, _, _ = to_center_form(box)
        tx, ty, _, _ = to_center_form(truth[f])
        assert math.hypot(cx - tx, cy - ty) < 0.5


def test_exact_pseudo_observations_reduce_to_the_chord():
    # With near-zero measurement noise every filtered pass pins itself to
    # its observations, so the fragment collapses onto the linear chord.
    req, _, _ = straight_line_request(gap=8)
    tight = MotionParams(std_meas=1e-9)
    frag = fill_fragment(req, tight)
    ca = to_center_form(req.box_a)
    cb = to_center_form(req.box_b)
    span = req.frame_b - req.frame_a
    for f, box in frag.items():
        s = (f - req.frame_a) / span
        want = [a + s * (b - a) for a, b in zip(ca, cb)]
        got = to_center_form(box)
        assert max(abs(g - w) for g, w in zip(got, want)) < 1e-4


def test_single_missing_frame_lands_midway():
    req, truth, params = straight_line_request(gap=1)
    frag = fill_fragment(req, params)
    (f,) = frag
    cx, cy, _, _ = to_center_form(frag[f])
    tx, ty, _, _ = to_center_form(truth[f])
    assert math.hypot(cx - tx, cy - ty) < 0.5


def test_inertia_coasts_at_constant_velocity():
    req, truth, params = straight_line_request(gap=10)
    coasted = inertia_fragment(req, params)
    # On a straight line the coast is as good as it gets.
    for f, box in coasted.items():
        cx, cy, _, _ = to_center_form(box)
        tx, ty, _, _ = to_center_form(truth[f])
        assert math.hypot(cx - tx, cy - ty) < 0.75


def test_fill_beats_inertia_on_direction_changes():
    from motrack.geometry import iou

    params = MotionParams()
    wins = 0
    for seed in range(5):
        req, gap_truth = turn_gap_case(seed, params)
        filled = fill_fragment(req, params)
        coasted = inertia_fragment(req, params)
        frames = sorted(gap_truth)
        fill_mean = sum(iou(filled[f], gap_truth[f]) for f in frames) / len(frames)
        coast_mean = sum(iou(coasted[f], gap_truth[f]) for f in frames) / len(frames)
        wins += fill_mean > coast_mean
    assert wins >= 4


def test_camera_shift_is_removed_from_the_fill():
    # A static target watched by a panning camera: every gap frame warps
    # boxes by (-4, 0). The fill must follow the drifting image position.
    params = MotionParams()
    w, h = 60.0, 120.0
    shift = -4.0

    def box_at(frame):
        cx = 700.0 + shift * max(frame - 10, 0)
        return BoundingBox(cx - w / 2, 200.0, cx + w / 2, 200.0 + h)

    state = km_init(box_at(0), params)
    for f in range(1, 11):
        state = km_predict(state, params)
        state = km_update(state, box_at(f), params)
    frame_a, frame_b = 10, 21
    req = FillRequest(
        track_id=1,
        frame_a=frame_a,
        frame_b=frame_b,
        box_a=box_at(frame_a),
        box_b=box_at(frame_b),
        state_a=state,
        post_b_tracklet=[box_at(frame_b + i) for i in range(3)],
        warps={f: AffineWarp.translation(shift, 0.0) for f in range(frame_a + 1, frame_b + 1)},
    )
    frag = fill_fragment(req, params)
    for f, box in frag.items():
        cx, _, _, _ = to_center_form(box)
        assert cx == pytest.approx(700.0 + shift * (f - 10), abs=0.75)


def test_collapsing_warp_resets_both_fill_passes(caplog):
    # A target moving along the image diagonal keeps x and y bit-for-bit
    # equal, so the involution (x, y) -> (x - y, -y) flattens its box to
    # zero width: the forward pass meets it at frame 15 and the backward
    # pass, stepping through its inverse (the same warp), at frame 14.
    params = MotionParams()

    def box_at(frame):
        low = 100.0 + 3.0 * frame
        return BoundingBox(low, low, low + 40.0, low + 40.0)

    state = km_init(box_at(0), params)
    for f in range(1, 11):
        state = km_predict(state, params)
        state = km_update(state, box_at(f), params)
    flip = AffineWarp(np.array([[1.0, -1.0, 0.0], [0.0, -1.0, 0.0]]))
    req = FillRequest(
        track_id=1,
        frame_a=10,
        frame_b=20,
        box_a=box_at(10),
        box_b=box_at(20),
        state_a=state,
        post_b_tracklet=[box_at(20 + i) for i in range(3)],
        warps={15: flip},
    )
    with caplog.at_level("WARNING", logger="motrack.reconnect"):
        frag = fill_fragment(req, params)
    messages = [r.getMessage() for r in caplog.records]
    assert "forward fill pass reset at frame 15" in messages
    assert "backward fill pass reset at frame 14" in messages

    assert sorted(frag) == list(req.missing_frames())
    assert all(
        math.isfinite(v) for b in frag.values() for v in (b.x1, b.y1, b.x2, b.y2)
    )
    # The backward pass restarts from the linear box at its reset frame.
    ca, cb = to_center_form(req.box_a), to_center_form(req.box_b)
    want = [a + 0.4 * (b - a) for a, b in zip(ca, cb)]
    assert to_center_form(frag[14]) == pytest.approx(want, abs=1e-9)
