import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from motrack.alignment import AffineWarp
from motrack.geometry import BoundingBox, from_center_form
from motrack.kalman import (
    MEAS_DIM,
    SIZE_FLOOR,
    STATE_DIM,
    DegenerateStateError,
    KalmanState,
    MotionParams,
    km_init,
    km_predict,
    km_update,
    iml_predict,
    predict_states,
    update_states,
    velocity_norm,
)

PARAMS = MotionParams()


def random_state(rng, speed=8.0):
    box = from_center_form(
        rng.uniform(100, 1800),
        rng.uniform(100, 900),
        rng.uniform(20, 150),
        rng.uniform(40, 260),
    )
    state = km_init(box, PARAMS)
    state.mean[MEAS_DIM:] = rng.uniform(-speed, speed, 4)
    return state


def test_init_zero_velocity_mean():
    state = km_init(BoundingBox(0, 0, 10, 20), PARAMS)
    assert state.mean.tolist() == [5, 10, 10, 20, 0, 0, 0, 0]
    assert np.all(np.diag(state.cov) > 0)


def test_init_deterministic():
    a = km_init(BoundingBox(3, 4, 33, 74), PARAMS)
    b = km_init(BoundingBox(3, 4, 33, 74), PARAMS)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.cov, b.cov)


def test_predict_moves_by_velocity():
    state = KalmanState(
        np.array([10.0, 5.0, 4.0, 8.0, 1.0, 0.0, 0.0, 0.0]),
        np.eye(STATE_DIM),
    )
    out = km_predict(state, PARAMS)
    assert out.mean[0] == pytest.approx(11.0)
    assert out.mean[1:4].tolist() == [5.0, 4.0, 8.0]


def test_predict_zero_velocity_zero_noise_fixed_point():
    params = dataclasses.replace(PARAMS, std_pos=0.0, std_vel=0.0)
    state = km_init(BoundingBox(0, 0, 10, 20), params)
    out = km_predict(state, params)
    assert np.array_equal(out.mean, state.mean)


def test_predict_grows_uncertainty():
    rng = np.random.default_rng(2)
    for _ in range(50):
        state = random_state(rng)
        a = np.random.default_rng(0).uniform(0.1, 2.0, (STATE_DIM, STATE_DIM))
        state.cov = a @ a.T  # random PSD
        out = km_predict(state, PARAMS)
        assert np.trace(out.cov) >= np.trace(state.cov) - 1e-9


def test_update_zero_innovation_keeps_position():
    state = km_init(BoundingBox(0, 0, 10, 20), PARAMS)
    out = km_update(state, state.box(), PARAMS)
    assert np.allclose(out.mean[:MEAS_DIM], state.mean[:MEAS_DIM], atol=1e-9)


def test_update_tiny_measurement_noise_pins_observation():
    params = dataclasses.replace(PARAMS, std_meas=1e-6)
    state = km_init(BoundingBox(0, 0, 10, 20), params)
    state = km_predict(state, params)
    obs = from_center_form(9.0, 14.0, 11.0, 21.0)
    out = km_update(state, obs, params)
    assert np.allclose(out.mean[:MEAS_DIM], [9, 14, 11, 21], atol=1e-6)


def test_update_never_grows_uncertainty():
    rng = np.random.default_rng(3)
    for _ in range(50):
        state = km_predict(random_state(rng), PARAMS)
        obs = random_state(rng).box()
        out = km_update(state, obs, PARAMS)
        assert np.trace(out.cov) <= np.trace(state.cov) + 1e-9


def test_covariance_stays_symmetric():
    rng = np.random.default_rng(4)
    state = random_state(rng)
    for _ in range(30):
        state = km_predict(state, PARAMS)
        assert np.allclose(state.cov, state.cov.T, atol=1e-9)
        state = km_update(state, random_state(rng).box(), PARAMS)
        assert np.allclose(state.cov, state.cov.T, atol=1e-9)


def test_size_floor_under_shrinking_velocity():
    state = km_init(BoundingBox(0, 0, 4, 4), PARAMS)
    state.mean[6] = -10.0  # width shrinking fast
    state.mean[7] = -10.0
    for _ in range(5):
        state = km_predict(state, PARAMS)
    box = state.box()
    assert box.width > 0 and box.height > 0


def test_update_singular_innovation_raises():
    state = km_init(BoundingBox(0, 0, 10, 20), PARAMS)
    state.cov = np.zeros((STATE_DIM, STATE_DIM))
    params = dataclasses.replace(PARAMS, std_meas=0.0)
    with pytest.raises(DegenerateStateError):
        km_update(state, BoundingBox(0, 0, 10, 20), params)


def test_noiseless_constant_velocity_forecast_converges():
    """After ten predict/update cycles on exact constant-velocity input,
    the one-step-ahead forecast should be essentially exact."""
    rng = np.random.default_rng(5)
    for _ in range(30):
        cx, cy = rng.uniform(300, 1500), rng.uniform(200, 800)
        vx, vy = rng.uniform(-8, 8), rng.uniform(-8, 8)
        w, h = rng.uniform(40, 120), rng.uniform(80, 240)
        state = km_init(from_center_form(cx, cy, w, h), PARAMS)
        for step in range(1, 11):
            state = km_predict(state, PARAMS)
            state = km_update(
                state, from_center_form(cx + vx * step, cy + vy * step, w, h), PARAMS
            )
        fx, fy = km_predict(state, PARAMS).box().center
        assert abs(fx - (cx + vx * 11)) < 1e-3
        assert abs(fy - (cy + vy * 11)) < 1e-3


def test_iml_identity_equals_km_predict_exactly():
    rng = np.random.default_rng(6)
    for _ in range(100):
        state = random_state(rng)
        a = iml_predict(state, AffineWarp.identity(), PARAMS)
        b = km_predict(state, PARAMS)
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.cov, b.cov)


def test_iml_translation_shifts_box_only():
    rng = np.random.default_rng(7)
    warp = AffineWarp.translation(6.0, -3.0)
    for _ in range(50):
        state = random_state(rng)
        plain = km_predict(state, PARAMS)
        warped = iml_predict(state, warp, PARAMS)
        assert warped.mean[0] == pytest.approx(plain.mean[0] + 6.0, abs=1e-9)
        assert warped.mean[1] == pytest.approx(plain.mean[1] - 3.0, abs=1e-9)
        assert warped.mean[2] == pytest.approx(plain.mean[2], abs=1e-9)
        assert warped.mean[3] == pytest.approx(plain.mean[3], abs=1e-9)
        # velocities and covariance untouched by the warp
        assert np.array_equal(warped.mean[MEAS_DIM:], plain.mean[MEAS_DIM:])
        assert np.array_equal(warped.cov, plain.cov)


def test_iml_collapsing_warp_raises():
    state = km_init(BoundingBox(100, 100, 150, 200), MotionParams())
    collapse = AffineWarp(np.array([[0.0, 0.0, 5.0], [0.0, 1.0, 0.0]]))
    with pytest.raises(DegenerateStateError):
        iml_predict(state, collapse, PARAMS)


def test_floored_box_coasts_through_translation():
    # Shrinking height velocity floors the box on the first step; the warp
    # must still apply on every later step instead of raising.
    state = km_init(from_center_form(300.0, 200.0, 40.0, 2.0), PARAMS)
    state.mean[7] = -5.0
    warp = AffineWarp.translation(4.0, 0.0)
    for step in range(1, 6):
        state = iml_predict(state, warp, PARAMS)
        assert state.mean[3] == pytest.approx(SIZE_FLOOR, rel=1e-6)
        assert state.mean[0] == pytest.approx(300.0 + 4.0 * step, abs=1e-9)
        assert state.mean[1] == pytest.approx(200.0, abs=1e-9)


def test_velocity_norm():
    state = km_init(BoundingBox(0, 0, 10, 20), PARAMS)
    assert velocity_norm(state, 100.0) == 0.0
    state.mean[4:6] = (3.0, 4.0)
    assert velocity_norm(state, 100.0) == pytest.approx(0.05)
    state.mean[4:8] = (500.0, 0, 0, 0)
    assert velocity_norm(state, 100.0) == 1.0
    with pytest.raises(ValueError):
        velocity_norm(state, 0.0)


def test_state_copy_is_deep():
    state = km_init(BoundingBox(0, 0, 10, 20), PARAMS)
    dup = state.copy()
    dup.mean[0] = 99.0
    dup.cov[0, 0] = 99.0
    assert state.mean[0] == 5.0
    assert state.cov[0, 0] != 99.0


# -------------------------------------------------- batched filter invariance

WARPS = {
    "identity": AffineWarp.identity(),
    "translation": AffineWarp.translation(6.5, -3.25),
    "scale": AffineWarp(np.array([[0.8, 0.0, 12.0], [0.0, 0.8, -7.0]])),
    # Maps x - y: square boxes may collapse, others do not.
    "shear": AffineWarp(np.array([[1.0, -1.0, 0.0], [0.0, 1.0, 0.0]])),
    "collapse": AffineWarp(np.array([[0.0, 0.0, 5.0], [0.0, 1.0, 0.0]])),
}


@st.composite
def states(draw):
    cx = draw(st.floats(0.0, 2000.0))
    cy = draw(st.floats(0.0, 1200.0))
    # Sizes include the floor itself and boxes the velocity floors.
    w = draw(st.sampled_from([SIZE_FLOOR, 1.0, 37.5]) | st.floats(SIZE_FLOOR, 300.0))
    square = draw(st.booleans())
    h = w if square else draw(st.floats(SIZE_FLOOR, 300.0))
    velocity = draw(st.lists(st.floats(-20.0, 20.0), min_size=4, max_size=4))
    seed = draw(st.integers(0, 2**32 - 1))
    state = km_init(BoundingBox(cx - 0.5 * w, cy - 0.5 * h, cx + 0.5 * w, cy + 0.5 * h), PARAMS)
    state.mean[:MEAS_DIM] = (cx, cy, w, h)
    state.mean[MEAS_DIM:] = velocity
    a = np.random.default_rng(seed).uniform(-1.0, 1.0, (STATE_DIM, STATE_DIM))
    state.cov = state.cov + a @ a.T
    obs = from_center_form(
        cx + draw(st.floats(-10.0, 10.0)),
        cy + draw(st.floats(-10.0, 10.0)),
        draw(st.floats(1.0, 300.0)),
        draw(st.floats(1.0, 300.0)),
    )
    return state, obs


def assert_rows_close(batch, single):
    scale = np.maximum(1.0, np.abs(single))
    assert np.all(np.abs(batch - single) <= 1e-9 * scale)


@settings(max_examples=200, deadline=None)
@given(st.lists(states(), min_size=1, max_size=6), st.sampled_from(sorted(WARPS)))
def test_batched_filter_equals_single_track_rows(drawn, warp_name):
    warp = WARPS[warp_name]
    means = np.stack([s.mean for s, _ in drawn])
    covs = np.stack([s.cov for s, _ in drawn])
    pred_means, pred_covs, collapsed = predict_states(means, covs, warp, PARAMS)
    # Inputs are left untouched.
    assert np.array_equal(means, np.stack([s.mean for s, _ in drawn]))

    for i, (state, _) in enumerate(drawn):
        try:
            single = iml_predict(state, warp, PARAMS)
        except DegenerateStateError:
            assert collapsed[i]
            single = km_predict(state, PARAMS)
        else:
            assert not collapsed[i]
        assert_rows_close(pred_means[i], single.mean)
        assert_rows_close(pred_covs[i], single.cov)

    observed = np.stack([obs.as_array() for _, obs in drawn])
    upd_means, upd_covs = update_states(pred_means, pred_covs, observed, PARAMS)
    for i, (_, obs) in enumerate(drawn):
        single = km_update(KalmanState(pred_means[i], pred_covs[i]), obs, PARAMS)
        assert_rows_close(upd_means[i], single.mean)
        assert_rows_close(upd_covs[i], single.cov)
