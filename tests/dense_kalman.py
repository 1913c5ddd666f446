"""Textbook matrix form of the filter in `motrack.kalman`, the reference
the structured filter is held to.

A state here is a mean (8,) and a full covariance (8, 8). Prediction is
mean <- F mean, cov <- F cov F^T + Q; the update solves the 4x4
innovation covariance for the gain; the warp-fused prediction maps the
predicted box through `warp_box`. Sizes are floored as in the filter.
"""

from __future__ import annotations

import numpy as np

from motrack.alignment import AffineWarp, apply_points
from motrack.geometry import BoundingBox, from_center_form, to_center_form
from motrack.kalman import MEAS_DIM, SIZE_FLOOR, DegenerateStateError, MotionParams

STATE_DIM = 2 * MEAS_DIM
F = np.eye(STATE_DIM)
F[:MEAS_DIM, MEAS_DIM:] = np.eye(MEAS_DIM)
H = np.eye(MEAS_DIM, STATE_DIM)


def kron_cov(terms) -> np.ndarray:
    """(8, 8) covariance kron(C, I4) of covariance terms (pp, pv, vv)."""
    pp, pv, vv = terms
    return np.kron(np.array([[pp, pv], [pv, vv]]), np.eye(MEAS_DIM))


def _symmetrize(cov: np.ndarray) -> np.ndarray:
    return 0.5 * (cov + cov.T)


def _floor_size(mean: np.ndarray) -> np.ndarray:
    mean[2] = max(mean[2], SIZE_FLOOR)
    mean[3] = max(mean[3], SIZE_FLOOR)
    return mean


def warp_box(warp: AffineWarp, box: BoundingBox) -> BoundingBox:
    """Map the box's two diagonal corners and rebuild the axis-aligned box
    on the results."""
    corners = np.array([[box.x1, box.y1], [box.x2, box.y2]])
    mapped = apply_points(warp, corners)
    x1, y1 = np.min(mapped, axis=0)
    x2, y2 = np.max(mapped, axis=0)
    if x2 <= x1 or y2 <= y1:
        raise ValueError("warp collapsed the box to zero extent")
    return BoundingBox(float(x1), float(y1), float(x2), float(y2))


def predict(
    mean: np.ndarray, cov: np.ndarray, params: MotionParams
) -> tuple[np.ndarray, np.ndarray]:
    q_pos, q_vel = params.process_variances(mean[3])
    q = np.diag([q_pos] * MEAS_DIM + [q_vel] * MEAS_DIM)
    return _floor_size(F @ mean), _symmetrize(F @ cov @ F.T + q)


def warp_predict(
    mean: np.ndarray, cov: np.ndarray, warp: AffineWarp, params: MotionParams
) -> tuple[np.ndarray, np.ndarray]:
    """`predict`, then the box through `warp`; raises DegenerateStateError
    if the warp collapses the box."""
    mean, cov = predict(mean, cov, params)
    if warp.is_identity():
        return mean, cov
    try:
        warped = warp_box(warp, from_center_form(*mean[:MEAS_DIM]))
    except ValueError as exc:
        raise DegenerateStateError(str(exc)) from exc
    mean[:MEAS_DIM] = to_center_form(warped)
    return _floor_size(mean), cov


def update(
    mean: np.ndarray, cov: np.ndarray, observation: BoundingBox, params: MotionParams
) -> tuple[np.ndarray, np.ndarray]:
    z = np.array(to_center_form(observation))
    r = np.eye(MEAS_DIM) * params.measurement_variances(mean[3])
    s = H @ cov @ H.T + r
    try:
        gain = np.linalg.solve(s, H @ cov).T
    except np.linalg.LinAlgError as exc:
        raise DegenerateStateError("singular innovation covariance") from exc
    updated = _floor_size(mean + gain @ (z - H @ mean))
    return updated, _symmetrize((np.eye(STATE_DIM) - gain @ H) @ cov)
