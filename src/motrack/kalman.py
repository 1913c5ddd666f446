"""Constant-velocity Kalman filter over box state, and the camera-aware
prediction step that splices the inter-frame warp into the box part.

State layout is [cx, cy, w, h, v_cx, v_cy, v_w, v_h]: center-form box plus
one velocity per box component, in pixels and pixels/frame. Process and
measurement noise scale with the current box height so the filter adapts
to object scale.

`predict_states` and `update_states` run the filter on the stacked
(T, 8) means and (T, 8, 8) covariances of T tracks at once; the tracker
calls them once per frame. `km_predict`, `iml_predict` and `km_update`
are the same filter for one state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .alignment import AffineWarp, warp_box
from .geometry import (
    BoundingBox,
    centers_to_corners,
    corners_to_centers,
    from_center_form,
    to_center_form,
)

STATE_DIM = 8
MEAS_DIM = 4

# Smallest width/height the filter will report; keeps boxes valid.
SIZE_FLOOR = 1e-3


class DegenerateStateError(Exception):
    """Raised when a warp collapses a box to zero extent or an update runs
    into a singular innovation covariance."""


@dataclass
class MotionParams:
    """Noise scales for the constant-velocity model.

    std_pos and std_vel are multiplied by the current box height to obtain
    per-step process/measurement standard deviations; init_pos_factor and
    init_vel_factor inflate them for the initial covariance. std_meas
    overrides the measurement scale when observations deserve more or less
    trust than the model (defaults to std_pos).
    """

    std_pos: float = 1.0 / 20.0
    std_vel: float = 1.0 / 160.0
    std_meas: float | None = None
    # Near-diffuse priors: a fresh track knows nothing about its velocity,
    # so the first updates should trust displacement over the zero init.
    init_pos_factor: float = 10.0
    init_vel_factor: float = 1000.0

    def process_variances(self, heights) -> np.ndarray:
        """Diagonal of the process noise: (8,) for one box height, (T, 8)
        for a (T,) array of them."""
        sp, sv = self.std_pos, self.std_vel
        return np.multiply.outer(heights, np.array([sp, sp, sp, sp, sv, sv, sv, sv])) ** 2

    def measurement_variances(self, heights):
        """Variance of each box component's measurement noise (the four
        share it), per box height; scalar in, scalar out."""
        sp = self.std_pos if self.std_meas is None else self.std_meas
        return (sp * heights) ** 2


@dataclass
class KalmanState:
    """Filter mean (8,) and covariance (8, 8)."""

    mean: np.ndarray
    cov: np.ndarray

    def box(self) -> BoundingBox:
        cx, cy, w, h = self.mean[:MEAS_DIM]
        return from_center_form(cx, cy, w, h)

    def velocity(self) -> np.ndarray:
        return self.mean[MEAS_DIM:].copy()

    def copy(self) -> "KalmanState":
        return KalmanState(self.mean.copy(), self.cov.copy())


def _symmetrize(covs: np.ndarray) -> np.ndarray:
    return 0.5 * (covs + np.swapaxes(covs, -1, -2))


def _floor_sizes(means: np.ndarray) -> None:
    np.maximum(means[:, 2:MEAS_DIM], SIZE_FLOOR, out=means[:, 2:MEAS_DIM])


def _diagonal(matrices: np.ndarray) -> np.ndarray:
    """Writable view of the diagonals of contiguous (T, n, n) matrices."""
    n = matrices.shape[-1]
    return matrices.reshape(len(matrices), n * n)[:, :: n + 1]


def km_init(box: BoundingBox, params: MotionParams) -> KalmanState:
    """Start a track from a box: zero velocity, height-scaled uncertainty."""
    cx, cy, w, h = to_center_form(box)
    mean = np.array([cx, cy, w, h, 0.0, 0.0, 0.0, 0.0])
    sp = params.init_pos_factor * params.std_pos * h
    sv = params.init_vel_factor * params.std_vel * h
    std = np.array([sp, sp, sp, sp, sv, sv, sv, sv])
    return KalmanState(mean, np.diag(std**2))


def _warp_boxes(warp: AffineWarp, means: np.ndarray) -> np.ndarray:
    """Re-localize the box part of (T, 8) means through `warp`, in place.

    Like `warp_box`, each box's two diagonal corners are mapped and the
    axis-aligned box is rebuilt on them. Returns the (T,) mask of rows
    whose box the warp collapsed to zero extent; those keep their box.
    """
    corners = centers_to_corners(means[:, :MEAS_DIM]).reshape(-1, 2, 2)
    mapped = corners @ warp.linear().T + warp.offset()
    first, second = mapped[:, 0], mapped[:, 1]
    low = np.minimum(first, second)
    extent = np.maximum(first, second) - low
    # Written so that NaN extents count as collapsed too.
    collapsed = ~(np.minimum(extent[:, 0], extent[:, 1]) > 0.0)
    warped = np.concatenate([low + 0.5 * extent, extent], axis=1)
    np.copyto(means[:, :MEAS_DIM], warped, where=~collapsed[:, None])
    return collapsed


def predict_states(
    means: np.ndarray,
    covs: np.ndarray,
    warp: AffineWarp | None,
    params: MotionParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Warp-fused constant-velocity prediction of T states at once.

    means (T, 8) and covs (T, 8, 8) are left untouched. Each row steps
    mean <- F mean and cov <- F cov F^T + Q, with Q scaled by that row's
    prior height. Unless `warp` is None or the identity, the box part
    then goes through it (see `_warp_boxes`). Sizes are floored before
    and after the warp. Returns the predicted means and covariances and
    the (T,) mask of rows whose box the warp collapsed; those rows keep
    the unwarped prediction.
    """
    # F adds each velocity to its box component: F @ mean, and F cov F^T
    # as the same row sums followed by the same column sums.
    predicted = means.copy()
    predicted[:, :MEAS_DIM] += means[:, MEAS_DIM:]
    _floor_sizes(predicted)
    cov = covs.copy()
    cov[:, :MEAS_DIM] += cov[:, MEAS_DIM:]
    cov[:, :, :MEAS_DIM] += cov[:, :, MEAS_DIM:]
    _diagonal(cov)[...] += params.process_variances(means[:, 3])
    if warp is None or warp.is_identity():
        collapsed = np.zeros(len(means), dtype=bool)
    else:
        collapsed = _warp_boxes(warp, predicted)
        _floor_sizes(predicted)
    return predicted, _symmetrize(cov), collapsed


def update_states(
    means: np.ndarray, covs: np.ndarray, observations: np.ndarray, params: MotionParams
) -> tuple[np.ndarray, np.ndarray]:
    """Kalman correction of T states against (T, 4) corner-form boxes.

    The measurement selects the box part of the state, so H P is the top
    four rows of P and S = P[:4, :4] + R. One batched 4x4 solve gives the
    gains. Raises DegenerateStateError if any innovation covariance is
    singular.
    """
    top = covs[:, :MEAS_DIM, :]
    s = top[:, :, :MEAS_DIM].copy()
    _diagonal(s)[...] += params.measurement_variances(means[:, 3])[:, None]
    try:
        gain_t = np.linalg.solve(s, top)  # K^T, (T, 4, 8)
    except np.linalg.LinAlgError as exc:
        raise DegenerateStateError("singular innovation covariance") from exc
    innovation = corners_to_centers(observations) - means[:, :MEAS_DIM]
    updated = means + (innovation[:, None, :] @ gain_t)[:, 0]
    _floor_sizes(updated)
    return updated, _symmetrize(covs - gain_t.transpose(0, 2, 1) @ top)


# The single-state functions below are the textbook matrix form of the
# same filter. The gap filler runs them one state at a time, where they
# are cheaper than the batched code above with T = 1, and the tests hold
# the batched code to them row by row.
_F = np.eye(STATE_DIM)
_F[:MEAS_DIM, MEAS_DIM:] = np.eye(MEAS_DIM)
_H = np.eye(MEAS_DIM, STATE_DIM)


def _floor_size(mean: np.ndarray) -> np.ndarray:
    mean[2] = max(mean[2], SIZE_FLOOR)
    mean[3] = max(mean[3], SIZE_FLOOR)
    return mean


def km_predict(state: KalmanState, params: MotionParams) -> KalmanState:
    """One constant-velocity step: mean <- F mean, cov <- F cov F^T + Q."""
    mean = _floor_size(_F @ state.mean)
    q = np.diag(params.process_variances(state.mean[3]))
    return KalmanState(mean, _symmetrize(_F @ state.cov @ _F.T + q))


def km_update(
    state: KalmanState, observation: BoundingBox, params: MotionParams
) -> KalmanState:
    """Standard Kalman correction against a center-form box observation."""
    z = np.array(to_center_form(observation))
    r = np.eye(MEAS_DIM) * params.measurement_variances(state.mean[3])
    innovation = z - _H @ state.mean
    s = _H @ state.cov @ _H.T + r
    try:
        gain = np.linalg.solve(s, _H @ state.cov).T
    except np.linalg.LinAlgError as exc:
        raise DegenerateStateError("singular innovation covariance") from exc
    mean = _floor_size(state.mean + gain @ innovation)
    cov = (np.eye(STATE_DIM) - gain @ _H) @ state.cov
    return KalmanState(mean, _symmetrize(cov))


def iml_predict(
    state: KalmanState, warp: AffineWarp, params: MotionParams
) -> KalmanState:
    """Constant-velocity prediction with the box part re-localized through
    the inter-frame camera warp.

    The warp touches only the box components of the mean; velocities and
    the covariance update are exactly those of km_predict. Sizes are
    floored after the warp. Raises DegenerateStateError only if the warp
    collapses the box to zero extent.
    """
    predicted = km_predict(state, params)
    if warp.is_identity():
        return predicted
    try:
        warped = warp_box(warp, predicted.box())
    except ValueError as exc:
        raise DegenerateStateError(str(exc)) from exc
    predicted.mean[:MEAS_DIM] = to_center_form(warped)
    _floor_size(predicted.mean)
    return predicted


def velocity_norm(state: KalmanState, image_diagonal: float) -> float:
    """Speed of the box state relative to the image diagonal, in [0, 1]."""
    if image_diagonal <= 0:
        raise ValueError("image_diagonal must be positive")
    speed = math.sqrt(float(np.dot(state.mean[MEAS_DIM:], state.mean[MEAS_DIM:])))
    return min(speed / image_diagonal, 1.0)
