"""Constant-velocity Kalman filter over box state, and the camera-aware
prediction step that splices the inter-frame warp into the box part.

State layout is [cx, cy, w, h, v_cx, v_cy, v_w, v_h]: center-form box plus
one velocity per box component, in pixels and pixels/frame. Process and
measurement noise scale with the current box height so the filter adapts
to object scale.

The four box components follow the same model independently: transition,
measurement, both noises and the initial covariance are all kron(., I4)
over a (position, velocity) pair. So every covariance the filter makes is
kron(C, I4) with C a symmetric 2x2, and a state carries only C's three
terms (pp, pv, vv). The gain is (pp, pv) / (pp + r), with no solve.

The filter has two paths, chosen by the caller's shape. `predict_states`
and `update_states` run it with numpy on the (T, 8) means and (T, 3)
covariance terms of T tracks at once; the tracker calls them on its
track table once per frame. `km_predict`, `iml_predict` and `km_update`
run it on one state's Python floats, where numpy's per-call overhead
would outweigh the arithmetic: the gap filler chains hundreds of them
per reconnection.
Both paths do the same operations in the same order, so they agree bit
for bit; `test_filter_equals_dense_oracle` holds them equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .alignment import AffineWarp
from .geometry import (
    BoundingBox,
    centers_to_corners,
    corners_to_centers,
    from_center_form,
    to_center_form,
)

MEAS_DIM = 4

# Smallest width/height the filter will report; keeps boxes valid.
SIZE_FLOOR = 1e-3


class DegenerateStateError(Exception):
    """Raised when a warp collapses a box to zero extent or an update runs
    into an innovation variance that is not positive."""


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

    # Squares are products: numpy squares arrays that way, while a float's
    # ** 2 goes through pow(), which can differ in the last bit.
    def process_variances(self, heights):
        """Process noise variances (position, velocity) per box height;
        scalars for a scalar height, (T,) arrays for a (T,) array."""
        sp = self.std_pos * heights
        sv = self.std_vel * heights
        return sp * sp, sv * sv

    def measurement_variances(self, heights):
        """Variance of each box component's measurement noise (the four
        share it), per box height; scalar in, scalar out."""
        sp = (self.std_pos if self.std_meas is None else self.std_meas) * heights
        return sp * sp


@dataclass
class KalmanState:
    """Filter mean (8,) and covariance terms (3,): the pp, pv and vv of
    the symmetric 2x2 C whose kron(C, I4) is the covariance."""

    mean: np.ndarray
    cov_terms: np.ndarray

    @property
    def cov(self) -> np.ndarray:
        """The (8, 8) covariance kron(C, I4), built on every read."""
        pp, pv, vv = self.cov_terms
        return np.kron(np.array([[pp, pv], [pv, vv]]), np.eye(MEAS_DIM))

    def box(self) -> BoundingBox:
        cx, cy, w, h = self.mean[:MEAS_DIM].tolist()
        return from_center_form(cx, cy, w, h)

    def copy(self) -> "KalmanState":
        return KalmanState(self.mean.copy(), self.cov_terms.copy())


def _floor_sizes(means: np.ndarray) -> None:
    np.maximum(means[:, 2:MEAS_DIM], SIZE_FLOOR, out=means[:, 2:MEAS_DIM])


def km_init(box: BoundingBox, params: MotionParams) -> KalmanState:
    """Start a track from a box: zero velocity, height-scaled uncertainty."""
    cx, cy, w, h = to_center_form(box)
    mean = np.array([cx, cy, w, h, 0.0, 0.0, 0.0, 0.0])
    sp = params.init_pos_factor * params.std_pos * h
    sv = params.init_vel_factor * params.std_vel * h
    return KalmanState(mean, np.array([sp * sp, 0.0, sv * sv]))


def _warp_boxes(warp: AffineWarp, means: np.ndarray) -> np.ndarray:
    """Re-localize the box part of (T, 8) means through `warp`, in place.

    Each box's two diagonal corners are mapped and the axis-aligned box
    is rebuilt on them. Returns the (T,) mask of rows whose box the warp
    collapsed to zero extent; those keep their box.
    """
    (a, b, tx), (c, d, ty) = warp.matrix.tolist()
    corners = centers_to_corners(means[:, :MEAS_DIM])
    xs, ys = corners[:, 0::2], corners[:, 1::2]
    # Element-wise rather than a matmul, whose BLAS kernel may fuse the
    # multiply-adds: this is the arithmetic `_predict_floats` repeats.
    mapped = np.stack([a * xs + b * ys + tx, c * xs + d * ys + ty], axis=2)
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
    cov_terms: np.ndarray,
    warp: AffineWarp | None,
    params: MotionParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Warp-fused constant-velocity prediction of T states at once.

    means (T, 8) and cov_terms (T, 3) are left untouched. Each row adds
    its velocities to its box and steps C <- A C A^T + diag(q_p, q_v),
    with A = [[1, 1], [0, 1]] and q scaled by that row's prior height.
    Unless `warp` is None or the identity, the box part then goes through
    it (see `_warp_boxes`); the covariance does not see the warp. Sizes
    are floored before and after the warp. Returns the predicted means
    and covariance terms and the (T,) mask of rows whose box the warp
    collapsed; those rows keep the unwarped prediction.
    """
    predicted = means.copy()
    predicted[:, :MEAS_DIM] += means[:, MEAS_DIM:]
    _floor_sizes(predicted)
    pp, pv, vv = cov_terms.T
    q_pos, q_vel = params.process_variances(means[:, 3])
    terms = np.empty_like(cov_terms)
    terms[:, 1] = pv + vv
    # pp + 2 pv + vv, added in the order of F P F^T's row sums then its
    # column sums, so the terms equal the 8x8 product's exactly.
    terms[:, 0] = (pp + pv) + terms[:, 1] + q_pos
    terms[:, 2] = vv + q_vel
    if warp is None or warp.is_identity():
        collapsed = np.zeros(len(means), dtype=bool)
    else:
        collapsed = _warp_boxes(warp, predicted)
        _floor_sizes(predicted)
    return predicted, terms, collapsed


def update_states(
    means: np.ndarray, cov_terms: np.ndarray, observations: np.ndarray, params: MotionParams
) -> tuple[np.ndarray, np.ndarray]:
    """Kalman correction of T states against (T, 4) corner-form boxes.

    The measurement selects the box part of the state, so each row's
    innovation variance is pp + r and its gain is (pp, pv) / (pp + r),
    shared by the four box components. Raises DegenerateStateError if any
    innovation variance is not positive.
    """
    s = cov_terms[:, 0] + params.measurement_variances(means[:, 3])
    if not (s > 0.0).all():
        raise DegenerateStateError("innovation variance is not positive")
    gain = cov_terms[:, :2] / s[:, None]  # (k_pos, k_vel) = (pp, pv) / s
    innovation = corners_to_centers(observations) - means[:, :MEAS_DIM]
    # Row-wise kron(gain, innovation): the box moves by k_pos, the
    # velocity by k_vel times the innovation.
    updated = means + (gain[:, :, None] * innovation[:, None, :]).reshape(means.shape)
    _floor_sizes(updated)
    # C - k (pp, pv)^T: (pp - k_pos pp, pv - k_pos pv, vv - k_vel pv).
    return updated, cov_terms - gain[:, [0, 0, 1]] * cov_terms[:, [0, 1, 1]]


_IDENTITY_ROWS = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]


def _predict_floats(
    state: KalmanState, warp: AffineWarp | None, params: MotionParams
) -> tuple[list[float], list[float], bool]:
    """`predict_states` of one state on Python floats, operation for
    operation. Returns the predicted mean and covariance terms, and
    whether the warp collapsed the box (which then keeps the unwarped
    prediction)."""
    cx, cy, w, h, vx, vy, vw, vh = state.mean.tolist()
    pp, pv, vv = state.cov_terms.tolist()
    q_pos, q_vel = params.process_variances(h)
    pv_next = pv + vv
    terms = [(pp + pv) + pv_next + q_pos, pv_next, vv + q_vel]
    # max(x, floor) keeps a NaN x, as np.maximum does.
    cx, cy, w, h = cx + vx, cy + vy, max(w + vw, SIZE_FLOOR), max(h + vh, SIZE_FLOOR)
    collapsed = False
    rows = None if warp is None else warp.matrix.tolist()
    if rows is not None and rows != _IDENTITY_ROWS:
        (a, b, tx), (c, d, ty) = rows
        x1, y1, x2, y2 = cx - 0.5 * w, cy - 0.5 * h, cx + 0.5 * w, cy + 0.5 * h
        fx, fy = a * x1 + b * y1 + tx, c * x1 + d * y1 + ty
        sx, sy = a * x2 + b * y2 + tx, c * x2 + d * y2 + ty
        low_x, low_y = min(fx, sx), min(fy, sy)
        ex, ey = max(fx, sx) - low_x, max(fy, sy) - low_y
        # Both extents tested, so that a NaN in either counts as collapsed.
        collapsed = not (ex > 0.0 and ey > 0.0)
        if not collapsed:
            cx, cy = low_x + 0.5 * ex, low_y + 0.5 * ey
            w, h = max(ex, SIZE_FLOOR), max(ey, SIZE_FLOOR)
    return [cx, cy, w, h, vx, vy, vw, vh], terms, collapsed


def km_predict(state: KalmanState, params: MotionParams) -> KalmanState:
    """`predict_states` of one state, with no warp."""
    mean, terms, _ = _predict_floats(state, None, params)
    return KalmanState(np.array(mean), np.array(terms))


def km_update(
    state: KalmanState, observation: BoundingBox, params: MotionParams
) -> KalmanState:
    """`update_states` of one state against a corner-form box, on Python
    floats, operation for operation."""
    cx, cy, w, h, vx, vy, vw, vh = state.mean.tolist()
    pp, pv, vv = state.cov_terms.tolist()
    s = pp + params.measurement_variances(h)
    if not s > 0.0:
        raise DegenerateStateError("innovation variance is not positive")
    k_pos, k_vel = pp / s, pv / s
    ow, oh = observation.x2 - observation.x1, observation.y2 - observation.y1
    dx, dy = observation.x1 + 0.5 * ow - cx, observation.y1 + 0.5 * oh - cy
    dw, dh = ow - w, oh - h
    mean = [
        cx + k_pos * dx,
        cy + k_pos * dy,
        max(w + k_pos * dw, SIZE_FLOOR),
        max(h + k_pos * dh, SIZE_FLOOR),
        vx + k_vel * dx,
        vy + k_vel * dy,
        vw + k_vel * dw,
        vh + k_vel * dh,
    ]
    terms = [pp - k_pos * pp, pv - k_pos * pv, vv - k_vel * pv]
    return KalmanState(np.array(mean), np.array(terms))


def iml_predict(
    state: KalmanState, warp: AffineWarp, params: MotionParams
) -> KalmanState:
    """`predict_states` of one state through the inter-frame camera warp.

    Raises DegenerateStateError if the warp collapses the box to zero
    extent.
    """
    mean, terms, collapsed = _predict_floats(state, warp, params)
    if collapsed:
        raise DegenerateStateError("warp collapsed the box to zero extent")
    return KalmanState(np.array(mean), np.array(terms))


def velocity_norm(mean: np.ndarray, image_diagonal: float) -> float:
    """Speed of an (8,) state mean relative to the image diagonal, in
    [0, 1]."""
    if image_diagonal <= 0:
        raise ValueError("image_diagonal must be positive")
    speed = math.sqrt(float(np.dot(mean[MEAS_DIM:], mean[MEAS_DIM:])))
    return min(speed / image_diagonal, 1.0)
