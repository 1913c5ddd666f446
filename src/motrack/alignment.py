"""Global frame alignment and warp algebra.

Estimates a 2x3 affine warp between consecutive grayscale frames by
maximizing the enhanced correlation coefficient (zero-mean, unit-norm
image correlation) with Gauss-Newton increments, coarse to fine over an
image pyramid. Also provides warp application to boxes and points,
inversion, composition, and a scalar camera-motion intensity derived
from the warp's distance (in cosine terms) from the identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .geometry import BoundingBox

# Template pixels this close to the edge never enter the correlation
# support; gradients there are one-sided and bias the normal equations.
BORDER_MARGIN = 2

MIN_ALIGN_DIM = 8
MIN_SUPPORT_PIXELS = 36

# Integer-shift search radius at the coarsest pyramid level, in that
# level's pixels. 5 px there covers 5 * 2**(levels-1) px of raw motion.
SHIFT_SEARCH_RADIUS = 5

# Sanity bounds on |det| of the linear part; outside means the solver
# wandered off to a degenerate warp.
DET_LOW = 0.25
DET_HIGH = 4.0

# Reference 6-vector: identity linear part, zero translation, laid out
# row-major to match AffineWarp.flatten().
_REFERENCE = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])


class EccError(Exception):
    """Base class for alignment failures."""


class EccConvergenceError(EccError):
    """The iteration budget ran out while the objective was still moving."""


class EccSingularError(EccError):
    """Normal equations became singular (featureless or collapsed support)."""


@dataclass(frozen=True)
class AffineWarp:
    """2x3 affine map from previous-frame to current-frame coordinates.

    Row-major layout: [[a11, a12, tx], [a21, a22, ty]].
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (2, 3):
            raise ValueError(f"warp matrix must be 2x3, got {m.shape}")
        object.__setattr__(self, "matrix", m)

    @classmethod
    def identity(cls) -> "AffineWarp":
        return cls(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))

    @classmethod
    def translation(cls, tx: float, ty: float) -> "AffineWarp":
        return cls(np.array([[1.0, 0.0, tx], [0.0, 1.0, ty]]))

    def linear(self) -> np.ndarray:
        return self.matrix[:, :2]

    def offset(self) -> np.ndarray:
        return self.matrix[:, 2]

    def det(self) -> float:
        return float(np.linalg.det(self.linear()))

    def flatten(self) -> np.ndarray:
        return self.matrix.reshape(-1).copy()

    def is_identity(self, tol: float = 0.0) -> bool:
        return bool(np.max(np.abs(self.flatten() - _REFERENCE)) <= tol)


@dataclass
class CameraMotionLog:
    """Per-frame warps (frame t-1 -> t) plus the frames where alignment
    fell back to identity."""

    warps: dict[int, AffineWarp] = field(default_factory=dict)
    fallback_frames: list[int] = field(default_factory=list)

    def record(self, frame: int, warp: AffineWarp) -> None:
        self.warps[frame] = warp

    def record_fallback(self, frame: int) -> None:
        self.warps[frame] = AffineWarp.identity()
        self.fallback_frames.append(frame)

    def get(self, frame: int) -> AffineWarp:
        return self.warps.get(frame, AffineWarp.identity())


@dataclass
class EccParams:
    max_iterations: int = 50
    epsilon: float = 1e-5
    pyramid_levels: int = 3
    working_width: int = 640

    def __post_init__(self) -> None:
        if self.max_iterations <= 0:
            raise ValueError("max_iterations must be positive")
        # Written so that NaN, which fails every comparison and would
        # disable the step-size stop, is rejected too.
        if not (0 < self.epsilon < math.inf):
            raise ValueError("epsilon must be positive and finite")
        if self.pyramid_levels <= 0:
            raise ValueError("pyramid_levels must be positive")
        if self.working_width <= 0:
            raise ValueError("working_width must be positive")


def apply_points(warp: AffineWarp, points: np.ndarray) -> np.ndarray:
    """Map (N, 2) xy points through the warp."""
    pts = np.asarray(points, dtype=float)
    return pts @ warp.linear().T + warp.offset()


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


def invert_warp(warp: AffineWarp) -> AffineWarp:
    a = warp.linear()
    try:
        a_inv = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise ValueError("warp linear part is singular") from exc
    t_inv = -a_inv @ warp.offset()
    return AffineWarp(np.hstack([a_inv, t_inv[:, None]]))


def compose_warps(outer: AffineWarp, inner: AffineWarp) -> AffineWarp:
    """Warp equal to applying `inner` first, then `outer`."""
    a = outer.linear() @ inner.linear()
    t = outer.linear() @ inner.offset() + outer.offset()
    return AffineWarp(np.hstack([a, t[:, None]]))


def camera_intensity(warp: AffineWarp) -> float:
    """1 minus the cosine similarity between the warp's 6-vector and the
    identity reference in the same layout. 0 for the identity; grows with
    camera motion; bounded by 2.

    Any consistent flattening order gives the same value because dot
    products and norms are permutation invariant when both vectors
    permute together.
    """
    w = warp.flatten()
    w_sq = float(np.dot(w, w))
    if w_sq == 0.0:
        raise ValueError("zero-norm warp vector")
    # One sqrt of the product keeps the identity case exactly zero
    # (sqrt(2)*sqrt(2) != 2 in floats, sqrt(2*2) is).
    r_sq = float(np.dot(_REFERENCE, _REFERENCE))
    return 1.0 - float(np.dot(w, _REFERENCE)) / math.sqrt(w_sq * r_sq)


def _as_float_image(image) -> np.ndarray:
    """Accept a 2D array or anything exposing .to_float() (see pgm.GrayImage)."""
    if hasattr(image, "to_float"):
        return image.to_float()
    arr = np.asarray(image, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2D grayscale image, got shape {arr.shape}")
    return arr


def _halve(image: np.ndarray) -> np.ndarray:
    h, w = image.shape
    img = image[: h - h % 2, : w - w % 2]
    return 0.25 * (img[0::2, 0::2] + img[1::2, 0::2] + img[0::2, 1::2] + img[1::2, 1::2])


def _scale_translation(warp: np.ndarray, factor: float) -> np.ndarray:
    scaled = warp.copy()
    scaled[:, 2] *= factor
    return scaled


def _shift_correlation(template: np.ndarray, image: np.ndarray, dx: int, dy: int) -> float:
    """Zero-mean correlation of the template against the image shifted by
    the integer offset (dx, dy), over the in-bounds support inside the
    border margin; -1 when the support is too small or flat.

    Under a pure integer translation the support is a rectangle, so both
    sides are plain slices, in the same row-major order as the points of
    the support."""
    h, w = template.shape
    y0, y1 = max(BORDER_MARGIN, -dy), min(h - BORDER_MARGIN, h - dy)
    x0, x1 = max(BORDER_MARGIN, -dx), min(w - BORDER_MARGIN, w - dx)
    if y1 <= y0 or x1 <= x0 or (y1 - y0) * (x1 - x0) < MIN_SUPPORT_PIXELS:
        return -1.0
    ir = template[y0:y1, x0:x1].reshape(-1)
    iw = image[y0 + dy : y1 + dy, x0 + dx : x1 + dx].reshape(-1)
    ir = ir - ir.mean()
    iw = iw - iw.mean()
    denom = np.linalg.norm(ir) * np.linalg.norm(iw)
    if denom < 1e-12:
        return -1.0
    return float(ir @ iw / denom)


def _best_integer_shift(template: np.ndarray, image: np.ndarray, radius: int) -> tuple[int, int]:
    """The integer offset (dx, dy) within +-radius, starting from the
    identity, that maximizes correlation. Gradient steps need to start
    inside the correlation basin; an exhaustive shift search at the
    coarsest pyramid level buys a wide capture range for a few hundred
    tiny evaluations."""
    best = (0, 0)
    best_rho = _shift_correlation(template, image, 0, 0)
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            if dx == 0 and dy == 0:
                continue
            rho = _shift_correlation(template, image, dx, dy)
            if rho > best_rho:
                best_rho = rho
                best = (dx, dy)
    return best


class _SampleBuffers:
    """Point-sized buffers `_bilinear` writes into, for up to `size`
    points: the cell indices, the four corner weights, one sample array
    per image, and one product temporary."""

    def __init__(self, size: int) -> None:
        self.x0 = np.empty(size, dtype=np.intp)
        self.index = np.empty(size, dtype=np.intp)
        self.weights = np.empty((4, size))
        self.samples = np.empty((3, size))
        self.product = np.empty(size)


def _bilinear(
    flats: tuple[np.ndarray, ...],
    width: int,
    height: int,
    xs: np.ndarray,
    ys: np.ndarray,
    buf: _SampleBuffers,
) -> list[np.ndarray]:
    """Bilinear samples of each flattened (height, width) image at the
    points (xs, ys), all inside the closed [0, width-1] x [0, height-1].

    Equal, up to rounding, to order-1 `ndimage.map_coordinates` with
    mode="nearest": clamping the cell corner to width-2 (height-2) puts a
    point on the last column (row) at weight 1 on that column. Indices
    and weights are computed once for all images. Every intermediate is
    written into `buf`, and the samples returned are views of its first
    len(xs) entries, valid until the next call with the same buffers.
    """
    n = xs.size
    x0 = buf.x0[:n]
    i00 = buf.index[:n]
    w00, w01, w10, w11 = buf.weights[:, :n]
    product = buf.product[:n]
    # Points are non-negative, so truncation is the floor.
    np.copyto(x0, xs, casting="unsafe")
    np.minimum(x0, width - 2, out=x0)
    np.copyto(i00, ys, casting="unsafe")
    np.minimum(i00, height - 2, out=i00)
    np.subtract(xs, x0, out=w01)
    np.subtract(ys, i00, out=w10)
    i00 *= width
    i00 += x0
    np.multiply(w01, w10, out=w11)
    w01 -= w11
    w10 -= w11
    np.subtract(1.0, w01, out=w00)
    w00 -= w10
    w00 -= w11
    out = []
    for flat, value in zip(flats, buf.samples[:, :n]):
        # With out=, mode="raise" copies through a temporary; the indices
        # are in range by construction, so "clip" never alters one.
        flat.take(i00, out=value, mode="clip")
        value *= w00
        for offset, weight in ((1, w01), (width, w10), (width + 1, w11)):
            flat[offset:].take(i00, out=product, mode="clip")
            product *= weight
            value += product
        out.append(value)
    return out


class _LevelWorkspace:
    """Buffers for one pyramid level of shape (h, w), sized for its
    whole support: the support grid, the warped coordinates with their
    in-image tests, the selected points of a pass, the bilinear samples
    and the (N, 6) Jacobian. A pass uses the first n entries, n being
    the number of support points whose warp lands inside the image."""

    def __init__(self, shape: tuple[int, int]) -> None:
        self.shape = shape
        h, w = shape
        ys, xs = np.mgrid[BORDER_MARGIN : h - BORDER_MARGIN, BORDER_MARGIN : w - BORDER_MARGIN]
        self.xs = xs.reshape(-1).astype(float)
        self.ys = ys.reshape(-1).astype(float)
        size = self.xs.size
        self.template = np.empty(size)
        self.xw = np.empty(size)
        self.yw = np.empty(size)
        self.inside = np.empty(size, dtype=bool)
        self.test = np.empty(size, dtype=bool)
        # Per-pass scratch: a product while the grid is warped, then the
        # selected warped points for the gather, then the selected grid
        # points for the Jacobian.
        self.px = np.empty(size)
        self.py = np.empty(size)
        self.ir = np.empty(size)
        self.jac = np.empty((size, 6))
        self.sampling = _SampleBuffers(size)


class EccWorkspace:
    """Scratch memory for `ecc_align`, one `_LevelWorkspace` per pyramid
    level, reused by every Gauss-Newton pass and by every call whose
    frames give the same level shapes. A call with other shapes rebuilds
    it, so it holds buffers for one frame size at a time.

    Not safe to share between threads: each `Tracker` owns one.
    """

    def __init__(self) -> None:
        self._levels: list[_LevelWorkspace] = []

    def levels(self, shapes: list[tuple[int, int]]) -> list[_LevelWorkspace]:
        if [level.shape for level in self._levels] != shapes:
            self._levels = []  # let the old buffers go before allocating
            self._levels = [_LevelWorkspace(shape) for shape in shapes]
        return self._levels


def _align_level(
    template: np.ndarray,
    image: np.ndarray,
    warp: np.ndarray,
    params: EccParams,
    strict: bool,
    trace: list | None,
    ws: _LevelWorkspace,
) -> tuple[np.ndarray, float]:
    """Run Gauss-Newton ECC at one pyramid level.

    strict=True (finest level only) raises on failure; coarse levels hand
    their best estimate down instead. Returns (warp, correlation).
    """
    h, w = template.shape
    xs, ys, xw, yw, inside, test = ws.xs, ws.ys, ws.xw, ws.yw, ws.inside, ws.test
    template_flat = ws.template
    np.copyto(
        template_flat.reshape(h - 2 * BORDER_MARGIN, w - 2 * BORDER_MARGIN),
        template[BORDER_MARGIN : h - BORDER_MARGIN, BORDER_MARGIN : w - BORDER_MARGIN],
    )

    grad_y, grad_x = np.gradient(image)
    flats = (image.reshape(-1), grad_x.reshape(-1), grad_y.reshape(-1))

    best_warp = warp.copy()
    rho_prev = -2.0
    converged = False

    for _ in range(params.max_iterations):
        np.multiply(xs, warp[0, 0], out=xw)
        xw += np.multiply(ys, warp[0, 1], out=ws.px)
        xw += warp[0, 2]
        np.multiply(xs, warp[1, 0], out=yw)
        yw += np.multiply(ys, warp[1, 1], out=ws.px)
        yw += warp[1, 2]
        np.greater_equal(xw, 0, out=inside)
        inside &= np.less_equal(xw, w - 1, out=test)
        inside &= np.greater_equal(yw, 0, out=test)
        inside &= np.less_equal(yw, h - 1, out=test)
        sel = np.flatnonzero(inside)
        n = sel.size
        if n < MIN_SUPPORT_PIXELS:
            if strict:
                raise EccSingularError("warped support left the image")
            return best_warp, max(rho_prev, -1.0)
        px, py = ws.px[:n], ws.py[:n]

        # After a converged step this pass only measures the correlation,
        # so the gradients are not sampled.
        xw.take(sel, out=px, mode="clip")
        yw.take(sel, out=py, mode="clip")
        iw, *grads = _bilinear(flats[:1] if converged else flats, w, h, px, py, ws.sampling)

        ir = template_flat.take(sel, out=ws.ir[:n], mode="clip")
        ir -= ir.mean()
        iw -= iw.mean()
        norm_ir = np.linalg.norm(ir)
        norm_iw = np.linalg.norm(iw)
        if norm_ir < 1e-12 or norm_iw < 1e-12:
            if strict:
                raise EccSingularError("flat image region, correlation undefined")
            return best_warp, max(rho_prev, -1.0)

        rho = float(ir @ iw / (norm_ir * norm_iw))
        if rho < rho_prev:
            # Step made things worse: keep the previous warp and stop.
            return best_warp, rho_prev
        plateau = rho - rho_prev < 1e-10
        best_warp = warp.copy()
        if trace is not None:
            trace.append(rho)
        rho_prev = rho
        if converged or plateau:
            return best_warp, rho_prev

        # Jacobian columns follow the row-major parameter order
        # [a11, a12, tx, a21, a22, ty].
        gx, gy = grads
        xm = xs.take(sel, out=px, mode="clip")
        ym = ys.take(sel, out=py, mode="clip")
        jac = ws.jac[:n]
        np.multiply(gx, xm, out=jac[:, 0])
        np.multiply(gx, ym, out=jac[:, 1])
        jac[:, 2] = gx
        np.multiply(gy, xm, out=jac[:, 3])
        np.multiply(gy, ym, out=jac[:, 4])
        jac[:, 5] = gy
        hess = jac.T @ jac
        gw = jac.T @ iw
        gr = jac.T @ ir
        try:
            hinv_gw = np.linalg.solve(hess, gw)
            hinv_gr = np.linalg.solve(hess, gr)
        except np.linalg.LinAlgError as exc:
            if strict:
                raise EccSingularError("singular normal equations") from exc
            return best_warp, rho_prev

        num = norm_iw**2 - gw @ hinv_gw
        den = ir @ iw - gr @ hinv_gw
        if den <= 0:
            if strict:
                raise EccConvergenceError("correlation surrogate lost convexity")
            return best_warp, rho_prev

        lam = num / den
        delta = lam * hinv_gr - hinv_gw
        warp = warp + delta.reshape(2, 3)
        if np.linalg.norm(delta) < params.epsilon:
            # Accept the step, measure its correlation once, then stop.
            converged = True

    if converged:
        return best_warp, rho_prev
    if strict:
        raise EccConvergenceError(
            f"no convergence in {params.max_iterations} iterations"
        )
    return best_warp, rho_prev


def ecc_align(
    prev,
    cur,
    params: EccParams | None = None,
    initial: AffineWarp | None = None,
    trace: list | None = None,
    *,
    workspace: EccWorkspace | None = None,
) -> tuple[AffineWarp, float]:
    """Estimate the affine warp taking `prev` coordinates to `cur`.

    Maximizes the zero-mean normalized correlation between `prev` and the
    warped `cur`, coarse to fine. Images wider than params.working_width
    are pre-shrunk (the returned warp is expressed at full resolution).
    When `trace` is a list it receives the per-iteration correlation of
    every accepted step at the finest level. `workspace` holds the
    scratch buffers; pass the same one for consecutive frames (as
    `Tracker` does) so the buffers are reused, or leave it None for
    buffers that live for this call only.

    Raises EccError on non-convergence, singular normal equations, or a
    final warp outside the determinant sanity bounds; callers fall back
    to the identity warp and record the fallback.
    """
    params = params or EccParams()
    template = _as_float_image(prev)
    image = _as_float_image(cur)
    if template.shape != image.shape:
        raise ValueError("frames must share dimensions")
    if min(template.shape) < MIN_ALIGN_DIM:
        raise ValueError(f"images must be at least {MIN_ALIGN_DIM} px on each side")

    base_scale = 1
    while image.shape[1] / base_scale > params.working_width:
        base_scale *= 2
        template = _halve(template)
        image = _halve(image)

    pyramid = [(template, image)]
    for _ in range(params.pyramid_levels - 1):
        t, i = pyramid[-1]
        if min(t.shape) // 2 < MIN_ALIGN_DIM:
            break
        pyramid.append((_halve(t), _halve(i)))

    if initial is None:
        dx, dy = _best_integer_shift(*pyramid[-1], SHIFT_SEARCH_RADIUS)
        warp = AffineWarp.translation(dx, dy).matrix
    else:
        warp = _scale_translation(initial.matrix, 1.0 / (base_scale * 2 ** (len(pyramid) - 1)))

    workspace = workspace or EccWorkspace()
    buffers = workspace.levels([t.shape for t, _ in pyramid])
    correlation = -1.0
    for level in range(len(pyramid) - 1, -1, -1):
        t, i = pyramid[level]
        warp, correlation = _align_level(
            t,
            i,
            warp,
            params,
            strict=(level == 0),
            trace=trace if level == 0 else None,
            ws=buffers[level],
        )
        if level > 0:
            warp = _scale_translation(warp, 2.0)

    warp = _scale_translation(warp, float(base_scale))
    result = AffineWarp(warp)
    if not DET_LOW <= abs(result.det()) <= DET_HIGH:
        raise EccConvergenceError(
            f"warp determinant {result.det():.4f} outside sanity bounds"
        )
    return result, correlation


def warp_image(image, warp: AffineWarp, fill: float = 0.0) -> np.ndarray:
    """Render `image` as seen after the camera motion described by `warp`
    (output pixel p takes the value of `image` at inverse(warp)(p)).

    Utility for synthesizing aligned frame pairs and for tests; the
    alignment loop itself samples directly and does not go through here.
    """
    arr = _as_float_image(image)
    h, w = arr.shape
    inv = invert_warp(warp).matrix
    ys, xs = np.mgrid[0:h, 0:w]
    xs = xs.reshape(-1).astype(float)
    ys = ys.reshape(-1).astype(float)
    xw = inv[0, 0] * xs + inv[0, 1] * ys + inv[0, 2]
    yw = inv[1, 0] * xs + inv[1, 1] * ys + inv[1, 2]
    out = ndimage.map_coordinates(
        arr, np.vstack([yw, xw]), order=1, mode="constant", cval=fill, output=float
    )
    return out.reshape(h, w)
