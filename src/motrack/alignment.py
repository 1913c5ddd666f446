"""Global frame alignment and warp algebra.

Estimates a 2x3 affine warp between consecutive grayscale frames by
maximizing the enhanced correlation coefficient (zero-mean, unit-norm
image correlation) with Gauss-Newton increments, coarse to fine over an
image pyramid, at one fixed operating point (the ECC_* constants).
Also provides warp application to points, inversion, and a scalar
camera-motion intensity derived from the warp's distance (in cosine
terms) from the identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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

# The Gauss-Newton budget per pyramid level, the step norm below which a
# level has converged, the number of pyramid levels, and the width above
# which frames are halved before the pyramid is built.
ECC_MAX_ITERATIONS = 50
ECC_EPSILON = 1e-5
ECC_PYRAMID_LEVELS = 3
ECC_WORKING_WIDTH = 640

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
        """Determinant of the linear part; `invert_warp` refuses a warp
        whose determinant is 0."""
        (a, b, _), (c, d, _) = self.matrix.tolist()
        return a * d - b * c

    def flatten(self) -> np.ndarray:
        return self.matrix.reshape(-1).copy()

    def is_identity(self) -> bool:
        return bool(np.max(np.abs(self.flatten() - _REFERENCE)) <= 0.0)


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


def apply_points(warp: AffineWarp, points: np.ndarray) -> np.ndarray:
    """Map (N, 2) xy points through the warp."""
    pts = np.asarray(points, dtype=float)
    return pts @ warp.linear().T + warp.offset()


def invert_warp(warp: AffineWarp) -> AffineWarp:
    """Closed form on Python floats: the gap filler inverts one warp
    per filled frame, and a LAPACK call costs more than the arithmetic."""
    det = warp.det()
    if det == 0.0:
        raise ValueError("warp linear part is singular")
    (a, b, tx), (c, d, ty) = warp.matrix.tolist()
    ia, ib, ic, id_ = d / det, -b / det, -c / det, a / det
    return AffineWarp(
        np.array([[ia, ib, -(ia * tx + ib * ty)], [ic, id_, -(ic * tx + id_ * ty)]])
    )


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


def _rectangle_sums(table: np.ndarray, y0, y1, x0, x1) -> np.ndarray:
    """Sums over the rectangles [y0, y1) x [x0, x1), one per pair of a
    row bound (column vectors y0, y1) and a column bound (row vectors
    x0, x1), read from a summed-area table with a leading zero row and
    column."""
    return table[y1, x1] - table[y0, x1] - table[y1, x0] + table[y0, x0]


def _summed_area(a: np.ndarray) -> np.ndarray:
    table = np.zeros((a.shape[0] + 1, a.shape[1] + 1))
    np.cumsum(np.cumsum(a, axis=0), axis=1, out=table[1:, 1:])
    return table


def _constant_rectangles(a: np.ndarray, y0, y1, x0, x1) -> np.ndarray:
    """Whether each rectangle of `a` (bounds as for `_rectangle_sums`)
    holds a single value: no two neighbours in it differ. Counted
    exactly, where a variance from summed squares would round away from
    zero."""
    across = _summed_area(a[:, 1:] != a[:, :-1])
    down = _summed_area(a[1:] != a[:-1])
    return (_rectangle_sums(across, y0, y1, x0, x1 - 1) == 0) & (
        _rectangle_sums(down, y0, y1 - 1, x0, x1) == 0
    )


def _shift_correlations(template: np.ndarray, image: np.ndarray, radius: int) -> np.ndarray:
    """Zero-mean correlation of the template against the image shifted by
    every integer offset (dx, dy) within +-radius, at [dy + radius,
    dx + radius]; over the in-bounds support inside the border margin,
    and -1 where that support is too small or flat.

    Under a pure integer translation the support is a rectangle, so
    summed-area tables of both frames and of their squares give every
    shift's sums, and one product of the margin-cropped template with
    the windows of the zero-padded image gives every cross sum. Each
    frame's global mean is subtracted first, which leaves the
    correlations unchanged and keeps the sums small."""
    h, w = template.shape
    m = BORDER_MARGIN
    t = template - template.mean()
    i = image - image.mean()
    dy = np.arange(-radius, radius + 1)[:, None]
    dx = dy.T
    # Support bounds in template coordinates, per dy (rows) and per dx
    # (columns), and the same rectangles in the image. An empty range
    # has a non-positive extent; with sides of at least MIN_ALIGN_DIM >
    # BORDER_MARGIN + radius every bound still indexes the tables.
    y0, y1 = np.maximum(m, -dy), np.minimum(h - m, h - dy)
    x0, x1 = np.maximum(m, -dx), np.minimum(w - m, w - dx)
    iy0, iy1, ix0, ix1 = y0 + dy, y1 + dy, x0 + dx, x1 + dx
    count = np.maximum(y1 - y0, 0) * np.maximum(x1 - x0, 0)
    n = np.maximum(count, 1)
    sum_t = _rectangle_sums(_summed_area(t), y0, y1, x0, x1)
    sum_i = _rectangle_sums(_summed_area(i), iy0, iy1, ix0, ix1)
    var_t = _rectangle_sums(_summed_area(t * t), y0, y1, x0, x1) - sum_t * sum_t / n
    var_i = _rectangle_sums(_summed_area(i * i), iy0, iy1, ix0, ix1) - sum_i * sum_i / n
    # Template pixel (y, x) meets image pixel (y + dy, x + dx), which is
    # padded[y + dy + radius, x + dx + radius]; outside the image it is a
    # zero and adds nothing.
    padded = np.pad(i, radius)
    windows = np.lib.stride_tricks.sliding_window_view(padded, (h - 2 * m, w - 2 * m))
    span = slice(m, m + 2 * radius + 1)
    cross = np.einsum("abij,ij->ab", windows[span, span], t[m : h - m, m : w - m])
    cross -= sum_t * sum_i / n
    denom = np.sqrt(np.maximum(var_t, 0.0)) * np.sqrt(np.maximum(var_i, 0.0))
    valid = (count >= MIN_SUPPORT_PIXELS) & (denom >= 1e-12)
    valid &= ~_constant_rectangles(template, y0, y1, x0, x1)
    valid &= ~_constant_rectangles(image, iy0, iy1, ix0, ix1)
    return np.where(valid, cross / np.where(valid, denom, 1.0), -1.0)


def _best_integer_shift(template: np.ndarray, image: np.ndarray, radius: int) -> tuple[int, int]:
    """The integer offset (dx, dy) within +-radius that maximizes
    correlation: the identity unless another shift beats it strictly,
    else the first maximum in row-major (dy, dx) order. Gradient steps
    need to start inside the correlation basin; an exhaustive shift
    search at the coarsest pyramid level buys a wide capture range for
    one table of (2 * radius + 1)**2 correlations."""
    table = _shift_correlations(template, image, radius)
    dy, dx = np.unravel_index(np.argmax(table), table.shape)
    if table[dy, dx] > table[radius, radius]:
        return int(dx) - radius, int(dy) - radius
    return 0, 0


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
    and the Jacobian, stored (6, N) so each parameter's row is
    contiguous. A pass uses the first n entries (columns of the
    Jacobian), n being the number of support points whose warp lands
    inside the image."""

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
        self.jac = np.empty((6, size))
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

    for _ in range(ECC_MAX_ITERATIONS):
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

        # Jacobian rows follow the row-major parameter order
        # [a11, a12, tx, a21, a22, ty]; each is one contiguous write.
        gx, gy = grads
        xm = xs.take(sel, out=px, mode="clip")
        ym = ys.take(sel, out=py, mode="clip")
        jac = ws.jac[:, :n]
        np.multiply(gx, xm, out=jac[0])
        np.multiply(gx, ym, out=jac[1])
        jac[2] = gx
        np.multiply(gy, xm, out=jac[3])
        np.multiply(gy, ym, out=jac[4])
        jac[5] = gy
        # The symmetric normal matrix from its 21 distinct row products.
        hess = np.empty((6, 6))
        for row in range(6):
            for col in range(row, 6):
                hess[row, col] = hess[col, row] = jac[row] @ jac[col]
        gw = jac @ iw
        gr = jac @ ir
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
        if np.linalg.norm(delta) < ECC_EPSILON:
            # Accept the step, measure its correlation once, then stop.
            converged = True

    if converged:
        return best_warp, rho_prev
    if strict:
        raise EccConvergenceError(f"no convergence in {ECC_MAX_ITERATIONS} iterations")
    return best_warp, rho_prev


def ecc_align(
    prev,
    cur,
    trace: list | None = None,
    *,
    workspace: EccWorkspace | None = None,
) -> tuple[AffineWarp, float]:
    """Estimate the affine warp taking `prev` coordinates to `cur`.

    Maximizes the zero-mean normalized correlation between `prev` and the
    warped `cur`, coarse to fine. Images wider than ECC_WORKING_WIDTH
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
    template = _as_float_image(prev)
    image = _as_float_image(cur)
    if template.shape != image.shape:
        raise ValueError("frames must share dimensions")
    if min(template.shape) < MIN_ALIGN_DIM:
        raise ValueError(f"images must be at least {MIN_ALIGN_DIM} px on each side")

    base_scale = 1
    while image.shape[1] / base_scale > ECC_WORKING_WIDTH:
        base_scale *= 2
        template = _halve(template)
        image = _halve(image)

    pyramid = [(template, image)]
    for _ in range(ECC_PYRAMID_LEVELS - 1):
        t, i = pyramid[-1]
        if min(t.shape) // 2 < MIN_ALIGN_DIM:
            break
        pyramid.append((_halve(t), _halve(i)))

    dx, dy = _best_integer_shift(*pyramid[-1], SHIFT_SEARCH_RADIUS)
    warp = AffineWarp.translation(dx, dy).matrix

    workspace = workspace or EccWorkspace()
    buffers = workspace.levels([t.shape for t, _ in pyramid])
    correlation = -1.0
    for level in range(len(pyramid) - 1, -1, -1):
        t, i = pyramid[level]
        warp, correlation = _align_level(
            t,
            i,
            warp,
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

