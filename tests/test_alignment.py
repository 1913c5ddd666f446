import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage

from dense_kalman import warp_box
from motrack.alignment import (
    BORDER_MARGIN,
    MIN_ALIGN_DIM,
    MIN_SUPPORT_PIXELS,
    SHIFT_SEARCH_RADIUS,
    AffineWarp,
    CameraMotionLog,
    EccConvergenceError,
    EccError,
    EccSingularError,
    EccWorkspace,
    apply_points,
    camera_intensity,
    ecc_align,
    invert_warp,
    _best_integer_shift,
    _SampleBuffers,
    _bilinear,
    _shift_correlations,
)
from motrack.geometry import BoundingBox
from motrack.pgm import read_pgm, write_pgm
from motrack.synth import band_limited_texture, textured_pair


def random_invertible_warps():
    small = st.floats(-0.3, 0.3, allow_nan=False)
    shift = st.floats(-40, 40, allow_nan=False)
    return st.builds(
        lambda a, b, c, d, tx, ty: AffineWarp(
            np.array([[1.0 + a, b, tx], [c, 1.0 + d, ty]])
        ),
        small, small, small, small, shift, shift,
    )


def texture(seed, h=64, w=64):
    return band_limited_texture(np.random.default_rng(seed), h, w)


# ---------------------------------------------------------------- warp algebra


def test_identity_and_translation_constructors():
    assert np.array_equal(
        AffineWarp.identity().matrix, np.array([[1, 0, 0], [0, 1, 0]], dtype=float)
    )
    t = AffineWarp.translation(5, 3)
    assert t.offset().tolist() == [5, 3]
    assert t.det() == 1.0


def test_warp_box_identity():
    box = BoundingBox(10, 20, 30, 60)
    out = warp_box(AffineWarp.identity(), box)
    assert (out.x1, out.y1, out.x2, out.y2) == (10, 20, 30, 60)


def test_warp_box_translation():
    out = warp_box(AffineWarp.translation(7, -2), BoundingBox(0, 0, 10, 10))
    assert (out.x1, out.y1, out.x2, out.y2) == (7, -2, 17, 8)


def test_warp_box_uniform_scale():
    warp = AffineWarp(np.array([[2.0, 0, 0], [0, 2.0, 0]]))
    out = warp_box(warp, BoundingBox(1, 1, 2, 2))
    assert (out.x1, out.y1, out.x2, out.y2) == (2, 2, 4, 4)


def test_warp_box_flip_still_valid():
    # negative determinant swaps corners; the output must stay x2 > x1
    warp = AffineWarp(np.array([[-1.0, 0, 0], [0, 1.0, 0]]))
    out = warp_box(warp, BoundingBox(1, 1, 3, 3))
    assert (out.x1, out.x2) == (-3, -1)


def test_warp_box_collapse_raises():
    warp = AffineWarp(np.array([[0.0, 0.0, 4.0], [0.0, 1.0, 0.0]]))
    with pytest.raises(ValueError):
        warp_box(warp, BoundingBox(0, 0, 10, 10))


def test_invert_translation():
    inv = invert_warp(AffineWarp.translation(5, 3))
    assert np.allclose(inv.matrix, AffineWarp.translation(-5, -3).matrix)


def test_invert_identity():
    assert np.allclose(invert_warp(AffineWarp.identity()).matrix, AffineWarp.identity().matrix)


def test_invert_singular_raises():
    with pytest.raises(ValueError):
        invert_warp(AffineWarp(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 2.0]])))


@given(random_invertible_warps(), st.floats(-200, 200), st.floats(-200, 200))
@settings(max_examples=200)
def test_invert_compose_round_trip(warp, x, y):
    pts = np.array([[x, y]])
    inverse = invert_warp(warp)
    assert np.allclose(apply_points(inverse, apply_points(warp, pts)), pts, atol=1e-9)
    assert np.allclose(apply_points(warp, apply_points(inverse, pts)), pts, atol=1e-9)


# ----------------------------------------------------------- camera intensity


def test_camera_intensity_identity_exact_zero():
    assert camera_intensity(AffineWarp.identity()) == 0.0


def test_camera_intensity_unit_translation():
    # hand evaluation: 1 - 2 / (sqrt(3) * sqrt(2))
    value = camera_intensity(AffineWarp.translation(1, 0))
    assert value == pytest.approx(1.0 - 2.0 / math.sqrt(6.0), abs=1e-12)
    assert value == pytest.approx(0.1835, abs=1e-4)


def test_camera_intensity_positive_for_non_identity():
    rng = np.random.default_rng(8)
    for _ in range(100):
        warp = AffineWarp(
            np.array(
                [
                    [1 + rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2), rng.uniform(-20, 20)],
                    [rng.uniform(-0.2, 0.2), 1 + rng.uniform(-0.2, 0.2), rng.uniform(-20, 20)],
                ]
            )
        )
        if np.allclose(warp.matrix, AffineWarp.identity().matrix):
            continue
        assert camera_intensity(warp) > 0.0


def test_camera_intensity_flattening_invariance():
    """Consistent row-major vs column-major flattening gives the same
    intensity, since both vectors permute together."""
    rng = np.random.default_rng(9)
    for _ in range(100):
        m = np.array(
            [
                [1 + rng.normal(0, 0.1), rng.normal(0, 0.1), rng.normal(0, 10)],
                [rng.normal(0, 0.1), 1 + rng.normal(0, 0.1), rng.normal(0, 10)],
            ]
        )
        w_row, r_row = m.reshape(-1), np.eye(2, 3).reshape(-1)
        w_col, r_col = m.T.reshape(-1), np.eye(2, 3).T.reshape(-1)
        i_row = 1 - w_row @ r_row / (np.linalg.norm(w_row) * np.linalg.norm(r_row))
        i_col = 1 - w_col @ r_col / (np.linalg.norm(w_col) * np.linalg.norm(r_col))
        assert i_row == pytest.approx(i_col, abs=1e-12)
        assert camera_intensity(AffineWarp(m)) == pytest.approx(i_row, abs=1e-12)


def test_camera_motion_log():
    log = CameraMotionLog()
    log.record(5, AffineWarp.translation(1, 2))
    log.record_fallback(7)
    assert log.get(5).offset().tolist() == [1, 2]
    assert log.get(6).is_identity()
    assert 7 in log.fallback_frames


# ------------------------------------------------------------------ alignment


def test_ecc_self_alignment():
    img = texture(0)
    warp, corr = ecc_align(img, img)
    assert corr >= 0.999
    assert np.allclose(warp.matrix, AffineWarp.identity().matrix, atol=1e-3)


def test_ecc_pure_translation():
    big = texture(1, 200, 200)
    prev = big[40:140, 40:140]
    cur = big[37:137, 45:145]  # content shifts by (-5, +3)
    warp, corr = ecc_align(prev, cur)
    assert corr > 0.99
    assert warp.matrix[0, 2] == pytest.approx(-5.0, abs=0.5)
    assert warp.matrix[1, 2] == pytest.approx(3.0, abs=0.5)


def test_ecc_small_rotation():
    prev, cur, true_warp = textured_pair(11, max_translation=0.0, max_rotation_deg=2.0)
    est, corr = ecc_align(prev, cur)
    corners = np.array([[8.0, 8.0], [56.0, 8.0], [8.0, 56.0], [56.0, 56.0]])
    err = np.linalg.norm(
        apply_points(true_warp, corners) - apply_points(est, corners), axis=1
    ).mean()
    assert err < 1.0
    assert corr > 0.99


def test_ecc_flat_image_raises():
    flat = np.full((64, 64), 128.0)
    with pytest.raises(EccError):
        ecc_align(flat, flat)


def test_ecc_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        ecc_align(texture(2), texture(2, 64, 32))


def test_ecc_trace_monotone_at_finest_level():
    prev, cur, _ = textured_pair(12)
    trace = []
    ecc_align(prev, cur, trace=trace)
    assert trace, "finest level recorded no accepted iterations"
    assert all(b >= a for a, b in zip(trace, trace[1:]))


def test_ecc_accepts_uint8_frames():
    img = texture(3).astype(np.uint8)
    warp, corr = ecc_align(img, img)
    assert corr >= 0.999
    as_float = ecc_align(img.astype(float), img.astype(float))
    assert (warp.matrix.tolist(), corr) == (as_float[0].matrix.tolist(), as_float[1])


def test_warp_image_translation_round_trip():
    img = texture(4, 96, 96)
    # The frame after the camera moves content 6 px right: pixel (y, x)
    # shows img[y, x - 6], and the strip the motion uncovers is black.
    moved = np.zeros_like(img)
    moved[:, 6:] = img[:, :-6]
    # interior content should line up again after warping back
    est, corr = ecc_align(img, moved)
    assert corr > 0.98
    assert est.matrix[0, 2] == pytest.approx(6.0, abs=0.5)


# --------------------------------------------------- integer-shift search oracle


def reference_correlation(template, image, warp):
    """Correlation of the template against the warped image over the
    in-bounds support, sampled point by point with map_coordinates: the
    shift search's point-wise formulation, before it summed rectangles."""
    h, w = template.shape
    m = BORDER_MARGIN
    ys, xs = np.mgrid[m : h - m, m : w - m]
    xs = xs.reshape(-1).astype(float)
    ys = ys.reshape(-1).astype(float)
    xw = warp[0, 0] * xs + warp[0, 1] * ys + warp[0, 2]
    yw = warp[1, 0] * xs + warp[1, 1] * ys + warp[1, 2]
    mask = (xw >= 0) & (xw <= w - 1) & (yw >= 0) & (yw <= h - 1)
    if int(mask.sum()) < MIN_SUPPORT_PIXELS:
        return -1.0
    iw = ndimage.map_coordinates(
        image, np.vstack([yw[mask], xw[mask]]), order=1, mode="nearest", output=float
    )
    ir = template[m : h - m, m : w - m].reshape(-1)[mask]
    ir = ir - ir.mean()
    iw = iw - iw.mean()
    denom = np.linalg.norm(ir) * np.linalg.norm(iw)
    if denom < 1e-12:
        return -1.0
    return float(ir @ iw / denom)


def reference_best_shift(template, image, radius):
    """Exhaustive search over integer translations of the identity warp,
    first strict maximum in row-major (dy, dx) order wins."""
    best = AffineWarp.identity().matrix
    best_rho = reference_correlation(template, image, best)
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            if dx == 0 and dy == 0:
                continue
            shifted = AffineWarp.translation(dx, dy).matrix
            rho = reference_correlation(template, image, shifted)
            if rho > best_rho:
                best_rho = rho
                best = shifted
    return best


@st.composite
def shift_search_inputs(draw):
    """Template and image pairs: smooth or 8-bit noisy textures, the image
    a shifted view of the template's texture or unrelated, sizes from
    MIN_ALIGN_DIM (support below MIN_SUPPORT_PIXELS at every shift) up,
    with optional flat patches or wholly flat frames."""
    h = draw(st.integers(MIN_ALIGN_DIM, 24))
    w = draw(st.integers(MIN_ALIGN_DIM, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    r = SHIFT_SEARCH_RADIUS
    if draw(st.booleans()):
        big = band_limited_texture(rng, h + 2 * r, w + 2 * r, smooth=draw(st.sampled_from([0.8, 2.5])))
    else:
        big = rng.integers(0, 256, (h + 2 * r, w + 2 * r)).astype(float)
    template = big[r : r + h, r : r + w].copy()
    if draw(st.booleans()):
        oy, ox = rng.integers(0, 2 * r + 1, 2)
        image = big[oy : oy + h, ox : ox + w].copy()
    else:
        image = rng.permutation(big.reshape(-1))[: h * w].reshape(h, w)
    flat = draw(st.sampled_from(["none", "template", "image", "patch"]))
    if flat == "template":
        template[:] = 100.0
    elif flat == "image":
        image[:] = 100.0
    elif flat == "patch":
        ph, pw = draw(st.integers(1, h)), draw(st.integers(1, w))
        image[:ph, :pw] = 100.0
    return template, image


@given(shift_search_inputs())
@settings(max_examples=150, deadline=None)
def test_sliced_shift_search_equals_map_coordinates_search(inputs):
    """The batched table rounds its sums differently from the point-wise
    oracle, so correlations agree to 1e-12 and -1 entries exactly; the
    chosen shift must be the oracle's."""
    template, image = inputs
    r = SHIFT_SEARCH_RADIUS
    table = _shift_correlations(template, image, r)
    assert table.shape == (2 * r + 1, 2 * r + 1)
    for dy in range(-r, r + 1):
        for dx in range(-r, r + 1):
            expected = reference_correlation(template, image, AffineWarp.translation(dx, dy).matrix)
            got = table[dy + r, dx + r]
            assert (got == -1.0) == (expected == -1.0), (dx, dy, got, expected)
            assert abs(got - expected) <= 1e-12, (dx, dy, got, expected)
    got = AffineWarp.translation(*_best_integer_shift(template, image, r)).matrix
    assert np.array_equal(got, reference_best_shift(template, image, r))


def test_shift_search_small_and_flat_supports_give_minus_one():
    rng = np.random.default_rng(3)
    r = SHIFT_SEARCH_RADIUS
    # 8x8 leaves a 4x4 support inside the margin, below MIN_SUPPORT_PIXELS.
    small = rng.random((MIN_ALIGN_DIM, MIN_ALIGN_DIM))
    assert np.all(_shift_correlations(small, small, r) == -1.0)
    # 10x10 leaves exactly 6x6 = MIN_SUPPORT_PIXELS at zero shift only.
    edge = rng.random((10, 10))
    assert MIN_SUPPORT_PIXELS == 36
    table = _shift_correlations(edge, edge, r)
    assert table[r, r] == pytest.approx(1.0)
    assert table[r + 3, r] == -1.0
    flat = np.full((20, 20), 7.0)
    assert _shift_correlations(flat, rng.random((20, 20)), r)[r - 2, r + 1] == -1.0
    assert _best_integer_shift(flat, flat, r) == (0, 0)


# ------------------------------------------------------------ bilinear sampling


@given(
    st.integers(2, 20),
    st.integers(2, 20),
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(0, 164), min_size=1, max_size=4),
)
@settings(max_examples=100, deadline=None)
def test_bilinear_equals_map_coordinates(h, w, seed, counts):
    """One set of buffers, larger than any call needs, serves calls of
    several point counts in turn; each call's samples match the oracle."""
    rng = np.random.default_rng(seed)
    images = [rng.uniform(0, 255, (h, w)) for _ in range(3)]
    n = 40
    xs = np.concatenate([
        rng.uniform(0, w - 1, n),
        rng.integers(0, w, n).astype(float),  # exact pixel centres
        np.full(n, w - 1.0),  # last column
        rng.uniform(0, w - 1, n),
        [0.0, w - 1.0, 0.0, w - 1.0],
    ])
    ys = np.concatenate([
        rng.uniform(0, h - 1, n),
        rng.integers(0, h, n).astype(float),
        rng.uniform(0, h - 1, n),
        np.full(n, h - 1.0),  # last row
        [0.0, 0.0, h - 1.0, h - 1.0],
    ])
    order = rng.permutation(xs.size)
    xs, ys = xs[order], ys[order]
    buf = _SampleBuffers(xs.size + 7)
    flats = tuple(img.reshape(-1) for img in images)
    for count in counts + [xs.size]:
        got = _bilinear(flats, w, h, xs[:count], ys[:count], buf)
        assert len(got) == 3
        for img, values in zip(images, got):
            expected = ndimage.map_coordinates(
                img, np.vstack([ys[:count], xs[:count]]), order=1, mode="nearest", output=float
            )
            assert values.shape == (count,)
            assert np.max(np.abs(values - expected), initial=0.0) <= 1e-12


# ------------------------------------------------------------ workspace reuse


def align_outcome(prev, cur, **kwargs):
    trace = []
    try:
        warp, corr = ecc_align(prev, cur, trace=trace, **kwargs)
    except EccError as exc:
        return type(exc), trace
    return warp.matrix.tolist(), corr, trace


def test_one_workspace_across_sizes_and_failures_matches_call_local():
    a_prev, a_cur, _ = textured_pair(0)
    b_prev, b_cur, _ = textured_pair(3, size=80)
    c_prev, c_cur, _ = textured_pair(7)
    flat = np.full(b_prev.shape, 128.0)
    pairs = [
        (a_prev, a_cur),
        (b_prev, b_cur),
        (b_prev, flat),  # raises mid-level, in the buffers the next pair uses
        (flat, b_cur),
        (b_prev, b_cur),
        (c_prev, c_cur),
        (a_prev, a_cur),
    ]
    workspace = EccWorkspace()
    for prev, cur in pairs:
        expected = align_outcome(prev, cur)
        assert align_outcome(prev, cur, workspace=workspace) == expected
    assert [align_outcome(*pair)[0] for pair in pairs[2:4]] == [EccSingularError] * 2


def test_workspace_keeps_one_frame_size():
    workspace = EccWorkspace()
    small, large = [(64, 48), (32, 24)], [(80, 80), (40, 40)]
    first = workspace.levels(small)
    assert workspace.levels(small) is first
    assert [level.shape for level in workspace.levels(large)] == large
    again = workspace.levels(small)
    assert again is not first and [level.shape for level in again] == small


# ------------------------------------------------------------------------ pgm


def test_pgm_round_trip(tmp_path):
    arr = (texture(5, 32, 48)).astype(np.uint8)
    path = tmp_path / "frame.pgm"
    write_pgm(path, arr)
    back = read_pgm(path)
    assert back.shape == (32, 48) and back.dtype == np.uint8
    assert np.array_equal(back, arr)
    # Values are rounded to the nearest integer and clipped into [0, 255].
    write_pgm(path, np.array([[-3.2, 0.4, 12.6], [254.5, 255.2, 300.0]]))
    assert read_pgm(path).tolist() == [[0, 0, 13], [254, 255, 255]]


def test_pgm_comment_header(tmp_path):
    path = tmp_path / "c.pgm"
    payload = bytes(range(6))
    path.write_bytes(b"P5\n# comment line\n3 2\n255\n" + payload)
    img = read_pgm(path)
    assert img.shape == (2, 3) and img.dtype == np.uint8
    assert img.tolist() == [[0, 1, 2], [3, 4, 5]]


def test_pgm_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P6\n1 1\n255\n\x00")
    with pytest.raises(ValueError):
        read_pgm(path)


def test_pgm_rejects_truncated_payload(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
    with pytest.raises(ValueError):
        read_pgm(path)
