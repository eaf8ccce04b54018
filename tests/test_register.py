"""Alignment: transform algebra, pyramids, resampling, recovery."""

import importlib.util
import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from somqe import (
    InputError,
    RasterImage,
    RegistrationError,
    RegistrationTransform,
    load_image,
    register_pair,
    resample,
)
from somqe import register
from somqe.register import (
    _gn_level,
    _warp,
    luminance_pyramid,
    mean_square_residual,
    reference_pyramid,
    write_transform_sidecar,
)

from conftest import random_image, sawtooth_stripes, sinusoid_sampler, smooth_image
from oracles import dense_bilinear, dense_sample_coords


# ---------------------------------------------------------------------------
# transform algebra

finite = st.floats(-20.0, 20.0, allow_nan=False)
angles = st.floats(-3.0, 3.0, allow_nan=False)


@given(finite, finite, angles)
@settings(max_examples=80, deadline=None)
def test_compose_with_inverse_is_identity(dx, dy, theta):
    t = RegistrationTransform("rigid", dx, dy, theta)
    round_trip = t.compose(t.inverse())
    assert abs(round_trip.dx) < 1e-9
    assert abs(round_trip.dy) < 1e-9
    assert abs(round_trip.theta) < 1e-9


def test_translation_mode_rejects_rotation():
    with pytest.raises(InputError):
        RegistrationTransform("translation", 1.0, 2.0, 0.1)


def test_transform_parameters_must_be_finite():
    for params in ((math.nan, 0.0), (0.0, math.inf), (0.0, 0.0, -math.inf)):
        with pytest.raises(InputError, match="^transform parameters must be finite$"):
            RegistrationTransform("rigid", *params)
    with pytest.raises(InputError, match="^transform parameters must be finite$"):
        RegistrationTransform("translation", math.nan, 0.0)


def test_a_transform_of_just_a_mode_is_the_identity():
    for mode in ("translation", "rigid"):
        assert RegistrationTransform(mode) == RegistrationTransform(mode, 0.0, 0.0, 0.0)


def test_theta_normalized_into_half_open_interval():
    t = RegistrationTransform("rigid", 0.0, 0.0, 3 * math.pi)
    assert t.theta == pytest.approx(math.pi)
    assert -math.pi < t.theta <= math.pi


def test_compose_order_matters_for_rotation():
    rot = RegistrationTransform("rigid", 0.0, 0.0, math.pi / 2)
    shift = RegistrationTransform("rigid", 3.0, 0.0, 0.0)
    a = rot.compose(shift)  # shift first, then rotate: shift vector rotates
    b = shift.compose(rot)
    assert a.dx == pytest.approx(0.0, abs=1e-12)
    assert a.dy == pytest.approx(3.0)
    assert b.dx == pytest.approx(3.0)


def test_unknown_mode_rejected():
    with pytest.raises(InputError):
        RegistrationTransform("affine", 0, 0, 0)


def test_mode_none_is_the_identity_alone():
    """The transform of a frame in a run that does not register."""
    assert RegistrationTransform("none") == RegistrationTransform("none", 0.0, -0.0, 0.0)
    for params in ((0.5, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, 0.01)):
        with pytest.raises(InputError, match="mode"):
            RegistrationTransform("none", *params)


# ---------------------------------------------------------------------------
# pyramid

def test_pyramid_levels_halve_until_32():
    img = smooth_image(1, size=256)
    pyr = luminance_pyramid(img.luminance())
    dims = [lvl.shape for lvl in pyr]
    assert dims == [(256, 256), (128, 128), (64, 64), (32, 32)]


def test_pyramid_odd_dimensions_floor():
    img = RasterImage(np.zeros((65, 130, 3)))
    pyr = luminance_pyramid(img.luminance())
    dims = [lvl.shape for lvl in pyr]
    # halving (32, 65) again would drop below 32 rows, so it is the coarsest
    assert dims == [(65, 130), (32, 65)]


def test_pyramid_small_image_single_level():
    img = RasterImage(np.zeros((40, 63, 3)))
    assert len(luminance_pyramid(img.luminance())) == 1


def test_pyramid_blocks_are_exact_means():
    pixels = np.zeros((2, 4, 3))
    pixels[:, :, 0] = [[10, 20, 100, 100], [30, 40, 100, 104]]
    pixels[:, :, 1] = [[1, 2, 3, 4], [5, 6, 7, 9]]
    pixels[:, :, 2] = [[7, 0, 255, 3], [11, 2, 1, 0]]
    image = RasterImage(np.tile(pixels, (32, 16, 1)))
    lum = image.luminance()
    level1 = luminance_pyramid(lum)[1]
    # the block means of the float64 luminance plane, rounded to float32;
    # in float32 they are also the luminance of the RGB block means
    for col, (r, g, b) in enumerate([(25.0, 3.5, 5.0), (101.0, 5.75, 64.75)]):
        block = lum[:2, 2 * col : 2 * col + 2]
        expected = np.float32((block[0, 0] + block[0, 1] + block[1, 0] + block[1, 1]) * 0.25)
        assert level1[0, col] == expected
        assert expected == np.float32(0.299 * r + 0.587 * g + 0.114 * b)


def test_halving_uint8_planes_of_255_sums_in_float64():
    # four 8-bit samples of 255 sum to 1020, which would wrap to 252 in uint8
    image = RasterImage(np.full((64, 66, 3), 255, dtype=np.uint8))
    lum = image.luminance()
    halved = register._halve(lum)
    assert halved.dtype == np.float64
    assert halved.shape == (32, 33)
    assert np.array_equal(halved, lum[:32, :33])
    assert np.array_equal(luminance_pyramid(lum)[1], lum[:32, :33])


@given(st.integers(64, 81), st.integers(64, 81), st.integers(0, 2**32 - 1), st.booleans())
@example(64, 66, 0, True)
@settings(max_examples=50, deadline=None)
def test_halving_uint8_planes_in_integers_gives_the_float64_bits(height, width, seed,
                                                                 saturated):
    # the integer samples of a uint8 frame reach the halvings as the same
    # float64 luminance its float64 copy gives, so every level is the same
    if saturated:  # every 2x2 block of 8-bit samples sums past 255
        pixels = np.full((height, width, 3), 255, dtype=np.uint8)
    else:
        pixels = np.random.default_rng(seed).integers(0, 256, (height, width, 3), np.uint8)
    pyramid = luminance_pyramid(RasterImage(pixels).luminance())
    copy = luminance_pyramid(RasterImage(pixels.astype(np.float64)).luminance())
    assert [level.tobytes() for level in pyramid] == [level.tobytes() for level in copy]


@pytest.mark.parametrize("as_uint8", [False, True])
def test_solver_planes_are_float32(as_uint8):
    image = smooth_image(8, size=128)
    if as_uint8:
        image = RasterImage(np.round(image.pixels).astype(np.uint8))
    assert [plane.dtype for plane in luminance_pyramid(image.luminance())] == [np.float32] * 3
    for level in reference_pyramid(image.luminance()):
        assert {level.plane.dtype, level.gx.dtype, level.gy.dtype} == {np.dtype(np.float32)}


def test_pyramid_preserves_mean_within_one_gray_level():
    img = random_image(9, 64, 64)
    lum = img.luminance()
    pyr = luminance_pyramid(lum)
    full_mean = lum.mean()
    for lvl in pyr:
        assert abs(lvl.mean() - full_mean) < 1.0


# ---------------------------------------------------------------------------
# resampling

def test_identity_resample_is_bitwise():
    img = random_image(12, 20, 24)
    out = resample(img, RegistrationTransform("translation"))
    assert np.array_equal(out.pixels, img.pixels)


def test_integer_shift_moves_content_exactly():
    img = random_image(5, 16, 16)
    out = resample(img, RegistrationTransform("translation", 3.0, -2.0))
    # output pixel (y, x) samples source (x - 3, y + 2)
    assert np.array_equal(out.pixels[0:14, 3:16], img.pixels[2:16, 0:13])


def test_halfway_shift_averages_neighbors():
    pixels = np.zeros((1, 4, 3))
    pixels[0, :, 0] = [0.0, 100.0, 200.0, 50.0]
    out = resample(RasterImage(pixels), RegistrationTransform("translation", -0.5, 0.0))
    assert out.pixels[0, 0, 0] == pytest.approx(50.0)
    assert out.pixels[0, 1, 0] == pytest.approx(150.0)


def test_out_of_frame_samples_clamp_to_edge():
    pixels = np.zeros((1, 3, 3))
    pixels[0, :, 0] = [10.0, 20.0, 30.0]
    out = resample(RasterImage(pixels), RegistrationTransform("translation", 2.0, 0.0))
    assert list(out.pixels[0, :, 0]) == [10.0, 10.0, 10.0]


def test_rotation_by_quarter_turn_about_center():
    img = random_image(31, 9, 9)
    quarter = RegistrationTransform("rigid", 0.0, 0.0, math.pi / 2)
    out = resample(img, quarter)
    assert np.allclose(out.pixels, np.rot90(img.pixels, k=-1), atol=1e-9)


def test_valid_mask_for_pure_shift():
    _, select, count = _warp(4, 6, RegistrationTransform("translation", 2.0, -1.0))
    # source x = out x - 2 must be >= 0; source y = out y + 1 must be <= 3
    expected = np.zeros((4, 6), dtype=bool)
    expected[0:3, 2:6] = True
    plane = np.arange(24.0).reshape(4, 6)
    assert count == expected.sum()
    assert np.array_equal(select(plane).ravel(), plane[expected])


@pytest.mark.parametrize("mode, moved", [
    ("translation", RegistrationTransform("translation", -2.3, 1.7)),
    ("rigid", RegistrationTransform("rigid", 1.2, -0.8, 0.02).inverse()),
], ids=["translation", "rigid"])
def test_register_pair_residual_matches_the_dense_mask(mode, moved):
    """The residual is the mean square of the float32 level-0 planes'
    difference, the moving one warped through the returned transform, over
    its valid pixels: the per-pixel oracle's float32 blend, reduced in the
    same one-thread pairwise order, gives the same bits."""
    reference = smooth_image(21, size=128)
    frame = resample(reference, moved)
    t, residual = register_pair(reference_pyramid(reference.luminance()), frame, mode)
    h, w = reference.height, reference.width
    sx, sy = dense_sample_coords(h, w, t.dx, t.dy, t.theta)
    mask = (sx >= 0.0) & (sx <= w - 1.0) & (sy >= 0.0) & (sy <= h - 1.0)
    warped = dense_bilinear(frame.luminance().astype(np.float32), sx, sy, np.float32)
    diff = (warped - reference.luminance().astype(np.float32))[mask]
    assert diff.dtype == np.float32 and 0 < diff.size < h * w
    assert residual == float(np.add.reduce(diff * diff)) / diff.size


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_mean_square_residual_is_the_solver_cost_at_the_identity(monkeypatch, seed):
    """Mode 'none''s residual is the one cost function the solver minimises,
    taken where every pixel is valid.  With no iteration to spend, a level
    still measures its cost at its start."""
    reference, frame = random_image(seed, 40, 56), random_image(seed + 10, 40, 56)
    (level,) = reference_pyramid(reference.luminance())
    monkeypatch.setattr(register, "_MAX_GN_ITERATIONS", 0)
    _, cost, _ = _gn_level(
        level, frame.luminance().astype(np.float32), RegistrationTransform("translation")
    )
    assert mean_square_residual(level.plane, frame) == cost > 0.0
    assert mean_square_residual(level.plane, reference) == 0.0


def _assert_warp_matches_dense_oracle(image, transform):
    h, w = image.height, image.width
    args = (transform.dx, transform.dy, transform.theta)
    expected = dense_bilinear(image.pixels, *dense_sample_coords(h, w, *args))
    sample, _, _ = _warp(h, w, transform)
    got = np.empty((h, w))
    for c, plane in enumerate(image.planes):
        sample(plane, got)
        assert got.tobytes() == expected[:, :, c].tobytes()
    assert resample(image, transform).pixels.tobytes() == expected.tobytes()
    _assert_window_matches_dense_mask(*args, h, w)


@pytest.mark.parametrize("mode,theta", [
    ("translation", 0.0), ("translation", -0.0), ("rigid", 0.0), ("rigid", -0.0),
])
@pytest.mark.parametrize("dx,dy", [
    (0.0, 0.0), (3.0, -2.0), (0.25, 1.75), (-0.5, 0.0), (1e-9, -1e-9),
    (40.0, -37.5), (-6.0, 9.25),
])
@pytest.mark.parametrize("height,width", [(9, 13), (7, 1), (1, 6), (1, 1)])
def test_theta_zero_warp_is_bit_identical_to_dense_grid(mode, theta, dx, dy,
                                                        height, width):
    image = random_image(height * 31 + width, height, width)
    _assert_warp_matches_dense_oracle(
        image, RegistrationTransform(mode, dx, dy, theta)
    )


@given(st.integers(1, 12), st.integers(1, 12), finite, finite,
       st.sampled_from([0.0, -0.0]), st.sampled_from(["translation", "rigid"]))
@settings(max_examples=100, deadline=None)
def test_theta_zero_warp_matches_dense_grid_property(height, width, dx, dy,
                                                     theta, mode):
    image = random_image(height + 13 * width, height, width)
    _assert_warp_matches_dense_oracle(
        image, RegistrationTransform(mode, dx, dy, theta)
    )


@given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=40), st.booleans())
@settings(max_examples=200, deadline=None)
def test_median_matches_numpy(values, rounded):
    spread = np.array(values)
    if rounded:  # ties, and an even count's two middle values alike
        spread = np.round(spread, -5)
    expected = np.median(spread)
    assert register._median(spread).hex() == float(expected).hex()


def test_solver_sums_do_not_drift_with_the_pixel_count():
    """2^22 float32 copies of 0.1, a full 2048^2 plane, sum to within 1e-6
    of the exact total; a running float32 total drifts by percents."""
    tenth = np.full((2048, 2048), 0.1, dtype=np.float32)
    exact = float(np.float32(0.1)) * tenth.size
    got = register._dot(tenth, np.ones_like(tenth), np.empty_like(tenth))
    assert abs(got - exact) <= 1e-6 * exact
    assert abs(float(np.cumsum(tenth)[-1]) - exact) > 1e-6 * exact


def random_plane(seed, height, width):
    # float luminance-like plane with negative values and fractional bits
    return np.random.default_rng(seed).normal(100.0, 60.0, (height, width))


def _assert_plane_warp_matches_dense_oracle(plane, dx, dy, theta):
    h, w = plane.shape
    expected = dense_bilinear(plane, *dense_sample_coords(h, w, dx, dy, theta))
    sample, _, _ = _warp(h, w, RegistrationTransform("rigid", dx, dy, theta))
    got = np.empty((h, w))
    sample(plane, got)
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("theta", [0.0, -0.0])
@pytest.mark.parametrize("dx,dy", [
    (0.0, 0.0), (2.0, -3.0), (0.25, 1.75), (1e-9, -1e-9), (-1e-9, 0.5),
    (40.0, -37.5), (-6.0, 9.25), (-0.5, 100.0),
])
@pytest.mark.parametrize("height,width", [(9, 13), (7, 1), (1, 6), (1, 1), (32, 32)])
def test_separable_plane_warp_is_bit_identical_to_dense_grid(theta, dx, dy,
                                                             height, width):
    plane = random_plane(height * 17 + width, height, width)
    _assert_plane_warp_matches_dense_oracle(plane, dx, dy, theta)


@given(st.integers(1, 12), st.integers(1, 12), finite, finite,
       st.sampled_from([0.0, -0.0]), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_separable_plane_warp_matches_dense_grid_property(height, width, dx, dy,
                                                          theta, seed):
    _assert_plane_warp_matches_dense_oracle(
        random_plane(seed, height, width), dx, dy, theta
    )


@given(st.lists(st.integers(0, 2), max_size=30), st.integers(0, 3), st.integers(0, 4))
@settings(max_examples=150, deadline=None)
def test_column_blocks_gather_what_take_gathers(steps, start, extra):
    """Any non-decreasing index, a step of 2 (two roundings apart) included."""
    index = start + np.cumsum([0, *steps])
    plane = random_plane(len(steps), 3, int(index[-1]) + 1 + extra)
    gathered = np.empty((3, index.size))
    for columns, source in register._column_blocks(index):
        gathered[:, columns] = plane[:, source]
    assert gathered.tobytes() == np.take(plane, index, axis=1).tobytes()


@pytest.mark.parametrize("dx,dy,theta", [
    (0.0, 0.0, 0.0), (2.0, -3.0, -0.0), (0.25, 1.75, 0.0), (1e-9, -1e-9, 0.0),
    (-12.5, 4.0, 0.0), (30.0, 0.0, 0.0), (0.0, -30.0, 0.0), (1.5, -0.5, 0.02),
])
@pytest.mark.parametrize("height,width", [(16, 20), (1, 9), (9, 1), (1, 1)])
def test_lm_residual_window_matches_dense_mask(dx, dy, theta, height, width):
    _assert_window_matches_dense_mask(dx, dy, theta, height, width)


@given(st.integers(1, 40), st.integers(1, 40),
       st.floats(-45.0, 45.0, allow_nan=False), st.floats(-45.0, 45.0, allow_nan=False),
       st.sampled_from([0.0, -0.0]))
@settings(max_examples=150, deadline=None)
def test_lm_residual_window_matches_dense_mask_property(height, width, dx, dy, theta):
    _assert_window_matches_dense_mask(dx, dy, theta, height, width)


def _assert_window_matches_dense_mask(dx, dy, theta, height, width):
    _, select, count = _warp(height, width, RegistrationTransform("rigid", dx, dy, theta))
    dense_sx, dense_sy = dense_sample_coords(height, width, dx, dy, theta)
    mask = (
        (dense_sx >= 0.0) & (dense_sx <= width - 1.0)
        & (dense_sy >= 0.0) & (dense_sy <= height - 1.0)
    )
    plane = random_plane(height + width, height, width)
    assert type(count) is int and count == int(mask.sum())
    assert select(plane).tobytes() == plane[mask].tobytes()


def test_gn_level_without_valid_pixels_returns_inf():
    (reference,) = reference_pyramid(random_image(1, 16, 16).luminance())
    for mode, p0 in itertools.product(
        ("translation", "rigid"), ([16.0, 0.0], [0.0, -15.5], [-40.0, 40.0])
    ):
        start = RegistrationTransform(mode, *p0)
        t, cost, converged = _gn_level(reference, reference.plane, start)
        assert t is start
        assert cost == math.inf
        assert not converged


# ---------------------------------------------------------------------------
# pair and stack registration

def test_identical_pair_registers_to_exact_zero():
    img = smooth_image(4, size=128)
    t, residual = register_pair(reference_pyramid(img.luminance()), img, "translation")
    assert t.dx == 0.0 and t.dy == 0.0
    assert residual == 0.0


def test_translation_recovery_subpixel():
    ref = smooth_image(21, size=128)
    moved = resample(ref, RegistrationTransform("translation", -2.3, 1.7))
    got, residual = register_pair(reference_pyramid(ref.luminance()), moved, "translation")
    assert got.dx == pytest.approx(2.3, abs=0.05)
    assert got.dy == pytest.approx(-1.7, abs=0.05)
    assert residual < 1.0


def test_rigid_recovery_small_rotation():
    ref = smooth_image(33, size=128)
    true = RegistrationTransform("rigid", 1.2, -0.8, 0.02)
    moved = resample(ref, true.inverse())
    got, _ = register_pair(reference_pyramid(ref.luminance()), moved, "rigid")
    assert got.theta == pytest.approx(0.02, abs=0.005)
    assert got.dx == pytest.approx(1.2, abs=0.1)
    assert got.dy == pytest.approx(-0.8, abs=0.1)


@pytest.mark.parametrize("mode", ["translation", "rigid"])
@pytest.mark.parametrize("seed,share,ground", [
    (1, 0.02, False), (2, 0.08, False), (3, 0.15, False),
    (4, 0.25, True), (5, 0.35, True), (6, 0.45, True),
])
def test_frame_with_new_colour_registers_to_its_truth(mode, seed, share, ground):
    """Changed pixels must not pull the fit: the paper's frames carry them.

    With `ground`, both frames are a textured disc on a constant colour that
    covers over half of them and matches exactly at any shift; it must not
    set the robust scale that decides which textured pixels count."""
    sample = sinusoid_sampler(np.random.default_rng(seed), 128)
    rng = np.random.default_rng(100 + seed)
    dx, dy = rng.uniform(-6.0, 6.0, 2)
    theta = float(rng.uniform(-0.02, 0.02)) if mode == "rigid" else 0.0
    anchor = sample(share=share, ground=True) if ground else sample()
    got, _ = register_pair(
        reference_pyramid(anchor.luminance()), sample(dx, dy, theta, share, ground), mode
    )
    assert math.hypot(got.dx - dx, got.dy - dy) <= 0.025
    assert abs(got.theta - theta) <= 1e-3


@pytest.mark.parametrize("mode", ["translation", "rigid"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rounded_frames_register_near_an_integer_shift(mode, seed):
    """Rounding to 8 bits must not pull the fit onto the integer shift.

    Near it most residuals of two rounded frames are exactly 0; with a
    scale below the rounding step they would outweigh the rest (0.05 px)."""
    sample = sinusoid_sampler(np.random.default_rng(seed), 128)
    anchor = RasterImage(np.round(sample().pixels))
    frame = RasterImage(np.round(sample(3.05, -1.97).pixels))
    got, _ = register_pair(reference_pyramid(anchor.luminance()), frame, mode)
    assert math.hypot(got.dx - 3.05, got.dy + 1.97) <= 0.025
    assert abs(got.theta) <= 1e-3


@pytest.mark.parametrize("mode", ["translation", "rigid"])
@pytest.mark.parametrize("changed", [0.05, 0.3, 0.45, 0.6])
def test_flat_anchor_with_sparse_change_registers_to_exact_zero(mode, changed):
    """The anchor has no gradient, so the robust scale sits at its floor.

    Every changed pixel then has zero weight and every other one a zero
    residual: the first proposed update is exactly 0."""
    rng = np.random.default_rng(55)
    side = 48
    anchor = np.full((side, side, 3), (96.0, 118.0, 84.0))
    frame = anchor.copy()
    spots = rng.choice(side * side, size=int(changed * side * side), replace=False)
    frame.reshape(-1, 3)[spots] = rng.integers(120, 256, (spots.size, 3))
    got, _ = register_pair(
        reference_pyramid(RasterImage(anchor).luminance()), RasterImage(frame), mode
    )
    assert (got.dx, got.dy, got.theta) == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("mode", ["translation", "rigid"])
def test_register_pair_out_of_iterations_raises_with_its_estimate(monkeypatch, mode):
    ref = smooth_image(21, size=128)
    moved = resample(ref, RegistrationTransform("translation", -2.3, 1.7))
    monkeypatch.setattr(register, "_MAX_GN_ITERATIONS", 1)
    with pytest.raises(RegistrationError) as info:
        register_pair(reference_pyramid(ref.luminance()), moved, mode)
    exc = info.value
    assert isinstance(exc.transform, RegistrationTransform)
    assert exc.transform.mode == mode
    assert (exc.transform.dx, exc.transform.dy) != (0.0, 0.0)
    assert math.isfinite(exc.residual)


def counting_solve(monkeypatch) -> list:
    """Patch `np.linalg.solve` to append each LinAlgError it raises to a list."""
    failures = []
    real_solve = np.linalg.solve

    def solve(a, b):
        try:
            return real_solve(a, b)
        except np.linalg.LinAlgError as exc:
            failures.append(exc)
            raise

    monkeypatch.setattr(np.linalg, "solve", solve)
    return failures


@pytest.mark.parametrize("side", [64, 128])
@pytest.mark.parametrize("mode", ["translation", "rigid"])
def test_a_singular_normal_matrix_ends_as_registration_error(monkeypatch, mode, side):
    ref = sawtooth_stripes(side)
    moved = resample(ref, RegistrationTransform("translation", 1.3, -0.4))
    failures = counting_solve(monkeypatch)
    with pytest.raises(RegistrationError, match="did not converge") as info:
        register_pair(reference_pyramid(ref.luminance()), moved, mode)
    assert len(failures) == 1
    # the message names the estimate and the residual the error carries
    t = info.value.transform
    assert str(info.value) == (
        "registration did not converge at the finest pyramid level: dx %.6g, dy %.6g, "
        "theta %.6g, residual %.6g" % (t.dx, t.dy, t.theta, info.value.residual)
    )


def test_register_pair_size_mismatch():
    """Both residuals refuse a frame of another size, also one that would
    broadcast against the reference plane (8x1, 1x8), by one message."""
    levels = reference_pyramid(random_image(1, 8, 8).luminance())
    for width, height in ((8, 1), (1, 8), (8, 9)):
        frame = random_image(1, height, width)
        message = f"^size mismatch: {width}x{height}, reference 8x8$"
        with pytest.raises(InputError, match=message):
            register_pair(levels, frame)
        with pytest.raises(InputError, match=message):
            mean_square_residual(levels[0].plane, frame)


def test_register_pair_unknown_mode():
    img = random_image(2, 8, 8)
    # 'none' names a transform, the identity, but no registration
    for mode in ("projective", "none"):
        with pytest.raises(InputError, match="mode"):
            register_pair(reference_pyramid(img.luminance()), img, mode)


# ---------------------------------------------------------------------------
# sidecar

def test_transform_sidecar_round_trip(tmp_path):
    path = tmp_path / "transforms.txt"
    records = [
        (0, RegistrationTransform("rigid", 1.25, -3.5, 0.0123456789012345), 0.5),
        (1, RegistrationTransform("translation", 0.1, 0.2), 7.0),
    ]
    write_transform_sidecar(path, records)
    back = [
        line.split() for line in path.read_text().splitlines() if not line.startswith("#")
    ]
    assert len(back) == 2
    for (i0, t0, r0), (i1, mode, dx, dy, theta, r1) in zip(records, back):
        assert i0 == int(i1) and r0 == float(r1)
        assert t0.mode == mode
        assert (t0.dx, t0.dy, t0.theta) == (float(dx), float(dy), float(theta))


@pytest.mark.parametrize("seed", [1, 2])
def test_bench_translation_stacks_register_within_their_bound(tmp_path, monkeypatch, seed):
    """Every frame of the benchmark's 512^2 translation stack lands within
    0.0121 px of the generator's truth (0.01203 px at worst on seeds 1-5)."""
    path = Path(__file__).resolve().parents[1] / "bench" / "stackgen.py"
    monkeypatch.setattr("sys.dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("somqe_bench_stackgen", path)
    stackgen = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, stackgen)  # its dataclasses look it up
    spec.loader.exec_module(stackgen)
    spec = stackgen.StackSpec(512, "translation", "ppm", max_shift=6.0)
    truth = stackgen.write_stack(spec, seed, tmp_path)
    anchor = truth["anchor_index"]
    levels = reference_pyramid(load_image(tmp_path / truth["frames"][anchor]["file"]).luminance())
    worst = 0.0
    for i, frame in enumerate(truth["frames"]):
        if i != anchor:
            t, _ = register_pair(levels, load_image(tmp_path / frame["file"]), "translation")
            worst = max(worst, math.hypot(t.dx - frame["dx"], t.dy - frame["dy"]))
    assert worst <= 0.0121
