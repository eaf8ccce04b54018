"""Alignment: transform algebra, pyramids, resampling, recovery."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from somqe import (
    InputError,
    RasterImage,
    RegistrationError,
    RegistrationTransform,
    register_pair,
    resample,
)
from somqe import register
from somqe.register import (
    _bilinear,
    _inverse_sample_coords,
    _gn_level,
    _valid_selector,
    identity_transform,
    luminance_pyramid,
    mean_square_residual,
    read_transform_sidecar,
    reference_pyramid,
    write_transform_sidecar,
)

from conftest import random_image, sinusoid_sampler, smooth_image
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


# ---------------------------------------------------------------------------
# pyramid

def test_pyramid_levels_halve_until_32():
    img = smooth_image(1, size=256)
    pyr = luminance_pyramid(img)
    dims = [lvl.shape for lvl in pyr]
    assert dims == [(256, 256), (128, 128), (64, 64), (32, 32)]


def test_pyramid_odd_dimensions_floor():
    img = RasterImage(np.zeros((65, 130, 3)))
    pyr = luminance_pyramid(img)
    dims = [lvl.shape for lvl in pyr]
    # halving (32, 65) again would drop below 32 rows, so it is the coarsest
    assert dims == [(65, 130), (32, 65)]


def test_pyramid_small_image_single_level():
    img = RasterImage(np.zeros((40, 63, 3)))
    assert len(luminance_pyramid(img)) == 1


def test_pyramid_blocks_are_exact_means():
    pixels = np.zeros((2, 4, 3))
    pixels[:, :, 0] = [[10, 20, 100, 100], [30, 40, 100, 104]]
    pixels[:, :, 1] = [[1, 2, 3, 4], [5, 6, 7, 9]]
    pixels[:, :, 2] = [[7, 0, 255, 3], [11, 2, 1, 0]]
    pyr = luminance_pyramid(RasterImage(np.tile(pixels, (32, 16, 1))))
    level1 = pyr[1]
    # the luminance of the RGB block means; halving the luminance plane
    # instead rounds the second block differently
    assert level1[0, 0] == 0.299 * 25.0 + 0.587 * 3.5 + 0.114 * 5.0
    assert level1[0, 1] == 0.299 * 101.0 + 0.587 * 5.75 + 0.114 * 64.75


def test_pyramid_preserves_mean_within_one_gray_level():
    img = random_image(9, 64, 64)
    pyr = luminance_pyramid(img)
    full_mean = img.luminance().mean()
    for lvl in pyr:
        assert abs(lvl.mean() - full_mean) < 1.0


# ---------------------------------------------------------------------------
# resampling

def test_identity_resample_is_bitwise():
    img = random_image(12, 20, 24)
    out = resample(img, identity_transform())
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
    sx, sy = _inverse_sample_coords(4, 6, 2.0, -1.0, 0.0)
    select, count = _valid_selector(sx, sy, 4, 6)
    # source x = out x - 2 must be >= 0; source y = out y + 1 must be <= 3
    expected = np.zeros((4, 6), dtype=bool)
    expected[0:3, 2:6] = True
    plane = np.arange(24.0).reshape(4, 6)
    assert count == expected.sum()
    assert np.array_equal(select(plane).ravel(), plane[expected])


@pytest.mark.parametrize("transform", [
    RegistrationTransform("translation", 2.25, -1.5),
    RegistrationTransform("rigid", 0.5, 1.0, 0.05),
    RegistrationTransform("translation", 40.0, 0.0),
])
def test_mean_square_residual_matches_the_dense_mask(transform):
    h, w = 20, 24
    reference, moving = random_image(3, h, w), random_image(4, h, w)
    aligned = resample(moving, transform)
    sx, sy = dense_sample_coords(h, w, transform.dx, transform.dy, transform.theta)
    mask = (sx >= 0.0) & (sx <= w - 1.0) & (sy >= 0.0) & (sy <= h - 1.0)
    diff = (aligned.luminance() - reference.luminance())[mask]
    # the same one-thread reduction as the program, so the bits match exactly
    sum_sq = float(np.einsum("i,i->", diff, diff))
    expected = sum_sq / diff.size if diff.size else math.inf
    assert mean_square_residual(reference.luminance(), aligned, transform) == expected


def _assert_warp_matches_dense_oracle(image, transform):
    h, w = image.height, image.width
    args = (h, w, transform.dx, transform.dy, transform.theta)
    dense_sx, dense_sy = dense_sample_coords(*args)
    sx, sy = _inverse_sample_coords(*args)
    assert np.broadcast_to(sx, (h, w)).tobytes() == dense_sx.tobytes()
    assert np.broadcast_to(sy, (h, w)).tobytes() == dense_sy.tobytes()
    expected = dense_bilinear(image.pixels, dense_sx, dense_sy)
    assert _bilinear(image.pixels, dense_sx, dense_sy).tobytes() == expected.tobytes()
    assert resample(image, transform).pixels.tobytes() == expected.tobytes()
    _assert_window_matches_dense_mask(*args[2:], h, w)


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


def random_plane(seed, height, width):
    # float luminance-like plane with negative values and fractional bits
    return np.random.default_rng(seed).normal(100.0, 60.0, (height, width))


def _assert_plane_warp_matches_dense_oracle(plane, dx, dy, theta):
    h, w = plane.shape
    sx, sy = _inverse_sample_coords(h, w, dx, dy, theta)
    assert sx.shape == (1, w) and sy.shape == (h, 1)
    dense_sx, dense_sy = dense_sample_coords(h, w, dx, dy, theta)
    expected = dense_bilinear(plane, dense_sx, dense_sy)
    got = _bilinear(plane, sx, sy)
    assert got.shape == (h, w)
    assert got.tobytes() == expected.tobytes()
    assert _bilinear(plane, dense_sx, dense_sy).tobytes() == expected.tobytes()


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
    sx, sy = _inverse_sample_coords(height, width, dx, dy, theta)
    select, count = _valid_selector(sx, sy, height, width)
    dense_sx, dense_sy = dense_sample_coords(height, width, dx, dy, theta)
    mask = (
        (dense_sx >= 0.0) & (dense_sx <= width - 1.0)
        & (dense_sy >= 0.0) & (dense_sy <= height - 1.0)
    )
    plane = random_plane(height + width, height, width)
    assert type(count) is int and count == int(mask.sum())
    assert select(plane).tobytes() == plane[mask].tobytes()


def test_gn_level_without_valid_pixels_returns_inf():
    (reference,) = reference_pyramid(random_image(1, 16, 16))
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
    t = register_pair(reference_pyramid(img), img, "translation")
    assert t.dx == 0.0 and t.dy == 0.0


def test_translation_recovery_subpixel():
    ref = smooth_image(21, size=128)
    moved = resample(ref, RegistrationTransform("translation", -2.3, 1.7))
    got = register_pair(reference_pyramid(ref), moved, "translation")
    assert got.dx == pytest.approx(2.3, abs=0.05)
    assert got.dy == pytest.approx(-1.7, abs=0.05)
    aligned = resample(moved, got)
    assert mean_square_residual(ref.luminance(), aligned, got) < 1.0


def test_rigid_recovery_small_rotation():
    ref = smooth_image(33, size=128)
    true = RegistrationTransform("rigid", 1.2, -0.8, 0.02)
    moved = resample(ref, true.inverse())
    got = register_pair(reference_pyramid(ref), moved, "rigid")
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
    got = register_pair(
        reference_pyramid(anchor), sample(dx, dy, theta, share, ground), mode
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
    got = register_pair(reference_pyramid(anchor), frame, mode)
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
    got = register_pair(
        reference_pyramid(RasterImage(anchor)), RasterImage(frame), mode
    )
    assert (got.dx, got.dy, got.theta) == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("mode", ["translation", "rigid"])
def test_register_pair_out_of_iterations_raises_with_its_estimate(monkeypatch, mode):
    ref = smooth_image(21, size=128)
    moved = resample(ref, RegistrationTransform("translation", -2.3, 1.7))
    monkeypatch.setattr(register, "_MAX_GN_ITERATIONS", 1)
    with pytest.raises(RegistrationError) as info:
        register_pair(reference_pyramid(ref), moved, mode)
    exc = info.value
    assert isinstance(exc.transform, RegistrationTransform)
    assert exc.transform.mode == mode
    assert (exc.transform.dx, exc.transform.dy) != (0.0, 0.0)
    assert math.isfinite(exc.residual)


def test_register_pair_size_mismatch():
    with pytest.raises(InputError, match="size mismatch"):
        register_pair(reference_pyramid(random_image(1, 8, 8)), random_image(1, 8, 9))


def test_register_pair_unknown_mode():
    img = random_image(2, 8, 8)
    with pytest.raises(InputError, match="mode"):
        register_pair(reference_pyramid(img), img, "projective")


# ---------------------------------------------------------------------------
# sidecar

def test_transform_sidecar_round_trip(tmp_path):
    path = tmp_path / "transforms.txt"
    records = [
        (0, RegistrationTransform("rigid", 1.25, -3.5, 0.0123456789012345), 0.5),
        (1, RegistrationTransform("translation", 0.1, 0.2), 7.0),
    ]
    write_transform_sidecar(path, records)
    back = read_transform_sidecar(path)
    assert len(back) == 2
    for (i0, t0, r0), (i1, t1, r1) in zip(records, back):
        assert i0 == i1 and r0 == r1
        assert t0.mode == t1.mode
        assert (t0.dx, t0.dy, t0.theta) == (t1.dx, t1.dy, t1.theta)


def test_transform_sidecar_rejects_garbage(tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text("0 translation 1 2\n")
    with pytest.raises(InputError, match="expected 6 fields"):
        read_transform_sidecar(path)
