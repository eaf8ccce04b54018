"""Subpixel alignment of equal-size frames by robust intensity descent.

A translation (optionally translation plus rotation about the frame center)
is fitted coarse to fine over a pyramid of plain luminance planes: the
frame's luminance and its repeated 2x2 box-filter halvings.  At each level
an inverse-compositional, iteratively reweighted Gauss-Newton loop (Baker &
Matthews, IJCV 2004) fits the moving plane, resampled through the held
transform, to the fixed reference plane.  Each step is solved as a motion
of the reference, so the Jacobian is the reference's own gradient, built
once per stack by `reference_pyramid`, and the inverse of the step is
composed into the held transform.
The solver works in float32: the luminance is computed and halved in
float64 and each level is then rounded to float32 (so an 8-bit frame and
its float64 copy give the same planes), and the gradients, the warped
plane, the residual and the weights are float32, half the bytes the warp
and the sums stream.  Each sum of the normal equations and of the cost
forms its elementwise product in float32 in one contiguous buffer and adds
it up with numpy's pairwise reduction, whose rounding error grows with the
log of the pixel count, not with the count, as a running float32 total's
(or a float32 `np.einsum`'s) does.  The reduction runs in one thread, so
the estimates do not depend on how many threads BLAS would have split a
dot product across; it is the package's one summation rule (see
`somqe.som`).  The finest level's cost at the returned transform is the
frame's residual in `transforms.txt`; `resample`, the step after
registration, stays float64.
Each pixel's residual gets a Tukey biweight, so pixels that changed between
the frames, such as new colour, get zero weight and cannot pull the fit
(robust parametric motion estimation: Odobez & Bouthemy, JVCIR 1995; Baker,
Gross & Matthews, CMU-RI-TR-03-01, 2003).  The weights' scale is 4.685 x
the normal-equivalent spread 1.4826 x median |residual|, fixed at a level's
first iteration.  The median runs over the pixels where the reference has a
gradient, because a constant ground matches exactly at any shift, and the
spread is floored at 0.27 grey, the spread of two independently rounded
8-bit frames, so that rounding alone never leaves the informative pixels
without weight.  Only pixels whose inverse-mapped source position lands
fully inside the moving frame contribute to the residual, so borders swept
in from outside never bias the fit.

Conventions, shared with `resample`:
  * pixel (row y, col x), x grows right, y grows down
  * forward map p_out = R(theta) (p_in - c) + c + (dx, dy), with c the image
    center ((w-1)/2, (h-1)/2) and R a counterclockwise rotation in (x, y)
  * resampling is bilinear with clamp-to-edge, inverse mapping, and is exact
    for integer shifts (the identity transform copies the image bitwise)
  * one `_warp` per transform serves every caller: it computes the sample
    coordinates, their clamped corner indices and blend weights once, and
    returns a `sample` that writes a plane's bilinear samples into a given
    array of the warp's dtype (float64, or float32 for the solver) with the
    valid-pixel `select` and `count`.  `resample` samples
    its three planes into one stack, and `_gn_level` samples into one plane
    per pyramid level and takes only the valid pixels
  * at theta = 0 (every translation, and the rigid solver's start) the
    sample coordinates are separable: one row of x and one column of y,
    with the same bits as the dense rotated grid.  Bilinear sampling is then
    a column pass over every row (its columns copied in a few blocks, see
    `_column_blocks`) followed by a row pass, and the valid
    pixels form one rectangle, a run of rows times a run of columns; both
    do the same float operations in the same order as the per-pixel form,
    so the output bits are unchanged.  Only a rotation gathers pixel by
    pixel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InputError, RegistrationError
from .raster import RasterImage, atomic_write_bytes

_MODES = ("translation", "rigid")

# Gauss-Newton configuration: convergence thresholds on the proposed update
# and the iteration budget per pyramid level
_CONVERGED_PX = 1e-4
_CONVERGED_RAD = 1e-6
_MAX_GN_ITERATIONS = 50
# Tukey's 95%-efficiency constant, the factor that turns a median absolute
# residual into a normal standard deviation, and a floor on that deviation:
# the spread, in grey levels, of the luminance difference of two
# independently rounded 8-bit RGB frames
_TUKEY_C = 4.685
_MAD_TO_SIGMA = 1.4826
_SIGMA_FLOOR = 0.27

_MIN_PYRAMID_DIM = 32


@dataclass(frozen=True)
class RegistrationTransform:
    """Rigid (or pure-translation) map between equal-size frames; identity by default.

    Mode 'none', a frame's in a run that does not register, is the identity alone."""

    mode: str
    dx: float = 0.0
    dy: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        identity = (self.dx, self.dy, self.theta) == (0, 0, 0)
        if self.mode not in _MODES and not (self.mode == "none" and identity):
            raise InputError(f"mode must be one of {_MODES}")
        if not all(map(math.isfinite, (self.dx, self.dy, self.theta))):
            raise InputError("transform parameters must be finite")
        if self.mode == "translation" and self.theta != 0.0:
            raise InputError("translation transform cannot carry a rotation")
        theta = math.remainder(self.theta, math.tau)
        if theta == -math.pi:
            theta = math.pi
        object.__setattr__(self, "theta", theta)

    def inverse(self) -> "RegistrationTransform":
        c, s = math.cos(self.theta), math.sin(self.theta)
        # p_in = R(-theta) (p_out - c - t) + c
        idx = -(c * self.dx + s * self.dy)
        idy = -(-s * self.dx + c * self.dy)
        return RegistrationTransform(self.mode, idx, idy, -self.theta)

    def compose(self, other: "RegistrationTransform") -> "RegistrationTransform":
        """Transform equivalent to applying `other` first, then self."""
        c, s = math.cos(self.theta), math.sin(self.theta)
        dx = c * other.dx - s * other.dy + self.dx
        dy = s * other.dx + c * other.dy + self.dy
        mode = "rigid" if "rigid" in (self.mode, other.mode) else "translation"
        return RegistrationTransform(mode, dx, dy, self.theta + other.theta)


def _halve(plane: np.ndarray) -> np.ndarray:
    # plain 2x2 block means of a float64 plane, (a + b + c + d) * 0.25 added
    # left to right; a trailing odd row or column is dropped so every level
    # has exactly floor(previous / 2) in each dimension
    h2, w2 = plane.shape[0] // 2, plane.shape[1] // 2
    t = plane[: 2 * h2, : 2 * w2]
    out = t[0::2, 0::2] + t[0::2, 1::2]
    out += t[1::2, 0::2]
    out += t[1::2, 1::2]
    out *= 0.25
    return out


def luminance_pyramid(luminance: np.ndarray) -> tuple[np.ndarray, ...]:
    """float32 planes of a 2x2 box-filter pyramid, full resolution first.

    The float64 (h, w) luminance plane, as `RasterImage.luminance` gives it,
    is halved until the next level would drop below 32 pixels in either
    dimension, and each level is rounded to float32."""
    planes = [luminance.astype(np.float32)]
    while min(luminance.shape) // 2 >= _MIN_PYRAMID_DIM:
        luminance = _halve(luminance)
        planes.append(luminance.astype(np.float32))
    return tuple(planes)


class ReferenceLevel(NamedTuple):
    """A reference level's plane, its gradient and where that is nonzero."""

    plane: np.ndarray
    gx: np.ndarray
    gy: np.ndarray
    textured: np.ndarray


def reference_pyramid(luminance: np.ndarray) -> tuple[ReferenceLevel, ...]:
    """The levels of `luminance_pyramid(luminance)` with their gradients.

    They depend on the reference alone, so a caller that registers many
    frames to one reference builds them once."""
    height, width = luminance.shape
    if min(height, width) < 2:
        raise InputError(
            f"cannot register {width}x{height} frames: a gradient "
            "needs 2 pixels along each side"
        )
    levels = []
    for plane in luminance_pyramid(luminance):
        gy, gx = np.gradient(plane)
        levels.append(ReferenceLevel(plane, gx, gy, (gx != 0.0) | (gy != 0.0)))
    return tuple(levels)


def _corners(coords: np.ndarray, size: int, dtype):
    # the clamped neighbours below and above each coordinate along one axis,
    # and the weights of each in the blend, rounded to `dtype`
    clamped = np.clip(coords, 0.0, size - 1.0)
    low = np.floor(clamped).astype(np.int64)
    upper = clamped - low
    weights = (1.0 - upper).astype(dtype, copy=False), upper.astype(dtype, copy=False)
    return low, np.minimum(low + 1, size - 1), *weights


def _column_blocks(index: np.ndarray):
    # (destination, source) slices that copy the columns `index` (non-
    # decreasing) of a plane, one pair per run with a constant step: a column
    # repeated by the clamp is broadcast, a shifted run is one strided block.
    # A block copy moves whole rows, where `np.take(..., axis=1)` moves one
    # sample at a time, about 4x slower
    step = np.diff(index)
    bounds = [0, *(np.flatnonzero(step[1:] != step[:-1]) + 2).tolist(), index.size]
    blocks = []
    for a, b in zip(bounds, bounds[1:]):
        first, last = int(index[a]), int(index[b - 1])
        source = slice(first, first + 1) if first == last else slice(first, last + 1, int(step[a]))
        blocks.append((slice(a, b), source))
    return blocks


def _run(inside: np.ndarray) -> slice:
    # the True entries of a vector that holds one run of them
    where = np.flatnonzero(inside)
    return slice(int(where[0]), int(where[-1]) + 1) if where.size else slice(0, 0)


def _warp(height: int, width: int, t: RegistrationTransform, dtype=np.float64):
    """(sample, select, count) of the inverse mapping through `t` on an (h, w) grid.

    `sample(plane, out)` writes the bilinear samples of an (h, w) plane into
    the (h, w) array `out` of `dtype`, blending with weights of that dtype;
    a uint8 plane's samples are blended as its `dtype` copy's are.
    `select(a)` holds the `count` valid pixels of an (h, w) array in
    row-major order, in a 2-D array.  At theta = 0 the valid pixels are a
    run of rows times a run of columns, each one run because every rounding
    step of `j - c - d + c` is monotone in j, so the selection is one
    rectangular view that copies nothing.  Otherwise it is one row of the
    pixels under the dense mask."""
    cx, cy = (width - 1) / 2.0, (height - 1) / 2.0
    ux = np.arange(width, dtype=np.float64) - cx - t.dx
    uy = np.arange(height, dtype=np.float64) - cy - t.dy
    if t.theta == 0.0:  # a row and a column; "- c - d + c" rounds as below
        sx, sy = ux + cx, uy + cy
    else:
        c, s = math.cos(t.theta), math.sin(t.theta)
        uy = uy[:, None]
        sx = c * ux + s * uy + cx
        sy = -s * ux + c * uy + cy
    x0, x1, gx, fx = _corners(sx, width, dtype)
    y0, y1, gy, fy = _corners(sy, height, dtype)
    inside_x = (sx >= 0.0) & (sx <= width - 1.0)
    inside_y = (sy >= 0.0) & (sy <= height - 1.0)
    if t.theta != 0.0:
        def sample(plane, out):
            top = gx * plane[y0, x0] + fx * plane[y0, x1]
            bottom = gx * plane[y1, x0] + fx * plane[y1, x1]
            np.add(gy * top, fy * bottom, out=out)

        mask = inside_x & inside_y
        return sample, (lambda a: a[mask][None]), int(mask.sum())
    gy, fy = gy[:, None], fy[:, None]
    left_blocks, right_blocks = _column_blocks(x0), _column_blocks(x1)

    def sample(plane, out):
        # row i of `across` is the x blend of plane row i, so its rows y0 and
        # y1 are the per-pixel `top` and `bottom` above, bit for bit; the
        # columns are gathered straight into the weights' dtype
        across, right = np.empty_like(out), np.empty_like(out)
        for gathered, blocks, weight in ((across, left_blocks, gx), (right, right_blocks, fx)):
            for columns, source in blocks:
                gathered[:, columns] = plane[:, source]
            gathered *= weight
        across += right
        np.take(across, y0, axis=0, out=out, mode="clip")
        out *= gy
        np.take(across, y1, axis=0, out=right, mode="clip")
        right *= fy
        out += right

    rows, cols = _run(inside_y), _run(inside_x)
    count = (rows.stop - rows.start) * (cols.stop - cols.start)
    return sample, (lambda a: a[rows, cols]), count


def resample(image: RasterImage, transform: RegistrationTransform) -> RasterImage:
    """Apply the transform to the image, sampling by inverse mapping; float64."""
    sample, _, _ = _warp(image.height, image.width, transform)
    planes = np.empty(image.planes.shape)
    for plane, out in zip(image.planes, planes):
        sample(plane, out)
    return RasterImage.from_planes(planes)


def _update_is_small(delta: np.ndarray) -> bool:
    if math.hypot(delta[0], delta[1]) >= _CONVERGED_PX:
        return False
    return len(delta) < 3 or abs(delta[2]) < _CONVERGED_RAD


def _dot(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> float:
    """The sum of a * b, formed in the contiguous array `out`, in one thread.

    numpy reduces a contiguous run pairwise, so the rounding error of a
    float32 sum grows with log n, where a running total's grows with n;
    BLAS would split a long dot product across threads, and its rounding
    would then depend on how many it was given."""
    np.multiply(a, b, out=out)
    return float(np.add.reduce(out.ravel()))


def _median(values: np.ndarray) -> float:
    """`np.median` of a non-empty 1-D array of floats >= 0, partitioned in place.

    The same order statistics, and for an even count the same (a + b) / 2,
    so the same bits; but `np.median` imports `numpy.ma` on its first call
    (about 18 ms and 1 MB of objects that live on), which in a frame worker
    lands amid its first frame's buffers and splits the heap they leave.
    For an even count the lower middle value is the largest of the k below
    the k-th: one partition and a max take about a tenth of the time of a
    partition at both middle positions."""
    k = values.size // 2
    values.partition(k)
    if values.size % 2:
        return float(values[k])
    return float((values[:k].max() + values[k]) / 2.0)


def _gn_level(reference: ReferenceLevel, moving: np.ndarray, start: RegistrationTransform):
    """One pyramid level of inverse-compositional, reweighted Gauss-Newton.

    Returns (transform, mean-square residual, converged).  A step of (dx,
    dy, theta) moves the reference by (-gx, -gy) and gx uy - gy ux, with
    (gx, gy) its gradient and (ux, uy) = (x, y) - c.  The Jacobian columns
    are their negations, gx, gy and gy ux - gx uy, so the step solves
    J'WJ step = J'Wr for the residual r = moving - reference.  A proposed
    step below the thresholds ends the loop, so a pair already at its
    optimum (two identical frames at zero) returns the start itself."""
    plane, gx, gy, textured = reference
    h, w = plane.shape
    planes = [gx, gy]
    if start.mode == "rigid":
        ux = (np.arange(w) - (w - 1) / 2.0).astype(np.float32)
        uy = (np.arange(h)[:, None] - (h - 1) / 2.0).astype(np.float32)
        planes.append(gy * ux - gx * uy)
    k = len(planes)
    t = start
    warped = np.empty((h, w), np.float32)
    # the residual, product, weight (which first holds the |residual| spread)
    # and weighted columns of every iteration are views of whole-plane
    # buffers allocated once per level: the valid region's size changes with
    # the transform, and buffers of changing sizes land in new parts of the
    # heap from frame to frame, faulting in fresh pages
    work = [np.empty(h * w, np.float32) for _ in range(3 + k)]
    for iteration in range(_MAX_GN_ITERATIONS + 1):
        sample, select, count = _warp(h, w, t, np.float32)
        if count == 0:
            return t, math.inf, False
        sample(moving, warped)
        target = select(warped)
        residual, product, weight, *weighted = (
            row[:count].reshape(target.shape) for row in work
        )
        np.subtract(target, select(plane), out=residual)
        cost = _dot(residual, residual, product) / count
        if iteration == 0:
            # fixed for the level: a scale recomputed every step changes the
            # cost between steps, and the estimates settle further from the
            # truth.  Measured where the reference has a gradient; on a
            # constant ground the residuals are 0 at any shift and would
            # shrink the scale until no textured pixel counts
            inside = select(textured).ravel()
            spread = weight.ravel()[: np.count_nonzero(inside)]
            np.compress(inside, residual, out=spread)
            np.abs(spread, out=spread)
            sigma = _MAD_TO_SIGMA * _median(spread) if spread.size else 0.0
            scale = _TUKEY_C * max(sigma, _SIGMA_FLOOR)
        elif iteration == _MAX_GN_ITERATIONS:
            break
        np.divide(residual, scale, out=weight)
        np.square(weight, out=weight)
        np.subtract(1.0, weight, out=weight)
        np.maximum(0.0, weight, out=weight)
        np.square(weight, out=weight)
        columns = [select(p) for p in planes]
        for c, out in zip(columns, weighted):
            np.multiply(weight, c, out=out)
        normal = np.empty((k, k))
        for a in range(k):
            for b in range(a, k):
                normal[a, b] = normal[b, a] = _dot(weighted[a], columns[b], product)
        normal += 1e-12 * np.eye(k)
        residual *= weight
        try:
            delta = np.linalg.solve(normal, [_dot(c, residual, product) for c in columns])
        except np.linalg.LinAlgError:
            return t, cost, False
        if _update_is_small(delta):
            return t, cost, True
        t = RegistrationTransform(t.mode, *(-delta).tolist()).inverse().compose(t)
    return t, cost, False


def _check_size(reference: np.ndarray, frame: RasterImage) -> None:
    # a frame of another size would broadcast against the reference plane,
    # or fail deep inside numpy, instead of naming the two sizes
    h, w = reference.shape
    if (frame.height, frame.width) != (h, w):
        raise InputError(f"size mismatch: {frame.width}x{frame.height}, reference {w}x{h}")


def register_pair(
    reference_levels: tuple[ReferenceLevel, ...],
    test: RasterImage,
    mode: str = "translation",
) -> tuple[RegistrationTransform, float]:
    """(T, residual): resample(test, T) best matches the reference.

    `reference_levels` is `reference_pyramid(reference.luminance())`, built
    once by a caller that registers many frames to one reference, which then
    need not hold the reference image itself.  Solved coarse to fine from
    the identity, doubling the shift per level; the residual is the finest
    level's cost at T.  A test frame of another size than the reference
    raises InputError; one that the finest level fails to register raises
    RegistrationError, carrying the best transform and its residual and
    naming them in its message.
    """
    if mode not in _MODES:
        raise InputError(f"mode must be one of {_MODES}")
    _check_size(reference_levels[0].plane, test)
    t = RegistrationTransform(mode)
    test_levels = luminance_pyramid(test.luminance())
    for level, moving in zip(reference_levels[::-1], test_levels[::-1]):
        t = RegistrationTransform(mode, 2.0 * t.dx, 2.0 * t.dy, t.theta)
        t, cost, converged = _gn_level(level, moving, t)
    if not converged:
        raise RegistrationError(
            "registration did not converge at the finest pyramid level: "
            "dx %.6g, dy %.6g, theta %.6g, residual %.6g" % (t.dx, t.dy, t.theta, cost),
            transform=t,
            residual=cost,
        )
    return t, cost


def mean_square_residual(reference: np.ndarray, frame: RasterImage) -> float:
    """An unregistered frame's residual against the float32 luminance plane
    `reference`: `_gn_level`'s cost at the identity, bit for bit.  A frame
    of another size raises InputError, as in `register_pair`."""
    _check_size(reference, frame)
    residual = np.subtract(frame.luminance(), reference, dtype=np.float32)
    return _dot(residual, residual, residual) / residual.size


# ---------------------------------------------------------------------------
# transform sidecar

_SIDECAR_MAGIC = "somqe-transforms"
_SIDECAR_VERSION = "v1"


def write_transform_sidecar(path, records) -> None:
    """Write one line per frame: index mode dx dy theta residual.

    Floats use %.17g, comfortably past the 12 significant digits the format
    promises.  `records` is an iterable of (index, transform, residual).
    """
    lines = [
        f"# {_SIDECAR_MAGIC} {_SIDECAR_VERSION}",
        "# columns: index mode dx dy theta residual",
    ]
    for index, transform, residual in records:
        lines.append(
            "%d %s %.17g %.17g %.17g %.17g"
            % (index, transform.mode, transform.dx, transform.dy,
               transform.theta, residual)
        )
    atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("ascii"))
