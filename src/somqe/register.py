"""Subpixel alignment of equal-size frames by robust intensity descent.

A translation (optionally translation plus rotation about the frame center)
is fitted coarse to fine over a pyramid of plain luminance planes, one per
2x2 box-filter halving of the RGB frame.  At each level an inverse-
compositional, iteratively reweighted Gauss-Newton loop (Baker & Matthews,
IJCV 2004) fits the moving plane, resampled through the held transform, to
the fixed reference plane.  Each step is solved as a motion of the
reference, so the Jacobian is the reference's own gradient, built once per
stack by `reference_pyramid`, and the inverse of the step is composed into
the held transform.  The normal equations are summed column by column with
`np.einsum`, which runs in one thread, so the estimates do not depend on how
many threads BLAS would have split a dot product across.
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
  * at theta = 0 (every translation, and the rigid solver's start) the
    sample coordinates are separable: one row of x and one column of y,
    with the same bits as the dense rotated grid.  Bilinear sampling is then
    a column pass over every row followed by a row pass, and the valid
    pixels form one rectangle, a run of rows times a run of columns; both
    do the same float operations in the same order as the per-pixel form,
    so the output bits are unchanged.  Only a rotation gathers pixel by
    pixel.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InputError, RegistrationError
from .raster import RasterImage, atomic_write_bytes, luminance_plane, read_text

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
    """Rigid (or pure-translation) map between two equal-size frames."""

    mode: str
    dx: float
    dy: float
    theta: float = 0.0

    def __post_init__(self):
        if self.mode not in _MODES:
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


def identity_transform(mode: str = "translation") -> RegistrationTransform:
    return RegistrationTransform(mode, 0.0, 0.0, 0.0)


def _halve(a: np.ndarray) -> np.ndarray:
    # plain 2x2 block means; a trailing odd row or column is dropped so
    # every level has exactly floor(previous / 2) in each dimension
    h2, w2 = a.shape[0] // 2, a.shape[1] // 2
    t = a[: 2 * h2, : 2 * w2]
    return (t[0::2, 0::2] + t[0::2, 1::2] + t[1::2, 0::2] + t[1::2, 1::2]) * 0.25


def luminance_pyramid(image: RasterImage) -> tuple[np.ndarray, ...]:
    """Luminance planes of a 2x2 box-filter pyramid, full resolution first.

    The RGB pixels are halved until the next level would drop below 32
    pixels in either dimension, and each level's plane is the luminance of
    its halved RGB, which rounds differently from halving the luminance."""
    current = image.pixels
    planes = [luminance_plane(current)]
    while min(current.shape[:2]) // 2 >= _MIN_PYRAMID_DIM:
        current = _halve(current)
        planes.append(luminance_plane(current))
    return tuple(planes)


class ReferenceLevel(NamedTuple):
    """A reference level's plane, its gradient and where that is nonzero."""

    plane: np.ndarray
    gx: np.ndarray
    gy: np.ndarray
    textured: np.ndarray


def reference_pyramid(image: RasterImage) -> tuple[ReferenceLevel, ...]:
    """The levels of `luminance_pyramid(image)` with their gradients.

    They depend on the reference alone, so a caller that registers many
    frames to one reference builds them once."""
    if min(image.height, image.width) < 2:
        raise InputError(
            f"cannot register {image.width}x{image.height} frames: a gradient "
            "needs 2 pixels along each side"
        )
    levels = []
    for plane in luminance_pyramid(image):
        gy, gx = np.gradient(plane)
        levels.append(ReferenceLevel(plane, gx, gy, (gx != 0.0) | (gy != 0.0)))
    return tuple(levels)


def _inverse_sample_coords(height, width, dx, dy, theta):
    cx = (width - 1) / 2.0
    cy = (height - 1) / 2.0
    xs = np.arange(width, dtype=np.float64)
    ys = np.arange(height, dtype=np.float64)
    if theta == 0.0:  # a row and a column; "- c - d + c" rounds as below
        return (xs - cx - dx + cx)[None, :], (ys - cy - dy + cy)[:, None]
    X, Y = np.meshgrid(xs, ys)
    ux = X - cx - dx
    uy = Y - cy - dy
    c, s = math.cos(theta), math.sin(theta)
    sx = c * ux + s * uy + cx
    sy = -s * ux + c * uy + cy
    return sx, sy


def _separable(sx: np.ndarray, sy: np.ndarray) -> bool:
    # a (1, w) row of x and an (h, 1) column of y; a dense grid passes only
    # at 1x1, where both forms agree
    return sx.shape[0] == 1 and sy.shape[1] == 1


def _bilinear(data: np.ndarray, sx: np.ndarray, sy: np.ndarray) -> np.ndarray:
    """Sample `data` (h, w) or (h, w, C) at float coords, clamping to edges.

    Coordinates are (h, w) grids, or a (1, w) row and an (h, 1) column."""
    h, w = data.shape[:2]
    sxc = np.clip(sx, 0.0, w - 1.0)
    syc = np.clip(sy, 0.0, h - 1.0)
    x0 = np.floor(sxc).astype(np.int64)
    y0 = np.floor(syc).astype(np.int64)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    channels = (slice(None), slice(None)) + (None,) * (data.ndim - 2)
    fx = (sxc - x0)[channels]
    fy = (syc - y0)[channels]
    if _separable(sx, sy):
        # row i of `across` is the x blend of data row i, so its rows y0 and
        # y1 are the per-pixel `top` and `bottom` below, bit for bit
        across = np.take(data, x0[0], axis=1)
        across *= 1.0 - fx
        right = np.take(data, x1[0], axis=1)
        right *= fx
        across += right
        out = np.take(across, y0[:, 0], axis=0)
        out *= 1.0 - fy
        bottom = np.take(across, y1[:, 0], axis=0)
        bottom *= fy
        out += bottom
        return out
    top = (1.0 - fx) * data[y0, x0] + fx * data[y0, x1]
    bottom = (1.0 - fx) * data[y1, x0] + fx * data[y1, x1]
    return (1.0 - fy) * top + fy * bottom


def resample(image: RasterImage, transform: RegistrationTransform) -> RasterImage:
    """Apply the transform to the image, sampling by inverse mapping."""
    sx, sy = _inverse_sample_coords(
        image.height, image.width, transform.dx, transform.dy, transform.theta
    )
    return RasterImage(_bilinear(image.pixels, sx, sy))


def _run(inside: np.ndarray) -> slice:
    # the True entries of a vector that holds one run of them
    where = np.flatnonzero(inside)
    return slice(int(where[0]), int(where[-1]) + 1) if where.size else slice(0, 0)


def _valid_selector(sx: np.ndarray, sy: np.ndarray, height: int, width: int):
    """(select, count): `select(a)` holds the valid pixels of an (h, w) plane.

    They come in row-major order, as indexing by the boolean mask gives
    them, in a 2-D array.  At theta = 0 the mask is a row mask times a
    column mask, and each is one run: every rounding step of `j - c - d + c`
    is monotone in j, so the coordinates never decrease along a row or a
    column.  The selection is then one rectangular slice, a view that
    copies nothing, and the full mask is never built.  Otherwise it is one
    row of the masked pixels."""
    inside_x = (sx >= 0.0) & (sx <= width - 1.0)
    inside_y = (sy >= 0.0) & (sy <= height - 1.0)
    if _separable(sx, sy):
        rows, cols = _run(inside_y[:, 0]), _run(inside_x[0])
        count = (rows.stop - rows.start) * (cols.stop - cols.start)
        return (lambda a: a[rows, cols]), count
    mask = inside_x & inside_y
    return (lambda a: a[mask][None]), int(mask.sum())


def _update_is_small(delta: np.ndarray) -> bool:
    if math.hypot(delta[0], delta[1]) >= _CONVERGED_PX:
        return False
    return len(delta) < 3 or abs(delta[2]) < _CONVERGED_RAD


def _dot(*factors: np.ndarray) -> float:
    # the sum of the 2-D factors' elementwise product, in one thread: BLAS
    # splits a long dot product across threads, and its rounding then
    # depends on how many it was given
    return float(np.einsum(",".join(["ij"] * len(factors)) + "->", *factors))


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
        ux = np.arange(w) - (w - 1) / 2.0
        uy = np.arange(h)[:, None] - (h - 1) / 2.0
        planes.append(gy * ux - gx * uy)
    k = len(planes)
    t = start
    for iteration in range(_MAX_GN_ITERATIONS + 1):
        sx, sy = _inverse_sample_coords(h, w, t.dx, t.dy, t.theta)
        select, count = _valid_selector(sx, sy, h, w)
        if count == 0:
            return t, math.inf, False
        residual = select(_bilinear(moving, sx, sy)) - select(plane)
        cost = _dot(residual, residual) / count
        if iteration == 0:
            # fixed for the level: a scale recomputed every step changes the
            # cost between steps, and the estimates settle further from the
            # truth.  Measured where the reference has a gradient; on a
            # constant ground the residuals are 0 at any shift and would
            # shrink the scale until no textured pixel counts
            spread = np.abs(residual[select(textured)])
            sigma = _MAD_TO_SIGMA * float(np.median(spread)) if spread.size else 0.0
            scale = _TUKEY_C * max(sigma, _SIGMA_FLOOR)
        elif iteration == _MAX_GN_ITERATIONS:
            break
        weight = residual / scale
        np.square(weight, out=weight)
        np.subtract(1.0, weight, out=weight)
        np.maximum(0.0, weight, out=weight)
        np.square(weight, out=weight)
        columns = [select(p) for p in planes]
        normal = np.empty((k, k))
        for a in range(k):
            for b in range(a, k):
                normal[a, b] = normal[b, a] = _dot(weight, columns[a], columns[b])
        normal += 1e-12 * np.eye(k)
        try:
            delta = np.linalg.solve(normal, [_dot(weight, c, residual) for c in columns])
        except np.linalg.LinAlgError:
            return t, cost, False
        if _update_is_small(delta):
            return t, cost, True
        t = RegistrationTransform(t.mode, *(-delta).tolist()).inverse().compose(t)
    return t, cost, False


def register_pair(
    reference_levels: tuple[ReferenceLevel, ...],
    test: RasterImage,
    mode: str = "translation",
) -> RegistrationTransform:
    """Transform T such that resample(test, T) best matches the reference.

    `reference_levels` is `reference_pyramid(reference)`, built once by a
    caller that registers many frames to one reference, which then need not
    hold the reference image itself.  Solved coarse to fine from the
    identity, doubling the shift per level.  Raises RegistrationError
    (carrying the best transform and its residual) when the finest level
    fails to converge.
    """
    t = identity_transform(mode)  # an unknown mode raises InputError here
    h, w = reference_levels[0].plane.shape
    if (h, w) != (test.height, test.width):
        raise InputError(
            f"size mismatch: reference {w}x{h}, test {test.width}x{test.height}"
        )
    test_levels = luminance_pyramid(test)
    for level, moving in zip(reference_levels[::-1], test_levels[::-1]):
        t = RegistrationTransform(mode, 2.0 * t.dx, 2.0 * t.dy, t.theta)
        t, cost, converged = _gn_level(level, moving, t)
    if not converged:
        raise RegistrationError(
            "registration did not converge at the finest pyramid level",
            transform=t,
            residual=cost,
        )
    return t


def mean_square_residual(
    reference_luminance: np.ndarray,
    aligned: RasterImage,
    transform: RegistrationTransform,
) -> float:
    """Mean squared luminance difference over the transform's valid pixels.

    `reference_luminance` is the reference's luminance plane, the first
    level of its `luminance_pyramid`."""
    h, w = reference_luminance.shape
    sx, sy = _inverse_sample_coords(h, w, transform.dx, transform.dy, transform.theta)
    select, count = _valid_selector(sx, sy, h, w)
    if count == 0:
        return math.inf
    diff = select(aligned.luminance()) - select(reference_luminance)
    return _dot(diff, diff) / count


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


def read_transform_sidecar(path):
    """Parse a sidecar back into [(index, transform, residual)]."""
    records = []
    for lineno, line in enumerate(read_text(path, "ascii").split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 6:
            raise InputError(f"transform sidecar line {lineno}: expected 6 fields")
        try:
            index = int(parts[0])
            dx, dy, theta, residual = map(float, parts[2:])
        except ValueError:
            raise InputError(
                f"transform sidecar line {lineno}: non-numeric field"
            ) from None
        records.append(
            (index, RegistrationTransform(parts[1], dx, dy, theta), residual)
        )
    return records
