"""Independent recomputations the tests compare the package against.

Everything here deliberately takes a different route from the library code:
the generator is re-derived step by step from its five constants, sums are
exact rationals or 50-digit mpmath, or, where the library's bits are pinned,
numpy's pairwise reduction restated one addition at a time in Python, the
t-tail probability is numerical integration of the density or mpmath's
hypergeometric incomplete beta rather than the library's continued
fraction, the OLS oracle uses raw (uncentered) textbook sums, PNG scanlines
are unfiltered byte by byte as the specification states it, and PPM header
tokens are lexed by a loop over the bytes instead of a regular expression.
The scoring and warping kernels are kept here in their first, dense form,
which the fast kernels must match bit for bit, and so are the frame steps in
their first form, on interleaved (height, width, 3) float64 pixels, which
the planar steps must match bit for bit whether a frame's planes are uint8
or float64.  Training is kept as the fold of the public `train_step` over
every drawn pixel that it first was.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp
import numpy as np

from somqe.rng import SAMPLE_STREAM
from somqe.som import train_step

mp.mp.dps = 50


# ---------------------------------------------------------------------------
# generator

def splitmix64_sequence(seed: int, count: int) -> list[int]:
    """Clean-room SplitMix64: plain-int arithmetic, explicit modulus."""
    mod = 2**64
    state = seed % mod
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) % mod
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % mod
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % mod
        out.append(z ^ (z >> 31))
    return out


# published outputs for seed 1234567, shared by several SplitMix64
# implementations (e.g. the Rust rand_xoshiro crate's test suite)
SPLITMIX64_REFERENCE_SEED = 1234567
SPLITMIX64_REFERENCE_OUTPUTS = [
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
]


# ---------------------------------------------------------------------------
# summation

def numpy_pairwise_sum(values, dtype=np.float64):
    """numpy's `np.add.reduce` of a contiguous 1-D array, restated in Python.

    Fewer than 8 values are added in order.  Up to 128 go into eight running
    sums, r_j += values[8i + j], joined as ((r0 + r1) + (r2 + r3)) +
    ((r4 + r5) + (r6 + r7)), and the tail past the last multiple of 8 is then
    added in order.  A longer run splits at n // 2 rounded down to a multiple
    of 8 and adds the two halves' sums.  The whole is added to 0.0, add's
    identity, so a lone -0.0 sums to 0.0.  Every addition rounds to `dtype`
    (numpy scalars of that type), as numpy's float32 and float64 loops do.
    """
    vals = [dtype(v) for v in values]
    zero = dtype(0.0)

    def tree(lo: int, n: int):
        if n < 8:
            total = zero
            for v in vals[lo : lo + n]:
                total = total + v
            return total
        if n <= 128:
            r = vals[lo : lo + 8]
            i = 8
            while i < n - n % 8:
                r = [r[j] + vals[lo + i + j] for j in range(8)]
                i += 8
            total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
            for v in vals[lo + i : lo + n]:
                total = total + v
            return total
        half = n // 2
        half -= half % 8
        return tree(lo, half) + tree(lo + half, n - half)

    return zero + tree(0, len(vals))


# ---------------------------------------------------------------------------
# PNG unfilter

def png_unfilter_bytewise(raw: bytes, width: int, height: int, bpp: int) -> np.ndarray:
    """PNG specification section 9, one byte at a time; (height, width, bpp) uint8.

    `raw` is the inflated image data: each scanline is a filter-type byte
    followed by width * bpp filtered bytes.  a, b and c are the bytes of the
    same channel to the left, above and above-left, 0 outside the image;
    the Paeth predictor breaks ties in the order a, b, c.
    """
    stride = width * bpp
    prior = [0] * stride
    out = []
    for y in range(height):
        start = y * (stride + 1)
        ftype = raw[start]
        line = list(raw[start + 1 : start + 1 + stride])
        for i in range(stride):
            a = line[i - bpp] if i >= bpp else 0
            b = prior[i]
            c = prior[i - bpp] if i >= bpp else 0
            if ftype == 0:
                pred = 0
            elif ftype == 1:
                pred = a
            elif ftype == 2:
                pred = b
            elif ftype == 3:
                pred = (a + b) // 2
            elif ftype == 4:
                p = a + b - c
                pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                if pa <= pb and pa <= pc:
                    pred = a
                elif pb <= pc:
                    pred = b
                else:
                    pred = c
            else:
                raise ValueError(f"filter type {ftype}")
            line[i] = (line[i] + pred) % 256
        out.append(line)
        prior = line
    return np.array(out, dtype=np.uint8).reshape(height, width, bpp)


# ---------------------------------------------------------------------------
# PPM header

def ppm_tokens_by_loop(data: bytes, count: int, start: int):
    """(tokens, position) of `count` PPM header tokens from `start`, a byte at
    a time: skip whitespace, skip a '#' comment up to CR or LF, else take the
    run of bytes that are neither whitespace nor '#'."""
    tokens = []
    i = start
    n = len(data)
    while len(tokens) < count:
        while i < n and data[i : i + 1].isspace():
            i += 1
        if i < n and data[i] == ord("#"):
            while i < n and data[i] not in (10, 13):
                i += 1
            continue
        if i >= n:
            raise ValueError("malformed header: unexpected end of file")
        j = i
        while j < n and not data[j : j + 1].isspace() and data[j] != ord("#"):
            j += 1
        tokens.append(data[i:j])
        i = j
    return tokens, i


# ---------------------------------------------------------------------------
# nearest model

def brute_force_bmu(x, models) -> tuple[int, float]:
    """Scan every model with math.dist; first strict improvement wins."""
    best_index = 0
    best_d = math.dist(x, models[0])
    for i in range(1, len(models)):
        d = math.dist(x, models[i])
        if d < best_d:
            best_index, best_d = i, d
    return best_index, best_d


def grid_neighbors_within(width: int, height: int, winner: int, radius: float):
    """Row-major indices whose Euclidean grid distance to winner <= radius."""
    wr, wc = divmod(winner, width)
    hits = []
    for r in range(height):
        for c in range(width):
            if math.hypot(r - wr, c - wc) <= radius:
                hits.append(r * width + c)
    return hits


# ---------------------------------------------------------------------------
# training

def pixel_vectors(image) -> np.ndarray:
    """Row-major (N, 3) array of pixels scaled from 8-bit to [0, 1]."""
    return np.divide(image.planes.reshape(3, -1).T, 255.0, dtype=np.float64)


def train_by_steps(grid, image, params):
    """params.iterations calls of `train_step`, each on the grid the last one
    returned: step t presents the pixel of the t-th sample-substream draw
    (mod the pixel count) with the schedule values for t."""
    pixels = pixel_vectors(image)
    stream_seed = splitmix64_sequence(params.seed, SAMPLE_STREAM + 1)[SAMPLE_STREAM]
    draws = splitmix64_sequence(stream_seed, params.iterations)
    current = grid
    for t, draw in enumerate(draws):
        alpha_t, radius_t = params.schedule(t)
        current = train_step(current, pixels[draw % len(pixels)], alpha_t, radius_t)
    return current


# ---------------------------------------------------------------------------
# dense scoring and warping kernels

def broadcast_quantization_error(pixels, models, chunk: int = 1 << 16):
    """QE by an (N, K, 3) broadcast of every pixel against every model.

    Blocks of `chunk` pixels; per pixel the first argmin of the squared
    channel differences, summed as (r² + g²) + b², wins.  Returns (qe,
    assignment counts), the mean taken with `numpy_pairwise_sum`.
    """
    winners, distances = broadcast_winners(pixels, models, chunk)
    counts = np.bincount(winners, minlength=len(models))
    return float(numpy_pairwise_sum(distances)) / len(winners), counts


def broadcast_winners(pixels, models, chunk: int = 1 << 16):
    """Each pixel's winner and its distance, as `broadcast_quantization_error`
    finds them."""
    x = np.asarray(pixels, dtype=np.float64).reshape(-1, 3) / 255.0
    models = np.asarray(models, dtype=np.float64)
    n = x.shape[0]
    distances = np.empty(n)
    winners = np.empty(n, dtype=np.int64)
    for start in range(0, n, chunk):
        block = x[start : start + chunk]
        d = (block[:, None, :] - models[None, :, :]) ** 2
        d2 = (d[:, :, 0] + d[:, :, 1]) + d[:, :, 2]
        best = np.argmin(d2, axis=1)
        winners[start : start + chunk] = best
        distances[start : start + chunk] = np.sqrt(d2[np.arange(len(block)), best])
    return winners, distances


def dense_sample_coords(height, width, dx, dy, theta):
    """Inverse-mapped source (sx, sy) as full (h, w) grids, for any theta."""
    cx = (width - 1) / 2.0
    cy = (height - 1) / 2.0
    X, Y = np.meshgrid(np.arange(width, dtype=np.float64),
                       np.arange(height, dtype=np.float64))
    ux = X - cx - dx
    uy = Y - cy - dy
    c, s = math.cos(theta), math.sin(theta)
    return c * ux + s * uy + cx, -s * ux + c * uy + cy


def dense_bilinear(data, sx, sy, dtype=np.float64):
    """Clamp-to-edge bilinear sampling by per-pixel gathers on (h, w) grids.

    `data` is (h, w) or (h, w, C); every output pixel gathers its four
    neighbours, blends them along x into `top` and `bottom`, then along y.
    The data and the blend weights (computed in float64) are rounded to
    `dtype`, and so is every product and sum.
    """
    data = np.asarray(data, dtype=dtype)
    h, w = data.shape[:2]
    planar = data.ndim == 2
    if planar:
        data = data[:, :, None]
    sxc = np.clip(sx, 0.0, w - 1.0)
    syc = np.clip(sy, 0.0, h - 1.0)
    x0 = np.floor(sxc).astype(np.int64)
    y0 = np.floor(syc).astype(np.int64)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = (sxc - x0)[:, :, None]
    fy = (syc - y0)[:, :, None]
    gx, fx = (1.0 - fx).astype(dtype), fx.astype(dtype)
    gy, fy = (1.0 - fy).astype(dtype), fy.astype(dtype)
    top = gx * data[y0, x0] + fx * data[y0, x1]
    bottom = gx * data[y1, x0] + fx * data[y1, x1]
    out = gy * top + fy * bottom
    return out[:, :, 0] if planar else out


# ---------------------------------------------------------------------------
# frame steps on interleaved float64 pixels

def interleaved_luminance(pixels):
    """Rec. 601 luma of an (h, w, 3) array, channel by strided channel."""
    p = np.asarray(pixels, dtype=np.float64)
    return 0.299 * p[:, :, 0] + 0.587 * p[:, :, 1] + 0.114 * p[:, :, 2]


def interleaved_luminance_pyramid(pixels, min_dim: int = 32):
    """The luma plane and each 2x2 box halving of it, full resolution first."""
    current = interleaved_luminance(pixels)
    planes = [current]
    while min(current.shape) // 2 >= min_dim:
        h2, w2 = current.shape[0] // 2, current.shape[1] // 2
        t = current[: 2 * h2, : 2 * w2]
        current = (t[0::2, 0::2] + t[0::2, 1::2] + t[1::2, 0::2] + t[1::2, 1::2]) * 0.25
        planes.append(current)
    return planes


def interleaved_resample(pixels, dx, dy, theta):
    """The (h, w, 3) frame warped by inverse mapping on dense coordinates."""
    h, w = np.shape(pixels)[:2]
    return dense_bilinear(pixels, *dense_sample_coords(h, w, dx, dy, theta))


def interleaved_normalize_contrast(pixels):
    """Per channel floor((I - min) * 255 / (max - min) + 0.5); 0 where constant."""
    p = np.asarray(pixels, dtype=np.float64)
    out = np.zeros(p.shape)
    for c in range(3):
        plane = p[:, :, c]
        lo, hi = plane.min(), plane.max()
        if hi != lo:
            out[:, :, c] = np.floor((plane - lo) * 255.0 / (hi - lo) + 0.5)
    return out


# ---------------------------------------------------------------------------
# statistics

def ols_oracle(xs, ys):
    """Raw-sum OLS with exact rational arithmetic.

    slope = (n Sxy - Sx Sy) / (n Sxx - Sx^2), intercept from the means, and
    r2 = 1 - SS_res / SS_tot, all as Fractions before the final float.
    """
    xs = [Fraction(float(v)) for v in xs]
    ys = [Fraction(float(v)) for v in ys]
    n = len(xs)
    sx = sum(xs)
    sy = sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    denom = n * sxx - sx * sx
    slope = (n * sxy - sx * sy) / denom
    intercept = (sy - slope * sx) / n
    ss_res = sum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - sy / n) ** 2 for y in ys)
    if ss_tot == 0:
        r2 = Fraction(0)
    else:
        r2 = 1 - ss_res / ss_tot
    return (
        _fraction_to_float(slope),
        _fraction_to_float(intercept),
        _fraction_to_float(r2),
    )


def _fraction_to_float(fr: Fraction) -> float:
    return float(mp.mpf(fr.numerator) / mp.mpf(fr.denominator))


def pearson_oracle(xs, ys) -> float:
    xs = [Fraction(float(v)) for v in xs]
    ys = [Fraction(float(v)) for v in ys]
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    num = mp.mpf(sxy.numerator) / sxy.denominator
    den = mp.sqrt(
        (mp.mpf(sxx.numerator) / sxx.denominator)
        * (mp.mpf(syy.numerator) / syy.denominator)
    )
    return float(num / den)


def t_tail_by_integration(t: float, df: float) -> float:
    """Two-tailed P(|T| >= t) by quadrature of the t density."""
    t = abs(t)

    def density(u):
        return (
            mp.gamma((df + 1) / 2)
            / (mp.sqrt(df * mp.pi) * mp.gamma(df / 2))
            * (1 + u * u / df) ** (-(df + 1) / 2)
        )

    return float(2 * mp.quad(density, [t, mp.inf]))


def t_tail_by_betainc(t: float, df: float) -> float:
    """Two-tailed P(|T| >= t) as the 50-digit I_x(df/2, 1/2), x = df/(df+t^2).

    The argument is formed from the exact binary t, so x near 1 keeps all of
    1 - x.  mpmath raises ValueError at t = 100 for df >= 1e5, where p lies far
    below the library's floor; it evaluates every t up to 30 for df <= 1e6.
    """
    t = mp.mpf(t)
    x = df / (df + t * t)
    return float(mp.betainc(mp.mpf(df) / 2, mp.mpf(1) / 2, 0, x, regularized=True))
