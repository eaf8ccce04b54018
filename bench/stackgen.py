"""Seeded synthetic frame stacks with known registration truth.

A stack is 25 frames, one per year, of an analytic RGB scene: per channel a
sum of six plane sinusoids, the same field criterion 05 of the acceptance
suite samples.  Frame k samples the scene at its true transform

    p_scene = R(theta) (p - c) + c + (dx, dy)

so `register_pair(anchor, frame)` should return exactly (dx, dy, theta).  A
"new colour" disc, defined in scene coordinates with a smooth edge, grows
from 0 to 15% of the frame over the years.  Because both the scene and the
disc are evaluated at the transformed coordinates, a fractional shift moves
the disc edge by exactly that fraction: nothing is quantized to whole pixels
before the final 8-bit rounding.

What the seed draws.  The work the registration solver does varies several
fold between scenes (over ten random 128x128 rigid stacks the number of warps
had an interquartile range of 67% of its median), which would swamp any
change a program edit makes.  So a workload that registers fixes its scene,
its disc and a base misregistration per frame from LAYOUT_SEED, and the seed
moves every frame by a sub-pixel jitter around that base and redraws the
covariate noise.  A workload that does not register gets its whole scene
from the seed, because decode and scoring work do not depend on the content.

The CLI anchors on the last manifest entry, and the map must be trained on
the frame without new colour for the QE to rise with time, so the manifest
lists years newest first and ends with the earliest year.  The covariate CSV
follows the same order, because covariates pair with frames by position.

Files written into the stack directory:

    frame_<year>.ppm|png, frames.tsv, covariates.csv, truth.json
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

N_FRAMES = 25
FIRST_YEAR = 1984
MAX_NEW_SHARE = 0.15
# bright roof-like colour; the scene's channels stay within [10, 245]
NEW_COLOUR = np.array([250.0, 246.0, 236.0])
# width of the disc's smoothstep edge, sharp like a built-up outline.  An
# 8 px edge smooths the registration cost enough to hide the rigid-256
# non-convergence that bench/README.md describes; keep it sharp.
EDGE_PX = 2.0
LAYOUT_SEED = 0
JITTER_PX = 0.25
JITTER_RAD = 0.001
COVARIATES = ("built_up_share", "population")


@dataclass(frozen=True)
class StackSpec:
    size: int
    mode: str  # truth transform family: "translation", "rigid" or "none"
    fmt: str  # "ppm" or "png"
    max_shift: float = 0.0
    max_theta: float = 0.0


class Scene:
    """Analytic RGB field plus a new-colour disc, both in scene coordinates."""

    def __init__(self, rng: np.random.Generator, size: int):
        self.terms = []
        for _ in range(3):
            n = 6
            amp = rng.uniform(0.5, 1.0, n)
            freq = rng.uniform(0.02, 0.12, n)
            angle = rng.uniform(0.0, 2.0 * np.pi, n)
            phase = rng.uniform(0.0, 2.0 * np.pi, n)
            self.terms.append((amp, freq * np.cos(angle), freq * np.sin(angle), phase))
        self.size = size
        # the largest disc plus the largest shift stays inside every frame
        self.centre = (size - 1) / 2.0 + rng.uniform(-0.12, 0.12, 2) * size

    def sample(self, dx: float, dy: float, theta: float, share: float) -> np.ndarray:
        """Frame pixels (size, size, 3) in [0, 255] at the given truth."""
        size = self.size
        ys, xs = np.mgrid[0:size, 0:size].astype(np.float64)
        c0 = (size - 1) / 2.0
        cos_t, sin_t = math.cos(theta), math.sin(theta)
        px = cos_t * (xs - c0) - sin_t * (ys - c0) + c0 + dx
        py = sin_t * (xs - c0) + cos_t * (ys - c0) + c0 + dy
        channels = []
        for amp, kx, ky, phase in self.terms:
            total = np.zeros_like(px)
            for a, fx, fy, ph in zip(amp, kx, ky, phase):
                total += a * np.sin(fx * px + fy * py + ph)
            bound = amp.sum()
            channels.append(10.0 + (total + bound) * (235.0 / (2.0 * bound)))
        rgb = np.stack(channels, axis=-1)
        if share > 0.0:
            radius = math.sqrt(share * size * size / math.pi)
            dist = np.hypot(px - self.centre[0], py - self.centre[1])
            t = np.clip((radius - dist) / EDGE_PX + 0.5, 0.0, 1.0)
            mask = (t * t * (3.0 - 2.0 * t))[:, :, None]
            rgb = (1.0 - mask) * rgb + mask * NEW_COLOUR
        return rgb


def to_uint8(rgb: np.ndarray) -> np.ndarray:
    return np.clip(np.floor(rgb + 0.5), 0, 255).astype(np.uint8)


def encode_ppm(pixels: np.ndarray) -> bytes:
    h, w, _ = pixels.shape
    return f"P6\n{w} {h}\n255\n".encode("ascii") + pixels.tobytes()


def _png_filters(pixels: np.ndarray) -> np.ndarray:
    """All five PNG filters of every row: (5, height, rowbytes) uint8."""
    h, w, bpp = pixels.shape
    raw = pixels.reshape(h, w * bpp).astype(np.int16)
    up = np.vstack([np.zeros((1, w * bpp), np.int16), raw[:-1]])
    left = np.hstack([np.zeros((h, bpp), np.int16), raw[:, :-bpp]])
    upleft = np.hstack([np.zeros((h, bpp), np.int16), up[:, :-bpp]])
    p = left + up - upleft
    pa, pb, pc = np.abs(p - left), np.abs(p - up), np.abs(p - upleft)
    paeth = np.where((pa <= pb) & (pa <= pc), left, np.where(pb <= pc, up, upleft))
    predictors = [0, left, up, (left + up) // 2, paeth]
    return np.stack([(raw - pred) % 256 for pred in predictors]).astype(np.uint8)


def encode_png(pixels: np.ndarray) -> bytes:
    """8-bit RGB PNG; each row's filter is chosen as libpng's default does.

    libpng's heuristic takes the filter whose output bytes, read as signed,
    have the smallest sum of absolute values (ties go to the lower type).
    """
    h, w, _ = pixels.shape
    filtered = _png_filters(pixels)
    signed_cost = np.minimum(filtered, 256 - filtered.astype(np.int32)).sum(axis=2)
    choice = np.argmin(signed_cost, axis=0)
    rows = filtered[choice, np.arange(h)]
    scanlines = np.hstack([choice.astype(np.uint8)[:, None], rows])

    def chunk(ctype: bytes, body: bytes) -> bytes:
        crc = zlib.crc32(ctype + body) & 0xFFFFFFFF
        return struct.pack(">I", len(body)) + ctype + body + struct.pack(">I", crc)

    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    return (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", ihdr)
        + chunk(b"IDAT", zlib.compress(scanlines.tobytes(), 6))
        + chunk(b"IEND", b"")
    )


def write_stack(spec: StackSpec, seed: int, directory) -> dict:
    """Write a 25-frame stack for `seed` and return its truth record."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    layout = rng if spec.mode == "none" else np.random.default_rng(LAYOUT_SEED)
    scene = Scene(layout, spec.size)
    # base transform plus jitter stays within max_shift and max_theta
    jitter_px = min(JITTER_PX, spec.max_shift)
    jitter_rad = min(JITTER_RAD, spec.max_theta)
    base_shift = layout.uniform(-1.0, 1.0, (N_FRAMES, 2)) * (spec.max_shift - jitter_px)
    base_theta = layout.uniform(-1.0, 1.0, N_FRAMES) * (spec.max_theta - jitter_rad)
    last_year = FIRST_YEAR + N_FRAMES - 1
    frames = []
    manifest = ["# path\tlabel\tyear"]
    covariates = [",".join(("year",) + COVARIATES)]
    for i in range(N_FRAMES):
        year = last_year - i
        share = MAX_NEW_SHARE * (year - FIRST_YEAR) / (N_FRAMES - 1)
        anchor = i == N_FRAMES - 1
        dx = dy = theta = 0.0
        if not anchor and spec.mode != "none":
            dx, dy = (float(v) for v in base_shift[i] + rng.uniform(-jitter_px, jitter_px, 2))
            if spec.mode == "rigid":
                theta = float(base_theta[i] + rng.uniform(-jitter_rad, jitter_rad))
        pixels = to_uint8(scene.sample(dx, dy, theta, share))
        name = f"frame_{year}.{spec.fmt}"
        encode = encode_png if spec.fmt == "png" else encode_ppm
        (directory / name).write_bytes(encode(pixels))
        manifest.append(f"{name}\t{year}\t{year}")
        noise = rng.normal(0.0, 1.0, 2)
        covariates.append(
            "%d,%.4f,%.1f"
            % (year, 100.0 * share + 0.3 * noise[0], 500.0 + 12.0 * (year - FIRST_YEAR) + 8.0 * noise[1])
        )
        frames.append(
            {"file": name, "year": year, "dx": dx, "dy": dy, "theta": theta, "new_share": share}
        )
    (directory / "frames.tsv").write_text("\n".join(manifest) + "\n", encoding="utf-8")
    (directory / "covariates.csv").write_text("\n".join(covariates) + "\n", encoding="utf-8")
    truth = {
        "seed": seed,
        "size": spec.size,
        "mode": spec.mode,
        "format": spec.fmt,
        "anchor_index": N_FRAMES - 1,
        "frames": frames,
    }
    (directory / "truth.json").write_text(json.dumps(truth, indent=1) + "\n", encoding="utf-8")
    return truth
