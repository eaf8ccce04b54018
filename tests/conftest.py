"""Shared factories for synthetic test imagery."""

from __future__ import annotations

import multiprocessing
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from somqe import RasterImage

# Hypothesis imports this module, and libcst with it, only once a property
# test has failed, while the test's "error" filter below is in force.  The
# import's one DeprecationWarning (libcst uses mypy_extensions.TypedDict)
# would then turn the falsifying example into an INTERNALERROR that ends
# the pytest run.  Imported once here, with only that warning ignored.
with warnings.catch_warnings():
    warnings.filterwarnings(
        "ignore", message=r"mypy_extensions\.", category=DeprecationWarning
    )
    import hypothesis.extra._patching  # noqa: F401


def pytest_collection_modifyitems(items):
    """Any warning fails a test under tests/, so a stray one never reaches users.

    A hook rather than `filterwarnings` in pyproject.toml, because that would
    also fail the benchmark's self-tests in bench/tests, whose span reader
    leaves its file to the garbage collector (a ResourceWarning).
    """
    here = Path(__file__).parent
    for item in items:
        if here in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error"))


@pytest.fixture
def one_cpu(monkeypatch):
    """Every frame runs in this process, where a test can watch its calls."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


@pytest.fixture
def two_cpus(monkeypatch):
    """Frames after the anchor run in two forked workers, whatever the machine."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    yield
    assert multiprocessing.active_children() == []


def random_image(seed: int, height: int = 16, width: int = 16) -> RasterImage:
    rng = np.random.default_rng(seed)
    return RasterImage(rng.integers(0, 256, (height, width, 3)).astype(np.float64))


def sawtooth_stripes(side: int) -> RasterImage:
    """Grey diagonal stripes, ((x + y) * 7) mod 256: the gradient is the same
    along x as along y everywhere, so the normal matrix of a shift is singular."""
    y, x = np.mgrid[:side, :side]
    grey = ((x + y) * 7) % 256
    return RasterImage(np.repeat(grey[:, :, None], 3, axis=2).astype(np.uint8))


def smooth_image(seed: int, size: int = 256, max_freq: float = 0.12) -> RasterImage:
    """Band-limited random field, gentle enough for subpixel resampling."""
    rng = np.random.default_rng(seed)
    ys, xs = np.mgrid[0:size, 0:size].astype(np.float64)
    img = np.zeros((size, size, 3))
    for c in range(3):
        acc = np.zeros((size, size))
        for _ in range(6):
            fx, fy = rng.uniform(0.02, max_freq, 2)
            phase = rng.uniform(0, 2 * np.pi)
            acc += rng.uniform(0.5, 1.0) * np.sin(fx * xs + fy * ys + phase)
        acc = (acc - acc.min()) / (acc.max() - acc.min())
        img[:, :, c] = 10.0 + 235.0 * acc
    return RasterImage(img)


def two_color_image(color_a, color_b, count_a: int, count_b: int) -> RasterImage:
    """A 1-row image holding count_a pixels of a and count_b of b."""
    row = [list(color_a)] * count_a + [list(color_b)] * count_b
    return RasterImage(np.array([row], dtype=np.float64))


NEW_COLOUR = (250.0, 246.0, 236.0)


def sinusoid_sampler(rng, size: int = 256):
    """An analytic RGB field; sampling it moved is exact, no interpolation.

    `sample(dx, dy, theta)` evaluates the field at R(theta) (p - c) + c +
    (dx, dy), so registering it to `sample()` should return exactly
    (dx, dy, theta).  `share` > 0 paints NEW_COLOUR over a disc that covers
    that share of the frame, centred on it, with a 2 px smoothstep edge, both
    in scene coordinates; `ground=True` paints it outside the disc instead,
    leaving a textured disc on a constant ground."""
    terms = []
    for _ in range(3):
        n = 6
        amp = rng.uniform(0.5, 1.0, n)
        freq = rng.uniform(0.02, 0.12, n)
        angle = rng.uniform(0, 2 * np.pi, n)
        terms.append(
            (amp, freq * np.cos(angle), freq * np.sin(angle),
             rng.uniform(0, 2 * np.pi, n))
        )
    ys, xs = np.mgrid[0:size, 0:size].astype(float)
    center = (size - 1) / 2.0

    def sample(dx: float = 0.0, dy: float = 0.0, theta: float = 0.0,
               share: float = 0.0, ground: bool = False) -> RasterImage:
        if theta:
            ux, uy = xs - center, ys - center
            c, s = np.cos(theta), np.sin(theta)
            px = c * ux - s * uy + center + dx
            py = s * ux + c * uy + center + dy
        else:
            px, py = xs + dx, ys + dy
        channels = []
        for amp, kx, ky, phase in terms:
            total = np.zeros_like(px)
            for a, fx, fy, ph in zip(amp, kx, ky, phase):
                total += a * np.sin(fx * px + fy * py + ph)
            bound = amp.sum()  # amplitude bound keeps shifted samples in range
            channels.append(10.0 + (total + bound) * (235.0 / (2.0 * bound)))
        rgb = np.stack(channels, axis=-1)
        if share:
            radius = np.sqrt(share * size * size / np.pi)
            t = np.clip((radius - np.hypot(px - center, py - center)) / 2.0 + 0.5,
                        0.0, 1.0)
            edge = (t * t * (3.0 - 2.0 * t))[:, :, None]
            if ground:
                edge = 1.0 - edge
            rgb = (1.0 - edge) * rgb + edge * np.array(NEW_COLOUR)
        return RasterImage(rgb)

    return sample
