"""Winner-take-all color map: training and quantization-error scoring.

The map is a small rectangular grid of RGB model vectors.  Training presents
one randomly drawn pixel at a time and moves every model within a cutoff
radius of the winning model a step toward that pixel:

    m <- m + alpha(t) * (x - m)        for grid distance(winner, m) <= radius(t)

The neighborhood kernel is a step function (weight 1 inside the radius, 0
outside), distances between grid cells are Euclidean in (row, col), and the
winner, in training and scoring alike, is the model at the least squared RGB
distance, summed in float64 as (r² + g²) + b², lowest row-major index on ties.

An image is scored against a trained map by its quantization error: the mean
RGB distance from each pixel to its best-matching model.  Scoring walks the
pixels in fixed-size blocks and scores each pixel against only the models
that can be nearest anywhere in its colour cell (16 grey levels a side),
listed in a table built once per map.  The bits are those of scoring against
every model, and depend neither on the block size nor on the cells.  A map
that scores the image it was trained on with no empty models (models never
chosen as a winner) is considered large enough for that image.

Pixels are handled as float vectors in [0, 1], 8-bit samples divided by 255.
All reductions are ordered deterministically, so every result here is a pure
function of (image bytes, parameters, seed).  A long sum, here and everywhere
in the package, is numpy's one-thread pairwise `np.add.reduce` of one
contiguous array, never BLAS, whose rounding follows its thread count;
`tests/test_som.py::test_numpy_reduction_matches_its_restatement` pins the
order against `tests/oracles.numpy_pairwise_sum`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import InputError
from .raster import RasterImage, atomic_write_bytes, read_text, text_records
from .rng import INIT_STREAM, SAMPLE_STREAM, SplitMix64, substream_seed
from .stats import parse_count, parse_decimal

DECAY_MODES = ("constant", "linear")

# pixels per scoring block: a block's planes and scratch, about 2 MB, stay
# in a core's L2 while every candidate slot passes over them
_SCORE_BLOCK = 32768
# grey levels per channel in one colour cell, and cells per channel
_CELL = 16
_CELLS = 256 // _CELL
# how much closer, in squared distance, another model must be everywhere in
# a cell to drop a model there; float64 rounding of a 3-term distance in
# [0, 3] is below 1e-15
_CELL_MARGIN = 1e-11


@dataclass(frozen=True)
class TrainingParams:
    """Knobs for a training run.

    decay_mode "constant" keeps learning_rate and neighborhood_radius fixed
    for all iterations; "linear" scales both by (1 - t/iterations) so they
    reach zero as training ends.  learning_rate 0 is allowed and makes
    training a no-op, which the test suite leans on.
    """

    learning_rate: float = 0.2
    neighborhood_radius: float = 1.2
    iterations: int = 1000
    seed: int = 0
    decay_mode: str = "constant"

    def __post_init__(self):
        if not (0.0 <= self.learning_rate <= 1.0):
            raise InputError("learning_rate must lie in [0, 1]")
        if not (self.neighborhood_radius > 0.0):
            raise InputError("neighborhood_radius must be positive")
        if self.iterations < 1:
            raise InputError("iterations must be at least 1")
        if self.decay_mode not in DECAY_MODES:
            raise InputError(f"decay_mode must be one of {DECAY_MODES}")
        if not (0 <= self.seed < 2**64):
            # SplitMix64 keeps 64 bits, so a larger seed would alias a smaller one
            raise InputError("seed must lie in [0, 2**64)")

    def schedule(self, t: int) -> tuple[float, float]:
        """(alpha, radius) in effect for iteration t, t in [0, iterations)."""
        if self.decay_mode == "constant":
            return self.learning_rate, self.neighborhood_radius
        f = 1.0 - t / self.iterations
        return self.learning_rate * f, self.neighborhood_radius * f


@dataclass(frozen=True, eq=False)
class SomGrid:
    """A width x height grid of RGB models, row-major, values in [0, 1]."""

    width: int
    height: int
    models: np.ndarray  # shape (width*height, 3), float64

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise InputError("grid dimensions must be positive")
        arr = np.asarray(self.models, dtype=np.float64)
        if arr.shape != (self.width * self.height, 3):
            raise InputError(
                f"model array must have shape ({self.width * self.height}, 3)"
            )
        if not np.all(np.isfinite(arr)):
            raise InputError("model values must be finite")
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise InputError("model values must lie in [0, 1]")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "models", arr)

    @property
    def model_count(self) -> int:
        return self.width * self.height

    def model_position(self, index: int) -> tuple[int, int]:
        """(row, col) of a row-major model index."""
        return divmod(index, self.width)

    def grid_coordinates(self) -> np.ndarray:
        """(model_count, 2) array of (row, col) positions, row-major order."""
        rows, cols = np.divmod(np.arange(self.model_count), self.width)
        return np.stack([rows, cols], axis=1).astype(np.float64)

    @cached_property
    def cell_candidates(self) -> CellCandidates:
        """Which models can be nearest in each colour cell, built on first use."""
        return _cell_candidates(self.models)


class CellCandidates(NamedTuple):
    """Per colour cell, every model that can be nearest somewhere in it.

    Cell (r // 16) * 256 + (g // 16) * 16 + b // 16 of 8-bit or fractional
    samples r, g, b in [0, 255] holds rows start[cell] up to start[cell] +
    count[cell] of `models` (its candidates' indices, ascending) and of
    `values` (their R, G and B, one row per channel).
    """

    count: np.ndarray
    start: np.ndarray
    models: np.ndarray
    values: np.ndarray


def _cell_candidates(models: np.ndarray) -> CellCandidates:
    """Each colour cell's candidates, tested on the cell's closed box.

    Cell i of a channel spans [16 i, min(16 i + 16, 255)] / 255, which holds
    every sample the cell takes as float64 rounds it.  In each cell the
    reference is the model whose farthest point of the box is nearest,
    lowest index first.  A model is dropped there when the reference is
    closer at every point of the box by more than _CELL_MARGIN.  The
    difference of two squared distances is linear in each channel, so its
    least value over the box is the sum, channel by channel, of the lesser
    of its values at the two edges; this also drops every model whose
    nearest point of the box is farther than the reference's farthest.  A
    model that repeats a lower-index one is dropped everywhere: a tie never
    displaces the lower index.
    """
    k = len(models)
    bounds = np.minimum(np.arange(_CELLS + 1) * _CELL, 255) / 255.0
    edges = np.stack([bounds[:-1], bounds[1:]])  # [lower or upper edge, cell]
    # [channel, edge, cell along the channel, model]: squared distances
    to_edge = (edges[None, :, :, None] - models.T[:, None, None, :]) ** 2
    unique = np.zeros(k, dtype=bool)
    unique[np.unique(models, axis=0, return_index=True)[1]] = True
    keep = np.empty((_CELLS, _CELLS, _CELLS, k), dtype=bool)
    shape = (2, _CELLS, _CELLS, k)
    for r in range(_CELLS):
        # the cells of red level r: green along the first axis, blue the second
        per = (to_edge[0, :, r, None, None], to_edge[1, :, :, None], to_edge[2, :, None])
        ref = np.argmin(sum(d.max(axis=0) for d in per), axis=-1)[None, :, :, None]
        gap = sum(
            (d - np.take_along_axis(np.broadcast_to(d, shape), ref, -1)).min(axis=0) for d in per
        )
        np.logical_and(gap <= _CELL_MARGIN, unique, out=keep[r])
    keep = keep.reshape(-1, k)
    count = keep.sum(axis=1)
    chosen = np.nonzero(keep)[1]  # row-major, so ascending within each cell
    return CellCandidates(
        count.astype(np.min_scalar_type(k)),
        np.cumsum(count) - count,
        chosen,
        np.ascontiguousarray(models[chosen].T),
    )


@dataclass(frozen=True, eq=False)
class QeResult:
    """Quantization error of one image against one grid."""

    qe: float
    pixel_count: int
    assignment_counts: np.ndarray  # pixels won per model, row-major

    def __post_init__(self):
        counts = np.asarray(self.assignment_counts, dtype=np.int64)
        counts.flags.writeable = False
        object.__setattr__(self, "assignment_counts", counts)


def initialize_grid(image: RasterImage, width: int, height: int, seed: int) -> SomGrid:
    """Fill a width x height grid with pixels drawn from the image.

    Draws come from the dedicated initialization substream, with replacement,
    in row-major model order, one draw per model.
    """
    if width < 1 or height < 1:
        raise InputError("grid dimensions must be positive")
    flat = image.planes.reshape(3, -1)
    stream = SplitMix64(substream_seed(seed, INIT_STREAM))
    n = width * height  # every pick allocated before the first draw: a huge grid fails at once
    picks = np.fromiter((stream.next_index(image.pixel_count) for _ in range(n)), np.int64, n)
    return SomGrid(width, height, np.divide(flat[:, picks].T, 255.0, dtype=np.float64))


def _nearest(models: np.ndarray, x: np.ndarray) -> tuple[int, float]:
    """Nearest model's index and squared distance; ties go to the lowest index."""
    d = (models - x) ** 2
    d2 = (d[:, 0] + d[:, 1]) + d[:, 2]
    idx = int(np.argmin(d2))
    return idx, d2[idx]


def best_matching_unit(x, grid: SomGrid) -> tuple[int, float]:
    """Index of the model nearest x in RGB, plus that distance; ties as `_nearest`."""
    idx, d2 = _nearest(grid.models, np.asarray(x, dtype=np.float64))
    return idx, math.sqrt(d2)


def _present(models, coords, x, alpha_t: float, radius_t: float) -> None:
    """train_step on a (K, 3) models array in place; coords: `grid_coordinates()`."""
    winner, _ = _nearest(models, x)
    delta = coords - coords[winner]
    within = (delta[:, 0] ** 2 + delta[:, 1] ** 2) <= radius_t * radius_t
    models[within] += alpha_t * (x - models[within])
    np.clip(models, 0.0, 1.0, out=models)


def train_step(grid: SomGrid, x, alpha_t: float, radius_t: float) -> SomGrid:
    """One presentation of pixel x at the given step size and radius.

    Every model within Euclidean grid distance radius_t of the winner moves
    by alpha_t * (x - m); all others are untouched.  alpha_t of exactly 0
    returns a grid bitwise equal to the input.
    """
    if alpha_t < 0.0:
        raise InputError("alpha_t must be non-negative")
    if radius_t < 0.0:
        raise InputError("radius_t must be non-negative")
    models = grid.models.copy()
    x = np.asarray(x, dtype=np.float64)
    _present(models, grid.grid_coordinates(), x, alpha_t, radius_t)
    return SomGrid(grid.width, grid.height, models)


def train(grid: SomGrid, image: RasterImage, params: TrainingParams) -> SomGrid:
    """Run params.iterations sequential presentations of random pixels.

    Iteration t draws exactly one pixel index from the sample substream of
    params.seed and presents it as train_step does, with the schedule values
    for t, to one models array.  The result is a pure function of (grid,
    image bytes, params).
    """
    flat = image.planes.reshape(3, -1)
    n = flat.shape[1]
    stream = SplitMix64(substream_seed(params.seed, SAMPLE_STREAM))
    models = grid.models.copy()
    coords = grid.grid_coordinates()
    for t in range(params.iterations):
        x = np.divide(flat[:, stream.next_index(n)], 255.0, dtype=np.float64)
        _present(models, coords, x, *params.schedule(t))
    return SomGrid(grid.width, grid.height, models)


def fit_som(image: RasterImage, width: int, height: int, params: TrainingParams) -> SomGrid:
    """initialize_grid followed by train, the usual way maps get built."""
    grid = initialize_grid(image, width, height, params.seed)
    return train(grid, image, params)


def quantization_error(image: RasterImage, grid: SomGrid) -> QeResult:
    """Mean distance from each pixel to its best-matching model.

    Pixels are taken in row-major blocks of _SCORE_BLOCK.  Each pixel is
    scored against its colour cell's candidates (`SomGrid.cell_candidates`),
    which hold every model that can be its nearest.  A block's pixels are
    sorted by candidate count, stably, so the pixels with more than j
    candidates form one contiguous tail, and slot j is scored on that tail
    alone.  Per pixel, the squared distance is the module's (r² + g²) + b², and
    a later candidate replaces the running best only when strictly closer,
    so, candidates ascending, the lowest row-major index wins ties.  Each
    best distance goes back to its pixel's place before the mean, which is
    one `np.add.reduce` over all pixels at once, so the value is a pure
    function of the pixels and models and depends neither on the block
    size nor on the cells.  Assignment counts record how many pixels each
    model won.
    """
    table = grid.cell_candidates
    pixels = image.planes.reshape(3, -1)
    n = pixels.shape[1]
    size = min(n, _SCORE_BLOCK)
    planes = np.empty((3, size))  # a block's R, G and B, sorted by candidate count
    d2, term = np.empty(size), np.empty(size)
    closer = np.empty(size, dtype=bool)
    sample = np.empty(size, dtype=pixels.dtype)
    # per sorted pixel: its cell's first table row, and a later one in hand
    first, row = np.empty((2, size), dtype=np.intp)
    # per sorted pixel: its candidate count, then the slot that won; a scratch
    won, flag = np.empty((2, size), dtype=table.count.dtype)
    best = np.empty(n)
    counts = np.zeros(grid.model_count, dtype=np.int64)
    # every index below is in range, and take's "wrap" mode skips the check
    for start in range(0, n, size):
        m = min(size, n - start)
        block, nearest = pixels[:, start:start + m], best[start:start + m]
        at, rows, slots = first[:m], row[:m], won[:m]
        # the pixel's colour cell, red-major: a sample in [0, 255] times
        # 1/16, truncated, is its cell along that channel
        np.multiply(block[0], 1 / _CELL, out=at, casting="unsafe")
        for channel in block[1:]:
            at *= _CELLS
            at += np.multiply(channel, 1 / _CELL, out=rows, casting="unsafe")
        np.take(table.count, at, out=slots, mode="wrap")
        order = np.argsort(slots, kind="stable")
        slots.sort(kind="stable")
        # slot j skips the tails[j] pixels with at most j candidates
        tails = np.searchsorted(slots, np.arange(slots[-1]), side="right")
        np.take(table.start, at, out=rows, mode="wrap")
        np.take(rows, order, out=at, mode="wrap")
        for plane, channel in zip(planes, block):
            np.take(channel, order, out=sample[:m], mode="wrap")
            np.divide(sample[:m], 255.0, out=plane[:m], dtype=np.float64)
        slots.fill(0)
        for j, tail in enumerate(tails):
            s = slice(tail, m)
            here = np.add(at[s], j, out=rows[s]) if j else at
            dist = (d2 if j else nearest)[s]
            np.take(table.values[0], here, out=dist, mode="wrap")
            np.subtract(planes[0, s], dist, out=dist)
            np.multiply(dist, dist, out=dist)
            for plane, values in zip(planes[1:], table.values[1:]):
                part = term[s]
                np.take(values, here, out=part, mode="wrap")
                np.subtract(plane[s], part, out=part)
                np.multiply(part, part, out=part)
                dist += part
            if j:
                np.less(dist, nearest[s], out=closer[s])
                np.minimum(nearest[s], dist, out=nearest[s])
                # the last slot found closer wins; slots rise, so it is the highest
                np.multiply(closer[s], j, out=flag[s], dtype=flag.dtype)
                np.maximum(slots[s], flag[s], out=slots[s])
        np.copyto(d2[:m], nearest)
        nearest.put(order, d2[:m], mode="wrap")  # each best back in its pixel's place
        at += slots
        np.take(table.models, at, out=rows, mode="wrap")
        counts += np.bincount(rows, minlength=grid.model_count)
    qe = float(np.add.reduce(np.sqrt(best, out=best))) / n
    return QeResult(qe=qe, pixel_count=n, assignment_counts=counts)


def empty_model_count(result: QeResult) -> int:
    """Number of models that won no pixel at all."""
    return int(np.count_nonzero(result.assignment_counts == 0))


# ---------------------------------------------------------------------------
# serialization

_GRID_MAGIC = "somqe-grid"
_GRID_VERSION = "v1"


def grid_to_text(grid: SomGrid) -> str:
    """Plain-text form: header line, then one model per line, row-major.

    Components are printed with %.17g so a float64 round-trips exactly.
    """
    lines = [f"{_GRID_MAGIC} {_GRID_VERSION} {grid.width} {grid.height}"]
    for model in grid.models:
        lines.append("%.17g %.17g %.17g" % (model[0], model[1], model[2]))
    return "\n".join(lines) + "\n"


def grid_from_text(text: str) -> SomGrid:
    """Parse `grid_to_text` output; errors name the file line, blank and '#' lines counted."""
    lines = text_records(text)
    if not lines:
        raise InputError("malformed grid header: empty file")
    fields = lines[0][1].split()
    if len(fields) != 4 or fields[0] != _GRID_MAGIC or fields[1] != _GRID_VERSION:
        raise InputError("malformed grid header: expected 'somqe-grid v1 <w> <h>'")
    try:
        width, height = parse_count(fields[2]), parse_count(fields[3])
    except ValueError:
        raise InputError("malformed grid header: non-numeric dimensions") from None
    body = lines[1:]
    if len(body) != width * height:
        raise InputError(
            f"grid body has {len(body)} models, header promises {width * height}"
        )
    models = np.empty((width * height, 3), dtype=np.float64)
    for i, (lineno, line) in enumerate(body):
        parts = line.split()
        if len(parts) != 3:
            raise InputError(f"grid line {lineno}: expected 3 components")
        try:
            models[i] = [parse_decimal(p) for p in parts]
        except ValueError:
            raise InputError(f"grid line {lineno}: non-numeric component") from None
    return SomGrid(width, height, models)


def save_grid(grid: SomGrid, path) -> None:
    atomic_write_bytes(path, grid_to_text(grid).encode("ascii"))


def load_grid(path) -> SomGrid:
    return grid_from_text(read_text(path, "ascii"))
