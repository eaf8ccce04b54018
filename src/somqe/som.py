"""Winner-take-all color map: training and quantization-error scoring.

The map is a small rectangular grid of RGB model vectors.  Training presents
one randomly drawn pixel at a time and moves every model within a cutoff
radius of the winning model a step toward that pixel:

    m <- m + alpha(t) * (x - m)        for grid distance(winner, m) <= radius(t)

The neighborhood kernel is a step function (weight 1 inside the radius, 0
outside), distances between grid cells are Euclidean in (row, col), and the
winner is the model nearest the pixel in RGB, lowest row-major index on ties.

An image is scored against a trained map by its quantization error: the mean
RGB distance from each pixel to its best-matching model.  Scoring walks the
pixels in fixed-size blocks and passes each block through every model while
it sits in cache; the bits do not depend on the block size.  A map that scores
the image it was trained on with no empty models (models never chosen as a
winner) is considered large enough for that image; the size search below
automates that trial-and-error.

Pixels are handled as float vectors in [0, 1], 8-bit samples divided by 255.
All reductions are ordered deterministically, so every result here is a pure
function of (image bytes, parameters, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .raster import RasterImage, atomic_write_bytes, read_text
from .rng import INIT_STREAM, SAMPLE_STREAM, SplitMix64, substream_seed

DECAY_MODES = ("constant", "linear")

# pixels per scoring block: a block's planes and scratch, about 1.6 MB of
# float64, stay in a core's L2 while every model passes over them
_SCORE_BLOCK = 32768


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


def as_pixel_vectors(image: RasterImage) -> np.ndarray:
    """Row-major (N, 3) array of pixels scaled from 8-bit to [0, 1]."""
    return image.pixels.reshape(-1, 3) / 255.0


def pairwise_sum(values) -> float:
    """Sum by repeatedly adding adjacent pairs.

    Each round replaces the sequence with sums of elements (2k, 2k+1); an odd
    trailing element is carried unchanged into the next round.  The addition
    tree depends only on the length, so the result is bit-stable no matter
    how the caller produced the values.
    """
    a = np.asarray(values, dtype=np.float64).ravel()
    if a.size == 0:
        return 0.0
    while a.size > 1:
        even = a.size & ~1
        paired = a[0:even:2] + a[1:even:2]
        if a.size & 1:
            paired = np.append(paired, a[-1])
        a = paired
    return float(a[0])


def initialize_grid(image: RasterImage, width: int, height: int, seed: int) -> SomGrid:
    """Fill a width x height grid with pixels drawn from the image.

    Draws come from the dedicated initialization substream, with replacement,
    in row-major model order, one draw per model.
    """
    if width < 1 or height < 1:
        raise InputError("grid dimensions must be positive")
    pixels = as_pixel_vectors(image)
    n = pixels.shape[0]
    if n == 0:
        raise InputError("empty training image")
    stream = SplitMix64(substream_seed(seed, INIT_STREAM))
    picks = np.empty(width * height, dtype=np.int64)
    for i in range(width * height):
        picks[i] = stream.next_index(n)
    return SomGrid(width, height, pixels[picks])


def best_matching_unit(x, grid: SomGrid) -> tuple[int, float]:
    """Index of the model nearest x in RGB, plus that distance.

    Comparison is on squared distances; ties go to the lowest row-major
    index (np.argmin returns the first minimum).
    """
    x = np.asarray(x, dtype=np.float64)
    diff = grid.models - x
    d2 = np.einsum("ij,ij->i", diff, diff)
    idx = int(np.argmin(d2))
    return idx, math.sqrt(d2[idx])


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
    x = np.asarray(x, dtype=np.float64)
    winner, _ = best_matching_unit(x, grid)
    coords = grid.grid_coordinates()
    delta = coords - coords[winner]
    within = (delta[:, 0] ** 2 + delta[:, 1] ** 2) <= radius_t * radius_t
    models = grid.models.copy()
    models[within] += alpha_t * (x - models[within])
    np.clip(models, 0.0, 1.0, out=models)
    return SomGrid(grid.width, grid.height, models)


def train(grid: SomGrid, image: RasterImage, params: TrainingParams) -> SomGrid:
    """Run params.iterations sequential presentations of random pixels.

    Iteration t draws exactly one pixel index from the sample substream of
    params.seed and applies train_step with the schedule values for t.  The
    result is a pure function of (grid, image bytes, params).
    """
    pixels = as_pixel_vectors(image)
    n = pixels.shape[0]
    if n == 0:
        raise InputError("empty training image")
    stream = SplitMix64(substream_seed(params.seed, SAMPLE_STREAM))
    current = grid
    for t in range(params.iterations):
        x = pixels[stream.next_index(n)]
        alpha_t, radius_t = params.schedule(t)
        current = train_step(current, x, alpha_t, radius_t)
    return current


def fit_som(image: RasterImage, width: int, height: int, params: TrainingParams) -> SomGrid:
    """initialize_grid followed by train, the usual way maps get built."""
    grid = initialize_grid(image, width, height, params.seed)
    return train(grid, image, params)


def quantization_error(image: RasterImage, grid: SomGrid) -> QeResult:
    """Mean distance from each pixel to its best-matching model.

    Pixels are taken in row-major blocks of _SCORE_BLOCK, and each block's
    R, G and B planes go through every model while they are still in cache.
    Per pixel, squared channel terms are summed as (r + g) + b, and a later
    model replaces the running best only when strictly closer, so the lowest
    row-major index wins ties.  The mean uses the adjacent-pairs summation
    above over all pixels at once, so the value is a pure function of the
    pixels and models and does not depend on the block size.  Assignment
    counts record how many pixels each model won.
    """
    pixels = image.pixels.reshape(-1, 3)
    n = pixels.shape[0]
    size = min(n, _SCORE_BLOCK)
    scratch = np.empty((5, size))  # a block's R, G and B planes, d2 and term
    closer = np.empty(size, dtype=bool)
    winners = np.empty(size, dtype=np.int64)
    best = np.empty(n)
    counts = np.zeros(grid.model_count, dtype=np.int64)
    models = grid.models.tolist()
    for start in range(0, n, size):
        block = slice(start, min(start + size, n))
        m = block.stop - start
        planes, (d2, term) = scratch[:3, :m], scratch[3:, :m]
        np.divide(pixels[block].T, 255.0, out=planes)
        nearest, won, chosen = best[block], closer[:m], winners[:m]
        chosen.fill(0)
        for k, model in enumerate(models):
            dist = d2 if k else nearest
            np.subtract(planes[0], model[0], out=dist)
            np.multiply(dist, dist, out=dist)
            for plane, component in zip(planes[1:], model[1:]):
                np.subtract(plane, component, out=term)
                np.multiply(term, term, out=term)
                dist += term
            if k:
                np.less(d2, nearest, out=won)
                np.minimum(nearest, d2, out=nearest)
                chosen[won] = k
        counts += np.bincount(chosen, minlength=grid.model_count)
    qe = pairwise_sum(np.sqrt(best, out=best)) / n
    return QeResult(qe=qe, pixel_count=n, assignment_counts=counts)


def empty_model_count(result: QeResult) -> int:
    """Number of models that won no pixel at all."""
    return int(np.count_nonzero(result.assignment_counts == 0))


@dataclass(frozen=True)
class MapSizeCandidate:
    width: int
    height: int
    qe: float
    empty_models: int


@dataclass(frozen=True)
class MapSizeReport:
    candidates: tuple[MapSizeCandidate, ...]
    all_sizes_leave_empty_models: bool


def map_size_search(
    image: RasterImage,
    candidate_sizes,
    params: TrainingParams,
) -> tuple[tuple[int, int], MapSizeReport]:
    """Train each candidate size on the image and pick one.

    Preference: the largest size (by model count) that leaves no model
    empty; among equals, the lower quantization error; among those, the
    earlier candidate.  When every size leaves empties the report is
    flagged and the pick minimizes the empty count instead.
    """
    sizes = list(candidate_sizes)
    if not sizes:
        raise InputError("candidate_sizes must not be empty")
    entries = []
    for width, height in sizes:
        trained = fit_som(image, width, height, params)
        result = quantization_error(image, trained)
        entries.append(
            MapSizeCandidate(width, height, result.qe, empty_model_count(result))
        )
    viable = [e for e in entries if e.empty_models == 0]
    flagged = not viable
    pool = entries if flagged else viable
    best = pool[0]
    for cand in pool[1:]:
        if flagged:
            better = cand.empty_models < best.empty_models or (
                cand.empty_models == best.empty_models and cand.qe < best.qe
            )
        else:
            count_c = cand.width * cand.height
            count_b = best.width * best.height
            better = count_c > count_b or (count_c == count_b and cand.qe < best.qe)
        if better:
            best = cand
    report = MapSizeReport(tuple(entries), flagged)
    return (best.width, best.height), report


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
    """Parse `grid_to_text` output; errors name the file line, blank lines counted."""
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines:
        raise InputError("malformed grid header: empty file")
    fields = lines[0][1].split()
    if len(fields) != 4 or fields[0] != _GRID_MAGIC or fields[1] != _GRID_VERSION:
        raise InputError("malformed grid header: expected 'somqe-grid v1 <w> <h>'")
    try:
        width, height = int(fields[2]), int(fields[3])
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
            models[i] = [float(p) for p in parts]
        except ValueError:
            raise InputError(f"grid line {lineno}: non-numeric component") from None
    return SomGrid(width, height, models)


def save_grid(grid: SomGrid, path) -> None:
    atomic_write_bytes(path, grid_to_text(grid).encode("ascii"))


def load_grid(path) -> SomGrid:
    return grid_from_text(read_text(path, "ascii"))
