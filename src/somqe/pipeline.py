"""Manifest-to-report orchestration.

A manifest lists image frames with labels and years.  `preprocessed_frames`
runs every frame through one `FrameStage`: loaded, aligned to the anchor,
contrast stretched and handed to a command's tail (scoring, or writing the
aligned frame).  The anchor (last entry unless overridden) goes first, in
this process; the other frames follow in forked worker processes, one per
usable CPU, each holding only the anchor's float32 reference planes and
the frame in hand.  A run trains a map on the anchor, scores each
frame's quantization error, fits the QE-versus-year trend, and optionally
correlates the QE series with year-checked covariate series from CSV.
Every artifact (CSV report, SVG plots, grid file, transform sidecar) is
written atomically and is byte identical across reruns with the same inputs
and seed, whatever the number of workers.
"""

from __future__ import annotations

import csv
import os
import re
import resource
import time
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ComputationError, InputError, RegistrationError
from .raster import (
    RasterImage, atomic_write_bytes, load_image, normalize_contrast, read_text, text_records
)
from .register import (
    RegistrationTransform, mean_square_residual, reference_pyramid, register_pair, resample
)
from .report import scatter_svg
from .som import (
    DECAY_MODES, SomGrid, TrainingParams, empty_model_count, fit_som, quantization_error
)
from .stats import (
    CORRELATION_HEADER,
    REGRESSION_HEADER,
    CorrelationResult,
    RegressionResult,
    Series,
    _centered_sums,
    correlation_csv_row,
    csv_label,
    linear_fit,
    parse_count,
    parse_decimal,
    pearson,
    regression_csv_row,
)

YEAR_FIX_MODES = ("as-printed", "relabel-1990")
REGISTRATION_MODES = ("translation", "rigid", "none")


# ---------------------------------------------------------------------------
# manifest

@dataclass(frozen=True)
class ManifestEntry:
    path: Path
    label: str
    year: float


@dataclass(frozen=True)
class Manifest:
    entries: tuple[ManifestEntry, ...]
    roi_name: str
    anchor_index: int

    def __post_init__(self):
        if not self.entries:
            raise InputError("empty image stack")
        a = self.anchor_index
        if not (0 <= a < len(self.entries)):
            raise InputError(f"anchor index {a} outside 0..{len(self.entries) - 1}")

    @property
    def years(self) -> np.ndarray:
        return np.array([e.year for e in self.entries])


def read_manifest(path, roi_name: str | None = None, anchor_index: int | None = None) -> Manifest:
    """Parse a frame manifest.

    One frame per line: path, label, year, separated by tabs.  '#' starts a
    comment line; blank lines are skipped.  Relative paths are resolved
    against the manifest's own directory.  The anchor defaults to the last
    entry; the ROI name defaults to the file stem.
    """
    path = Path(path)
    entries = []
    seen_paths = set()
    for lineno, line in text_records(read_text(path)):
        fields = line.split("\t")
        if len(fields) != 3:
            raise InputError(
                f"manifest line {lineno}: expected 'path<TAB>label<TAB>year', "
                f"got {len(fields)} fields"
            )
        frame_path, label, year_text = (f.strip() for f in fields)
        if not frame_path or not label:
            raise InputError(f"manifest line {lineno}: empty path or label")
        try:
            year = parse_decimal(year_text)
        except ValueError:
            raise InputError(
                f"manifest line {lineno}: unparseable year {year_text!r}"
            ) from None
        resolved = Path(frame_path)
        if not resolved.is_absolute():
            resolved = path.parent / resolved
        if resolved in seen_paths:
            raise InputError(f"manifest line {lineno}: duplicate path {frame_path!r}")
        seen_paths.add(resolved)
        entries.append(ManifestEntry(resolved, label, year))
    if not entries:
        raise InputError(f"manifest {path}: no frame entries")
    if anchor_index is None:
        anchor_index = len(entries) - 1
    return Manifest(tuple(entries), roi_name or path.stem, anchor_index)


# ---------------------------------------------------------------------------
# run configuration

@dataclass(frozen=True)
class RunConfig(TrainingParams):
    """The map's training parameters plus the rest of a run's settings."""

    grid_width: int = 4
    grid_height: int = 4
    registration_mode: str = "translation"
    normalize: bool = True
    year_fix: str = "as-printed"
    out_dir: Path | None = None  # None: each command's default, stdout or somqe-out
    covariates: Path | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.registration_mode not in REGISTRATION_MODES:
            raise InputError(
                f"registration mode must be one of {REGISTRATION_MODES}"
            )
        if self.year_fix not in YEAR_FIX_MODES:
            raise InputError(f"year_fix must be one of {YEAR_FIX_MODES}")
        if self.grid_width < 1 or self.grid_height < 1:
            raise InputError("grid dimensions must be positive")


def load_config_file(path) -> dict[str, str]:
    """Parse 'key = value' lines; '#' comments and blank lines are skipped."""
    entries: dict[str, str] = {}
    set_on: dict[str, int] = {}  # key -> the line that set it
    for lineno, line in text_records(read_text(path)):
        if "=" not in line:
            raise InputError(f"config line {lineno}: expected 'key = value'")
        key, _, value = (part.strip() for part in line.partition("="))
        if key in set_on:
            raise InputError(
                f"config line {lineno}: key {key!r} already set on line {set_on[key]}"
            )
        set_on[key] = lineno
        entries[key] = value
    return entries


def parse_grid_size(text: str) -> tuple[int, int]:
    match = re.fullmatch(r"([0-9]+)x([0-9]+)", text.strip())
    if not match:
        raise InputError(f"grid size must look like '4x4', got {text!r}")
    return parse_count(match[1]), parse_count(match[2])


def _parse_switch(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(text)


# config key (also the dest of the CLI flag that sets it, '_' written '-') ->
# (the RunConfig field, or fields, it sets; the parser of its value text;
#  the flag's help text, None for a key that has no flag)
CONFIG_KEYS = {
    "seed": ("seed", parse_count, "run seed (default 0)"),
    "grid": (("grid_width", "grid_height"), parse_grid_size, "map size as WxH (default 4x4)"),
    "iterations": ("iterations", parse_count, "training presentations"),
    "alpha": ("learning_rate", parse_decimal, "learning rate (default 0.2)"),
    "radius": ("neighborhood_radius", parse_decimal, "neighborhood radius (default 1.2)"),
    "decay": ("decay_mode", str,
              f"schedule for alpha and radius: {', '.join(DECAY_MODES)}"),
    "mode": ("registration_mode", str,
             f"registration model: {', '.join(REGISTRATION_MODES)}"),
    "normalize": ("normalize", _parse_switch, None),
    "year_fix": ("year_fix", str,
                 f"how to resolve duplicated years: {', '.join(YEAR_FIX_MODES)}"),
    "out": ("out_dir", Path, "output directory"),
    "covariates": ("covariates", Path, "covariate CSV"),
}


def apply_config_entries(config: RunConfig, entries: dict[str, str]) -> RunConfig:
    """Overlay string-typed settings (from a file or CLI flags) on a config."""
    updates = {}
    for key, value in entries.items():
        if key not in CONFIG_KEYS:
            raise InputError(f"unknown config key {key!r}")
        if not value.strip():  # Path("") would be the current directory
            raise InputError(f"config key {key!r}: empty value")
        field, parse, _ = CONFIG_KEYS[key]
        try:
            parsed = parse(value)
        except InputError:
            raise
        except ValueError:
            raise InputError(f"config key {key!r}: unparseable value {value!r}") from None
        if isinstance(field, tuple):
            updates.update(zip(field, parsed))
        else:
            updates[field] = parsed
    return replace(config, **updates)


# ---------------------------------------------------------------------------
# covariates and year labels

def ingest_covariates(path) -> list[Series]:
    """Read a year-keyed CSV into one Series per value column.

    The field separator is sniffed from the header: ';' or tab when present,
    otherwise ','.  Numeric cells may use either decimal mark (which is why
    European-style files must use ';' or tab separators).  '#' lines are
    comments.  A duplicated year keeps both rows.
    """
    path = Path(path)
    kept = text_records(read_text(path))
    if not kept:
        raise InputError(f"covariate file {path}: no data")
    delimiter = next((d for d in ";\t" if d in kept[0][1]), ",")
    reader = csv.reader((ln + "\n" for _, ln in kept), delimiter=delimiter)
    rows = []  # (file line, fields)
    try:
        for row in reader:
            rows.append((kept[reader.line_num - 1][0], row))
    except csv.Error as exc:
        lineno = kept[reader.line_num - 1][0]
        raise InputError(f"covariate file {path}, line {lineno}: {exc}") from None
    header = [h.strip() for h in rows[0][1]]
    if len(header) < 2 or header[0].lower() != "year":
        raise InputError(
            f"covariate file {path}: first column must be 'year', "
            f"got header {header!r}"
        )
    table = []  # every data row's values, year first, row after row
    for lineno, row in rows[1:]:
        if len(row) != len(header):
            raise InputError(
                f"covariate file {path}, line {lineno}: expected {len(header)} "
                f"fields, got {len(row)}"
            )
        for c, cell in enumerate(row, start=1):
            try:
                table.append(parse_decimal(cell))
            except ValueError:
                raise InputError(
                    f"covariate file {path}: unparseable cell at line {lineno}, "
                    f"column {c}: {cell.strip()!r}"
                ) from None
    columns = np.array(table, dtype=np.float64).reshape(-1, len(header)).T
    return [Series(name, columns[0], col) for name, col in zip(header[1:], columns[1:])]


def apply_year_fix(series: Series, mode: str) -> Series:
    """Resolve a duplicated year label.

    'as-printed' keeps the labels untouched.  'relabel-1990' reads the
    series oldest first (backwards if its first year is above its last) and
    decrements the earlier member of the first adjacent duplicate pair, which
    turns the bundled tables' doubled 1991 into the missing 1990.  A
    decrement onto a year the series already holds, or a second adjacent
    duplicate pair, raises InputError instead of leaving a duplicate that a
    second fix would shift, so fixing a series twice changes nothing.
    """
    if mode not in YEAR_FIX_MODES:
        raise InputError(f"year_fix must be one of {YEAR_FIX_MODES}")
    if mode == "as-printed":
        return series
    x = series.x.copy()
    in_time = x[::-1] if x.size and x[0] > x[-1] else x  # a view: writes land in x
    pairs = np.flatnonzero(in_time[:-1] == in_time[1:])
    if pairs.size:
        year = in_time[pairs[0]] - 1.0
        if np.any(x == year):
            raise InputError(f"year fix {mode}: year {year:.10g} already present")
        if pairs.size > 1:
            raise InputError(
                f"year fix {mode}: year {in_time[pairs[1]]:.10g} is also duplicated"
            )
        in_time[pairs[0]] = year
    return Series(series.label, x, series.y)


def read_covariates(path, year_fix: str) -> list[Series]:
    """A covariate file's series, year-fixed as the QE rows are; duplicate years warn."""
    fixed = [apply_year_fix(series, year_fix) for series in ingest_covariates(path)]
    years = list(fixed[0].x)
    for year in sorted({y for y in years if years.count(y) > 1}):
        message = f"duplicate year {year:g} in {path}; keeping both rows"
        warnings.warn(message, stacklevel=2)
    return fixed


def check_pairing(labels, years, covariates, source=None) -> None:
    """Raise InputError unless each covariate has one row per QE row, with its
    year, and no two share a plot name (one plot would overwrite the other).
    """
    where = f" in {source}" if source is not None else ""
    by_name = {}
    for cov in covariates:
        name = slugify(cov.label)
        other = by_name.setdefault(name, cov)
        if other is not cov:
            raise InputError(
                f"covariate columns {other.label!r} and {cov.label!r}{where} "
                f"share the plot name {name!r}"
            )
    for cov in covariates:
        if cov.n != len(labels):
            raise InputError(
                f"length mismatch: covariate {cov.label!r} has {cov.n} rows, "
                f"the QE series has {len(labels)}"
            )
        differs = np.flatnonzero(cov.x != years)
        if differs.size:
            k = differs[0]
            raise InputError(
                f"year mismatch: covariate {cov.label!r} row {k} is year "
                f"{cov.x[k]:.10g}, QE row {k} ({labels[k]}) is year {years[k]:.10g}"
            )


# ---------------------------------------------------------------------------
# the run itself

@dataclass(frozen=True)
class QeRow:
    label: str
    year: float
    qe: float
    empty_models: int


@dataclass(frozen=True, eq=False)
class CorrelationEntry:
    label: str
    values: np.ndarray  # covariate values paired with the QE rows by position
    result: CorrelationResult


@dataclass(frozen=True, eq=False)
class QeReport:
    roi_name: str
    rows: tuple[QeRow, ...]
    grid: SomGrid | None
    regression: RegressionResult
    correlations: tuple[CorrelationEntry, ...] = ()
    frames: tuple[StagedFrame, ...] = ()  # in the order the frames ran, anchor first


class StagedFrame(NamedTuple):
    """One frame through the frame stage: its registration and its tail's result."""

    index: int
    transform: RegistrationTransform
    residual: float
    result: object  # what the stage's tail returned for this frame
    # "pid" of the process that ran the stage, "<step>_s" wall seconds in the
    # order the steps ran, and the "minflt" minor page faults it took
    record: dict


class FrameStage:
    """Load, register, resample, stretch and tail of one frame.

    Calling it on the anchor index first builds the anchor's reference: its
    float32 luminance plane, which unless the mode is 'none' is the finest
    level of the solver's `reference_pyramid`, built from one untimed
    float64 luminance plane.  Every later call loads one frame, checks it
    against the anchor's size and registers it to that reference and
    resamples it; the residual is the solver's cost at the transform, or in
    mode 'none' `mean_square_residual` (the anchor's is 0.0).  Every call
    then, when `config.normalize` is set, stretches the frame's contrast.
    `tail(index, frame, timed)` then turns the frame into the call's
    result; `timed(name, fn, *args)` runs one of its steps and records that
    step's seconds.  Only the reference stays held between calls, so a call
    on another frame needs nothing but its index.
    """

    def __init__(self, manifest: Manifest, config: RunConfig, tail):
        self.manifest = manifest
        self.mode = config.registration_mode
        self.normalize = config.normalize
        self.tail = tail
        self.identity = RegistrationTransform(self.mode)
        self.levels = None
        self.reference = None

    def __call__(self, i: int) -> StagedFrame:
        faults = minor_faults()
        record = {"pid": os.getpid()}

        def timed(name, fn, *args):
            start = time.perf_counter()
            out = fn(*args)
            record[f"{name}_s"] = time.perf_counter() - start
            return out

        frame = timed("load", self._load, i)
        transform, residual = self.identity, 0.0
        if i == self.manifest.anchor_index:
            if self.mode == "none":
                self.reference = frame.luminance().astype(np.float32)
            else:
                self.levels = timed("pyramid", reference_pyramid, frame.luminance())
                self.reference = self.levels[0].plane
        else:
            height, width = self.reference.shape
            if (frame.height, frame.width) != (height, width):
                raise InputError(
                    f"size mismatch: frame {i} is {frame.width}x{frame.height}, "
                    f"anchor frame {self.manifest.anchor_index} is {width}x{height}"
                )
            if self.mode == "none":
                residual = timed("residual", mean_square_residual, self.reference, frame)
            else:
                try:
                    transform, residual = timed(
                        "register", register_pair, self.levels, frame, self.mode
                    )
                except RegistrationError as exc:
                    raise RegistrationError(
                        f"frame {i}: {exc}",
                        transform=exc.transform,
                        residual=exc.residual,
                        index=i,
                    ) from exc
                frame = timed("resample", resample, frame, transform)
        if self.normalize:
            frame = timed("normalize", normalize_contrast, frame)
        result = self.tail(i, frame, timed)
        record["minflt"] = minor_faults() - faults
        return StagedFrame(i, transform, residual, result, record)

    def _load(self, i: int) -> RasterImage:
        try:  # each error names the file already
            return load_image(self.manifest.entries[i].path)
        except (OSError, InputError) as exc:
            raise InputError(f"frame {i}: {exc}") from None


def preprocessed_frames(manifest: Manifest, config: RunConfig, tail):
    """Yield the `StagedFrame` of every manifest frame: anchor first, then the rest.

    The anchor runs through the `FrameStage` in this process, so whatever its
    `tail` keeps (a map trained on it, say) is in place before the other
    frames run.  They follow in manifest order, through `_map_frames`.
    A failing frame raises as it would in this process: the first one in
    that order wins, and a non-converging pair re-raises with the offending
    frame index attached.
    """
    stage = FrameStage(manifest, config, tail)
    yield stage(manifest.anchor_index)
    others = [i for i in range(len(manifest.entries)) if i != manifest.anchor_index]
    yield from _map_frames(stage, others)


def _map_frames(stage: FrameStage, indices: list[int]):
    """Yield `stage(i)` for each index in order, on every CPU this process may use.

    With one usable CPU, or one index, the stage runs here through `map`.
    Otherwise it runs in a pool of forked worker processes, one per CPU up
    to one per index.  Fork hands every worker the stage with its reference
    and tail as they stand, so only an index goes out and only the small
    `StagedFrame` comes back.  Workers ignore SIGINT, so an interrupt ends
    the run from this process alone, and exit if this process dies.  The
    first failure in index order is raised; frames not yet started are
    cancelled and the pool's processes are joined before the generator
    returns or raises.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = 1
    workers = min(cpus, len(indices))
    if workers <= 1:
        yield from map(stage, indices)
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_start_worker,
        initargs=(stage,),
    )
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns on any fork once numpy's BLAS threads exist;
            # OpenBLAS rebuilds its pool in the child, and the stage's sums
            # are one-thread `np.add.reduce` and `np.einsum` calls
            warnings.filterwarnings(
                "ignore", r"This process .* is multi-threaded", DeprecationWarning
            )
            staged = pool.map(_run_stage, indices)
        yield from staged
    except BrokenProcessPool as exc:
        raise ComputationError(f"a frame worker process died: {exc}") from None
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


_worker_stage = None  # the FrameStage a forked worker runs, set as it starts


def _start_worker(stage: FrameStage) -> None:
    import multiprocessing
    import signal
    import threading

    global _worker_stage
    keep_freed_buffers()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _worker_stage = stage
    parent = multiprocessing.parent_process()
    threading.Thread(target=_exit_with, args=(parent,), daemon=True).start()


def _exit_with(parent) -> None:
    # a parent killed by SIGTERM or SIGKILL never shuts the pool down, and
    # its workers would wait on their call queue forever
    parent.join()  # returns as soon as the parent process dies
    os._exit(1)


def _run_stage(i: int) -> StagedFrame:
    return _worker_stage(i)


def minor_faults() -> int:
    """Minor page faults this process has taken so far (`ru_minflt`)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


# glibc mallopt parameters, from malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def keep_freed_buffers() -> bool:
    """Have this process's malloc keep freed frame-sized buffers; True if it took.

    By default glibc maps each block over 128 KiB (a threshold that rises to
    the largest block freed) on its own and unmaps it when freed, and hands
    the heap's free top past 128 KiB back to the kernel, so every frame
    faulted its megabytes of temporaries in afresh: about 7,000 faults per
    512 x 512 frame.  With the mmap threshold at glibc's 64-bit cap of
    32 MiB and the trim threshold at 1 GiB the heap keeps those pages.  Both
    are needed: either alone faulted more than neither on a 512 x 512 run.
    The CLI and each frame worker call this, importing somqe does not, so a
    library caller's allocator is left alone.  Without glibc's mallopt
    (macOS, say) it changes nothing and returns False.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # the mmap threshold first: where it is refused, the trim threshold, which
    # alone faults the most, is left as it was
    return all(
        mallopt(param, value) == 1
        for param, value in ((_M_MMAP_THRESHOLD, 32 << 20), (_M_TRIM_THRESHOLD, 1 << 30))
    )


class ScoreTail:
    """A `FrameStage` tail that turns each preprocessed frame into its `QeRow`.

    Without a `grid`, the first frame it sees, the anchor, trains one, in
    this process; forked workers inherit it.  Every frame is then scored
    against `.grid`.
    """

    def __init__(self, manifest: Manifest, config: RunConfig, grid: SomGrid | None = None):
        self.entries = manifest.entries
        self.config = config
        self.grid = grid

    def __call__(self, i: int, frame: RasterImage, timed) -> QeRow:
        if self.grid is None:
            c = self.config
            self.grid = timed("train", fit_som, frame, c.grid_width, c.grid_height, c)
        result = timed("score", quantization_error, frame, self.grid)
        entry = self.entries[i]
        return QeRow(entry.label, entry.year, result.qe, empty_model_count(result))


def qe_report(
    roi_name: str, rows, year_fix: str, grid: SomGrid | None = None, frames=()
) -> QeReport:
    """Report with the QE-versus-year trend fitted to the rows.

    The year fix relabels the rows themselves, so the report CSV, the trend
    fit and the trend plot all use the same years.
    """
    series = apply_year_fix(
        Series(roi_name, np.array([r.year for r in rows]), np.array([r.qe for r in rows])),
        year_fix,
    )
    return QeReport(
        roi_name=roi_name,
        rows=tuple(replace(r, year=float(x)) for r, x in zip(rows, series.x)),
        grid=grid,
        regression=linear_fit(series),
        frames=tuple(frames),
    )


def run_pipeline(manifest: Manifest, config: RunConfig) -> QeReport:
    """The whole run: align, normalize, train on the anchor, score, fit the trend.

    The manifest's year-fixed years must admit a trend, and a
    `config.covariates` file is read, year-fixed and paired with them, before
    any frame is loaded; so is each covariate column's own variance, which
    must be nonzero and within the float range for `pearson` to take it
    against any QE series.  `frames` holds each frame's StagedFrame.
    """
    fixed = apply_year_fix(Series("", manifest.years, manifest.years), config.year_fix)
    linear_fit(fixed)  # the trend's rules: 3 points, 2 distinct years
    source = config.covariates
    covariates = [] if source is None else read_covariates(source, config.year_fix)
    check_pairing([e.label for e in manifest.entries], fixed.x, covariates, source)
    for cov in covariates:
        name = f"covariate {cov.label!r} in {source}"
        # against a constant x, only the column's own sum of squares is checked
        if _centered_sums(np.zeros(cov.n), cov.y, name)[3] == 0.0:
            raise InputError(f"{name}: zero variance: correlation is undefined")
    tail = ScoreTail(manifest, config)
    staged = list(preprocessed_frames(manifest, config, tail))
    rows = [s.result for s in sorted(staged, key=lambda s: s.index)]
    report = qe_report(manifest.roi_name, rows, config.year_fix, tail.grid, staged)
    return correlate(report, covariates, source)


def correlate(report: QeReport, covariates, source=None) -> QeReport:
    """Report with each covariate correlated against the QE series, in place
    of any correlations it held.  Pairing is by position, so covariate files
    list one row per frame in manifest order; `check_pairing` (naming the
    `source` file) raises InputError where they do not pair.
    """
    qe_series = Series(
        "qe",
        np.array([row.year for row in report.rows]),
        np.array([row.qe for row in report.rows]),
    )
    check_pairing([row.label for row in report.rows], qe_series.x, covariates, source)
    entries = tuple(
        CorrelationEntry(cov.label, cov.y, pearson(qe_series, cov)) for cov in covariates
    )
    return replace(report, correlations=entries)


# ---------------------------------------------------------------------------
# artifacts

def qe_rows_csv(rows) -> str:
    lines = ["# qe rows: label,year,qe,empty_models"]
    for row in rows:
        lines.append(
            f"{csv_label(row.label)},{row.year:.10g},{row.qe:.12g},{row.empty_models}"
        )
    return "\n".join(lines) + "\n"


def report_csv_text(report: QeReport, config: RunConfig) -> str:
    parts = ["# somqe-report v1", f"# roi: {report.roi_name}"]
    parts.append(
        "# run: grid %dx%d seed %d iterations %d alpha %.10g radius %.10g "
        "decay %s registration %s normalize %s"
        % (
            config.grid_width,
            config.grid_height,
            config.seed,
            config.iterations,
            config.learning_rate,
            config.neighborhood_radius,
            config.decay_mode,
            config.registration_mode,
            "on" if config.normalize else "off",
        )
    )
    parts.append(qe_rows_csv(report.rows).rstrip("\n"))
    parts.append(REGRESSION_HEADER)
    parts.append("# df = n - 2")
    if report.regression.degenerate:
        parts.append("# regression degenerate: constant qe values")
    parts.append(
        "# trend slope in 1e-3 units per year: %.10g" % (report.regression.slope * 1e3)
    )
    parts.append(regression_csv_row("qe_trend", report.regression))
    if report.correlations:
        parts.append(CORRELATION_HEADER)
        for entry in report.correlations:
            parts.append(correlation_csv_row(entry.label, entry.result))
    return "\n".join(parts) + "\n"


def emit_csv(report: QeReport, path, config: RunConfig) -> None:
    atomic_write_bytes(path, report_csv_text(report, config).encode("utf-8"))


def read_qe_csv(path):
    """Parse the qe-rows section of a report (or a bare qe CSV) back in.

    Returns (roi name or None, list of QeRow): the name on the first
    '# roi:' line, and every record before a report's first '# regression:'
    or '# correlations:' header, each of which must have the four qe fields.
    """
    text = read_text(path)
    # such a line may start with blanks ([^\S\n]), as every '#' line may
    fit = re.search(r"^[^\S\n]*# (?:regression|correlations):", text, re.M)
    roi = re.search(r"^[^\S\n]*# roi:(.*)", text, re.M)
    rows = []
    for lineno, stripped in text_records(text if fit is None else text[: fit.start()]):
        try:
            fields = next(csv.reader([stripped]))
        except csv.Error as exc:
            raise InputError(f"{path}, line {lineno}: {exc}") from None
        if len(fields) != 4:
            raise InputError(
                f"{path}, line {lineno}: expected 4 qe fields, got {len(fields)}"
            )
        try:
            rows.append(
                QeRow(
                    fields[0],
                    parse_decimal(fields[1]),
                    parse_decimal(fields[2]),
                    parse_count(fields[3]),
                )
            )
        except ValueError:
            raise InputError(
                f"{path}, line {lineno}: unparseable qe row: {stripped!r}"
            ) from None
    if not rows:
        raise InputError(f"{path}: no qe rows found")
    return (roi[1].strip() if roi else None), rows


def slugify(text: str) -> str:
    slug = re.sub(r"[^a-z0-9]+", "-", text.lower()).strip("-")
    return slug or "unnamed"


def emit_svg_plots(report: QeReport, out_dir) -> list[Path]:
    """Write the trend plot plus one plot per correlation; returns the paths."""
    out_dir = Path(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    years = [row.year for row in report.rows]
    qes = [row.qe for row in report.rows]
    reg = report.regression
    # (name suffix, xs, title tail, xlabel, fit drawn as the line, annotation)
    plots = [(
        "qe_trend", years, "by year", "year", reg,
        "slope = %.6g per year, r2 = %.4f, p = %.3g" % (reg.slope, reg.r2, reg.p)
        if not reg.degenerate
        else "degenerate fit: constant values",
    )]
    for entry in report.correlations:
        # pearson held both series to 3 points, nonzero variance and finite
        # sums and products: this fit holds
        fit = linear_fit(Series(entry.label, entry.values, qes))
        plots.append((
            f"vs_{slugify(entry.label)}", entry.values, f"vs {entry.label}", entry.label, fit,
            "r = %.6g, p = %.3g" % (entry.result.r, entry.result.p),
        ))
    written = []
    for suffix, xs, title_tail, xlabel, fit, annotation in plots:
        path = out_dir / f"{slugify(report.roi_name)}_{suffix}.svg"
        svg = scatter_svg(
            xs,
            qes,
            title=f"{report.roi_name}: quantization error {title_tail}",
            xlabel=xlabel,
            ylabel="quantization error",
            line=None if fit.degenerate else (fit.slope, fit.intercept),
            annotation=annotation,
        )
        atomic_write_bytes(path, svg.encode("utf-8"))
        written.append(path)
    return written
