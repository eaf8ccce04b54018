"""Manifest-to-report orchestration.

A manifest lists image frames with labels and years.  `preprocessed_frames`
runs every frame through one `FrameStage`: loaded, aligned to the anchor,
contrast stretched and handed to a command's tail (scoring, or writing the
aligned frame).  The anchor (last entry unless overridden) goes first, in
this process; the other frames follow in forked worker processes, one per
usable CPU, each holding only the anchor's luminance pyramid, its gradients
and the frame in hand.  A run trains a map on the anchor, scores each
frame's quantization error, fits the QE-versus-year trend, and optionally
correlates the QE series with year-checked covariate series from CSV.
Every artifact (CSV report, SVG plots, grid file, transform sidecar) is
written atomically and is byte identical across reruns with the same inputs
and seed, whatever the number of workers.
"""

from __future__ import annotations

import csv
import io
import os
import re
import time
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ComputationError, InputError, RegistrationError
from .raster import (
    RasterImage, atomic_write_bytes, load_image, normalize_contrast, read_text
)
from .register import (
    RegistrationTransform,
    identity_transform,
    mean_square_residual,
    reference_pyramid,
    register_pair,
    resample,
)
from .report import scatter_svg
from .som import SomGrid, TrainingParams, empty_model_count, fit_som, quantization_error
from .stats import (
    CorrelationResult,
    RegressionResult,
    Series,
    correlation_csv_row,
    csv_label,
    linear_fit,
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
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = stripped.split("\t")
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
    if not (0 <= anchor_index < len(entries)):
        raise InputError(f"anchor index {anchor_index} outside 0..{len(entries) - 1}")
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
    out_dir: Path = Path("somqe-out")
    covariates: Path | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.registration_mode not in REGISTRATION_MODES:
            raise InputError(
                f"registration mode must be one of {REGISTRATION_MODES}"
            )
        if self.year_fix not in YEAR_FIX_MODES:
            raise InputError(f"year_fix must be one of {YEAR_FIX_MODES}")


def load_config_file(path) -> dict[str, str]:
    """Parse 'key = value' lines; '#' comments and blank lines are skipped."""
    entries: dict[str, str] = {}
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise InputError(f"config line {lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        entries[key.strip()] = value.strip()
    return entries


def parse_grid_size(text: str) -> tuple[int, int]:
    match = re.fullmatch(r"(\d+)x(\d+)", text.strip())
    if not match:
        raise InputError(f"grid size must look like '4x4', got {text!r}")
    return int(match.group(1)), int(match.group(2))


def _parse_switch(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(text)


def _parse_decimal(text: str) -> float:
    # looks parse_decimal up at call time, so a wrapper installed on
    # pipeline.parse_decimal (bench/traced.py) also sees the config's numbers
    return parse_decimal(text)


# config key (also the dest of the CLI flag that sets it) ->
# (the RunConfig field, or fields, it sets; the parser of its value text)
CONFIG_KEYS = {
    "seed": ("seed", int),
    "grid": (("grid_width", "grid_height"), parse_grid_size),
    "iterations": ("iterations", int),
    "alpha": ("learning_rate", _parse_decimal),
    "radius": ("neighborhood_radius", _parse_decimal),
    "decay": ("decay_mode", str),
    "mode": ("registration_mode", str),
    "normalize": ("normalize", _parse_switch),
    "year_fix": ("year_fix", str),
    "out": ("out_dir", Path),
    "covariates": ("covariates", Path),
}


def apply_config_entries(config: RunConfig, entries: dict[str, str]) -> RunConfig:
    """Overlay string-typed settings (from a file or CLI flags) on a config."""
    updates = {}
    for key, value in entries.items():
        if key not in CONFIG_KEYS:
            raise InputError(f"unknown config key {key!r}")
        field, parse = CONFIG_KEYS[key]
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
    numbered = enumerate(read_text(path).split("\n"), start=1)
    kept = [(n, ln) for n, ln in numbered if ln.strip() and ln.lstrip()[0] != "#"]
    if not kept:
        raise InputError(f"covariate file {path}: no data")
    header_line = kept[0][1]
    if ";" in header_line:
        delimiter = ";"
    elif "\t" in header_line:
        delimiter = "\t"
    else:
        delimiter = ","
    text = "\n".join(ln for _, ln in kept)
    reader = csv.reader(io.StringIO(text), delimiter=delimiter)
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
    names = header[1:]
    years: list[float] = []
    columns: list[list[float]] = [[] for _ in names]
    for lineno, row in rows[1:]:
        if len(row) != len(header):
            raise InputError(
                f"covariate file {path}, line {lineno}: expected {len(header)} "
                f"fields, got {len(row)}"
            )
        parsed = []
        for c, cell in enumerate(row, start=1):
            try:
                parsed.append(parse_decimal(cell))
            except ValueError:
                raise InputError(
                    f"covariate file {path}: unparseable cell at line {lineno}, "
                    f"column {c}: {cell.strip()!r}"
                ) from None
        years.append(parsed[0])
        for c, value in enumerate(parsed[1:]):
            columns[c].append(value)
    return [
        Series(name, np.array(years), np.array(col))
        for name, col in zip(names, columns)
    ]


def apply_year_fix(series: Series, mode: str) -> Series:
    """Resolve a duplicated year label.

    'as-printed' keeps the labels untouched.  'relabel-1990' decrements the
    first member of the first adjacent duplicate pair, which turns the
    bundled tables' doubled 1991 into the missing 1990.  A decrement onto a
    year the series already holds, or a second adjacent duplicate pair,
    raises InputError instead of leaving a duplicate that a second fix would
    shift, so fixing a series twice changes nothing the second time.
    """
    if mode not in YEAR_FIX_MODES:
        raise InputError(f"year_fix must be one of {YEAR_FIX_MODES}")
    if mode == "as-printed":
        return series
    x = series.x.copy()
    pairs = np.flatnonzero(x[:-1] == x[1:])
    if pairs.size:
        year = x[pairs[0]] - 1.0
        if np.any(x == year):
            raise InputError(f"year fix {mode}: year {year:.10g} already present")
        if pairs.size > 1:
            raise InputError(
                f"year fix {mode}: year {x[pairs[1]]:.10g} is also duplicated"
            )
        x[pairs[0]] = year
    return Series(series.label, x, series.y)


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
    transforms: tuple[RegistrationTransform, ...] = ()
    residuals: tuple[float, ...] = ()


class StagedFrame(NamedTuple):
    """One frame through the frame stage: its registration and its tail's result."""

    index: int
    transform: RegistrationTransform
    residual: float
    result: object  # what the stage's tail returned for this frame
    pid: int  # the process that ran the stage
    seconds: dict  # stage name -> wall seconds, in the order the stages ran


class FrameStage:
    """Load, register, resample, residual, stretch and tail of one frame.

    Calling it on the anchor index first builds the anchor's reference: its
    `reference_pyramid` (its luminance plane alone in mode 'none').  Every
    later call loads one frame, checks it against the anchor's size,
    registers it to that reference and resamples it, takes its mean-square
    residual and, when `config.normalize` is set, stretches its contrast.
    `tail(index, frame, timed)` then turns the frame into the call's
    result; `timed(name, fn, *args)` runs one of its steps and records that
    step's seconds.  Only the reference stays held between calls, so a call
    on another frame needs nothing but its index.
    """

    def __init__(self, manifest: Manifest, config: RunConfig, tail):
        if not manifest.entries:
            raise InputError("empty image stack")
        a = manifest.anchor_index
        if not (0 <= a < len(manifest.entries)):
            raise InputError(f"anchor index {a} outside 0..{len(manifest.entries) - 1}")
        self.manifest = manifest
        self.mode = config.registration_mode
        self.normalize = config.normalize
        self.tail = tail
        self.identity = identity_transform(
            "translation" if self.mode == "none" else self.mode
        )
        self.levels = None
        self.luminance = None

    def __call__(self, i: int) -> StagedFrame:
        seconds = {}

        def timed(name, fn, *args):
            start = time.perf_counter()
            out = fn(*args)
            seconds[name] = time.perf_counter() - start
            return out

        frame = timed("load", self._load, i)
        transform = self.identity
        if i == self.manifest.anchor_index:
            if self.mode == "none":
                self.luminance = frame.luminance()
            else:
                self.levels = timed("pyramid", reference_pyramid, frame)
                self.luminance = self.levels[0].plane
        else:
            height, width = self.luminance.shape
            if (frame.height, frame.width) != (height, width):
                raise InputError(
                    f"size mismatch: frame {i} is {frame.width}x{frame.height}, "
                    f"anchor frame {self.manifest.anchor_index} is {width}x{height}"
                )
            if self.mode != "none":
                try:
                    transform = timed("register", register_pair, self.levels, frame, self.mode)
                except RegistrationError as exc:
                    raise RegistrationError(
                        f"frame {i}: {exc}",
                        transform=exc.transform,
                        residual=exc.residual,
                        index=i,
                    ) from exc
                frame = timed("resample", resample, frame, transform)
        residual = timed("residual", mean_square_residual, self.luminance, frame, transform)
        if self.normalize:
            frame = timed("normalize", normalize_contrast, frame)
        result = self.tail(i, frame, timed)
        return StagedFrame(i, transform, residual, result, os.getpid(), seconds)

    def _load(self, i: int) -> RasterImage:
        path = self.manifest.entries[i].path
        try:
            return load_image(path)
        except (OSError, InputError) as exc:
            raise InputError(f"frame {i} ({path}): {exc}") from None


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
        initargs=(stage, os.getpid()),
    )
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns on any fork once numpy's BLAS threads exist;
            # OpenBLAS rebuilds its pool in the child, and the stage's sums
            # are one-thread einsums
            warnings.filterwarnings(
                "ignore", r"This process .* is multi-threaded", DeprecationWarning
            )
            futures = [pool.submit(_run_stage, i) for i in indices]
        for future in futures:
            try:
                staged = future.result()
            except BrokenProcessPool as exc:
                raise ComputationError(f"a frame worker process died: {exc}") from None
            yield staged
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


_worker_stage = None  # the FrameStage a forked worker runs, set as it starts


def _start_worker(stage: FrameStage, parent: int) -> None:
    import signal
    import threading

    global _worker_stage
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _worker_stage = stage
    threading.Thread(target=_exit_with, args=(parent,), daemon=True).start()


def _exit_with(parent: int) -> None:
    # a parent killed by SIGTERM or SIGKILL never shuts the pool down, and
    # its workers would wait on their call queue forever
    while os.getppid() == parent:
        time.sleep(0.5)
    os._exit(1)


def _run_stage(i: int) -> StagedFrame:
    return _worker_stage(i)


def score_frame(entry: ManifestEntry, frame: RasterImage, grid: SomGrid) -> QeRow:
    """The QE row of one manifest entry, scoring its preprocessed frame."""
    result = quantization_error(frame, grid)
    return QeRow(entry.label, entry.year, result.qe, empty_model_count(result))


def qe_report(
    roi_name: str,
    rows,
    year_fix: str,
    grid: SomGrid | None = None,
    transforms=(),
    residuals=(),
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
        transforms=tuple(transforms),
        residuals=tuple(residuals),
    )


def run_pipeline(manifest: Manifest, config: RunConfig, trace: list | None = None) -> QeReport:
    """Full run: align, normalize, train on the anchor, score, fit the trend.

    When `trace` is a list, the `StagedFrame` of every frame is appended to
    it in stack order, anchor first.
    """
    grid = None

    def score(i, frame, timed):
        nonlocal grid
        if grid is None:  # the anchor, in this process; workers inherit its map
            grid = timed(
                "train", fit_som, frame, config.grid_width, config.grid_height, config
            )
        return timed("score", score_frame, manifest.entries[i], frame, grid)

    staged = list(preprocessed_frames(manifest, config, score))
    if trace is not None:
        trace.extend(staged)
    staged.sort(key=lambda s: s.index)
    return qe_report(
        manifest.roi_name,
        [s.result for s in staged],
        config.year_fix,
        grid=grid,
        transforms=[s.transform for s in staged],
        residuals=[s.residual for s in staged],
    )


def correlate(report: QeReport, covariates) -> QeReport:
    """Report with each covariate correlated against the QE series.

    Pairing is by position, so covariate files must list one row per frame
    in manifest order; a covariate row whose year differs from its QE row's
    year raises InputError.
    """
    qe_series = Series(
        "qe",
        np.array([row.year for row in report.rows]),
        np.array([row.qe for row in report.rows]),
    )
    entries = list(report.correlations)
    for cov in covariates:
        if cov.n != len(report.rows):
            raise InputError(
                f"length mismatch: covariate {cov.label!r} has {cov.n} rows, "
                f"the QE series has {len(report.rows)}"
            )
        differs = np.flatnonzero(cov.x != qe_series.x)
        if differs.size:
            k = differs[0]
            raise InputError(
                f"year mismatch: covariate {cov.label!r} row {k} is year "
                f"{cov.x[k]:.10g}, QE row {k} ({report.rows[k].label}) is year "
                f"{qe_series.x[k]:.10g}"
            )
        entries.append(CorrelationEntry(cov.label, cov.y, pearson(qe_series, cov)))
    return replace(report, correlations=tuple(entries))


# ---------------------------------------------------------------------------
# artifacts

def qe_rows_csv(rows) -> str:
    lines = ["# qe rows: label,year,qe,empty_models"]
    for row in rows:
        lines.append(
            f"{csv_label(row.label)},{row.year:.10g},{row.qe:.12g},{row.empty_models}"
        )
    return "\n".join(lines) + "\n"


def report_csv_text(report: QeReport, config: RunConfig | None = None) -> str:
    parts = ["# somqe-report v1", f"# roi: {report.roi_name}"]
    if config is not None:
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
    parts.append("# regression: label,slope,intercept,r2,t,df,p")
    parts.append("# df = n - 2")
    if report.regression.degenerate:
        parts.append("# regression degenerate: constant qe values")
    parts.append(
        "# trend slope in 1e-3 units per year: %.10g" % (report.regression.slope * 1e3)
    )
    parts.append(regression_csv_row("qe_trend", report.regression))
    if report.correlations:
        parts.append("# correlations: label,r,t,df,p")
        for entry in report.correlations:
            parts.append(correlation_csv_row(entry.label, entry.result))
    return "\n".join(parts) + "\n"


def emit_csv(report: QeReport, path, config: RunConfig | None = None) -> None:
    atomic_write_bytes(path, report_csv_text(report, config).encode("utf-8"))


def read_qe_csv(path):
    """Parse the qe-rows section of a report (or a bare qe CSV) back in.

    Returns (roi name or None, list of QeRow).  Comment lines are skipped.
    Rows under a report's '# regression:' and '# correlations:' headers are
    ignored so a full report round-trips; anywhere else a row must have the
    four qe fields.
    """
    roi = None
    in_qe_rows = True
    rows = []
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            if stripped.startswith("# roi:"):
                roi = stripped[len("# roi:"):].strip()
            elif stripped.startswith(("# regression:", "# correlations:")):
                in_qe_rows = False
            elif stripped.startswith("# qe rows:"):
                in_qe_rows = True
            continue
        if not in_qe_rows:
            continue
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
                    int(fields[3]),
                )
            )
        except ValueError:
            raise InputError(
                f"{path}, line {lineno}: unparseable qe row: {stripped!r}"
            ) from None
    if not rows:
        raise InputError(f"{path}: no qe rows found")
    return roi, rows


def slugify(text: str) -> str:
    slug = re.sub(r"[^a-z0-9]+", "-", text.lower()).strip("-")
    return slug or "unnamed"


def emit_svg_plots(report: QeReport, out_dir) -> list[Path]:
    """Write the trend plot plus one plot per correlation; returns the paths."""
    out_dir = Path(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    written = []
    years = [row.year for row in report.rows]
    qes = [row.qe for row in report.rows]
    reg = report.regression
    trend_path = out_dir / f"{slugify(report.roi_name)}_qe_trend.svg"
    annotation = (
        "slope = %.6g per year, r2 = %.4f, p = %.3g" % (reg.slope, reg.r2, reg.p)
        if not reg.degenerate
        else "degenerate fit: constant values"
    )
    svg = scatter_svg(
        years,
        qes,
        title=f"{report.roi_name}: quantization error by year",
        xlabel="year",
        ylabel="quantization error",
        line=None if reg.degenerate else (reg.slope, reg.intercept),
        annotation=annotation,
    )
    atomic_write_bytes(trend_path, svg.encode("utf-8"))
    written.append(trend_path)
    for entry in report.correlations:
        path = out_dir / (
            f"{slugify(report.roi_name)}_vs_{slugify(entry.label)}.svg"
        )
        xs = [float(v) for v in entry.values]
        try:
            display = linear_fit(Series(entry.label, np.array(xs), np.array(qes)))
            line = None if display.degenerate else (display.slope, display.intercept)
        except InputError:
            line = None
        svg = scatter_svg(
            xs,
            qes,
            title=f"{report.roi_name}: quantization error vs {entry.label}",
            xlabel=entry.label,
            ylabel="quantization error",
            line=line,
            annotation="r = %.6g, p = %.3g" % (entry.result.r, entry.result.p),
        )
        atomic_write_bytes(path, svg.encode("utf-8"))
        written.append(path)
    return written
