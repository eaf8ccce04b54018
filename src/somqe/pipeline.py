"""Manifest-to-report orchestration.

A manifest lists image frames with labels and years.  `preprocessed_frames`
streams them: the anchor (last entry unless overridden) first, then the
others in manifest order, each loaded, aligned to the anchor and contrast
stretched, holding only the anchor's luminance pyramid and the frame in
hand.  A run trains a map on the anchor, scores each frame's quantization
error as it arrives, fits the QE-versus-year trend, and optionally
correlates the QE series with year-checked covariate series from CSV.
Every artifact (CSV report, SVG plots, grid file, transform sidecar) is
written atomically and is byte identical across reruns with the same inputs
and seed.
"""

from __future__ import annotations

import csv
import io
import os
import re
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import InputError, RegistrationError
from .raster import (
    RasterImage, atomic_write_bytes, load_image, normalize_contrast, read_text
)
from .register import (
    RegistrationTransform,
    identity_transform,
    luminance_pyramid,
    mean_square_residual,
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
class RunConfig:
    grid_width: int = 4
    grid_height: int = 4
    learning_rate: float = 0.2
    neighborhood_radius: float = 1.2
    iterations: int = 1000
    decay_mode: str = "constant"
    seed: int = 0
    registration_mode: str = "translation"
    normalize: bool = True
    year_fix: str = "as-printed"
    out_dir: Path = Path("somqe-out")
    covariates: Path | None = None

    def __post_init__(self):
        if self.registration_mode not in REGISTRATION_MODES:
            raise InputError(
                f"registration mode must be one of {REGISTRATION_MODES}"
            )
        if self.year_fix not in YEAR_FIX_MODES:
            raise InputError(f"year_fix must be one of {YEAR_FIX_MODES}")
        self.training_params()  # validates the numeric knobs

    def training_params(self) -> TrainingParams:
        return TrainingParams(
            learning_rate=self.learning_rate,
            neighborhood_radius=self.neighborhood_radius,
            iterations=self.iterations,
            seed=self.seed,
            decay_mode=self.decay_mode,
        )


_TRUE_WORDS = {"1", "true", "yes", "on"}
_FALSE_WORDS = {"0", "false", "no", "off"}


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


def apply_config_entries(config: RunConfig, entries: dict[str, str]) -> RunConfig:
    """Overlay string-typed settings (from a file or CLI flags) on a config."""
    updates = {}
    for key, value in entries.items():
        try:
            if key == "seed":
                updates["seed"] = int(value)
            elif key == "grid":
                updates["grid_width"], updates["grid_height"] = parse_grid_size(value)
            elif key == "iterations":
                updates["iterations"] = int(value)
            elif key == "alpha":
                updates["learning_rate"] = parse_decimal(value)
            elif key == "radius":
                updates["neighborhood_radius"] = parse_decimal(value)
            elif key == "decay":
                updates["decay_mode"] = value
            elif key == "mode":
                updates["registration_mode"] = value
            elif key == "normalize":
                lowered = value.lower()
                if lowered in _TRUE_WORDS:
                    updates["normalize"] = True
                elif lowered in _FALSE_WORDS:
                    updates["normalize"] = False
                else:
                    raise ValueError(value)
            elif key == "year_fix":
                updates["year_fix"] = value
            elif key == "out":
                updates["out_dir"] = Path(value)
            elif key == "covariates":
                updates["covariates"] = Path(value)
            else:
                raise InputError(f"unknown config key {key!r}")
        except InputError:
            raise
        except ValueError:
            raise InputError(f"config key {key!r}: unparseable value {value!r}") from None
    return replace(config, **updates)


def parse_grid_size(text: str) -> tuple[int, int]:
    match = re.fullmatch(r"(\d+)x(\d+)", text.strip())
    if not match:
        raise InputError(f"grid size must look like '4x4', got {text!r}")
    return int(match.group(1)), int(match.group(2))


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


def preprocessed_frames(manifest: Manifest, config: RunConfig):
    """Yield (index, transform, residual, frame) per manifest frame, anchor first.

    Each frame is loaded, checked against the anchor's size, registered to
    the anchor, resampled, scored for its mean-square residual and, when
    `config.normalize` is set, contrast stretched.  The anchor, and every
    frame in mode 'none', passes through with an identity transform.  Once
    the anchor has been yielded, only its luminance pyramid (built once and
    shared by every pair) and the frame in hand are held.  A non-converging
    pair re-raises with the offending frame index attached.
    """
    if not manifest.entries:
        raise InputError("empty image stack")
    mode = config.registration_mode
    a = manifest.anchor_index
    if not (0 <= a < len(manifest.entries)):
        raise InputError(f"anchor index {a} outside 0..{len(manifest.entries) - 1}")

    def load(i):
        path = manifest.entries[i].path
        try:
            return load_image(path)
        except OSError as exc:
            raise InputError(f"frame {i} ({path}): {exc}") from None

    anchor = load(a)
    if mode == "none":
        anchor_levels = (anchor.luminance(),)
    else:
        anchor_levels = luminance_pyramid(anchor)
    height, width = anchor_levels[0].shape
    identity = identity_transform("translation" if mode == "none" else mode)
    for i in [a] + [j for j in range(len(manifest.entries)) if j != a]:
        if i == a:  # the generator holds the decoded anchor no longer
            frame, anchor = anchor, None
        else:
            frame = load(i)
        if (frame.height, frame.width) != (height, width):
            raise InputError(
                f"size mismatch: frame {i} is {frame.width}x{frame.height}, "
                f"anchor frame {a} is {width}x{height}"
            )
        if mode == "none" or i == a:
            transform = identity
        else:
            try:
                transform = register_pair(anchor_levels, frame, mode)
            except RegistrationError as exc:
                raise RegistrationError(
                    f"frame {i}: {exc}",
                    transform=exc.transform,
                    residual=exc.residual,
                    index=i,
                ) from exc
            frame = resample(frame, transform)
        residual = mean_square_residual(anchor_levels[0], frame, transform)
        if config.normalize:
            frame = normalize_contrast(frame)
        yield i, transform, residual, frame


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


def run_pipeline(manifest: Manifest, config: RunConfig) -> QeReport:
    """Full run: align, normalize, train on the anchor, score, fit the trend."""
    grid = None
    scored = []
    for i, transform, residual, frame in preprocessed_frames(manifest, config):
        if grid is None:  # the anchor; rebinding `frame` lets it go once scored
            grid = fit_som(
                frame, config.grid_width, config.grid_height, config.training_params()
            )
        row = score_frame(manifest.entries[i], frame, grid)
        scored.append((i, transform, residual, row))
    _, transforms, residuals, rows = zip(*sorted(scored))
    return qe_report(
        manifest.roi_name,
        rows,
        config.year_fix,
        grid=grid,
        transforms=transforms,
        residuals=residuals,
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
