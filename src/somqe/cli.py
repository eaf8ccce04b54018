"""Command-line front end.

Subcommands mirror the pipeline stages so each step can run standalone:

    register    align frames to the anchor, write aligned PPMs + transforms
    train       preprocess the anchor frame and train a map on it
    score       apply a saved map to preprocessed frames, write QE rows
    stats       fit year trends for covariate columns or a QE row file
    correlate   correlate a QE row file with covariate columns
    plot        render SVG scatter plots from a QE row file
    run         the whole pipeline into one output directory

Exit codes: 0 success, 1 unusable input, 2 computation failure
(registration that does not converge, or a frame worker process that died),
130 interrupted (SIGINT, as Ctrl-C sends it).
Errors print exactly one line to stderr of the form
'somqe: error: <category>: <message>'.  `run --trace FILE` also writes the
seconds each frame spent in each stage, as JSONL.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import warnings
from pathlib import Path

from .errors import ComputationError, InputError
from .pipeline import (
    CONFIG_KEYS,
    REGISTRATION_MODES,
    YEAR_FIX_MODES,
    RunConfig,
    apply_config_entries,
    apply_year_fix,
    correlate,
    emit_csv,
    emit_svg_plots,
    ingest_covariates,
    load_config_file,
    preprocessed_frames,
    qe_report,
    qe_rows_csv,
    read_manifest,
    read_qe_csv,
    run_pipeline,
    score_frame,
    slugify,
    QeReport,
)
from .raster import atomic_write_bytes, save_image
from .register import write_transform_sidecar
from .som import DECAY_MODES, fit_som, load_grid, save_grid
from .stats import correlation_csv_row, linear_fit, regression_csv_row


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; that code is reserved
    # for computation failures here, so usage problems become InputError
    def error(self, message):
        raise InputError(message)


def _add_common_flags(sub):
    sub.add_argument("--config", type=Path, help="key=value settings file")
    sub.add_argument("--seed", type=int, help="run seed (default 0)")
    sub.add_argument("--grid", help="map size as WxH (default 4x4)")
    sub.add_argument("--iterations", type=int, help="training presentations")
    sub.add_argument("--alpha", help="learning rate (default 0.2)")
    sub.add_argument("--radius", help="neighborhood radius (default 1.2)")
    sub.add_argument("--decay", choices=DECAY_MODES,
                     help="schedule for alpha and radius")
    sub.add_argument("--mode", choices=REGISTRATION_MODES,
                     help="registration model")
    sub.add_argument("--out", type=Path, help="output directory")
    sub.add_argument("--covariates", type=Path, help="covariate CSV")
    sub.add_argument("--year-fix", choices=YEAR_FIX_MODES,
                     dest="year_fix", help="how to resolve duplicated years")


def _config_from_args(args) -> RunConfig:
    """The --config file's settings, then every flag given, which wins."""
    config = RunConfig()
    if args.config:
        config = apply_config_entries(config, load_config_file(args.config))
    flags = {
        key: str(value) for key, value in vars(args).items()
        if key in CONFIG_KEYS and value is not None
    }
    return apply_config_entries(config, flags)


def _covariates(config: RunConfig) -> list:
    """Covariates year-fixed as the QE rows are; a year left duplicated warns."""
    fixed = [
        apply_year_fix(series, config.year_fix)
        for series in ingest_covariates(config.covariates)
    ]
    by_name = {}
    for series in fixed:
        other = by_name.setdefault(slugify(series.label), series)
        if other is not series:
            raise InputError(
                f"covariate columns {other.label!r} and {series.label!r} in "
                f"{config.covariates} share the plot name {slugify(series.label)!r}"
            )
    years = list(fixed[0].x)
    for year in sorted({y for y in years if years.count(y) > 1}):
        message = f"duplicate year {year:g} in {config.covariates}; keeping both rows"
        warnings.warn(message, stacklevel=2)
    return fixed


def _out_dir(config: RunConfig) -> Path:
    config.out_dir.mkdir(parents=True, exist_ok=True)
    return config.out_dir


def _emit(args, config: RunConfig, name: str, text: str) -> None:
    """Write `text` atomically to NAME in the --out directory, else to stdout."""
    if args.out is None:
        sys.stdout.write(text)
        return
    path = _out_dir(config) / name
    atomic_write_bytes(path, text.encode("utf-8"))
    print(f"wrote {path}")


def _require(args, name: str):
    value = getattr(args, name, None)
    if value is None:
        raise InputError(f"--{name.replace('_', '-')} is required for this command")
    return value


# ---------------------------------------------------------------------------
# handlers

def _cmd_register(args) -> int:
    config = _config_from_args(args)
    manifest = read_manifest(_require(args, "manifest"))
    out = _out_dir(config)
    names = [f"{i:03d}_{slugify(e.label)}.ppm" for i, e in enumerate(manifest.entries)]

    def save(i, frame, timed):
        timed("save", save_image, frame, out / names[i])

    records = sorted(
        (s.index, s.transform, s.residual)
        for s in preprocessed_frames(manifest, config, save)
    )
    write_transform_sidecar(out / "transforms.txt", records)
    manifest_lines = ["# path\tlabel\tyear"] + [
        f"{name}\t{e.label}\t{e.year:.10g}" for name, e in zip(names, manifest.entries)
    ]
    atomic_write_bytes(
        out / "registered_manifest.tsv",
        ("\n".join(manifest_lines) + "\n").encode("utf-8"),
    )
    print(f"aligned {len(records)} frames into {out}")
    return 0


def _cmd_train(args) -> int:
    config = _config_from_args(args)
    manifest = read_manifest(_require(args, "manifest"))

    def train(i, anchor, timed):
        grid = timed(
            "train", fit_som, anchor, config.grid_width, config.grid_height, config
        )
        return grid, timed("score", score_frame, manifest.entries[i], anchor, grid)

    # the stream yields the anchor first; no other frame is loaded, and
    # mode 'none' skips the anchor's reference, which only registration reads
    anchor_only = apply_config_entries(config, {"mode": "none"})
    grid, row = next(preprocessed_frames(manifest, anchor_only, train)).result
    out = _out_dir(config)
    save_grid(grid, out / "grid.txt")
    print(
        f"trained {config.grid_width}x{config.grid_height} map on "
        f"{row.label}: anchor qe {row.qe:.6g}, {row.empty_models} empty models, "
        f"grid written to {out / 'grid.txt'}"
    )
    return 0


def _cmd_score(args) -> int:
    config = _config_from_args(args)
    grid = load_grid(_require(args, "grid_file"))
    manifest = read_manifest(_require(args, "manifest"))

    def score(i, frame, timed):
        return timed("score", score_frame, manifest.entries[i], frame, grid)

    scored = sorted(
        (s.index, s.result) for s in preprocessed_frames(manifest, config, score)
    )
    text = f"# roi: {manifest.roi_name}\n" + qe_rows_csv(row for _, row in scored)
    _emit(args, config, "qe.csv", text)
    return 0


def _cmd_stats(args) -> int:
    config = _config_from_args(args)
    lines = ["# regression: label,slope,intercept,r2,t,df,p"]
    if getattr(args, "qe", None) is not None:
        roi, rows = read_qe_csv(args.qe)
        report = qe_report(roi or "qe", rows, config.year_fix)
        lines.append(regression_csv_row(report.roi_name, report.regression))
    elif config.covariates is not None:
        for series in _covariates(config):
            lines.append(regression_csv_row(series.label, linear_fit(series)))
    else:
        raise InputError("stats needs --covariates or --qe")
    text = "\n".join(lines) + "\n"
    _emit(args, config, "stats.csv", text)
    return 0


def _build_report_from_qe(args, config: RunConfig) -> QeReport:
    roi, rows = read_qe_csv(_require(args, "qe"))
    report = qe_report(roi or "qe", rows, config.year_fix)
    if config.covariates is not None:
        report = correlate(report, _covariates(config))
    return report


def _cmd_correlate(args) -> int:
    config = _config_from_args(args)
    if config.covariates is None:
        raise InputError("correlate needs --covariates")
    report = _build_report_from_qe(args, config)
    lines = ["# correlations: label,r,t,df,p"]
    for entry in report.correlations:
        lines.append(correlation_csv_row(entry.label, entry.result))
    text = "\n".join(lines) + "\n"
    _emit(args, config, "correlations.csv", text)
    return 0


def _cmd_plot(args) -> int:
    config = _config_from_args(args)
    report = _build_report_from_qe(args, config)
    out = _out_dir(config)
    written = emit_svg_plots(report, out)
    print(f"wrote {len(written)} plots to {out}")
    return 0


def _cmd_run(args) -> int:
    config = _config_from_args(args)
    manifest = read_manifest(_require(args, "manifest"))
    staged = [] if args.trace is not None else None
    report = run_pipeline(manifest, config, staged)
    if config.covariates is not None:
        report = correlate(report, _covariates(config))
    out = _out_dir(config)
    emit_start = time.perf_counter()
    emit_csv(report, out / "report.csv", config)
    if report.grid is not None:
        save_grid(report.grid, out / "grid.txt")
    write_transform_sidecar(
        out / "transforms.txt",
        [
            (i, t, r)
            for i, (t, r) in enumerate(zip(report.transforms, report.residuals))
        ],
    )
    plots = emit_svg_plots(report, out / "plots")
    if staged is not None:
        _write_trace(args.trace, staged, time.perf_counter() - emit_start)
    print(
        f"{report.roi_name}: {len(report.rows)} frames, trend slope "
        f"{report.regression.slope:.6g} per year (r2 {report.regression.r2:.4f}, "
        f"p {report.regression.p:.3g}); report, grid, transforms and "
        f"{len(plots)} plots in {out}"
    )
    return 0


def _write_trace(path: Path, staged, emit_s: float) -> None:
    """JSONL: one line per frame in stack order, then one for this process.

    A frame's line holds its index, the pid of the process that ran its
    stage, each stage's seconds and, for a registered frame, that its solve
    converged (a frame that did not ends the run instead).  The last line
    holds this process's anchor stage (the anchor's own line less training),
    training and artifact emit seconds.
    """
    import json

    lines = []
    for s in staged:
        record = {"frame": s.index, "pid": s.pid}
        record.update((f"{name}_s", seconds) for name, seconds in s.seconds.items())
        record["converged"] = True if "register" in s.seconds else None
        lines.append(json.dumps(record))
    anchor = dict(staged[0].seconds)
    train_s = anchor.pop("train", 0.0)
    lines.append(json.dumps({
        "pid": os.getpid(),
        "anchor_s": sum(anchor.values()),
        "train_s": train_s,
        "emit_s": emit_s,
    }))
    atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("utf-8"))


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="somqe",
        description="Structural-change scoring for image time series "
        "via self-organizing-map quantization error.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, extra=()):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--manifest", type=Path, help="frame manifest (TSV)")
        for flag, kwargs in extra:
            p.add_argument(flag, **kwargs)
        _add_common_flags(p)
        p.set_defaults(handler=handler)
        return p

    add("register", _cmd_register, "align frames and write them out")
    add("train", _cmd_train, "train a map on the anchor frame")
    add("score", _cmd_score, "score frames against a saved map",
        extra=[("--grid-file", dict(type=Path, dest="grid_file",
                                    help="saved map from 'train'"))])
    add("stats", _cmd_stats, "fit year trends",
        extra=[("--qe", dict(type=Path, help="QE row file from 'score'"))])
    add("correlate", _cmd_correlate, "correlate QE rows with covariates",
        extra=[("--qe", dict(type=Path, help="QE row file from 'score'"))])
    add("plot", _cmd_plot, "render SVG plots from QE rows",
        extra=[("--qe", dict(type=Path, help="QE row file from 'score'"))])
    add("run", _cmd_run, "full pipeline into an output directory",
        extra=[("--trace", dict(type=Path, help="write per-frame stage "
                                                "seconds as JSONL"))])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except InputError as exc:
        return _fail(1, "input", exc)
    except OSError as exc:
        return _fail(1, "input", exc)
    except ComputationError as exc:
        return _fail(2, "computation", exc)
    except KeyboardInterrupt:  # the frame pool was shut down as this unwound
        return _fail(130, "interrupted", "stopped by SIGINT")


def _fail(code: int, category: str, exc: BaseException | str) -> int:
    message = " ".join(str(exc).split())
    print(f"somqe: error: {category}: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
