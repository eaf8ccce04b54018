"""Command-line front end.

Subcommands mirror the pipeline stages so each step can run standalone:

    register    align frames to the anchor, write aligned PPMs + transforms
    train       preprocess the anchor frame and train a map on it
    score       apply a saved map to preprocessed frames, write QE rows
    stats       fit year trends for a QE row file and/or covariate columns
    correlate   correlate a QE row file with covariate columns
    plot        render SVG scatter plots from a QE row file
    run         the whole pipeline into one output directory

Each takes --out, --config and only the other flags it reads, unabbreviated
so that 'score --grid' is no '--grid-file'; a config file may set any key.

Exit codes: 0 success, 1 unusable input, 2 computation failure
(registration that does not converge, a frame worker process that died, or
running out of memory), 130 interrupted (SIGINT, as Ctrl-C sends it).
Errors print exactly one line to stderr of the form
'somqe: error: <category>: <message>', and warnings one line each, as
'somqe: warning: <message>'.  `run --trace FILE` also writes the
seconds each frame spent in each stage, as JSONL.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

from .errors import ComputationError, InputError
from .pipeline import (
    CONFIG_KEYS,
    RunConfig,
    apply_config_entries,
    correlate,
    emit_csv,
    emit_svg_plots,
    ingest_covariates,  # bench/traced.py wraps it at this name
    keep_freed_buffers,
    load_config_file,
    minor_faults,
    preprocessed_frames,
    qe_report,
    qe_rows_csv,
    read_covariates,
    read_manifest,
    read_qe_csv,
    run_pipeline,
    slugify,
    QeReport,
    ScoreTail,
)
from .raster import atomic_write_bytes, save_image
from .register import write_transform_sidecar
from .som import load_grid, save_grid
from .stats import (
    CORRELATION_HEADER, REGRESSION_HEADER, correlation_csv_row, linear_fit, regression_csv_row
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; that code is reserved
    # for computation failures here, so usage problems become InputError
    def error(self, message):
        raise InputError(message)


def _config_from_args(args) -> RunConfig:
    """The --config file's settings, then every flag given, which wins."""
    config = RunConfig()
    if args.config:
        config = apply_config_entries(config, load_config_file(args.config))
    flags = {
        key: value for key, value in vars(args).items()
        if key in CONFIG_KEYS and value is not None
    }
    return apply_config_entries(config, flags)


def _out_dir(config: RunConfig) -> Path:
    out = Path("somqe-out") if config.out_dir is None else config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    return out


def _emit(config: RunConfig, name: str, text: str) -> None:
    """Write `text` atomically to NAME in the output directory, else to stdout."""
    if config.out_dir is None:
        sys.stdout.write(text)
        return
    path = _out_dir(config) / name
    atomic_write_bytes(path, text.encode("utf-8"))
    print(f"wrote {path}")


def _transform_records(staged) -> list:
    """The (index, transform, residual) of each staged frame, in stack order."""
    return sorted((s.index, s.transform, s.residual) for s in staged)


def _path(text: str) -> Path:
    if not text.strip():  # Path("") would be the current directory
        raise argparse.ArgumentTypeError("empty value")
    return Path(text)


def _require(args, name: str):
    value = getattr(args, name)
    if value is None:
        raise InputError(f"--{name.replace('_', '-')} is required for this command")
    return value


# ---------------------------------------------------------------------------
# handlers

def _cmd_register(args, config: RunConfig) -> int:
    manifest = read_manifest(_require(args, "manifest"))
    out = _out_dir(config)
    names = [f"{i:03d}_{slugify(e.label)}.ppm" for i, e in enumerate(manifest.entries)]

    def save(i, frame, timed):
        timed("save", save_image, frame, out / names[i])

    records = _transform_records(preprocessed_frames(manifest, config, save))
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


def _cmd_train(args, config: RunConfig) -> int:
    manifest = read_manifest(_require(args, "manifest"))
    out = _out_dir(config)  # a bad output target fails here, not after the anchor
    tail = ScoreTail(manifest, config)
    # the stream yields the anchor first; no other frame is loaded, and
    # mode 'none' skips the anchor's pyramid, which only registration reads
    anchor_only = replace(config, registration_mode="none")
    row = next(preprocessed_frames(manifest, anchor_only, tail)).result
    save_grid(tail.grid, out / "grid.txt")
    print(
        f"trained {config.grid_width}x{config.grid_height} map on "
        f"{row.label}: anchor qe {row.qe:.6g}, {row.empty_models} empty models, "
        f"grid written to {out / 'grid.txt'}"
    )
    return 0


def _cmd_score(args, config: RunConfig) -> int:
    grid = load_grid(_require(args, "grid_file"))
    manifest = read_manifest(_require(args, "manifest"))
    if config.out_dir is not None:  # a bad output target fails before the frames
        _out_dir(config)
    tail = ScoreTail(manifest, config, grid)
    staged = sorted(preprocessed_frames(manifest, config, tail), key=lambda s: s.index)
    text = f"# roi: {manifest.roi_name}\n" + qe_rows_csv(s.result for s in staged)
    _emit(config, "qe.csv", text)
    return 0


def _cmd_stats(args, config: RunConfig) -> int:
    if args.qe is None and config.covariates is None:
        raise InputError("stats needs --covariates or --qe")
    lines = [REGRESSION_HEADER]
    if args.qe is not None:
        roi, rows = read_qe_csv(args.qe)
        report = qe_report(roi or "qe", rows, config.year_fix)
        lines.append(regression_csv_row(report.roi_name, report.regression))
    if config.covariates is not None:
        for series in read_covariates(config.covariates, config.year_fix):
            lines.append(regression_csv_row(series.label, linear_fit(series)))
    _emit(config, "stats.csv", "\n".join(lines) + "\n")
    return 0


def _build_report_from_qe(args, config: RunConfig) -> QeReport:
    roi, rows = read_qe_csv(_require(args, "qe"))
    report = qe_report(roi or "qe", rows, config.year_fix)
    if config.covariates is not None:
        covariates = read_covariates(config.covariates, config.year_fix)
        report = correlate(report, covariates, config.covariates)
    return report


def _cmd_correlate(args, config: RunConfig) -> int:
    if config.covariates is None:
        raise InputError("correlate needs --covariates")
    report = _build_report_from_qe(args, config)
    rows = [correlation_csv_row(entry.label, entry.result) for entry in report.correlations]
    _emit(config, "correlations.csv", "\n".join([CORRELATION_HEADER, *rows]) + "\n")
    return 0


def _cmd_plot(args, config: RunConfig) -> int:
    report = _build_report_from_qe(args, config)
    out = _out_dir(config)
    written = emit_svg_plots(report, out)
    print(f"wrote {len(written)} plots to {out}")
    return 0


def _cmd_run(args, config: RunConfig) -> int:
    faults = minor_faults()
    manifest = read_manifest(_require(args, "manifest"))
    out = _out_dir(config)  # a bad output target fails here, not after the last frame
    artifacts = ("report.csv", "grid.txt", "transforms.txt", "plots")  # plots a directory
    for name in artifacts:  # and so does an artifact path of the other kind
        if (out / name).exists() and (out / name).is_dir() != (name == "plots"):
            raise InputError(f"{out / name}: {'not' if name == 'plots' else 'is'} a directory")
    trace = args.trace
    if trace is not None:
        if trace.is_dir() or not trace.parent.is_dir():
            raise InputError(f"--trace {trace}: not a file in an existing directory")
        target, root = trace.resolve(), out.resolve()
        for name in artifacts:
            if root / name in (target, *target.parents):
                raise InputError(f"--trace {trace}: would overwrite the run's {name}")
        frames = (entry.path for entry in manifest.entries)
        inputs = (args.manifest, args.config, config.covariates, *frames)
        for path in filter(None, inputs):  # samefile also sees a symlink or hard link
            if trace.exists() and path.exists() and os.path.samefile(trace, path):
                raise InputError(f"--trace {trace}: would overwrite the input {path}")
    report = run_pipeline(manifest, config)
    emit_start = time.perf_counter()
    emit_csv(report, out / "report.csv", config)
    save_grid(report.grid, out / "grid.txt")
    write_transform_sidecar(out / "transforms.txt", _transform_records(report.frames))
    plots = emit_svg_plots(report, out / "plots")
    if trace is not None:
        emit_s = time.perf_counter() - emit_start
        _write_trace(trace, report.frames, emit_s, minor_faults() - faults)
    anchor = report.rows[manifest.anchor_index]
    print(
        f"{report.roi_name}: {len(report.rows)} frames, anchor {anchor.label} "
        f"({anchor.year:.10g}), trend slope {report.regression.slope:.6g} per year "
        f"(r2 {report.regression.r2:.4f}, p {report.regression.p:.3g}); report, grid, "
        f"transforms and {len(plots)} plots in {out}"
    )
    return 0


def _write_trace(path: Path, staged, emit_s: float, minflt: int) -> None:
    """JSONL: one line per frame, anchor first, then one for the emit.

    A frame's line holds its index and its `StagedFrame.record`: the pid of
    the process that ran its stage, each step's seconds and the minor page
    faults that process took during the stage.  The anchor's stage, training
    included, ran in this process, so its line carries this pid.  The last
    line holds the artifact emit seconds and the minor page faults this
    process took from the start of the run to the end of the emit.
    """
    import json

    lines = [json.dumps({"frame": s.index, **s.record}) for s in staged]
    lines.append(json.dumps({"emit_s": emit_s, "minflt": minflt}))
    atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("utf-8"))


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="somqe",
        description="Structural-change scoring for image time series "
        "via self-organizing-map quantization error.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, keys, *file_flags):
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flag, flag_help in (*file_flags, ("--config", "key=value settings file")):
            p.add_argument(flag, type=_path, help=flag_help)
        for key, (_, _, key_help) in CONFIG_KEYS.items():
            if key in ("out", *keys) and key_help is not None:
                p.add_argument("--" + key.replace("_", "-"), dest=key, help=key_help)
        p.set_defaults(handler=handler)

    manifest = ("--manifest", "frame manifest (TSV)")
    qe = ("--qe", "QE row file from 'score'")
    training = ("seed", "grid", "iterations", "alpha", "radius", "decay")
    trend = ("year_fix", "covariates")
    add("register", _cmd_register, "align frames and write them out", ["mode"], manifest)
    add("train", _cmd_train, "train a map on the anchor frame", training, manifest)
    add("score", _cmd_score, "score frames against a saved map", ["mode"], manifest,
        ("--grid-file", "saved map from 'train'"))
    add("stats", _cmd_stats, "fit year trends", trend, qe)
    add("correlate", _cmd_correlate, "correlate QE rows with covariates", trend, qe)
    add("plot", _cmd_plot, "render SVG plots from QE rows", trend, qe)
    add("run", _cmd_run, "full pipeline into an output directory", CONFIG_KEYS, manifest,
        ("--trace", "write per-frame stage seconds as JSONL"))
    return parser


def main(argv=None) -> int:
    import warnings

    keep_freed_buffers()  # also for frames staged in this process
    parser = build_parser()
    # one line per shown warning; warnings a caller records are never formatted
    default_format = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: _one_line("warning", message) + "\n"
    try:
        args = parser.parse_args(argv)
        return args.handler(args, _config_from_args(args))
    except (InputError, OSError) as exc:
        return _fail(1, "input", exc)
    except ComputationError as exc:
        return _fail(2, "computation", exc)
    except MemoryError as exc:
        return _fail(2, "computation", f"out of memory: {exc}")
    except KeyboardInterrupt:  # the frame pool was shut down as this unwound
        return _fail(130, "interrupted", "stopped by SIGINT")
    finally:
        warnings.formatwarning = default_format


def _one_line(kind: str, message) -> str:
    return f"somqe: {kind}: " + " ".join(str(message).split())


def _fail(code: int, category: str, exc: BaseException | str) -> int:
    print(_one_line(f"error: {category}", exc), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
