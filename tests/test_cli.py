"""End-to-end command-line flows in temporary directories."""

import importlib.util
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import somqe
import somqe.cli as cli_module
import somqe.pipeline as pipeline_module
from somqe.cli import build_parser, main
from somqe.errors import RegistrationError
from somqe.pipeline import (
    CONFIG_KEYS, RunConfig, load_config_file, read_manifest, report_csv_text, run_pipeline
)
from somqe.raster import RasterImage, load_image, save_image
from somqe.register import RegistrationTransform, resample
from somqe.som import SomGrid, save_grid

from conftest import sawtooth_stripes, sinusoid_sampler


def make_workspace(tmp_path, n_frames: int = 3, side: int = 48):
    """Frames that register to exactly zero plus manifest and covariates.

    Each frame pins a black and a white pixel (keeps the contrast stretch an
    identity) and differs from the base only by a few small integer nudges,
    so alignment converges immediately at (0, 0).
    """
    rng = np.random.default_rng(7)
    base = rng.integers(20, 236, size=(side, side, 3))
    base[0, 0] = (0, 0, 0)
    base[0, 1] = (255, 255, 255)
    lines = []
    for k in range(n_frames):
        arr = base.copy()
        if k:
            ys = rng.integers(2, side, size=6)
            xs = rng.integers(2, side, size=6)
            arr[ys, xs, 0] = np.clip(arr[ys, xs, 0] + 2, 20, 235)
        path = tmp_path / f"img_{k}.ppm"
        save_image(RasterImage(arr.astype(np.uint8)), path)
        lines.append(f"img_{k}.ppm\tframe{k}\t{2000 + k}")
    manifest = tmp_path / "frames.tsv"
    manifest.write_text("\n".join(lines) + "\n")
    covariates = tmp_path / "cov.csv"
    rows = "\n".join(f"{2000 + k},{10.0 + 2 * k}" for k in range(n_frames))
    covariates.write_text("year,heat\n" + rows + "\n")
    return manifest, covariates


@pytest.fixture
def frame_loads(monkeypatch):
    """The path of every frame `pipeline.load_image` is asked for."""
    loaded = []
    real_load = pipeline_module.load_image

    def counting_load(path):
        loaded.append(path)
        return real_load(path)

    monkeypatch.setattr(pipeline_module, "load_image", counting_load)
    return loaded


def test_run_writes_all_artifacts(tmp_path, capsys):
    manifest, covariates = make_workspace(tmp_path)
    out = tmp_path / "out"
    code = main([
        "run", "--manifest", str(manifest), "--covariates", str(covariates),
        "--grid", "2x2", "--iterations", "40", "--out", str(out),
    ])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.err == ""
    assert "frames.tsv" not in captured.out  # summary names the roi, not the file
    assert "frames:" in captured.out or "frames," in captured.out
    # the summary names the anchor the map was trained on, and its year
    assert captured.out.startswith("frames: 3 frames, anchor frame2 (2002), trend slope ")
    assert (out / "report.csv").is_file()
    assert (out / "grid.txt").is_file()
    assert (out / "transforms.txt").is_file()
    plots = sorted(p.name for p in (out / "plots").iterdir())
    assert plots == ["frames_qe_trend.svg", "frames_vs_heat.svg"]
    report = (out / "report.csv").read_text()
    assert report.startswith("# somqe-report v1\n# roi: frames\n")
    assert "# correlations: label,r,t,df,p" in report
    assert "\nheat," in report
    records = [
        line.split() for line in (out / "transforms.txt").read_text().splitlines()
        if not line.startswith("#")
    ]
    assert [int(r[0]) for r in records] == [0, 1, 2]
    assert all(float(r[2]) == 0.0 and float(r[3]) == 0.0 for r in records)


def test_run_is_repeatable_byte_for_byte(tmp_path):
    manifest, _ = make_workspace(tmp_path)
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert main([
            "run", "--manifest", str(manifest), "--grid", "2x2",
            "--iterations", "40", "--seed", "5", "--out", str(out),
        ]) == 0
        outs.append(out)
    for artifact in ("report.csv", "grid.txt", "transforms.txt"):
        assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()


def test_run_is_byte_identical_across_blas_thread_counts(tmp_path):
    """OpenBLAS splits a long dot product across its threads, and the sum
    then rounds by their number; no artifact may depend on it.

    At 160 px the finest pyramid level's 25,600 pixels are past the length
    where OpenBLAS 0.3 splits a dot product across two threads."""
    sample = sinusoid_sampler(np.random.default_rng(11), 160)
    lines = []
    for k, (dx, dy) in enumerate([(2.3, -1.6), (-3.7, 0.45), (0.0, 0.0)]):
        pixels = np.round(sample(dx, dy).pixels).astype(np.uint8)
        save_image(RasterImage(pixels), tmp_path / f"img_{k}.ppm")
        lines.append(f"img_{k}.ppm\tframe{k}\t{2000 + k}")
    (tmp_path / "frames.tsv").write_text("\n".join(lines) + "\n")
    src = str(Path(somqe.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / f"threads_{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "somqe", "run", "--manifest", "frames.tsv",
             "--grid", "2x2", "--iterations", "40", "--out", out.name],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    for artifact in ("transforms.txt", "report.csv"):
        assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()


def test_register_writes_aligned_frames(tmp_path, capsys):
    manifest, _ = make_workspace(tmp_path)
    out = tmp_path / "aligned"
    assert main(["register", "--manifest", str(manifest), "--out", str(out)]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "000_frame0.ppm", "001_frame1.ppm", "002_frame2.ppm",
        "registered_manifest.tsv", "transforms.txt",
    ]
    # the emitted manifest must itself be loadable
    relisted = (out / "registered_manifest.tsv").read_text().splitlines()
    assert relisted[0].startswith("#")
    for line in relisted[1:]:
        assert (out / line.split("\t")[0]).is_file()


def test_train_then_score_matches_run_report(tmp_path, capsys):
    manifest, _ = make_workspace(tmp_path)
    common = ["--manifest", str(manifest), "--grid", "2x2",
              "--iterations", "40", "--seed", "2"]
    train_out = tmp_path / "trained"
    assert main(["train", *common, "--out", str(train_out)]) == 0
    assert "anchor qe" in capsys.readouterr().out
    grid_file = train_out / "grid.txt"
    assert grid_file.read_text().startswith("somqe-grid v1 2 2\n")

    score_out = tmp_path / "scored"
    assert main([
        "score", "--manifest", str(manifest), "--grid-file", str(grid_file),
        "--out", str(score_out),
    ]) == 0
    capsys.readouterr()

    run_out = tmp_path / "run"
    assert main(["run", *common, "--out", str(run_out)]) == 0
    capsys.readouterr()

    qe_lines = [
        l for l in (score_out / "qe.csv").read_text().splitlines()
        if not l.startswith("#")
    ]
    report_lines = (run_out / "report.csv").read_text().splitlines()
    # identical preprocessing and map, so the qe rows agree byte for byte
    assert qe_lines == [l for l in report_lines if l.startswith("frame")]


def test_train_reads_only_the_anchor_frame(tmp_path, monkeypatch):
    manifest, _ = make_workspace(tmp_path)
    common = ["--manifest", str(manifest), "--grid", "2x2",
              "--iterations", "40", "--seed", "2"]
    assert main(["run", *common, "--out", str(tmp_path / "run")]) == 0
    loaded = []
    real_load_image = pipeline_module.load_image

    def counting_load_image(path):
        loaded.append(path)
        return real_load_image(path)

    monkeypatch.setattr(pipeline_module, "load_image", counting_load_image)
    assert main(["train", *common, "--out", str(tmp_path / "trained")]) == 0
    assert [p.name for p in loaded] == ["img_2.ppm"]
    assert (tmp_path / "trained" / "grid.txt").read_bytes() == (
        tmp_path / "run" / "grid.txt"
    ).read_bytes()


def test_train_builds_no_reference_pyramid(tmp_path, monkeypatch, one_cpu):
    """Only registration reads the anchor's pyramid, and train registers nothing,
    whatever mode its config file names."""
    manifest, _ = make_workspace(tmp_path)
    common = ["train", "--manifest", str(manifest), "--grid", "2x2", "--iterations", "40"]
    built = []
    real_pyramid = pipeline_module.reference_pyramid

    def counting_pyramid(luminance):
        built.append(luminance)
        return real_pyramid(luminance)

    monkeypatch.setattr(pipeline_module, "reference_pyramid", counting_pyramid)
    for mode in ("translation", "none"):
        cfg = tmp_path / f"{mode}.cfg"
        cfg.write_text(f"mode = {mode}\n")
        assert main(common + ["--config", str(cfg), "--out", str(tmp_path / mode)]) == 0
    assert built == []
    assert (tmp_path / "translation" / "grid.txt").read_bytes() == (
        tmp_path / "none" / "grid.txt"
    ).read_bytes()


def test_run_rejects_covariates_whose_years_differ_from_the_frames(tmp_path, capsys):
    manifest, covariates = make_workspace(tmp_path)
    rows = covariates.read_text().splitlines()
    covariates.write_text("\n".join(rows[:1] + rows[:0:-1]) + "\n")
    code = main([
        "run", "--manifest", str(manifest), "--covariates", str(covariates),
        "--grid", "2x2", "--iterations", "40", "--out", str(tmp_path / "out"),
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert_single_error_line(captured, "input")
    assert "year mismatch: covariate 'heat' row 0 is year 2002" in captured.err


def test_run_applies_the_year_fix_to_covariates(tmp_path, capsys):
    manifest, covariates = make_workspace(tmp_path, n_frames=4)
    years = [1989, 1991, 1991, 1992]
    manifest.write_text("".join(
        f"img_{k}.ppm\tframe{k}\t{year}\n" for k, year in enumerate(years)
    ))
    covariates.write_text("year,heat\n" + "".join(
        f"{year},{10.0 + 2 * k}\n" for k, year in enumerate(years)
    ))
    out = tmp_path / "out"
    # the fix resolves the duplicate 1991, so nothing is left to warn about
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([
            "run", "--manifest", str(manifest), "--covariates", str(covariates),
            "--grid", "2x2", "--iterations", "40", "--year-fix", "relabel-1990",
            "--out", str(out),
        ])
    assert [str(w.message) for w in caught] == []
    captured = capsys.readouterr()
    assert code == 0, captured.err
    report = (out / "report.csv").read_text()
    assert "\nframe1,1990," in report
    assert "\nheat," in report


def _short(path):
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))


def _late_year(path):
    path.write_text(path.read_text().replace("2002,", "2003,"))


def _shared_plot_name(path):
    path.write_text("year,Visitors,visitors\n2000,1,2\n2001,3,3\n2002,4,6\n")


def _constant(path):
    path.write_text("year,heat\n2000,5\n2001,5\n2002,5\n")


def _huge(path):
    path.write_text("year,heat\n2000,1e300\n2001,-1e300\n2002,0\n")


@pytest.mark.parametrize("spoil, message", [
    (Path.unlink, "No such file or directory"),
    (_short, "length mismatch: covariate 'heat' has 2 rows, the QE series has 3"),
    (_late_year, "year mismatch: covariate 'heat' row 2 is year 2003, "
                 "QE row 2 (frame2) is year 2002"),
    (_shared_plot_name, "covariate columns 'Visitors' and 'visitors' in {path} "
                        "share the plot name 'visitors'"),
    (_constant, "covariate 'heat' in {path}: zero variance: correlation is undefined"),
    (_huge, "covariate 'heat' in {path}: values too large, their sums overflow a float"),
], ids=["missing", "short", "late-year", "shared-plot-name", "constant", "huge"])
def test_run_rejects_bad_covariates_before_loading_a_frame(
    tmp_path, capsys, one_cpu, frame_loads, spoil, message
):
    manifest, covariates = make_workspace(tmp_path)
    spoil(covariates)
    out = tmp_path / "out"
    assert main([
        "run", "--manifest", str(manifest), "--covariates", str(covariates),
        "--grid", "2x2", "--iterations", "40", "--out", str(out),
    ]) == 1
    captured = capsys.readouterr()
    assert_single_error_line(captured, "input")
    assert message.format(path=covariates) in captured.err
    assert frame_loads == []
    assert not (out / "report.csv").exists()


@pytest.mark.parametrize("years, year_fix, message", [
    ((2000, 2001), "as-printed", "series too short: need at least 3 points"),
    ((2000, 2000, 2000), "as-printed", "degenerate x values: no variance to fit a slope"),
    ((1990, 1991, 1991, 1992), "relabel-1990",
     "year fix relabel-1990: year 1990 already present"),
], ids=["two-frames", "one-year", "year-fix-collision"])
def test_run_checks_the_trend_rules_and_the_year_fix_before_loading_a_frame(
    tmp_path, capsys, one_cpu, frame_loads, years, year_fix, message
):
    manifest, _ = make_workspace(tmp_path, n_frames=len(years))
    manifest.write_text("".join(
        f"img_{k}.ppm\tframe{k}\t{year}\n" for k, year in enumerate(years)
    ))
    out = tmp_path / "out"
    argv = ["run", "--manifest", str(manifest), "--year-fix", year_fix, "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert_single_error_line(captured, "input")
    assert message in captured.err
    assert frame_loads == []
    assert not (out / "report.csv").exists()


def test_run_pipeline_correlates_the_covariates_run_writes(tmp_path):
    manifest, covariates = make_workspace(tmp_path)
    out = tmp_path / "out"
    assert main([
        "run", "--manifest", str(manifest), "--covariates", str(covariates),
        "--grid", "2x2", "--iterations", "40", "--out", str(out),
    ]) == 0
    config = RunConfig(grid_width=2, grid_height=2, iterations=40, covariates=covariates)
    report = run_pipeline(read_manifest(manifest), config)
    assert [entry.label for entry in report.correlations] == ["heat"]
    assert report_csv_text(report, config) == (out / "report.csv").read_text()


def test_stats_correlate_and_plot_read_a_run_report_back(tmp_path, capsys):
    """The report's QE rows feed the standalone commands as they fed the run:
    the same plots byte for byte, and the same fits to the QE column's 12
    printed digits."""
    manifest, covariates = make_workspace(tmp_path, n_frames=5)
    for k, line in enumerate(manifest.read_text().splitlines()):
        # a red square that grows frame by frame moves QE well past its
        # 12th printed digit, as the paper's new-colour regions do
        arr = load_image(tmp_path / line.split("\t")[0]).to_uint8().copy()
        arr[40 - 8 * k:, 40 - 8 * k:] = (240, 30, 30)
        save_image(RasterImage(arr), tmp_path / line.split("\t")[0])
    covariates.write_text(
        "year,heat,Rain (mm)\n2000,10,7\n2001,12,3\n2002,15,9\n2003,13,4\n2004,20,8\n"
    )
    run_out, out = tmp_path / "run", tmp_path / "again"
    trend = ["--covariates", str(covariates)]
    assert main(["run", "--manifest", str(manifest), *trend, "--grid", "2x2",
                 "--iterations", "40", "--mode", "none", "--out", str(run_out)]) == 0
    report = run_out / "report.csv"
    from_report = ["--qe", str(report), *trend, "--out", str(out)]
    for command in ("stats", "correlate", "plot"):
        assert main([command, *from_report]) == 0
    capsys.readouterr()

    ran = sorted(p.name for p in (run_out / "plots").iterdir())
    assert ran == ["frames_qe_trend.svg", "frames_vs_heat.svg", "frames_vs_rain-mm.svg"]
    assert sorted(p.name for p in out.glob("*.svg")) == ran
    for name in ran:
        assert (out / name).read_bytes() == (run_out / "plots" / name).read_bytes()

    rows = {}  # label -> fields, of the run's report and the commands' CSVs
    for name in ("report.csv", "stats.csv", "correlations.csv"):
        directory = run_out if name == "report.csv" else out
        for line in (directory / name).read_text().splitlines():
            if not line.startswith("#"):
                rows.setdefault(name, {})[line.split(",")[0]] = line.split(",")[1:]
    assert list(rows["stats.csv"]) == ["frames", "heat", "Rain (mm)"]
    assert list(rows["correlations.csv"]) == ["heat", "Rain (mm)"]
    pairs = [(rows["stats.csv"]["frames"], rows["report.csv"]["qe_trend"])] + [
        (rows["correlations.csv"][label], rows["report.csv"][label])
        for label in ("heat", "Rain (mm)")
    ]
    for got, want in pairs:
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert float(g) == pytest.approx(float(w), rel=1e-9, abs=0.0)


def test_stats_on_covariates_does_not_check_plot_names(tmp_path, capsys):
    covariates = tmp_path / "cov.csv"
    _shared_plot_name(covariates)
    assert main(["stats", "--covariates", str(covariates)]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["Visitors", "visitors"]


@pytest.mark.parametrize("command", ["score", "stats", "correlate"])
def test_a_config_file_out_routes_output_as_the_flag_does(tmp_path, capsys, command):
    manifest, covariates = make_workspace(tmp_path)
    grid = tmp_path / "grid.txt"
    grid.write_text("somqe-grid v1 1 1\n0.5 0.5 0.5\n")
    qe = tmp_path / "qe.csv"
    qe.write_text("a,2000,0.1,0\nb,2001,0.2,0\nc,2002,0.4,1\n")
    argv = [command] + {
        "score": ["--manifest", str(manifest), "--grid-file", str(grid)],
        "stats": ["--covariates", str(covariates)],
        "correlate": ["--qe", str(qe), "--covariates", str(covariates)],
    }[command]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"out = {tmp_path / 'by_file'}\n")
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert main(argv + ["--out", str(tmp_path / "by_flag")]) == 0
    assert main(argv + ["--config", str(cfg)]) == 0
    by_flag = sorted((tmp_path / "by_flag").iterdir())
    by_file = sorted((tmp_path / "by_file").iterdir())
    assert [p.name for p in by_flag] == [p.name for p in by_file] != []
    assert [p.read_bytes() for p in by_flag] == [p.read_bytes() for p in by_file]
    assert by_flag[0].read_text() == printed


def test_score_without_out_prints_rows(tmp_path, capsys):
    manifest, _ = make_workspace(tmp_path)
    train_out = tmp_path / "trained"
    assert main([
        "train", "--manifest", str(manifest), "--grid", "2x2",
        "--iterations", "40", "--out", str(train_out),
    ]) == 0
    capsys.readouterr()
    assert main([
        "score", "--manifest", str(manifest), "--grid-file", str(train_out / "grid.txt"),
    ]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# roi: frames\n# qe rows: label,year,qe,empty_models\n")
    assert len([l for l in out.splitlines() if l.startswith("frame")]) == 3


def test_stats_from_covariates(tmp_path, capsys):
    _, covariates = make_workspace(tmp_path)
    assert main(["stats", "--covariates", str(covariates)]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "# regression: label,slope,intercept,r2,t,df,p"
    assert lines[1].startswith("heat,")
    # heat = 2*year - 3990 exactly, so the fit is perfect
    fields = lines[1].split(",")
    assert float(fields[1]) == pytest.approx(2.0, rel=1e-12)
    assert float(fields[3]) == pytest.approx(1.0, abs=1e-12)


def test_stats_year_fix_changes_fit(tmp_path, capsys):
    covariates = tmp_path / "dup.csv"
    covariates.write_text("year,v\n1989,1\n1991,2\n1991,3\n1992,4\n")
    with pytest.warns(UserWarning, match="duplicate year"):
        assert main(["stats", "--covariates", str(covariates)]) == 0
    as_printed = capsys.readouterr().out
    assert main([
        "stats", "--covariates", str(covariates),
        "--year-fix", "relabel-1990",
    ]) == 0
    relabeled = capsys.readouterr().out
    assert as_printed != relabeled
    assert as_printed.splitlines()[1].startswith("v,")


def test_a_warning_prints_as_one_line(tmp_path):
    covariates = tmp_path / "c.csv"
    covariates.write_text("year,v\n1999,1\n2000,2\n2000,3\n2001,4\n")
    proc = _somqe_limited(["stats", "--covariates", "c.csv"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "somqe: warning: duplicate year 2000 in c.csv; keeping both rows\n"
    assert proc.stdout.splitlines()[1].startswith("v,")


def test_year_fix_applies_to_run_report_and_trend(tmp_path, capsys):
    manifest, _ = make_workspace(tmp_path, n_frames=4)
    years = ["1989", "1991", "1991", "1992"]
    lines = manifest.read_text().splitlines()
    manifest.write_text(
        "".join(line.rsplit("\t", 1)[0] + f"\t{year}\n" for line, year in zip(lines, years))
    )
    trends = {}
    for fix in ("as-printed", "relabel-1990"):
        out = tmp_path / fix
        assert main([
            "run", "--manifest", str(manifest), "--grid", "2x2",
            "--iterations", "40", "--year-fix", fix, "--out", str(out),
        ]) == 0
        report = (out / "report.csv").read_text()
        (trend,) = [l for l in report.splitlines() if l.startswith("qe_trend,")]
        trends[fix] = [float(v) for v in trend.split(",")[1:]]
        capsys.readouterr()
        assert main(["stats", "--qe", str(out / "report.csv"), "--year-fix", fix]) == 0
        stats_row = capsys.readouterr().out.splitlines()[1]
        # report.csv prints qe to 12 digits, so the refit agrees to about that
        stats_fit = [float(v) for v in stats_row.split(",")[1:]]
        assert stats_fit == pytest.approx(trends[fix], rel=1e-6)
    assert trends["as-printed"] != pytest.approx(trends["relabel-1990"], rel=1e-3)
    relabeled = (tmp_path / "relabel-1990" / "report.csv").read_text()
    assert "\nframe1,1990," in relabeled
    # the fixed report has no duplicate left, so fixing it again changes nothing
    refits = []
    for fix in ("as-printed", "relabel-1990"):
        capsys.readouterr()
        assert main([
            "stats", "--qe", str(tmp_path / "relabel-1990" / "report.csv"),
            "--year-fix", fix,
        ]) == 0
        refits.append(capsys.readouterr().out)
    assert refits[0] == refits[1]


def test_year_fix_refuses_to_shift_a_second_year(tmp_path, capsys):
    manifest, _ = make_workspace(tmp_path, n_frames=3)
    lines = manifest.read_text().splitlines()
    manifest.write_text(
        "".join(line.rsplit("\t", 1)[0] + f"\t{year}\n"
                for line, year in zip(lines, ["1990", "1991", "1991"]))
    )
    message = "somqe: error: input: year fix relabel-1990: year 1990 already present"
    args = ["run", "--manifest", str(manifest), "--grid", "2x2", "--iterations", "40"]
    assert main(args + ["--year-fix", "relabel-1990", "--out", str(tmp_path / "fixed")]) == 1
    assert capsys.readouterr().err.strip() == message
    assert not (tmp_path / "fixed" / "report.csv").exists()
    assert main(args + ["--out", str(tmp_path / "printed")]) == 0
    report = tmp_path / "printed" / "report.csv"
    assert "\nframe0,1990," in report.read_text()
    capsys.readouterr()
    assert main(["stats", "--qe", str(report), "--year-fix", "relabel-1990"]) == 1
    assert capsys.readouterr().err.strip() == message


def test_stats_and_correlate_from_qe_rows(tmp_path, capsys):
    qe = tmp_path / "qe.csv"
    qe.write_text(
        "# roi: patch\n"
        "a,2000,0.10,0\nb,2001,0.14,0\nc,2002,0.19,1\nd,2003,0.27,1\n"
    )
    covariates = tmp_path / "cov.csv"
    covariates.write_text("year,heat\n2000,5\n2001,6\n2002,8\n2003,11\n")

    assert main(["stats", "--qe", str(qe)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1].startswith("patch,")

    assert main(["correlate", "--qe", str(qe), "--covariates", str(covariates)]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "# correlations: label,r,t,df,p"
    assert lines[1].startswith("heat,")
    assert 0.9 < float(lines[1].split(",")[1]) <= 1.0

    plot_out = tmp_path / "plots"
    assert main([
        "plot", "--qe", str(qe), "--covariates", str(covariates),
        "--out", str(plot_out),
    ]) == 0
    names = sorted(p.name for p in plot_out.iterdir())
    assert names == ["patch_qe_trend.svg", "patch_vs_heat.svg"]


def test_correlate_refuses_a_covariate_whose_sums_overflow(tmp_path, capsys):
    qe = tmp_path / "qe.csv"
    qe.write_text("# roi: patch\na,2000,0.10,0\nb,2001,0.14,0\nc,2002,0.19,1\n")
    covariates = tmp_path / "cov.csv"
    covariates.write_text("year,big\n2000,1e300\n2001,-1e300\n2002,0\n")
    assert main(["correlate", "--qe", str(qe), "--covariates", str(covariates)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "somqe: error: input: series 'qe' against 'big': "
        "values too large, their sums overflow a float\n"
    )


def test_correlate_without_covariates_exits_1(tmp_path, capsys):
    qe = tmp_path / "qe.csv"
    qe.write_text("# roi: patch\na,2000,0.10,0\nb,2001,0.14,0\nc,2002,0.19,1\n")
    assert main(["correlate", "--qe", str(qe)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "somqe: error: input: correlate needs --covariates\n"


def test_stats_fits_the_qe_rows_then_each_covariate_column(tmp_path, capsys):
    _, covariates = make_workspace(tmp_path)
    qe = tmp_path / "qe.csv"
    qe.write_text("# roi: patch\na,2000,0.10,0\nb,2001,0.14,0\nc,2002,0.19,1\n")
    assert main(["stats", "--qe", str(qe)]) == 0
    by_qe = capsys.readouterr().out.splitlines()
    assert main(["stats", "--covariates", str(covariates)]) == 0
    by_covariates = capsys.readouterr().out.splitlines()
    both = ["stats", "--qe", str(qe), "--covariates", str(covariates)]
    assert main(both) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == by_qe + by_covariates[1:]
    assert [line.split(",")[0] for line in lines[1:]] == ["patch", "heat"]
    # a covariate file that correlate refuses is refused here too
    covariates.write_text("when,heat\n2000,1\n2001,2\n2002,3\n")
    assert main(both) == 1
    captured = capsys.readouterr()
    assert_single_error_line(captured, "input")
    assert "first column must be 'year'" in captured.err
    assert captured.out == ""


def test_stats_on_a_qe_row_missing_a_field_exits_1(tmp_path, capsys):
    qe = tmp_path / "qe.csv"
    qe.write_text("a,2000,0.1,0\nb,2001,0.2\nc,2002,0.3,1\nd,2003,0.5,1\n")
    assert main(["stats", "--qe", str(qe)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "qe.csv, line 2: expected 4 qe fields, got 3" in captured.err


def test_config_file_with_flag_override(tmp_path):
    manifest, _ = make_workspace(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid = 2x2\niterations = 40\nseed = 5\n")
    for out_name, extra in [
        ("by_flag", ["--seed", "9"]),
        ("by_file", []),
        ("plain", ["--seed", "9"]),
    ]:
        out = tmp_path / out_name
        args = ["train", "--manifest", str(manifest), "--out", str(out)]
        if out_name != "plain":
            args += ["--config", str(cfg)]
        assert main(args + extra) == 0
    by_flag = (tmp_path / "by_flag" / "grid.txt").read_bytes()
    by_file = (tmp_path / "by_file" / "grid.txt").read_bytes()
    plain = (tmp_path / "plain" / "grid.txt").read_bytes()
    assert by_flag != by_file  # the flag overrode the file's seed
    # without the config file the grid size defaults to 4x4
    assert plain.startswith(b"somqe-grid v1 4 4\n")
    assert by_flag.startswith(b"somqe-grid v1 2 2\n")


def test_a_bad_config_file_value_fails_under_a_flag_that_overrides_it(tmp_path, capsys):
    manifest, _ = make_workspace(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = soon\n")
    argv = ["train", "--manifest", str(manifest), "--config", str(cfg), "--seed", "9"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert_single_error_line(captured, "input")
    assert "config key 'seed': unparseable value 'soon'" in captured.err


def test_every_setting_flag_names_a_config_key():
    """A flag whose dest is not a config key would be parsed and then ignored."""
    args = vars(build_parser().parse_args(["run"]))
    settings = set(args) - {"command", "handler", "manifest", "config", "trace"}
    assert settings == set(CONFIG_KEYS) - {"normalize"}


@pytest.mark.parametrize("seed, code", [(2**64 - 1, 0), (2**64, 1)])
def test_seed_flag_accepts_exactly_64_bits(tmp_path, capsys, seed, code):
    manifest, _ = make_workspace(tmp_path)
    argv = ["train", "--manifest", str(manifest), "--grid", "2x2",
            "--iterations", "40", "--seed", str(seed), "--out", str(tmp_path / "o")]
    assert main(argv) == code
    if code:
        assert_single_error_line(capsys.readouterr(), "input")


def test_a_non_finite_manifest_year_exits_1(tmp_path, capsys):
    manifest, _ = make_workspace(tmp_path)
    manifest.write_text(manifest.read_text().replace("\t2001", "\tnan"))
    (tmp_path / "grid.txt").write_text("somqe-grid v1 1 1\n0.5 0.5 0.5\n")
    argv = ["score", "--manifest", str(manifest), "--grid-file", str(tmp_path / "grid.txt")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_single_error_line(captured, "input")
    assert "manifest line 2: unparseable year 'nan'" in captured.err


def assert_single_error_line(captured, code_prefix: str):
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"somqe: error: {code_prefix}: ")


def test_missing_manifest_exits_1(tmp_path, capsys):
    assert main(["run", "--manifest", str(tmp_path / "absent.tsv")]) == 1
    assert_single_error_line(capsys.readouterr(), "input")


def test_malformed_grid_flag_exits_1(tmp_path, capsys):
    manifest, _ = make_workspace(tmp_path)
    assert main(["run", "--manifest", str(manifest), "--grid", "9"]) == 1
    captured = capsys.readouterr()
    assert_single_error_line(captured, "input")
    assert "grid size" in captured.err


def test_unknown_subcommand_exits_1(capsys):
    assert main(["transmogrify"]) == 1
    assert_single_error_line(capsys.readouterr(), "input")


def test_stats_without_inputs_exits_1(capsys):
    assert main(["stats"]) == 1
    captured = capsys.readouterr()
    assert "stats needs" in captured.err


def test_score_requires_grid_file(tmp_path, capsys):
    manifest, _ = make_workspace(tmp_path)
    assert main(["score", "--manifest", str(manifest)]) == 1
    captured = capsys.readouterr()
    assert "--grid-file is required" in captured.err


def test_score_with_a_grid_file_of_no_models_exits_1(tmp_path, capsys, frame_loads):
    manifest, _ = make_workspace(tmp_path)
    grid = tmp_path / "grid.txt"
    grid.write_text("somqe-grid v1 0 1\n")
    assert main(["score", "--manifest", str(manifest), "--grid-file", str(grid)]) == 1
    captured = capsys.readouterr()
    assert_single_error_line(captured, "input")
    assert "grid dimensions must be positive" in captured.err
    assert frame_loads == []


@pytest.mark.parametrize("command, target, old, new, where", [
    ("run", "frames.tsv", b"frame1", b"fr\xffame1", "offset"),
    ("correlate", "cov.csv", b"heat", b"h\xffeat", "offset"),
    ("stats", "run.cfg", b"grid", b"\xffgrid", "offset"),
    ("score", "grid.txt", b"v1", b"v\xff1", "offset"),
    ("run", "frames.tsv", b"img_2", b"img\x00_2", "line 3: NUL"),
    ("stats", "run.cfg", b"cov.csv", b"cov\x00.csv", "line 2: NUL"),
])
def test_undecodable_or_nul_text_input_exits_1(
    tmp_path, capsys, command, target, old, new, where
):
    manifest, covariates = make_workspace(tmp_path)
    (tmp_path / "run.cfg").write_text(f"grid = 2x2\ncovariates = {covariates}\n")
    (tmp_path / "grid.txt").write_text("somqe-grid v1 1 1\n0.5 0.5 0.5\n")
    qe = tmp_path / "qe.csv"
    qe.write_text("a,2000,0.1,0\nb,2001,0.2,0\nc,2002,0.4,1\n")
    path = tmp_path / target
    path.write_bytes(path.read_bytes().replace(old, new, 1))
    argv = {
        "run": ["--manifest", str(manifest), "--out", str(tmp_path / "o")],
        "correlate": ["--qe", str(qe), "--covariates", str(covariates)],
        "stats": ["--config", str(tmp_path / "run.cfg")],
        "score": ["--grid-file", str(tmp_path / "grid.txt"), "--manifest", str(manifest)],
    }[command]
    assert main([command] + argv) == 1
    captured = capsys.readouterr()
    assert_single_error_line(captured, "input")
    assert f"{path}" in captured.err and where in captured.err


def test_mode_none_flag_matches_the_config_key(tmp_path):
    manifest, covariates = make_workspace(tmp_path)
    cfg = tmp_path / "none.cfg"
    cfg.write_text("mode = none\n")
    common = [
        "run", "--manifest", str(manifest), "--covariates", str(covariates),
        "--grid", "2x2", "--iterations", "40",
    ]
    by_flag, by_file = tmp_path / "by_flag", tmp_path / "by_file"
    assert main(common + ["--mode", "none", "--out", str(by_flag)]) == 0
    assert main(common + ["--config", str(cfg), "--out", str(by_file)]) == 0
    assert "registration none" in (by_flag / "report.csv").read_text()
    # the sidecar's mode column says so too
    rows = [
        line.split() for line in (by_flag / "transforms.txt").read_text().splitlines()
        if not line.startswith("#")
    ]
    assert [row[:5] for row in rows] == [[str(i), "none", "0", "0", "0"] for i in range(3)]
    for artifact in ("report.csv", "grid.txt", "transforms.txt",
                     "plots/frames_qe_trend.svg", "plots/frames_vs_heat.svg"):
        assert (by_flag / artifact).read_bytes() == (by_file / artifact).read_bytes()


def test_registration_failure_exits_2(tmp_path, capsys, monkeypatch):
    manifest, _ = make_workspace(tmp_path)

    def explode(anchor_levels, moving, mode):
        raise RegistrationError("no convergence", residual=9.9)

    monkeypatch.setattr("somqe.pipeline.register_pair", explode)
    assert main(["run", "--manifest", str(manifest), "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert_single_error_line(captured, "computation")
    assert "frame 0" in captured.err


def test_a_frame_with_a_singular_normal_matrix_exits_2(tmp_path, capsys, one_cpu):
    anchor = sawtooth_stripes(64)
    lines = []
    for k, (dx, dy) in enumerate([(1.3, -0.4), (-0.6, 0.8), (0.0, 0.0)]):
        moved = resample(anchor, RegistrationTransform("translation", dx, dy))
        save_image(RasterImage(np.round(moved.pixels).astype(np.uint8)), tmp_path / f"{k}.ppm")
        lines.append(f"{k}.ppm\tf{k}\t{2000 + k}\n")
    manifest = tmp_path / "frames.tsv"
    manifest.write_text("".join(lines))
    assert main(["run", "--manifest", str(manifest), "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert_single_error_line(captured, "computation")
    assert "frame 0" in captured.err
    # the line names the estimate and its residual, each as %.6g
    number = r"-?(?:\d+(?:\.\d*)?(?:e[-+]\d+)?|inf)"
    assert re.fullmatch(
        "somqe: error: computation: frame 0: registration did not converge at the finest "
        f"pyramid level: dx {number}, dy {number}, theta {number}, residual {number}\n",
        captured.err,
    ), captured.err


def test_covariate_labels_sharing_a_plot_name_exit_1(tmp_path, capsys):
    qe = tmp_path / "qe.csv"
    qe.write_text("a,2000,0.10,0\nb,2001,0.14,0\nc,2002,0.19,1\n")
    covariates = tmp_path / "cov.csv"
    covariates.write_text(
        "year,heat,Visitors,visitors\n2000,5,1,2\n2001,6,3,3\n2002,8,4,6\n"
    )
    plots = tmp_path / "plots"
    argv = ["--qe", str(qe), "--covariates", str(covariates)]
    assert main(["plot", *argv, "--out", str(plots)]) == 1
    captured = capsys.readouterr()
    assert_single_error_line(captured, "input")
    assert "'Visitors' and 'visitors'" in captured.err
    assert not plots.exists()


def test_a_label_starting_with_a_hash_survives_a_qe_round_trip(tmp_path, capsys):
    """Unquoted, '#b,2001,...' would read back as a comment line: a lost row."""
    manifest, covariates = make_workspace(tmp_path, n_frames=4)
    manifest.write_text(manifest.read_text().replace("\tframe1\t", "\t#b\t"))
    covariates.write_text(covariates.read_text().replace("heat", "#x"))
    out = tmp_path / "out"
    assert main([
        "run", "--manifest", str(manifest), "--covariates", str(covariates),
        "--grid", "2x2", "--iterations", "40", "--out", str(out),
    ]) == 0
    report = (out / "report.csv").read_text()
    assert '\n"#b",2001,' in report
    assert '\n"#x",' in report
    trend = next(ln for ln in report.splitlines() if ln.startswith("qe_trend,"))
    capsys.readouterr()
    assert main(["stats", "--qe", str(out / "report.csv")]) == 0
    fitted = capsys.readouterr().out.splitlines()[1].split(",")
    trend = trend.split(",")
    assert fitted[5] == trend[5] == "2"  # df = 4 rows - 2
    # the report's QE values are printed to 12 digits, so the refit is close
    assert [float(f) for f in fitted[1:3]] == pytest.approx(
        [float(f) for f in trend[1:3]], rel=1e-6
    )


@pytest.mark.parametrize("grid", ["0x4", "4x0"])
def test_a_grid_dimension_below_1_fails_before_a_frame_is_read(
    tmp_path, capsys, frame_loads, grid
):
    manifest, _ = make_workspace(tmp_path)
    argv = ["run", "--manifest", str(manifest), "--grid", grid, "--out", str(tmp_path / "o")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert_single_error_line(captured, "input")
    assert "grid dimensions must be positive" in captured.err
    assert frame_loads == []


@pytest.mark.parametrize("setting, key", [
    (("config", "out =\n"), "out"),
    (("--out", ""), "out"),
    (("--seed", "  "), "seed"),
], ids=["config-file-out", "flag-out", "flag-seed-blank"])
def test_an_empty_setting_value_exits_1_and_writes_nothing(
    tmp_path, capsys, monkeypatch, setting, key
):
    """An empty 'out' would be Path(''), the current directory."""
    manifest, _ = make_workspace(tmp_path)
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    argv = ["train", "--manifest", str(manifest), "--grid", "2x2", "--iterations", "40"]
    flag, value = setting
    if flag == "config":
        cfg = tmp_path / "run.cfg"
        cfg.write_text(value)
        argv += ["--config", str(cfg)]
    else:
        argv += [flag, value]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert_single_error_line(captured, "input")
    assert f"config key {key!r}: empty value" in captured.err
    assert captured.out == ""
    assert list(cwd.iterdir()) == []


@pytest.mark.parametrize("flag, value, message", [
    ("--seed", "x", "config key 'seed': unparseable value 'x'"),
    ("--grid", "4by4", "grid size must look like '4x4'"),
    ("--iterations", "many", "config key 'iterations': unparseable value 'many'"),
    ("--alpha", "fast", "config key 'alpha': unparseable value 'fast'"),
    ("--radius", "wide", "config key 'radius': unparseable value 'wide'"),
    ("--decay", "bogus", "decay_mode must be one of"),
    ("--mode", "bogus", "registration mode must be one of"),
    ("--year-fix", "bogus", "year_fix must be one of"),
], ids=["seed", "grid", "iterations", "alpha", "radius", "decay", "mode", "year-fix"])
def test_a_bad_flag_value_exits_1_with_one_error_line(tmp_path, capsys, flag, value, message):
    manifest, _ = make_workspace(tmp_path)
    out = tmp_path / "o"
    assert main(["run", "--manifest", str(manifest), flag, value, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert_single_error_line(captured, "input")
    assert message in captured.err
    assert not out.exists()


def test_every_name_the_bench_tracer_wraps_resolves(monkeypatch):
    """bench/traced.py counts a name it cannot find as missing and goes on, so
    a refactor that drops or renames one would blind a benchmark layer."""
    path = Path(__file__).resolve().parents[1] / "bench" / "traced.py"
    monkeypatch.setattr("sys.dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("somqe_bench_traced", path)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    modules = {"cli": cli_module, "pipeline": pipeline_module}
    missing = [
        f"{module}.{name}" for module, name, _ in traced.WRAPPED
        if not callable(getattr(modules[module], name, None))
    ]
    assert missing == []


# the config keys each subcommand has a flag for, besides --out, which all have
FLAG_KEYS = {
    "register": {"mode"},
    "train": {"seed", "grid", "iterations", "alpha", "radius", "decay"},
    "score": {"mode"},
    "stats": {"year_fix", "covariates"},
    "correlate": {"year_fix", "covariates"},
    "plot": {"year_fix", "covariates"},
    "run": set(CONFIG_KEYS) - {"normalize", "out"},
}


@pytest.mark.parametrize("key", sorted(set(CONFIG_KEYS) - {"normalize"}))
@pytest.mark.parametrize("command", list(FLAG_KEYS))
def test_a_subcommand_takes_only_the_keyed_flags_it_reads(capsys, command, key):
    """A flag that no code reads would otherwise be accepted and ignored."""
    flag = "--" + key.replace("_", "-")
    argv = [command, flag, "v"]
    if key == "out" or key in FLAG_KEYS[command]:
        assert vars(build_parser().parse_args(argv))[key] == "v"
    else:
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert_single_error_line(captured, "input")
        assert f"unrecognized arguments: {flag} v" in captured.err


def test_one_config_file_setting_every_key_serves_every_subcommand(tmp_path, capsys):
    manifest, covariates = make_workspace(tmp_path)
    out = tmp_path / "out"
    cfg = tmp_path / "all.cfg"
    cfg.write_text(
        "seed = 3\ngrid = 2x2\niterations = 40\nalpha = 0.3\nradius = 1\n"
        "decay = linear\nmode = none\nnormalize = off\nyear_fix = as-printed\n"
        f"out = {out}\ncovariates = {covariates}\n"
    )
    assert set(load_config_file(cfg)) == set(CONFIG_KEYS)
    qe = ["--qe", str(out / "qe.csv")]
    for argv in (
        ["register", "--manifest", str(manifest)],
        ["train", "--manifest", str(manifest)],
        ["score", "--manifest", str(manifest), "--grid-file", str(out / "grid.txt")],
        ["stats", *qe],
        ["correlate", *qe],
        ["plot", *qe],
    ):
        assert main(argv + ["--config", str(cfg)]) == 0, capsys.readouterr().err
    trained = (out / "grid.txt").read_bytes()
    scored = [l for l in (out / "qe.csv").read_text().splitlines() if l.startswith("frame")]
    assert main(["run", "--manifest", str(manifest), "--config", str(cfg)]) == 0
    report = (out / "report.csv").read_text()
    assert "# run: grid 2x2 seed 3 iterations 40 alpha 0.3 radius 1 decay linear " \
           "registration none normalize off\n" in report
    assert (out / "grid.txt").read_bytes() == trained
    assert scored == [l for l in report.splitlines() if l.startswith("frame")]
    stats = (out / "stats.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in stats[1:]] == ["frames", "heat"]
    assert (out / "correlations.csv").read_text().splitlines()[1].startswith("heat,")


@pytest.mark.parametrize("value", ["", "  "], ids=["empty", "blank"])
@pytest.mark.parametrize("command, flag", [
    ("run", "--manifest"),
    ("run", "--config"),
    ("stats", "--qe"),
    ("score", "--grid-file"),
    ("run", "--trace"),
])
def test_an_empty_file_flag_exits_1_and_writes_nothing(
    tmp_path, capsys, monkeypatch, command, flag, value
):
    """An empty path would be Path(''), the current directory."""
    manifest, _ = make_workspace(tmp_path)
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    out = tmp_path / "o"
    argv = [command, flag, value, "--out", str(out)]
    if flag != "--manifest" and command != "stats":
        argv += ["--manifest", str(manifest)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert_single_error_line(captured, "input")
    assert f"argument {flag}: empty value" in captured.err
    assert captured.out == ""
    assert not out.exists()
    assert list(cwd.iterdir()) == []


@pytest.mark.parametrize("command", ["train", "score"])
def test_train_and_score_refuse_an_out_file_before_loading_a_frame(
    tmp_path, capsys, one_cpu, frame_loads, command
):
    manifest, _ = make_workspace(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    argv = [command, "--manifest", str(manifest), "--out", str(taken)]
    if command == "score":
        grid = tmp_path / "grid.txt"
        save_grid(SomGrid(2, 2, np.full((4, 3), 0.5)), grid)
        argv += ["--grid-file", str(grid)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert_single_error_line(captured, "input")
    assert "File exists" in captured.err
    assert frame_loads == []
    assert taken.read_text() == "kept\n"


@pytest.mark.parametrize("target", ["out-is-a-file", "trace-in-a-missing-dir", "trace-is-a-dir"])
def test_run_refuses_a_bad_output_target_before_loading_a_frame(
    tmp_path, capsys, one_cpu, frame_loads, target
):
    manifest, _ = make_workspace(tmp_path)
    out = tmp_path / "o"
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    (tmp_path / "a-dir").mkdir()
    argv, message = {
        "out-is-a-file": (["--out", str(taken)], "File exists"),
        "trace-in-a-missing-dir": (
            ["--out", str(out), "--trace", str(tmp_path / "missing" / "t.jsonl")],
            "not a file in an existing directory",
        ),
        "trace-is-a-dir": (
            ["--out", str(out), "--trace", str(tmp_path / "a-dir")],
            "not a file in an existing directory",
        ),
    }[target]
    assert main(["run", "--manifest", str(manifest), *argv]) == 1
    captured = capsys.readouterr()
    assert_single_error_line(captured, "input")
    assert message in captured.err
    assert frame_loads == []
    assert not (out / "report.csv").exists()
    assert taken.read_text() == "kept\n"
    assert list((tmp_path / "a-dir").iterdir()) == []


@pytest.mark.parametrize("artifact", ["report.csv", "grid.txt", "transforms.txt", "plots"])
def test_run_refuses_an_artifact_path_of_the_other_kind_before_loading_a_frame(
    tmp_path, capsys, one_cpu, frame_loads, artifact
):
    manifest, _ = make_workspace(tmp_path)
    out = tmp_path / "o"
    out.mkdir()
    if artifact == "plots":
        (out / artifact).write_text("kept\n")
        message = "not a directory"
    else:
        (out / artifact).mkdir()
        message = "is a directory"
    assert main(["run", "--manifest", str(manifest), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert_single_error_line(captured, "input")
    assert captured.err.endswith(f": {out / artifact}: {message}\n")
    assert frame_loads == []
    assert sorted(p.name for p in out.iterdir()) == [artifact]


def test_run_writes_a_trace_inside_a_new_out(tmp_path, one_cpu):
    manifest, _ = make_workspace(tmp_path)
    out = tmp_path / "new"
    argv = ["run", "--manifest", str(manifest), "--out", str(out)]
    assert main([*argv, "--trace", str(out / "trace.jsonl")]) == 0
    assert len((out / "trace.jsonl").read_text().splitlines()) == 3 + 1
    assert (out / "report.csv").is_file()


@pytest.mark.parametrize("artifact", [
    "report.csv", "grid.txt", "transforms.txt", "plots", "plots/frames_qe_trend.svg",
    "sub/../report.csv",
    # the run's inputs, by their own path and by a symlink or a hard link
    "../frames.tsv", "../run.cfg", "../cov.csv", "../img_0.ppm", "symlink.ppm", "hardlink.ppm",
])
def test_run_refuses_a_trace_onto_an_artifact_before_loading_a_frame(
    tmp_path, capsys, one_cpu, frame_loads, artifact
):
    manifest, covariates = make_workspace(tmp_path)
    (tmp_path / "run.cfg").write_text("seed = 1\n")
    out = tmp_path / "o"
    (out / "sub").mkdir(parents=True)
    if artifact.startswith("plots/"):
        (out / "plots").mkdir()
    (out / "symlink.ppm").symlink_to(tmp_path / "img_1.ppm")
    os.link(tmp_path / "img_2.ppm", out / "hardlink.ppm")
    inputs = {path: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()}
    argv = ["run", "--manifest", str(manifest), "--out", str(out),
            "--config", str(tmp_path / "run.cfg"), "--covariates", str(covariates)]
    assert main([*argv, "--trace", str(out / artifact)]) == 1
    captured = capsys.readouterr()
    assert_single_error_line(captured, "input")
    assert f"--trace {out / artifact}: " in captured.err
    assert frame_loads == []
    assert not (out / "report.csv").exists()
    assert list((out / "plots").glob("*")) == []
    assert {path: path.read_bytes() for path in inputs} == inputs


def _somqe_limited(argv, cwd, timeout=60):
    """`somqe` in a subprocess limited to 2 GiB of address space and `timeout`
    seconds, so an input read without bound fails or times out instead of
    taking the machine's memory or hanging the suite."""
    src = str(Path(somqe.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "from somqe.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
@pytest.mark.parametrize("flag", ["--manifest", "--config", "--covariates"])
def test_an_endless_device_as_an_input_file_exits_1_at_once(tmp_path, flag):
    manifest, _ = make_workspace(tmp_path)
    argv = ["run", flag, "/dev/zero", "--out", str(tmp_path / "o")]
    if flag != "--manifest":
        argv += ["--manifest", str(manifest)]
    proc = _somqe_limited(argv, tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == "somqe: error: input: /dev/zero: not a regular file\n"
    assert not (tmp_path / "o" / "report.csv").exists()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
def test_a_fifo_as_the_anchor_frame_exits_1_at_once(tmp_path):
    """Opening a FIFO for reading would wait for a writer that never comes."""
    manifest, _ = make_workspace(tmp_path)
    anchor = tmp_path / "img_2.ppm"  # the manifest's last entry
    anchor.unlink()
    os.mkfifo(anchor)
    proc = _somqe_limited(["run", "--manifest", str(manifest), "--out", "o"], tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == (
        f"somqe: error: input: frame 2: {anchor}: not a regular file\n"
    )


def _missing(path):
    path.unlink()


def _truncated_png(path):
    # the PNG signature, then an IHDR chunk cut off 2 bytes into its 13
    path.write_bytes(b"\x89PNG\r\n\x1a\n\x00\x00\x00\x0dIHDR\x00\x00")


@pytest.mark.parametrize("index, spoil, reason", [
    (0, _missing, "No such file or directory"),
    (2, _truncated_png, "truncated payload: incomplete PNG chunk"),
])
def test_a_frame_error_names_the_frame_once_and_its_file_once(
    tmp_path, capsys, index, spoil, reason
):
    """Frame 0 fails in a frame worker, frame 2, the anchor, in this process."""
    manifest, _ = make_workspace(tmp_path)
    frame = tmp_path / f"img_{index}.ppm"
    spoil(frame)
    assert main(["run", "--manifest", str(manifest), "--out", str(tmp_path / "o")]) == 1
    captured = capsys.readouterr()
    assert_single_error_line(captured, "input")
    assert captured.err.startswith(f"somqe: error: input: frame {index}: ")
    assert captured.err.count("frame ") == 1
    assert captured.err.count(str(frame)) == 1
    assert reason in captured.err


def test_a_directory_as_an_input_file_exits_1(tmp_path, capsys):
    assert main(["run", "--manifest", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert_single_error_line(captured, "input")
    assert f"{tmp_path}: not a regular file" in captured.err


def test_a_grid_too_large_to_allocate_exits_2_at_once(tmp_path):
    """The map's initial picks are allocated before the first draw, so a grid
    of 10^10 models fails there instead of drawing for hours."""
    manifest, _ = make_workspace(tmp_path)
    argv = ["run", "--manifest", str(manifest), "--mode", "none",
            "--grid", "100000x100000", "--out", "o"]
    proc = _somqe_limited(argv, tmp_path, timeout=20)
    assert proc.returncode == 2, proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("somqe: error: computation: out of memory: ")


def test_running_out_of_memory_exits_2_with_one_line(tmp_path, capsys, monkeypatch):
    manifest, _ = make_workspace(tmp_path)

    def exhausted(*args):
        raise MemoryError("Unable to allocate 74.5 GiB for an array")

    monkeypatch.setattr(pipeline_module, "fit_som", exhausted)
    assert main(["run", "--manifest", str(manifest), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "somqe: error: computation: out of memory: Unable to allocate 74.5 GiB for an array\n"
    )
