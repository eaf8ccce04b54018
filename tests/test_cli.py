"""End-to-end command-line flows in temporary directories."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import somqe
import somqe.pipeline as pipeline_module
from somqe.cli import build_parser, main
from somqe.errors import RegistrationError
from somqe.pipeline import CONFIG_KEYS
from somqe.raster import RasterImage, save_image
from somqe.register import read_transform_sidecar

from conftest import sinusoid_sampler


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
        save_image(RasterImage.from_uint8(arr.astype(np.uint8)), path)
        lines.append(f"img_{k}.ppm\tframe{k}\t{2000 + k}")
    manifest = tmp_path / "frames.tsv"
    manifest.write_text("\n".join(lines) + "\n")
    covariates = tmp_path / "cov.csv"
    rows = "\n".join(f"{2000 + k},{10.0 + 2 * k}" for k in range(n_frames))
    covariates.write_text("year,heat\n" + rows + "\n")
    return manifest, covariates


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
    assert (out / "report.csv").is_file()
    assert (out / "grid.txt").is_file()
    assert (out / "transforms.txt").is_file()
    plots = sorted(p.name for p in (out / "plots").iterdir())
    assert plots == ["frames_qe_trend.svg", "frames_vs_heat.svg"]
    report = (out / "report.csv").read_text()
    assert report.startswith("# somqe-report v1\n# roi: frames\n")
    assert "# correlations: label,r,t,df,p" in report
    assert "\nheat," in report
    records = read_transform_sidecar(out / "transforms.txt")
    assert [r[0] for r in records] == [0, 1, 2]
    assert all(t.dx == 0.0 and t.dy == 0.0 for _, t, _ in records)


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
        save_image(RasterImage.from_uint8(pixels), tmp_path / f"img_{k}.ppm")
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
        "score", *common, "--grid-file", str(grid_file), "--out", str(score_out),
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
    """Only registration reads the anchor's pyramid, and train registers nothing."""
    manifest, _ = make_workspace(tmp_path)
    common = ["train", "--manifest", str(manifest), "--grid", "2x2", "--iterations", "40"]
    built = []
    real_pyramid = pipeline_module.reference_pyramid

    def counting_pyramid(frame):
        built.append(frame)
        return real_pyramid(frame)

    monkeypatch.setattr(pipeline_module, "reference_pyramid", counting_pyramid)
    for mode in ("translation", "none"):
        assert main(common + ["--mode", mode, "--out", str(tmp_path / mode)]) == 0
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


def test_score_without_out_prints_rows(tmp_path, capsys):
    manifest, _ = make_workspace(tmp_path)
    train_out = tmp_path / "trained"
    assert main([
        "train", "--manifest", str(manifest), "--grid", "2x2",
        "--iterations", "40", "--out", str(train_out),
    ]) == 0
    capsys.readouterr()
    assert main([
        "score", "--manifest", str(manifest), "--grid", "2x2",
        "--iterations", "40", "--grid-file", str(train_out / "grid.txt"),
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
