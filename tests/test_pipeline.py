"""Manifest/config plumbing and the end-to-end scoring run."""

import dataclasses
import multiprocessing
import os
import re
import tracemalloc
import warnings
import weakref
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import somqe.pipeline as pipeline_module
from somqe import (
    InputError,
    RegistrationTransform,
    Series,
    reference,
    resample,
    run_pipeline,
)
from somqe.errors import RegistrationError
from somqe.pipeline import (
    CONFIG_KEYS,
    FrameStage,
    Manifest,
    ManifestEntry,
    QeRow,
    RunConfig,
    apply_config_entries,
    apply_year_fix,
    correlate,
    emit_csv,
    emit_svg_plots,
    ingest_covariates,
    load_config_file,
    parse_grid_size,
    preprocessed_frames,
    read_manifest,
    read_qe_csv,
    report_csv_text,
    slugify,
)
from somqe.raster import RasterImage, load_image, normalize_contrast, save_image
from somqe.register import (
    luminance_pyramid,
    reference_pyramid,
    register_pair,
)
from somqe.som import SomGrid, TrainingParams, fit_som, load_grid, quantization_error

from conftest import random_image, smooth_image
from oracles import (
    broadcast_quantization_error,
    interleaved_luminance_pyramid,
    interleaved_normalize_contrast,
    interleaved_resample,
)


# ---------------------------------------------------------------------------
# synthetic frame sets

BASE_COLOR = (120, 130, 140)


def write_frames(tmp_path, arrays, years=None):
    """Save uint8 arrays as PPMs and return a matching manifest."""
    entries = []
    for i, arr in enumerate(arrays):
        path = tmp_path / f"frame_{i}.ppm"
        save_image(RasterImage(arr), path)
        year = 2000 + i if years is None else years[i]
        entries.append(ManifestEntry(path, f"y{year}", float(year)))
    return Manifest(tuple(entries), "synthetic", len(entries) - 1)


def growing_diversity_arrays(n_frames: int = 6, side: int = 16, per_step: int = 6):
    """Nested pixel switches: frame k replaces k*per_step base pixels.

    Positions and replacement colors are fixed across frames, so each later
    frame differs from the previous one only by newly switched pixels.
    """
    rng = np.random.default_rng(77)
    total = (n_frames - 1) * per_step
    flat = rng.choice(side * side, size=total, replace=False)
    colors = rng.integers(0, 256, size=(total, 3), dtype=np.uint8)
    assert all(tuple(c) != BASE_COLOR for c in colors)
    arrays = []
    for k in range(n_frames):
        arr = np.full((side, side, 3), BASE_COLOR, dtype=np.uint8)
        upto = k * per_step
        arr[flat[:upto] // side, flat[:upto] % side] = colors[:upto]
        arrays.append(arr)
    return arrays


# ---------------------------------------------------------------------------
# manifest

def test_read_manifest(tmp_path):
    for name in ("a.ppm", "b.ppm"):
        (tmp_path / name).touch()
    text = (
        "# frames for the demo run\n"
        "\n"
        "a.ppm\t1984\t1984\n"
        f"{tmp_path}/b.ppm\t1991a\t1991\n"
    )
    mpath = tmp_path / "roi_city.tsv"
    mpath.write_text(text)
    manifest = read_manifest(mpath)
    assert manifest.roi_name == "roi_city"
    assert manifest.anchor_index == 1
    assert manifest.entries[0].path == tmp_path / "a.ppm"
    assert manifest.entries[1].path == tmp_path / "b.ppm"
    assert manifest.entries[1].label == "1991a"
    assert list(manifest.years) == [1984.0, 1991.0]
    named = read_manifest(mpath, roi_name="city", anchor_index=0)
    assert named.roi_name == "city"
    assert named.anchor_index == 0


def test_read_manifest_errors(tmp_path):
    mpath = tmp_path / "m.tsv"

    mpath.write_text("a.ppm\tonly-two-fields\n")
    with pytest.raises(InputError, match="line 1"):
        read_manifest(mpath)

    mpath.write_text("a.ppm\tlabel\tnot-a-year\n")
    with pytest.raises(InputError, match="unparseable year"):
        read_manifest(mpath)

    for year in ("nan", "inf", "1e400"):
        mpath.write_text(f"a.ppm\tx\t1984\nb.ppm\ty\t{year}\n")
        with pytest.raises(InputError, match=f"line 2: unparseable year '{year}'"):
            read_manifest(mpath)

    mpath.write_text("a.ppm\tx\t1984\na.ppm\ty\t1985\n")
    with pytest.raises(InputError, match="duplicate path"):
        read_manifest(mpath)

    # one file by another spelling, or through a symlink, is the same frame
    (tmp_path / "a.ppm").write_bytes(b"")
    (tmp_path / "link.ppm").symlink_to(tmp_path / "a.ppm")
    for other in ("sub/../a.ppm", "./a.ppm", "link.ppm", str(tmp_path / "a.ppm")):
        mpath.write_text(f"b.ppm\tx\t2004\na.ppm\ty\t2008\n{other}\tz\t2006\n")
        with pytest.raises(InputError, match=f"^manifest line 3: duplicate path '{other}'$"):
            read_manifest(mpath)

    mpath.write_text("b.ppm\tx\t1984\na.ppm\t\t1990\n")
    with pytest.raises(InputError, match="^manifest line 2: empty path or label$"):
        read_manifest(mpath)

    mpath.write_text("# nothing\n")
    with pytest.raises(InputError, match="no frame entries"):
        read_manifest(mpath)

    mpath.write_text("a.ppm\tx\t1984\n")
    with pytest.raises(InputError, match="anchor index"):
        read_manifest(mpath, anchor_index=5)

    # a line break in the ROI name, from the file stem or given, would split
    # the '# roi:' line of every report written from it
    broken = tmp_path / "a\nb.tsv"
    broken.write_text("a.ppm\tx\t1984\n")
    for path, roi_name, shown in ((broken, None, "'a\\nb'"), (mpath, "a\rb", "'a\\rb'")):
        message = re.escape(f"manifest {path}: ROI name {shown} holds a line break")
        with pytest.raises(InputError, match=f"^{message}$"):
            read_manifest(path, roi_name=roi_name)


# ---------------------------------------------------------------------------
# configuration

def test_config_file_and_overrides(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "# comment\n"
        "seed = 9\n"
        "grid = 3x5\n"
        "alpha = 0,25\n"
        "mode = rigid\n"
        "normalize = off\n"
    )
    config = apply_config_entries(RunConfig(), load_config_file(cfg_path))
    assert config.seed == 9
    assert (config.grid_width, config.grid_height) == (3, 5)
    assert config.learning_rate == 0.25
    assert config.registration_mode == "rigid"
    assert config.normalize is False
    # later entries win, mirroring CLI-flag-over-file precedence
    config = apply_config_entries(config, {"seed": "11", "out": "elsewhere"})
    assert config.seed == 11
    assert str(config.out_dir) == "elsewhere"
    assert config.registration_mode == "rigid"


def test_config_file_rejects_a_key_set_twice(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("seed = 1\n\n# again\nseed = 2\n")
    with pytest.raises(InputError, match=r"^config line 4: key 'seed' already set on line 1$"):
        load_config_file(cfg_path)


def test_config_rejects_unknown_and_bad_values(tmp_path):
    with pytest.raises(InputError, match="unknown config key"):
        apply_config_entries(RunConfig(), {"gird": "4x4"})
    for key, value in (("seed", "soon"), ("seed", "1_0"), ("seed", "+3"),
                       ("iterations", "\u0661\u0660\u0660")):
        with pytest.raises(InputError, match=f"^config key '{key}': unparseable value"):
            apply_config_entries(RunConfig(), {key: value})
    with pytest.raises(InputError, match="'normalize'"):
        apply_config_entries(RunConfig(), {"normalize": "maybe"})
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("seed 9\n")
    with pytest.raises(InputError, match="expected 'key = value'"):
        load_config_file(cfg_path)


def test_config_keys_set_every_run_config_field_once():
    set_by_keys = []
    for field, _, _ in CONFIG_KEYS.values():
        set_by_keys.extend(field if isinstance(field, tuple) else [field])
    assert sorted(set_by_keys) == sorted(f.name for f in dataclasses.fields(RunConfig))


@pytest.mark.parametrize("key", ["alpha", "radius"])
@pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
def test_config_rejects_non_finite_numbers(key, value):
    with pytest.raises(InputError, match=f"config key '{key}': unparseable value"):
        apply_config_entries(RunConfig(), {key: value})


def test_run_config_checks_its_training_params_too():
    with pytest.raises(InputError, match="seed must lie in"):
        RunConfig(seed=2**64)
    assert isinstance(RunConfig(), TrainingParams)


def test_parse_grid_size():
    assert parse_grid_size("4x4") == (4, 4)
    assert parse_grid_size(" 12x3 ") == (12, 3)
    for bad in ("4 x 4", "4by4", "x4", "4x", "-2x3", "\u0662x\u0662", "4x1_0", "+4x4"):
        with pytest.raises(InputError):
            parse_grid_size(bad)


def test_run_config_validation():
    with pytest.raises(InputError):
        RunConfig(registration_mode="affine")
    with pytest.raises(InputError):
        RunConfig(year_fix="guess")
    with pytest.raises(InputError):
        RunConfig(decay_mode="exponential")
    with pytest.raises(InputError):
        RunConfig(learning_rate=1.5)


# ---------------------------------------------------------------------------
# covariates

def test_ingest_covariates_comma(tmp_path):
    path = tmp_path / "cov.csv"
    path.write_text("# source table\nyear,visitors,population\n1984,12.8,191\n1985,14.2,203\n")
    series = ingest_covariates(path)
    assert [s.label for s in series] == ["visitors", "population"]
    assert list(series[0].x) == [1984.0, 1985.0]
    assert list(series[0].y) == [12.8, 14.2]
    assert list(series[1].y) == [191.0, 203.0]


def test_ingest_covariates_semicolon_decimal_commas(tmp_path):
    path = tmp_path / "cov.csv"
    path.write_text("year;visitors\n1984;12,8\n1985;14,2\n")
    (series,) = ingest_covariates(path)
    assert list(series.y) == [12.8, 14.2]


def test_ingest_covariates_tab(tmp_path):
    path = tmp_path / "cov.tsv"
    path.write_text("year\tv\n1984\t1,5\n")
    (series,) = ingest_covariates(path)
    assert series.y[0] == 1.5


def test_ingest_covariates_duplicate_year_keeps_both(tmp_path):
    path = tmp_path / "cov.csv"
    path.write_text("year,v\n1991,1\n1991,2\n")
    (series,) = ingest_covariates(path)
    assert list(series.x) == [1991.0, 1991.0]
    assert list(series.y) == [1.0, 2.0]


def test_ingest_covariates_quoted_header_cell_spans_a_comment_line(tmp_path):
    """Comment lines drop out before the CSV reader, so a quoted cell runs on
    across one to its next kept line."""
    path = tmp_path / "cov.csv"
    path.write_text('year,"a\n# between\nb"\n1984,1\n1985,2\n')
    (series,) = ingest_covariates(path)
    assert series.label == "a\nb"
    assert list(series.x) == [1984.0, 1985.0]
    assert list(series.y) == [1.0, 2.0]


def test_ingest_covariates_strips_each_line_before_the_csv_reader(tmp_path):
    """A line is stripped as every text input's lines are, so a quoted cell's
    continuation line loses its leading blanks."""
    path = tmp_path / "cov.csv"
    path.write_text('year,"a\n   b"\n  1984,1  \n1985,2\n')
    (series,) = ingest_covariates(path)
    assert series.label == "a\nb"
    assert list(series.x) == [1984.0, 1985.0]
    assert list(series.y) == [1.0, 2.0]


def test_ingest_covariates_header_only_gives_empty_series(tmp_path):
    path = tmp_path / "cov.csv"
    path.write_text("# no rows yet\nyear,visitors,population\n")
    series = ingest_covariates(path)
    assert [s.label for s in series] == ["visitors", "population"]
    for s in series:
        assert s.x.shape == s.y.shape == (0,)
        assert s.x.dtype == s.y.dtype == np.float64


def test_ingest_covariates_errors(tmp_path):
    path = tmp_path / "cov.csv"

    path.write_text("époque,v\n1984,1\n")
    with pytest.raises(InputError, match="first column must be 'year'"):
        ingest_covariates(path)

    path.write_text("year,v\n1984,1,9\n")
    with pytest.raises(InputError, match="line 2: expected 2 fields, got 3"):
        ingest_covariates(path)

    path.write_text("year,v\n1984,twelve\n")
    with pytest.raises(InputError, match="line 2, column 2: 'twelve'"):
        ingest_covariates(path)

    path.write_text("year;v\n2000;1_5\n")  # float() alone would read 15
    with pytest.raises(InputError, match="line 2, column 2: '1_5'"):
        ingest_covariates(path)

    path.write_text("# visitors\n\n  # none yet\n")
    with pytest.raises(InputError, match=f"^covariate file {re.escape(str(path))}: no data$"):
        ingest_covariates(path)


def test_ingest_covariates_oversized_field_names_its_line(tmp_path):
    path = tmp_path / "cov.csv"
    path.write_text("# visitors\nyear,v\n\n1984,1\n1985," + "9" * 200_000 + "\n")
    with pytest.raises(InputError, match=r"cov\.csv, line 5: field larger"):
        ingest_covariates(path)


def test_ingest_covariates_errors_name_the_file_line(tmp_path):
    """Comment and blank lines count: the bad row is on line 5, data row 3."""
    path = tmp_path / "cov.csv"
    path.write_text("# visitors\n\nyear,v\n1984,1\n1985,1,9\n")
    with pytest.raises(InputError, match=r"cov\.csv, line 5: expected 2 fields"):
        ingest_covariates(path)
    path.write_text("# visitors\n\nyear,v\n1984,1\n1985,twelve\n")
    with pytest.raises(InputError, match="line 5, column 2: 'twelve'"):
        ingest_covariates(path)
    for cell in ("nan", "-inf", "1e400"):
        path.write_text(f"# visitors\n\nyear,v\n1984,1\n1985,{cell}\n")
        with pytest.raises(InputError, match=f"line 5, column 2: '{cell}'"):
            ingest_covariates(path)


def test_apply_year_fix():
    series = Series("s", np.array([1989.0, 1991.0, 1991.0, 1992.0]), np.arange(4.0))
    fixed = apply_year_fix(series, "relabel-1990")
    assert list(fixed.x) == [1989.0, 1990.0, 1991.0, 1992.0]
    assert list(fixed.y) == list(series.y)
    assert apply_year_fix(series, "as-printed") is series
    # a second adjacent duplicate pair is refused, not left for a second fix
    tail_dup = Series("s", np.array([1.0, 1.0, 5.0, 5.0]), np.arange(4.0))
    with pytest.raises(InputError) as info:
        apply_year_fix(tail_dup, "relabel-1990")
    assert str(info.value) == "year fix relabel-1990: year 5 is also duplicated"
    with pytest.raises(InputError):
        apply_year_fix(series, "fix")


def test_apply_year_fix_to_a_series_listed_newest_first():
    """The newer of the two 1991 frames keeps its year, so the trend fit
    does not swap the older frame's value into 1991."""
    series = Series("s", np.array([1992.0, 1991.0, 1991.0, 1989.0]), np.arange(4.0))
    fixed = apply_year_fix(series, "relabel-1990")
    assert list(fixed.x) == [1992.0, 1991.0, 1990.0, 1989.0]
    assert list(fixed.y) == list(series.y)
    assert apply_year_fix(series, "as-printed") is series
    tail_dup = Series("s", np.array([5.0, 5.0, 1.0, 1.0]), np.arange(4.0))
    with pytest.raises(InputError) as info:
        apply_year_fix(tail_dup, "relabel-1990")
    assert str(info.value) == "year fix relabel-1990: year 5 is also duplicated"


# each case is also run listed newest first, as the bench's stacks are
_REFUSED = [
    ([1990.0, 1991.0, 1991.0], "1990"),
    ([1990.0, 1991.0, 1991.0, 1992.0], "1990"),
    ([1990.0, 1984.0, 1991.0, 1991.0], "1990"),
    ([1988.0, 1989.0, 1989.0, 1991.0, 1991.0], "1988"),
    ([1990.5, 1991.5, 1991.5], "1990.5"),
]


@pytest.mark.parametrize("years,taken", _REFUSED + [(y[::-1], t) for y, t in _REFUSED])
def test_relabel_refuses_to_create_a_duplicate_year(years, taken):
    series = Series("s", np.array(years), np.arange(float(len(years))))
    with pytest.raises(InputError) as info:
        apply_year_fix(series, "relabel-1990")
    assert str(info.value) == f"year fix relabel-1990: year {taken} already present"


_FIXED_ONCE = [
    [1989.0, 1991.0, 1991.0, 1992.0],
    [1984.0, 1985.0, 1986.0],
    [1991.0, 1991.0],
    [2000.0],
]


@pytest.mark.parametrize("years", _FIXED_ONCE + [y[::-1] for y in _FIXED_ONCE])
def test_relabel_twice_changes_nothing_the_second_time(years):
    once = apply_year_fix(
        Series("s", np.array(years), np.arange(float(len(years)))), "relabel-1990"
    )
    twice = apply_year_fix(once, "relabel-1990")
    assert twice.x.tobytes() == once.x.tobytes()
    assert twice.y.tobytes() == once.y.tobytes()
    assert len(set(once.x)) == len(years)


# ---------------------------------------------------------------------------
# bundled reference series

def test_reference_series_shapes_and_endpoints():
    qe = reference.load_qe_series()
    demo = reference.load_demographics()
    assert set(qe) == {reference.CITY, reference.NORTH}
    assert set(demo) == {reference.VISITORS, reference.POPULATION}
    for s in (*qe.values(), *demo.values()):
        assert s.n == 25
        assert s.x[0] == 1984.0
        assert s.x[-1] == 2008.0
        # the published tables skip 1990 and list 1991 twice
        assert np.count_nonzero(s.x == 1991.0) == 2
        assert not np.any(s.x == 1990.0)
    assert qe[reference.CITY].y[0] == 0.240437503
    assert qe[reference.CITY].y[-1] == 0.314321877
    assert qe[reference.NORTH].y[0] == 0.151226618
    assert qe[reference.NORTH].y[-1] == 0.261825498
    assert demo[reference.VISITORS].y[0] == 12.8
    assert demo[reference.VISITORS].y[-1] == 39.5
    assert demo[reference.POPULATION].y[-1] == 608.0


def test_reference_series_relabeled_years_are_consecutive():
    qe = reference.load_qe_series(year_fix="relabel-1990")
    years = qe[reference.CITY].x
    assert list(years) == list(np.arange(1984.0, 2009.0))


# ---------------------------------------------------------------------------
# pipeline runs

def test_run_pipeline_constant_frames_degenerate(tmp_path):
    arr = np.full((8, 8, 3), 90, dtype=np.uint8)
    manifest = write_frames(tmp_path, [arr.copy() for _ in range(3)])
    config = RunConfig(
        grid_width=2, grid_height=2, iterations=20,
        registration_mode="none", normalize=False,
    )
    report = run_pipeline(manifest, config)
    assert all(row.qe == 0.0 for row in report.rows)
    assert report.regression.degenerate
    assert report.regression.p == 1.0
    assert len(report.frames) == 3
    assert all(f.transform.dx == 0.0 and f.transform.dy == 0.0 for f in report.frames)
    (trend,) = emit_svg_plots(report, tmp_path / "plots")
    svg = trend.read_text()
    assert "degenerate fit: constant values" in svg
    assert 'stroke="#b03030"' not in svg  # the fit line's colour: no line is drawn


def test_run_pipeline_growing_diversity(tmp_path):
    arrays = growing_diversity_arrays()
    manifest = write_frames(tmp_path, arrays)
    manifest = Manifest(manifest.entries, manifest.roi_name, anchor_index=0)
    config = RunConfig(
        grid_width=2, grid_height=2, iterations=50,
        registration_mode="none", normalize=False, seed=3,
    )
    report = run_pipeline(manifest, config)
    qes = [row.qe for row in report.rows]
    # anchor frame is a single flat color, so the trained models all sit on
    # it and every switched pixel adds a strictly positive error
    assert qes[0] == 0.0
    assert all(b > a for a, b in zip(qes, qes[1:]))
    assert report.regression.slope > 0
    assert report.regression.p < 0.01
    assert [row.year for row in report.rows] == [2000.0 + i for i in range(6)]


def test_run_pipeline_rejects_mismatched_frame_sizes(tmp_path):
    arrays = [
        np.zeros((8, 8, 3), dtype=np.uint8),
        np.zeros((8, 9, 3), dtype=np.uint8),
        np.zeros((8, 8, 3), dtype=np.uint8),
    ]
    manifest = write_frames(tmp_path, arrays)
    with pytest.raises(InputError, match="^frame 1: size mismatch: 9x8, reference 8x8$"):
        run_pipeline(manifest, RunConfig(registration_mode="none"))


def test_run_pipeline_missing_frame_file(tmp_path):
    entries = tuple(
        ManifestEntry(tmp_path / f"absent_{i}.ppm", f"a{i}", 2000.0 + i) for i in range(3)
    )
    manifest = Manifest(entries, "x", 0)
    with pytest.raises(InputError, match="frame 0"):
        run_pipeline(manifest, RunConfig())


def test_preprocessing_is_noop_on_aligned_normalized_frames(tmp_path):
    """Alignment and contrast stretch must leave already-clean frames alone.

    The frames are integer-valued, span the full 0..255 range per channel,
    and differ from the anchor only by a few +-2 nudges, so the correct
    registration is exactly zero and the stretch is an exact identity.
    """
    rng = np.random.default_rng(42)
    side = 64
    base = rng.integers(20, 236, size=(side, side, 3))
    base[0, 0] = (0, 0, 0)
    base[0, 1] = (255, 255, 255)
    arrays = []
    for k in range(4):
        arr = base.copy()
        if k:
            ys = rng.integers(2, side, size=8)
            xs = rng.integers(2, side, size=8)
            arr[ys, xs, 0] = np.clip(arr[ys, xs, 0] + 2, 20, 235)
            arr[ys, xs, 1] = np.clip(arr[ys, xs, 1] - 1, 20, 235)
        arrays.append(arr.astype(np.uint8))
    manifest = write_frames(tmp_path, arrays)
    kwargs = dict(grid_width=2, grid_height=2, iterations=40, seed=1)
    processed = run_pipeline(
        manifest,
        RunConfig(registration_mode="translation", normalize=True, **kwargs),
    )
    raw = run_pipeline(
        manifest,
        RunConfig(registration_mode="none", normalize=False, **kwargs),
    )
    assert all(f.transform.dx == 0.0 and f.transform.dy == 0.0 for f in processed.frames)
    for a, b in zip(processed.rows, raw.rows):
        assert a.qe == b.qe
        assert a.empty_models == b.empty_models


def as_uint8(image: RasterImage) -> np.ndarray:
    return np.round(image.pixels).astype(np.uint8)


def keep_frame(i, frame, timed):
    """A stage tail that hands the preprocessed frame back."""
    return frame


def stage_items(manifest, config):
    """(index, transform, residual, frame) of every staged frame, in stack order."""
    return [
        (s.index, s.transform, s.residual, s.result)
        for s in preprocessed_frames(manifest, config, keep_frame)
    ]


def test_preprocessed_frames_yields_last_frame_anchor_first(tmp_path, two_cpus):
    anchor = smooth_image(8, size=64)
    frame0 = resample(anchor, RegistrationTransform("translation", 1.0, 0.0))
    frame1 = resample(anchor, RegistrationTransform("translation", 0.0, -2.0))
    manifest = write_frames(tmp_path, [as_uint8(f) for f in (frame0, frame1, anchor)])
    anchor = load_image(manifest.entries[2].path)
    items = stage_items(manifest, RunConfig(normalize=False))
    assert [i for i, _, _, _ in items] == [2, 0, 1]
    _, t_anchor, _, img_anchor = items[0]
    assert t_anchor.dx == 0.0 and t_anchor.dy == 0.0
    assert np.array_equal(img_anchor.pixels, anchor.pixels)
    levels = reference_pyramid(anchor.luminance())
    for (i, t, residual, moved), true_dx, true_dy in zip(
        items[1:], (-1.0, 0.0), (0.0, 2.0)
    ):
        assert t.dx == pytest.approx(true_dx, abs=0.05)
        assert t.dy == pytest.approx(true_dy, abs=0.05)
        assert residual < 1.0
        frame = load_image(manifest.entries[i].path)
        assert (t, residual) == register_pair(levels, frame, "translation")
        assert np.array_equal(moved.pixels, resample(frame, t).pixels)


def test_preprocessed_frames_builds_the_anchor_pyramid_once(tmp_path, monkeypatch, one_cpu):
    import somqe.register as register_module

    anchor = smooth_image(5, size=128)
    arrays = [
        as_uint8(resample(anchor, RegistrationTransform("translation", dx, dy)))
        for dx, dy in ((1.0, 0.5), (-0.75, 2.0), (0.0, -1.25))
    ] + [as_uint8(anchor)]
    manifest = write_frames(tmp_path, arrays)
    frames = [load_image(e.path) for e in manifest.entries]
    anchor = frames[3]
    halved = []
    real_halve = register_module._halve

    def counting_halve(a):
        halved.append(a)
        return real_halve(a)

    constructed = []
    real_hold = RasterImage._hold

    def counting_hold(image, planes):
        constructed.append(image)
        real_hold(image, planes)

    monkeypatch.setattr(register_module, "_halve", counting_halve)
    monkeypatch.setattr(RasterImage, "_hold", counting_hold)
    items = sorted(stage_items(manifest, RunConfig()), key=lambda item: item[0])
    assert sum(np.array_equal(a, anchor.luminance()) for a in halved) == 1
    # 128 -> 64 -> 32: two halvings per pyramid, one pyramid per frame
    assert len(halved) == 2 * len(frames)
    # 4 loads, 3 resamples and 4 stretches; pyramid levels are plain planes
    assert len(constructed) == 11
    monkeypatch.undo()
    levels = reference_pyramid(anchor.luminance())
    for frame, (_, transform, residual, _) in zip(frames[:3], items):
        assert (transform, residual) == register_pair(levels, frame, "translation")


def test_the_anchor_luminance_is_computed_once(tmp_path, monkeypatch, one_cpu):
    """One luminance plane of the anchor feeds its float32 reference; each
    other frame takes one, for its pyramid, whose finest level's cost is its
    residual, or in mode 'none' for its residual alone."""
    import somqe.raster as raster_module

    anchor = smooth_image(4, size=64)
    arrays = [
        as_uint8(resample(anchor, RegistrationTransform("translation", dx, -dx)))
        for dx in (0.5, 1.25)
    ] + [as_uint8(anchor)]
    manifest = write_frames(tmp_path, arrays)
    computed = []

    class CountedWeights(tuple):
        # every luminance plane reads the Rec. 601 weights once
        def __iter__(self):
            computed.append(1)
            return super().__iter__()

    monkeypatch.setattr(raster_module, "_LUMA", CountedWeights(raster_module._LUMA))
    for mode in ("translation", "none"):
        computed.clear()
        staged = preprocessed_frames(manifest, RunConfig(registration_mode=mode), keep_frame)
        assert next(staged).index == 2
        assert len(computed) == 1
        assert [s.index for s in staged] == [0, 1]
        assert len(computed) == 1 + 2 * 1


def test_a_lone_frame_builds_no_residual_reference(tmp_path):
    """With mode 'none' only another frame's residual reads the reference."""
    manifest = write_frames(tmp_path, [as_uint8(smooth_image(9, size=32))])
    stage = FrameStage(manifest, RunConfig(registration_mode="none"), keep_frame)
    assert stage(0).residual == 0.0
    assert stage.reference is None and stage.levels is None


@pytest.mark.parametrize("mode", ["translation", "rigid", "none"])
def test_past_the_anchor_the_stage_holds_no_float64_plane(tmp_path, mode):
    """The stage keeps the anchor's float32 reference: its pyramid's levels,
    whose finest plane is the anchor's luminance, or in mode 'none' that
    float32 luminance plane alone."""
    anchor = smooth_image(9, size=64)
    manifest = write_frames(tmp_path, [as_uint8(anchor)] * 2)
    stage = FrameStage(manifest, RunConfig(registration_mode=mode), keep_frame)
    stage(manifest.anchor_index)

    def arrays(value):
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, (tuple, list)):
            for item in value:
                yield from arrays(item)

    held = list(arrays(list(vars(stage).values())))
    assert held and all(a.dtype != np.float64 for a in held)
    reference = stage.reference if mode == "none" else stage.levels[0].plane
    assert reference.dtype == np.float32
    luminance = load_image(manifest.entries[1].path).luminance()
    assert np.array_equal(reference, luminance.astype(np.float32))


@pytest.mark.parametrize("mode, builds", [("translation", 1), ("rigid", 1), ("none", 0)])
def test_preprocessed_frames_builds_the_reference_gradients_once(
    tmp_path, monkeypatch, one_cpu, mode, builds
):
    anchor = smooth_image(6, size=64)
    arrays = [
        as_uint8(resample(anchor, RegistrationTransform("translation", dx, dy)))
        for dx, dy in ((1.0, 0.5), (-0.75, 2.0), (0.0, -1.25))
    ] + [as_uint8(anchor)]
    manifest = write_frames(tmp_path, arrays)
    built, gradients = [], []
    real_gradient = np.gradient

    def counting_pyramid(luminance):
        built.append(luminance)
        return reference_pyramid(luminance)

    def counting_gradient(plane):
        gradients.append(plane.shape)
        return real_gradient(plane)

    monkeypatch.setattr(pipeline_module, "reference_pyramid", counting_pyramid)
    monkeypatch.setattr(np, "gradient", counting_gradient)
    items = stage_items(manifest, RunConfig(registration_mode=mode))
    assert len(items) == 4
    assert len(built) == builds
    # one gradient per anchor level (64 and 32 px), none per pair
    assert gradients == [(64, 64), (32, 32)] * builds


@pytest.mark.parametrize("mode", ["translation", "none"])
def test_the_anchor_is_not_compared_with_itself(tmp_path, monkeypatch, one_cpu, mode):
    anchor = smooth_image(7, size=64)
    arrays = [
        as_uint8(resample(anchor, RegistrationTransform("translation", dx, -dx)))
        for dx in (0.5, 1.25)
    ] + [as_uint8(anchor)]
    manifest = write_frames(tmp_path, arrays)
    compared, registered = [], []
    real_residual = pipeline_module.mean_square_residual
    real_register = pipeline_module.register_pair

    def counting_residual(reference, frame):
        compared.append(real_residual(reference, frame))
        return compared[-1]

    def counting_register(levels, frame, mode):
        registered.append(real_register(levels, frame, mode))
        return registered[-1]

    monkeypatch.setattr(pipeline_module, "mean_square_residual", counting_residual)
    monkeypatch.setattr(pipeline_module, "register_pair", counting_register)
    staged = list(preprocessed_frames(manifest, RunConfig(registration_mode=mode), keep_frame))
    assert [s.index for s in staged] == [2, 0, 1]
    assert staged[0].residual == 0.0
    assert "residual_s" not in staged[0].record
    # one comparison per other frame: mode 'none''s residual, or the solver's
    # cost at the transform it returned
    if mode == "none":
        assert registered == [] and compared == [s.residual for s in staged[1:]]
        assert all(s.transform == RegistrationTransform("none") for s in staged)
    else:
        assert compared == [] and registered == [(s.transform, s.residual) for s in staged[1:]]
    assert all(s.residual > 0.0 for s in staged[1:])
    assert all(("residual_s" in s.record) == (mode == "none") for s in staged[1:])


@pytest.mark.parametrize("height, width", [(1, 40), (40, 1)])
@pytest.mark.parametrize("n_frames", [1, 2])
def test_preprocessed_frames_rejects_frames_too_thin_to_register(
    tmp_path, height, width, n_frames
):
    arrays = [as_uint8(random_image(i, height, width)) for i in range(n_frames)]
    manifest = write_frames(tmp_path, arrays)
    # the anchor, the last frame, is refused as it builds its pyramid
    anchor = n_frames - 1
    with pytest.raises(
        InputError, match=f"^frame {anchor}: cannot register {width}x{height} frames"
    ):
        stage_items(manifest, RunConfig())
    items = stage_items(manifest, RunConfig(registration_mode="none"))
    assert len(items) == n_frames


def test_preprocessed_frames_rejects_empty_and_mismatched(tmp_path):
    with pytest.raises(InputError, match="empty image stack"):
        next(preprocessed_frames(Manifest((), "empty", 0), RunConfig(), keep_frame))
    manifest = write_frames(
        tmp_path, [as_uint8(random_image(0, 8, 8)), as_uint8(random_image(1, 9, 8))]
    )
    with pytest.raises(InputError, match="^frame 0: size mismatch: 8x8, reference 8x9$"):
        stage_items(manifest, RunConfig())


@pytest.mark.parametrize("n_frames, anchor", [(1, 3), (4, -1)])
def test_run_pipeline_rejects_an_anchor_outside_the_stack(tmp_path, n_frames, anchor):
    arrays = [as_uint8(random_image(i, 8, 8)) for i in range(n_frames)]
    entries = write_frames(tmp_path, arrays).entries
    with pytest.raises(
        InputError, match=rf"^anchor index {anchor} outside 0\.\.{n_frames - 1}$"
    ):
        manifest = Manifest(entries, "synthetic", anchor)
        run_pipeline(manifest, RunConfig(registration_mode="none"))


def test_preprocessed_frames_tags_failing_frame_index(tmp_path, monkeypatch, two_cpus):
    def always_fails(reference_levels, test, mode="translation"):
        raise RegistrationError("did not converge", transform=None, residual=9.9)

    monkeypatch.setattr(pipeline_module, "register_pair", always_fails)
    manifest = write_frames(tmp_path, [as_uint8(random_image(i, 8, 8)) for i in range(3)])
    with pytest.raises(RegistrationError) as info:
        stage_items(manifest, RunConfig())
    assert info.value.index == 0
    assert info.value.residual == 9.9


# each spoils frame 1 of a stack and returns the stage tail to run it with

def _unreadable(path, monkeypatch):
    path.write_bytes(b"P6\n")
    return keep_frame


def _resized(path, monkeypatch):
    save_image(RasterImage(as_uint8(smooth_image(3, size=64))[:, :63]), path)
    return keep_frame


def _unregistered(path, monkeypatch):
    save_image(RasterImage(255 - as_uint8(smooth_image(3, size=64))), path)

    def fails_unless_equal(levels, frame, mode):
        if not np.array_equal(frame.luminance().astype(np.float32), levels[0].plane):
            raise RegistrationError("did not converge", transform=None, residual=9.9)
        return register_pair(levels, frame, mode)

    monkeypatch.setattr(pipeline_module, "register_pair", fails_unless_equal)
    return keep_frame


def _unwritable(path, monkeypatch):
    def tail(i, frame, timed):
        if i == 1:
            raise PermissionError(13, "Permission denied", str(path))
        return frame

    return tail


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("spoil, mode, kind", [
    (_unreadable, "translation", InputError),
    (_resized, "none", InputError),
    (_resized, "translation", InputError),
    (_unregistered, "translation", RegistrationError),
    (_unwritable, "translation", InputError),
], ids=["load", "size-none", "size-registered", "registration", "tail"])
def test_a_failing_frame_is_named_once(tmp_path, monkeypatch, cpus, spoil, mode, kind):
    """A failure while staging frame 1 reads 'frame 1: ...' once, in this
    process or in a frame worker; a RegistrationError keeps its residual."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    manifest = write_frames(tmp_path, [as_uint8(smooth_image(3, size=64))] * 3)
    tail = spoil(manifest.entries[1].path, monkeypatch)
    with pytest.raises(kind) as info:
        list(preprocessed_frames(manifest, RunConfig(registration_mode=mode), tail))
    message = str(info.value)
    assert type(info.value) is kind
    assert message.startswith("frame 1: ")
    assert len(re.findall(r"frame \d+: ", message)) == 1, message
    if kind is RegistrationError:
        assert (info.value.index, info.value.residual) == (1, 9.9)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("mode", ["none", "translation"])
def test_run_pipeline_peak_memory_does_not_grow_with_stack_length(tmp_path, mode, one_cpu):
    """Frames stream through the run, so a longer stack holds no more of them."""
    frame = as_uint8(smooth_image(3, size=96))
    config = RunConfig(
        grid_width=2, grid_height=2, iterations=20, registration_mode=mode
    )
    manifests = []
    for n in (4, 12):
        (tmp_path / str(n)).mkdir()
        manifests.append(write_frames(tmp_path / str(n), [frame] * n))
    run_pipeline(manifests[0], config)  # one-time allocations stay out of the peaks
    peaks = []
    for manifest in manifests:
        tracemalloc.start()
        try:
            run_pipeline(manifest, config)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < frame.size * np.dtype(np.float64).itemsize


@pytest.mark.parametrize("mode, frames", [("translation", 6), ("rigid", 10), ("none", 4)])
def test_frame_stage_holds_one_frames_working_set(tmp_path, mode, frames):
    """A worker's peak is one stage call: a few float64 frames, whatever the stack.

    The bound, in float64 frames, is what loading, registering, resampling,
    stretching and scoring one 96 px frame allocates at most."""
    base = smooth_image(3, size=96)
    arrays = [
        as_uint8(resample(base, RegistrationTransform("rigid", dx, 0.25, theta)))
        for dx, theta in ((1.5, 0.01), (-0.5, -0.005))
    ] + [as_uint8(base)]
    manifest = write_frames(tmp_path, arrays)
    config = RunConfig(registration_mode=mode)
    grid = fit_som(base, 2, 2, RunConfig(iterations=20))
    stage = FrameStage(
        manifest, config,
        lambda i, frame, timed: quantization_error(frame, grid).qe,
    )
    stage(2)  # the anchor's reference, and one-time allocations, stay out of the peak
    stage(0)
    tracemalloc.start()
    try:
        stage(1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < frames * base.pixels.nbytes


def test_a_stage_call_after_the_first_faults_in_no_frame_sized_buffer(tmp_path):
    """With freed buffers kept in the heap, a frame reuses the pages the one
    before it faulted in, so it faults fewer pages than one float64 plane."""
    if not pipeline_module.keep_freed_buffers():
        pytest.skip("no glibc mallopt: malloc's thresholds cannot be set here")
    base = smooth_image(3, size=256)
    arrays = [
        as_uint8(resample(base, RegistrationTransform("translation", dx, dy)))
        for dx, dy in ((1.5, -0.75), (-2.25, 1.0))
    ] + [as_uint8(base)]
    manifest = write_frames(tmp_path, arrays)
    grid = fit_som(base, 2, 2, RunConfig(iterations=20))
    stage = FrameStage(
        manifest, RunConfig(),
        lambda i, frame, timed: quantization_error(frame, grid).qe,
    )
    stage(2)
    stage(0)
    second = stage(1)
    assert second.record["minflt"] < base.pixel_count * np.dtype(np.float64).itemsize // 4096


@st.composite
def frames(draw):
    """A frame of 8-bit or fractional samples, maybe with a constant channel."""
    height, width = draw(st.integers(1, 70)), draw(st.integers(1, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        pixels = rng.integers(0, 256, (height, width, 3), dtype=np.uint8)
    else:
        pixels = rng.uniform(0.0, 255.0, (height, width, 3))
    if draw(st.booleans()):
        pixels[:, :, draw(st.integers(0, 2))] = pixels[0, 0, 0]
    return RasterImage(pixels)


@given(frames(), st.floats(-8.0, 8.0), st.floats(-8.0, 8.0),
       st.sampled_from([0.0, 0.03, -0.2]))
@settings(max_examples=60, deadline=None)
def test_planar_frame_steps_match_the_interleaved_float64_oracles(image, dx, dy, theta):
    """Pyramid, warp, stretch and score of a uint8 or float64 frame give the
    bits of the same steps on its interleaved float64 copy; the solver's
    pyramid is that copy's float64 pyramid rounded to float32.  Both the
    frame and its warp are scored stretched and, as `normalize = off` scores
    them, unstretched; the warp's fractional samples stay unrounded."""
    pixels = image.pixels.astype(np.float64)
    pyramid = zip(
        luminance_pyramid(image.luminance()), interleaved_luminance_pyramid(pixels), strict=True
    )
    for got, expected in pyramid:
        assert got.tobytes() == expected.astype(np.float32).tobytes()
    mode = "rigid" if theta else "translation"
    warped = resample(image, RegistrationTransform(mode, dx, dy, theta))
    warped_pixels = interleaved_resample(pixels, dx, dy, theta)
    assert warped.planes.dtype == np.float64
    assert warped.pixels.tobytes() == warped_pixels.tobytes()
    grid = SomGrid(3, 2, np.random.default_rng(5).random((6, 3)))
    for frame, oracle in ((image, pixels), (warped, warped_pixels)):
        stretched = normalize_contrast(frame)
        assert stretched.planes.dtype == np.uint8
        stretched_pixels = interleaved_normalize_contrast(oracle)
        assert stretched.pixels.astype(np.float64).tobytes() == stretched_pixels.tobytes()
        for scored, scored_pixels in ((frame, oracle), (stretched, stretched_pixels)):
            result = quantization_error(scored, grid)
            qe, counts = broadcast_quantization_error(scored_pixels, grid.models)
            assert result.qe.hex() == qe.hex()
            assert np.array_equal(result.assignment_counts, counts)


def test_run_pipeline_releases_the_stretched_anchor_once_scored(
    tmp_path, monkeypatch, one_cpu
):
    """After the anchor's own score no call holds its stretched frame."""
    stretched, alive = [], []
    stretch = pipeline_module.normalize_contrast

    def normalize(image):
        out = stretch(image)
        stretched.append(weakref.ref(out))
        return out

    def score(image, grid):
        alive.append(stretched[0]() is not None)
        return quantization_error(image, grid)

    monkeypatch.setattr(pipeline_module, "normalize_contrast", normalize)
    monkeypatch.setattr(pipeline_module, "quantization_error", score)
    frames = [as_uint8(smooth_image(5, size=48))] * 4
    config = RunConfig(grid_width=2, grid_height=2, iterations=20)
    run_pipeline(write_frames(tmp_path, frames), config)
    assert alive == [True, False, False, False]


@pytest.mark.parametrize("normalize", [True, False])
@pytest.mark.parametrize("mode", ["translation", "none"])
def test_preprocessed_frames_releases_the_decoded_anchor(
    tmp_path, monkeypatch, one_cpu, mode, normalize
):
    """Once the second frame is yielded, only the anchor's planes are held."""
    anchor = smooth_image(5, size=64)
    arrays = [
        as_uint8(resample(anchor, RegistrationTransform("translation", dx, 0.5)))
        for dx in (1.0, -0.75)
    ] + [as_uint8(anchor)]
    manifest = write_frames(tmp_path, arrays)
    decoded = {}
    load = pipeline_module.load_image

    def recording_load(path):
        image = load(path)
        decoded[path] = weakref.ref(image)
        return image

    monkeypatch.setattr(pipeline_module, "load_image", recording_load)
    frames = preprocessed_frames(
        manifest, RunConfig(registration_mode=mode, normalize=normalize), keep_frame
    )
    assert next(frames).index == 2
    assert next(frames).index == 0
    assert decoded[manifest.entries[2].path]() is None
    assert [s.index for s in frames] == [1]


# ---------------------------------------------------------------------------
# correlations

def run_small_report(tmp_path):
    manifest = write_frames(tmp_path, growing_diversity_arrays())
    manifest = Manifest(manifest.entries, manifest.roi_name, anchor_index=0)
    config = RunConfig(
        grid_width=2, grid_height=2, iterations=50,
        registration_mode="none", normalize=False,
    )
    return run_pipeline(manifest, config)


def test_correlate_with_own_qe_series(tmp_path):
    report = run_small_report(tmp_path)
    years = np.array([r.year for r in report.rows])
    qes = np.array([r.qe for r in report.rows])
    enriched = correlate(report, [Series("self", years, qes)])
    assert len(enriched.correlations) == 1
    entry = enriched.correlations[0]
    assert entry.label == "self"
    assert entry.result.r == 1.0
    assert list(entry.values) == list(qes)


def test_correlate_length_mismatch(tmp_path):
    report = run_small_report(tmp_path)
    short = Series("short", np.arange(2.0), np.arange(2.0))
    with pytest.raises(InputError, match="length mismatch"):
        correlate(report, [short])


def test_correlate_rejects_covariate_years_that_differ_from_qe_years(tmp_path):
    report = run_small_report(tmp_path)
    years = np.array([r.year for r in report.rows])
    shifted = years.copy()
    shifted[3:] += 1.0
    with pytest.raises(
        InputError,
        match=r"covariate 'heat' row 3 is year 2004, QE row 3 \(y2003\) is year 2003",
    ):
        correlate(report, [Series("heat", shifted, years * 2.0)])


def test_correlate_rejects_covariates_sharing_a_plot_name(tmp_path):
    report = run_small_report(tmp_path)
    years = np.array([r.year for r in report.rows])
    pair = [Series("Visitors", years, years * 2.0), Series("visitors", years, years)]
    with pytest.raises(
        InputError,
        match=r"^covariate columns 'Visitors' and 'visitors' share the plot name 'visitors'$",
    ):
        correlate(report, pair)


def test_a_second_correlate_replaces_the_first(tmp_path):
    """A report plots one covariate set, so a plot name the first call used
    is free again, and every plot written is the second call's."""
    report = run_small_report(tmp_path)
    years = np.array([r.year for r in report.rows])
    first = correlate(report, [Series("Visitors", years, years * 2.0)])
    second = correlate(first, [Series("visitors", years, years), Series("heat", years, -years)])
    assert [entry.label for entry in first.correlations] == ["Visitors"]
    assert [entry.label for entry in second.correlations] == ["visitors", "heat"]
    assert [list(entry.values) for entry in second.correlations] == [list(years), list(-years)]
    written = emit_svg_plots(second, tmp_path / "plots")
    assert len(set(written)) == 1 + len(second.correlations)
    assert sorted(p.name for p in (tmp_path / "plots").iterdir()) == [
        "synthetic_qe_trend.svg", "synthetic_vs_heat.svg", "synthetic_vs_visitors.svg",
    ]


# ---------------------------------------------------------------------------
# artifacts

def test_report_csv_sections(tmp_path):
    report = run_small_report(tmp_path)
    years = np.array([r.year for r in report.rows])
    report = correlate(report, [Series("heat", years, years * 2.0)])
    text = report_csv_text(report, RunConfig(registration_mode="none"))
    lines = text.splitlines()
    assert lines[0] == "# somqe-report v1"
    assert lines[1] == "# roi: synthetic"
    assert any(line.startswith("# run: grid 4x4 seed 0") for line in lines)
    assert "# qe rows: label,year,qe,empty_models" in lines
    assert "# regression: label,slope,intercept,r2,t,df,p" in lines
    assert "# df = n - 2" in lines
    assert "# correlations: label,r,t,df,p" in lines
    scaled = [l for l in lines if l.startswith("# trend slope in 1e-3 units per year:")]
    assert len(scaled) == 1
    trend_row = [l for l in lines if l.startswith("qe_trend,")]
    assert len(trend_row) == 1
    slope_text = trend_row[0].split(",")[1]
    assert "e" in slope_text
    assert float(scaled[0].rsplit(":", 1)[1]) == pytest.approx(
        float(slope_text) * 1e3, rel=1e-9
    )
    assert any(line.startswith("heat,") for line in lines)


def test_report_degenerate_comment(tmp_path):
    arr = np.full((8, 8, 3), 90, dtype=np.uint8)
    manifest = write_frames(tmp_path, [arr.copy() for _ in range(3)])
    report = run_pipeline(
        manifest, RunConfig(registration_mode="none", normalize=False)
    )
    assert "# regression degenerate: constant qe values" in report_csv_text(report, RunConfig())


def test_emit_csv_round_trips_qe_rows(tmp_path):
    report = run_small_report(tmp_path)
    out = tmp_path / "report.csv"
    emit_csv(report, out, RunConfig())
    roi, rows = read_qe_csv(out)
    assert roi == "synthetic"
    assert len(rows) == len(report.rows)
    for got, want in zip(rows, report.rows):
        assert got.label == want.label
        assert got.year == want.year
        assert got.qe == pytest.approx(want.qe, rel=1e-11)
        assert got.empty_models == want.empty_models


def test_read_qe_csv_errors(tmp_path):
    path = tmp_path / "qe.csv"
    path.write_text("# roi: x\n")
    with pytest.raises(InputError, match="no qe rows"):
        read_qe_csv(path)
    path.write_text("label,bad-year,0.5,3\n")
    with pytest.raises(InputError, match="unparseable qe row"):
        read_qe_csv(path)
    for year, qe, empty in (
        ("nan", "0.5", "3"), ("2001", "inf", "3"), ("2001", "1e400", "3"),
        ("2001", "0.5", "1_0"), ("2001", "0.5", "\u0663"), ("2001", "0.5", "+2"),
    ):
        path.write_text(f"a,2000,0.5,3\nb,{year},{qe},{empty}\n", encoding="utf-8")
        with pytest.raises(InputError, match="line 2: unparseable qe row"):
            read_qe_csv(path)


def test_read_qe_csv_oversized_field_names_its_line(tmp_path):
    path = tmp_path / "qe.csv"
    path.write_text("# roi: x\na,2000,0.1,0\nb,2001,0.2," + "0" * 200_000 + "\n")
    with pytest.raises(InputError, match=r"qe\.csv, line 3: field larger"):
        read_qe_csv(path)


def test_read_qe_csv_short_row_names_its_line(tmp_path):
    """A qe row missing a field is an error, not dropped from the fit."""
    path = tmp_path / "qe.csv"
    path.write_text("a,2000,0.1,0\nb,2001,0.2\nc,2002,0.3,0\nd,2003,0.4,0\n")
    with pytest.raises(InputError, match=r"qe\.csv, line 2: expected 4 qe fields"):
        read_qe_csv(path)
    path.write_text(
        "# roi: x\n# qe rows: label,year,qe,empty_models\n"
        "a,2000,0.1,0\nb,2001,0.2,0,7\n"
    )
    with pytest.raises(InputError, match=r"qe\.csv, line 4: expected 4 qe fields"):
        read_qe_csv(path)


def test_read_qe_csv_skips_only_the_fit_sections(tmp_path):
    report = run_small_report(tmp_path)
    years = np.array([r.year for r in report.rows])
    report = correlate(report, [Series("heat", years, years * 2.0)])
    path = tmp_path / "report.csv"
    emit_csv(report, path, RunConfig())
    roi, rows = read_qe_csv(path)
    assert roi == "synthetic"
    assert [(r.label, r.year) for r in rows] == [(r.label, r.year) for r in report.rows]
    # the rows end at the first fit header: a later qe-rows header opens no section
    path.write_text(path.read_text() + "# qe rows: label,year,qe,empty_models\nz,1\n")
    assert read_qe_csv(path) == (roi, rows)
    path.write_text("# roi: r\n a,2000,0.1,0\n  # correlations: x\nb,2001,0.2,0\n")
    assert read_qe_csv(path) == ("r", [QeRow("a", 2000.0, 0.1, 0)])


def test_slugify():
    assert slugify("Las Vegas City") == "las-vegas-city"
    assert slugify("roi_2/north (fringe)") == "roi-2-north-fringe"
    assert slugify("!!!") == "unnamed"


def test_emit_svg_plots(tmp_path):
    report = run_small_report(tmp_path)
    years = np.array([r.year for r in report.rows])
    report = correlate(report, [Series("Visitors (M)", years, years * 1.5)])
    out_dir = tmp_path / "plots"
    written = emit_svg_plots(report, out_dir)
    names = [p.name for p in written]
    assert names == ["synthetic_qe_trend.svg", "synthetic_vs_visitors-m.svg"]
    for path in written:
        root = ET.fromstring(path.read_text())
        assert root.tag.endswith("svg")
        body = path.read_text()
        assert "<circle" in body
        assert "<line" in body  # fit line present for these non-degenerate fits
        assert 'stroke="#b03030"' in body  # the fit line's colour


@given(st.text(alphabet=st.sampled_from("&<>;amplgt\"' x\u00e9"), max_size=30))
def test_svg_escape_matches_the_standard_library(text):
    """The plots' escape is xml.sax.saxutils.escape without its import cost,
    so every SVG keeps its bytes."""
    from xml.sax.saxutils import escape

    from somqe.report import _escape

    assert _escape(text) == escape(text)


# ---------------------------------------------------------------------------
# mutated text inputs

_TEXT_SEEDS = {
    "manifest": b"# path\tlabel\tyear\nimg_0.ppm\tframe 0\t2000\nsub/img_1.png\tframe 1\t2001,5\n",
    "config": (
        b"# run\nseed = 3\ngrid = 2x2\niterations = 10\nalpha = 0,25\nradius = 1.5\n"
        b"decay = linear\nmode = none\nnormalize = off\nyear_fix = relabel-1990\n"
        b"out = o\ncovariates = c.csv\n"
    ),
    "covariates": b"year;heat;rain\n# note\n2000;1,5;3\n2001;2;4\r\n2001;2.5;\"5\"\n",
    "qe": b"# roi: patch\n# qe rows: label,year,qe,empty_models\n\"a,b\",2000,0.1,0\nc,2001,0.25,1\n",
    "grid": b"somqe-grid v1 2 1\n0.5 0.25 0\n1 0.75 1e-3\n",
}

_TEXT_READERS = {
    "manifest": read_manifest,
    "config": lambda path: apply_config_entries(RunConfig(), load_config_file(path)),
    "covariates": ingest_covariates,
    "qe": read_qe_csv,
    "grid": load_grid,
}

_TEXT_EDITS = st.lists(
    st.one_of(
        st.tuples(st.just("flip"), st.integers(0, 2**12), st.integers(1, 255)),
        st.tuples(st.just("delete"), st.integers(0, 2**12), st.integers(1, 8)),
        st.tuples(
            st.just("insert"),
            st.integers(0, 2**12),
            st.one_of(
                st.binary(min_size=1, max_size=4),
                st.text(min_size=1, max_size=3).map(lambda t: t.encode("utf-8")),
                st.sampled_from([b"\t", b"\n", b"\r", b",", b";", b"=", b"#", b"x"]),
            ),
        ),
    ),
    min_size=1,
    max_size=4,
)


@given(st.sampled_from(sorted(_TEXT_SEEDS)), _TEXT_EDITS)
@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_mutated_text_inputs_parse_or_raise_input_error(tmp_path, kind, edits):
    """Bytes flipped, deleted or inserted (non-ASCII ones too) in a valid
    manifest, config, covariate CSV, QE CSV or grid end as a value
    or InputError, never another exception."""
    data = bytearray(_TEXT_SEEDS[kind])
    for edit, position, value in edits:
        at = position % (len(data) + 1)
        if edit == "flip" and at < len(data):
            data[at] ^= value
        elif edit == "delete":
            del data[at : at + value]
        elif edit == "insert":
            data[at:at] = value
    path = tmp_path / f"{kind}.txt"
    path.write_bytes(bytes(data))
    try:
        _TEXT_READERS[kind](path)
    except InputError:
        pass


@pytest.mark.parametrize("kind, text, error", [
    ("manifest", "img_0.ppm\tframe 0\t2000\nimg_1.ppm\tframe 1\t2001\n", None),
    ("manifest", "# path\tlabel\tyear\nimg_0.ppm\tframe 0\tnext\n", "line 2: unparseable"),
    ("covariates", "year,heat,rain\n2000,1.5,3\n2001,2,4\n2002,2.5,5\n", None),
    ("covariates", "year,heat,rain\n2000,1.5,3\n2001,2,4\n2002,2.5\n", "line 4:"),
])
def test_a_leading_byte_order_mark_reads_as_the_file_without_it(tmp_path, kind, text, error):
    """Spreadsheet "CSV UTF-8" exports start with U+FEFF; the file reads, or
    fails on the same line, as it does without the mark."""
    path = tmp_path / f"{kind}.txt"
    results = []
    for data in (text.encode(), "\ufeff".encode() + text.encode()):
        path.write_bytes(data)
        try:
            got = _TEXT_READERS[kind](path)
        except InputError as exc:
            results.append(str(exc))
            continue
        if kind == "covariates":
            got = [(series.label, series.x.tolist(), series.y.tolist()) for series in got]
        results.append(got)
    assert results[0] == results[1]
    assert isinstance(results[0], str) == (error is not None)
    assert error is None or error in results[0]


def test_every_text_seed_parses(tmp_path):
    for kind, data in _TEXT_SEEDS.items():
        path = tmp_path / f"{kind}.txt"
        path.write_bytes(data)
        assert _TEXT_READERS[kind](path)
