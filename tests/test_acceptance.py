"""Acceptance gate.

One test per shipping criterion.  Each test prints a single verdict line
with the measured numbers; pytest's own PASSED/FAILED column is the
pass/fail signal.  Criteria that depend on data we cannot bundle are
environment-gated and skip with an honest explanation.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from somqe import reference
from somqe.cli import main as cli_main
from somqe.pipeline import Manifest, ManifestEntry, RunConfig, read_manifest, run_pipeline
from somqe.raster import RasterImage, normalize_contrast, save_image
from somqe.register import reference_pyramid, register_pair
from somqe.som import (
    SomGrid,
    TrainingParams,
    best_matching_unit,
    fit_som,
    initialize_grid,
    quantization_error,
    train,
    train_step,
)
from somqe.stats import Series, linear_fit, pearson, two_tailed_p

from conftest import sinusoid_sampler
from oracles import ols_oracle, pearson_oracle, t_tail_by_integration


def _verdict(name: str, detail: str) -> None:
    print(f"ACCEPTANCE PASS {name}: {detail}")


# Correlations of the bundled series, fixed ahead of time by an independent
# exact-rational recomputation (tests/oracles.py pearson_oracle) and frozen.
R_NORTH_VS_POPULATION = 0.885885111793
R_CITY_VS_VISITORS = 0.713627761112


# ---------------------------------------------------------------------------
# 1. trend fits on the bundled demographic series

def test_criterion_01_demographic_trend_fits():
    t0 = time.perf_counter()
    demo = reference.load_demographics(year_fix="relabel-1990")
    visitors = linear_fit(demo[reference.VISITORS])
    population = linear_fit(demo[reference.POPULATION])
    elapsed = time.perf_counter() - t0
    assert abs(visitors.r2 - 0.9657) <= 0.005
    assert abs(population.r2 - 0.9955) <= 0.005
    assert abs(visitors.slope - 1.1828) <= 0.01 * 1.1828
    assert abs(population.slope - 19.0723) <= 0.01 * 19.0723
    assert elapsed < 1.0
    _verdict(
        "demographic trend fits",
        f"visitors slope {visitors.slope:.6f} r2 {visitors.r2:.6f}; "
        f"population slope {population.slope:.6f} r2 {population.r2:.6f} "
        f"({elapsed:.3f} s)",
    )


# ---------------------------------------------------------------------------
# 2. trend fits on the bundled QE series

def test_criterion_02_qe_trend_fits():
    t0 = time.perf_counter()
    fits = {}
    for fix in ("as-printed", "relabel-1990"):
        qe = reference.load_qe_series(year_fix=fix)
        fits[fix] = (
            linear_fit(qe[reference.CITY]).r2,
            linear_fit(qe[reference.NORTH]).r2,
        )
    elapsed = time.perf_counter() - t0
    matching = [
        fix
        for fix, (city_r2, north_r2) in fits.items()
        if abs(city_r2 - 0.4776) <= 0.02 and abs(north_r2 - 0.7995) <= 0.02
    ]
    assert matching, f"no year interpretation matches: {fits}"
    assert elapsed < 1.0
    fix = min(
        matching,
        key=lambda f: max(abs(fits[f][0] - 0.4776), abs(fits[f][1] - 0.7995)),
    )
    _verdict(
        "qe trend fits",
        f"{fix}: city r2 {fits[fix][0]:.6f}, north r2 {fits[fix][1]:.6f} "
        f"({elapsed:.3f} s)",
    )


# ---------------------------------------------------------------------------
# 3. QE/demographic correlations

def test_criterion_03_correlation_significance():
    qe = reference.load_qe_series()
    demo = reference.load_demographics()
    pairs = [
        ("north vs population", qe[reference.NORTH],
         demo[reference.POPULATION], R_NORTH_VS_POPULATION),
        ("city vs visitors", qe[reference.CITY],
         demo[reference.VISITORS], R_CITY_VS_VISITORS),
    ]
    details = []
    for name, a, b, frozen in pairs:
        # the frozen target must itself agree with the exact-rational oracle
        assert pearson_oracle(a.y, b.y) == pytest.approx(frozen, abs=1e-9)
        corr = pearson(a, b)
        assert corr.r > 0
        assert corr.p < 0.001
        assert abs(corr.r - frozen) <= 1e-6
        details.append(f"{name} r {corr.r:.9f} p {corr.p:.3g}")
    _verdict("correlation significance", "; ".join(details))


# ---------------------------------------------------------------------------
# 4. SOM behavior: invariant suite plus a synthetic growth series

def _random_image(rng, max_side: int = 5) -> RasterImage:
    h = int(rng.integers(1, max_side))
    w = int(rng.integers(1, max_side))
    return RasterImage(
        rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
    )


def _random_params(rng, **overrides) -> TrainingParams:
    settings = dict(
        learning_rate=float(rng.uniform(0.05, 1.0)),
        neighborhood_radius=float(rng.uniform(0.5, 2.5)),
        iterations=int(rng.integers(1, 40)),
        seed=int(rng.integers(0, 2**31)),
        decay_mode=("constant", "linear")[int(rng.integers(0, 2))],
    )
    settings.update(overrides)
    return TrainingParams(**settings)


def _check_zero_learning_fixpoint(rng) -> None:
    image = _random_image(rng)
    w, h = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    params = _random_params(rng, learning_rate=0.0)
    start = initialize_grid(image, w, h, params.seed)
    trained = train(start, image, params)
    assert np.array_equal(
        start.models.view(np.uint64), trained.models.view(np.uint64)
    )


def _check_single_pixel_delta(rng) -> None:
    image = _random_image(rng)
    grid = fit_som(image, 2, 2, _random_params(rng, iterations=10))
    base = quantization_error(image, grid)
    pixels = np.array(image.pixels)
    py, px = int(rng.integers(image.height)), int(rng.integers(image.width))
    old = pixels[py, px] / 255.0
    pixels[py, px] = rng.integers(0, 256, size=3)
    new = pixels[py, px] / 255.0
    changed = quantization_error(RasterImage(pixels), grid)
    d_old = best_matching_unit(old, grid)[1]
    d_new = best_matching_unit(new, grid)[1]
    expected = base.qe + (d_new - d_old) / image.pixel_count
    assert abs(changed.qe - expected) <= 1e-12


def _check_superset_monotonicity(rng) -> None:
    image = _random_image(rng)
    grid = fit_som(image, 2, 2, _random_params(rng, iterations=8))
    extra_rows = int(rng.integers(1, 3))
    extra = rng.uniform(0.0, 1.0, size=(grid.width * extra_rows, 3))
    bigger = SomGrid(
        grid.width, grid.height + extra_rows, np.vstack([grid.models, extra])
    )
    assert quantization_error(image, bigger).qe <= quantization_error(image, grid).qe


def _check_bubble_locality(rng) -> None:
    w, h = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    grid = SomGrid(w, h, rng.uniform(0.0, 1.0, size=(w * h, 3)))
    x = rng.uniform(0.0, 1.0, size=3)
    alpha = float(rng.uniform(0.05, 1.0))
    radius = float(rng.uniform(0.3, 2.5))
    winner = best_matching_unit(x, grid)[0]
    wy, wx = grid.model_position(winner)
    stepped = train_step(grid, x, alpha, radius)
    for i in range(grid.model_count):
        my, mx = grid.model_position(i)
        within = (my - wy) ** 2 + (mx - wx) ** 2 <= radius**2
        before, after = grid.models[i], stepped.models[i]
        if within:
            expected = np.clip(before + alpha * (x - before), 0.0, 1.0)
            assert np.array_equal(after, expected)
        else:
            assert np.array_equal(after, before)


def _check_winner_convergence(rng) -> None:
    w, h = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    grid = SomGrid(w, h, rng.uniform(0.0, 1.0, size=(w * h, 3)))
    color = rng.integers(0, 256, size=(1, 1, 3), dtype=np.uint8)
    image = RasterImage(color)
    x = color.reshape(3) / 255.0
    steps = int(rng.integers(5, 60))
    alpha = float(rng.uniform(0.05, 0.9))
    params = _random_params(
        rng, learning_rate=alpha, neighborhood_radius=0.5,
        iterations=steps, decay_mode="constant",
    )
    winner = best_matching_unit(x, grid)[0]
    trained = train(grid, image, params)
    expected = x + (1.0 - alpha) ** steps * (grid.models[winner] - x)
    assert np.max(np.abs(trained.models[winner] - expected)) <= 1e-10
    others = np.delete(np.arange(grid.model_count), winner)
    assert np.array_equal(trained.models[others], grid.models[others])


def _check_seed_determinism(rng) -> None:
    image = _random_image(rng)
    params = _random_params(rng)
    a = fit_som(image, 2, 2, params)
    b = fit_som(image, 2, 2, params)
    assert np.array_equal(a.models.view(np.uint64), b.models.view(np.uint64))
    assert quantization_error(image, a).qe == quantization_error(image, b).qe


def test_criterion_04a_som_invariant_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260819)
    checks = [
        _check_zero_learning_fixpoint,
        _check_single_pixel_delta,
        _check_superset_monotonicity,
        _check_bubble_locality,
        _check_winner_convergence,
        _check_seed_determinism,
    ]
    per_check = 170
    instances = 0
    for check in checks:
        for _ in range(per_check):
            check(rng)
            instances += 1
    elapsed = time.perf_counter() - t0
    assert instances >= 1000
    assert elapsed < 60.0
    _verdict(
        "som invariant suite",
        f"{instances} randomized instances across {len(checks)} invariants "
        f"({elapsed:.1f} s)",
    )


def test_criterion_04b_growing_builtup_series(tmp_path):
    rng = np.random.default_rng(404)
    side, per_step, n_frames = 24, 12, 10
    base_color = (96, 118, 84)
    total = (n_frames - 1) * per_step
    flat = rng.choice(side * side, size=total, replace=False)
    colors = rng.integers(0, 256, size=(total, 3), dtype=np.uint8)
    assert all(tuple(c) != base_color for c in colors)
    entries = []
    for k in range(n_frames):
        arr = np.full((side, side, 3), base_color, dtype=np.uint8)
        upto = k * per_step
        arr[flat[:upto] // side, flat[:upto] % side] = colors[:upto]
        path = tmp_path / f"frame_{k}.ppm"
        save_image(RasterImage(arr), path)
        entries.append(ManifestEntry(path, f"y{1999 + k}", float(1999 + k)))
    # train on the first frame: a single flat color, so every model sits on
    # it and each newly built-up pixel adds a strictly positive error
    manifest = Manifest(tuple(entries), "growth", anchor_index=0)
    config = RunConfig(
        grid_width=2, grid_height=2, iterations=60,
        registration_mode="none", normalize=False, seed=1,
    )
    report = run_pipeline(manifest, config)
    qes = [row.qe for row in report.rows]
    assert all(b > a for a, b in zip(qes, qes[1:]))
    assert report.regression.slope > 0
    assert report.regression.p < 0.001
    _verdict(
        "growing built-up series",
        f"{n_frames} frames strictly increasing, trend p {report.regression.p:.3g}",
    )


# ---------------------------------------------------------------------------
# 5. registration accuracy

def test_criterion_05_registration_accuracy():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    worst = 0.0
    trials = 100
    for _ in range(trials):
        sample = sinusoid_sampler(rng)
        anchor = sample()
        dx = float(rng.uniform(-8.0, 8.0))
        dy = float(rng.uniform(-8.0, 8.0))
        levels = reference_pyramid(anchor.luminance())
        got, _ = register_pair(levels, sample(dx=dx, dy=dy), "translation")
        worst = max(worst, abs(got.dx - dx), abs(got.dy - dy))
        assert worst <= 0.1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0

    sample = sinusoid_sampler(np.random.default_rng(99))
    rigid, _ = register_pair(
        reference_pyramid(sample().luminance()), sample(dx=1.5, dy=-0.75, theta=0.02), "rigid"
    )
    assert abs(rigid.theta - 0.02) <= 0.005
    _verdict(
        "registration accuracy",
        f"{trials}/{trials} translations within {worst:.4f} px ({elapsed:.1f} s); "
        f"rigid theta error {abs(rigid.theta - 0.02):.2e} rad",
    )


# ---------------------------------------------------------------------------
# 6. contrast normalization

def test_criterion_06_normalization():
    ramp = np.array([[[50.0] * 3, [75.0] * 3, [100.0] * 3]])
    stretched = normalize_contrast(RasterImage(ramp))
    assert stretched.pixels[0, 1].tolist() == [128.0, 128.0, 128.0]
    assert stretched.pixels[0, 0].tolist() == [0.0, 0.0, 0.0]
    assert stretched.pixels[0, 2].tolist() == [255.0, 255.0, 255.0]

    rng = np.random.default_rng(6)
    images = 100
    for _ in range(images):
        h, w = int(rng.integers(1, 24)), int(rng.integers(1, 24))
        image = RasterImage(
            rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        )
        once = normalize_contrast(image)
        twice = normalize_contrast(once)
        assert once.planes.dtype == twice.planes.dtype
        assert once.planes.tobytes() == twice.planes.tobytes()
    _verdict(
        "normalization",
        f"midpoint example exact; idempotent on {images} random images",
    )


# ---------------------------------------------------------------------------
# 7. statistics against independent oracles

def test_criterion_07_statistics_oracles():
    rng = np.random.default_rng(1)
    series_count = 1000
    for _ in range(series_count):
        n = int(rng.integers(5, 21))
        x = np.sort(rng.uniform(0, 100, n))
        y = rng.uniform(-5, 5, n) + 0.05 * x
        fit = linear_fit(Series("s", x, y))
        slope, intercept, r2 = ols_oracle(x, y)
        assert fit.slope == pytest.approx(slope, rel=1e-10, abs=1e-12)
        assert fit.intercept == pytest.approx(intercept, rel=1e-10, abs=1e-12)
        assert fit.r2 == pytest.approx(r2, rel=1e-10, abs=1e-12)

    grid_points = 0
    for t in (0.0, 0.3, 0.8, 1.5, 2.1, 3.0, 4.5, 6.0, 8.0, 12.0):
        for df in (1, 3, 8, 23, 60):
            assert two_tailed_p(t, df) == pytest.approx(
                t_tail_by_integration(t, df), abs=1e-6
            )
            grid_points += 1
    assert grid_points == 50
    _verdict(
        "statistics oracles",
        f"{series_count} series vs closed-form fit oracle at 1e-10; "
        f"{grid_points} (t, df) points vs integration oracle at 1e-6",
    )


# ---------------------------------------------------------------------------
# 8. run determinism

def test_criterion_08_run_determinism(tmp_path):
    rng = np.random.default_rng(7)
    side = 48
    base = rng.integers(20, 236, size=(side, side, 3))
    base[0, 0] = (0, 0, 0)
    base[0, 1] = (255, 255, 255)
    lines = []
    for k in range(3):
        arr = base.copy()
        if k:
            ys = rng.integers(2, side, size=6)
            xs = rng.integers(2, side, size=6)
            arr[ys, xs, 1] = np.clip(arr[ys, xs, 1] + 3, 20, 235)
        path = tmp_path / f"img_{k}.ppm"
        save_image(RasterImage(arr.astype(np.uint8)), path)
        lines.append(f"img_{k}.ppm\tframe{k}\t{2000 + k}")
    manifest = tmp_path / "frames.tsv"
    manifest.write_text("\n".join(lines) + "\n")
    covariates = tmp_path / "cov.csv"
    covariates.write_text(
        "year,heat\n" + "\n".join(f"{2000 + k},{10 + 2 * k}" for k in range(3)) + "\n"
    )
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = cli_main([
            "run", "--manifest", str(manifest), "--covariates", str(covariates),
            "--grid", "2x2", "--iterations", "50", "--seed", "3",
            "--out", str(out),
        ])
        assert code == 0
        outs.append(out)
    compared = []
    for rel in ("report.csv", "grid.txt", "transforms.txt"):
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes()
        compared.append(rel)
    first_plots = sorted((outs[0] / "plots").iterdir())
    second_plots = sorted((outs[1] / "plots").iterdir())
    assert [p.name for p in first_plots] == [p.name for p in second_plots]
    assert first_plots
    for a, b in zip(first_plots, second_plots):
        assert a.read_bytes() == b.read_bytes()
        compared.append(f"plots/{a.name}")
    _verdict(
        "run determinism",
        f"two runs byte-identical across {', '.join(compared)}",
    )


# ---------------------------------------------------------------------------
# 9. optional full-scale replication (needs the source frames)

def test_criterion_09_full_scale_replication(tmp_path):
    frames_dir = os.environ.get("SOMQE_FRAMES_DIR")
    if not frames_dir:
        pytest.skip(
            "SOMQE_FRAMES_DIR is not set: the 25-frame source imagery is not "
            "redistributable and is not bundled; point the variable at a "
            "directory containing frames.tsv to run this criterion"
        )
    manifest_path = Path(frames_dir) / "frames.tsv"
    if not manifest_path.is_file():
        pytest.fail(f"SOMQE_FRAMES_DIR is set but {manifest_path} does not exist")
    manifest = read_manifest(manifest_path)
    details = []
    for seed in (0, 1, 7):
        t0 = time.perf_counter()
        report = run_pipeline(manifest, RunConfig(seed=seed))
        elapsed = time.perf_counter() - t0
        assert report.regression.slope > 0
        assert report.regression.p < 0.001
        assert elapsed < 300.0
        details.append(f"seed {seed}: p {report.regression.p:.3g} ({elapsed:.0f} s)")
    _verdict("full-scale replication", "; ".join(details))
