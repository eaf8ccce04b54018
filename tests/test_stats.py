"""Fits and significance against exact-arithmetic oracles."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import somqe.stats as stats_module
from somqe import (
    ComputationError,
    CorrelationResult,
    InputError,
    RegressionResult,
    Series,
    linear_fit,
    pearson,
    two_tailed_p,
)
from somqe.stats import (
    DF_MAX,
    P_FLOOR,
    correlation_csv_row,
    parse_count,
    parse_decimal,
    regression_csv_row,
)

from oracles import (
    ols_oracle,
    pearson_oracle,
    t_tail_by_betainc,
    t_tail_by_integration,
)


def make_series(seed: int, n: int = 12) -> Series:
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0, 100, n))
    y = rng.uniform(-5, 5, n)
    return Series(f"s{seed}", x, y)


# ---------------------------------------------------------------------------
# linear fit

def test_fit_matches_exact_oracle_on_sample_batch():
    for seed in range(50):
        series = make_series(seed, n=int(5 + seed % 20))
        fit = linear_fit(series)
        slope, intercept, r2 = ols_oracle(series.x, series.y)
        assert fit.slope == pytest.approx(slope, rel=1e-11)
        assert fit.intercept == pytest.approx(intercept, rel=1e-11, abs=1e-12)
        assert fit.r2 == pytest.approx(r2, rel=1e-11, abs=1e-13)


def test_fit_on_perfect_line():
    x = np.arange(10, dtype=float)
    series = Series("line", x, 2.0 * x + 1.0)
    fit = linear_fit(series)
    assert fit.slope == pytest.approx(2.0, rel=1e-14)
    assert fit.intercept == pytest.approx(1.0, rel=1e-13)
    assert fit.r2 == pytest.approx(1.0, abs=1e-14)
    assert fit.p <= 1e-12


def test_fit_t_and_p_relationship():
    series = make_series(7)
    fit = linear_fit(series)
    expected_t = np.sqrt(fit.r2 * fit.df / (1.0 - fit.r2))
    assert fit.t == pytest.approx(expected_t, rel=1e-12)
    assert fit.p == pytest.approx(two_tailed_p(fit.t, fit.df), rel=1e-12)


def test_fit_r2_equals_squared_pearson():
    for seed in (3, 14, 15):
        series = make_series(seed)
        fit = linear_fit(series)
        corr = pearson(
            Series("x", series.x, series.x), Series("y", series.x, series.y)
        )
        assert fit.r2 == pytest.approx(corr.r**2, abs=1e-12)


def test_constant_y_reports_degenerate_fit():
    series = Series("flat", np.arange(5.0), np.full(5, 3.3))
    fit = linear_fit(series)
    assert fit.degenerate
    assert fit.slope == 0.0
    assert fit.r2 == 0.0
    assert fit.t == 0.0
    assert fit.p == 1.0


def test_series_data_rules():
    with pytest.raises(InputError, match="^series data must be one-dimensional$"):
        Series("grid", np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(InputError, match="^length mismatch: 3 x values against 2 y values$"):
        Series("short", np.arange(3.0), np.arange(2.0))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InputError, match="^series values must be finite$"):
            Series("gap", np.array([1.0, bad, 3.0]), np.arange(3.0))
        with pytest.raises(InputError, match="^series values must be finite$"):
            Series("gap", np.arange(3.0), np.array([1.0, 2.0, bad]))


def test_constant_x_raises():
    with pytest.raises(InputError, match="degenerate x"):
        linear_fit(Series("bad", np.full(5, 2.0), np.arange(5.0)))


def test_short_series_raises():
    with pytest.raises(InputError, match="series too short"):
        linear_fit(Series("tiny", np.array([1.0, 2.0]), np.array([3.0, 4.0])))


@given(st.integers(0, 10_000), st.floats(0.1, 50.0), st.floats(-100.0, 100.0))
@settings(max_examples=40, deadline=None)
def test_fit_slope_scales_with_affine_y(seed, scale, offset):
    series = make_series(seed % 100)
    base = linear_fit(series)
    scaled = linear_fit(Series("s", series.x, scale * series.y + offset))
    assert scaled.slope == pytest.approx(scale * base.slope, rel=1e-9, abs=1e-12)
    if not base.degenerate:
        assert scaled.r2 == pytest.approx(base.r2, rel=1e-9)


# ---------------------------------------------------------------------------
# t tail probability

def test_p_matches_integration_on_grid():
    for t in (0.0, 0.5, 1.0, 2.069, 3.768, 6.0):
        for df in (1, 2, 5, 23, 40):
            assert two_tailed_p(t, df) == pytest.approx(
                t_tail_by_integration(t, df), abs=1e-9
            )


def test_p_reference_points():
    assert two_tailed_p(2.069, 23) == pytest.approx(0.05, abs=1e-3)
    assert two_tailed_p(3.768, 23) == pytest.approx(0.001, abs=2e-4)


def test_p_edge_cases():
    assert two_tailed_p(0.0, 10) == 1.0
    assert two_tailed_p(np.inf, 10) == P_FLOOR
    assert two_tailed_p(1e9, 3) == P_FLOOR
    assert two_tailed_p(-2.0, 7) == two_tailed_p(2.0, 7)
    with pytest.raises(InputError):
        two_tailed_p(1.0, 0)


def test_p_is_monotone_in_t():
    values = [two_tailed_p(t, 11) for t in np.linspace(0, 8, 30)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def _t_grid(df):
    """t from 0.01 to 40 in 145 log steps and 40 itself, a tiny t, and both
    sides of the point where the tail switches to the symmetric continued
    fraction."""
    switch = math.sqrt(3.0 * df / (df + 2.0))
    return (
        [1e-6]
        + [0.01 * 10 ** (k / 40) for k in range(145)] + [40.0]
        + [switch * (1.0 + d) for d in (-1e-9, 0.0, 1e-9)]
    )


# a real-valued df, as an autocorrelation-adjusted test has, holds the same
@pytest.mark.parametrize(
    "df, rel",
    [(df, 1e-13) for df in (1, 2, 5, 23, 39, 40, 41, 60, 1000)]
    + [(df, 1e-13) for df in (1.5, 2.3, 4.3, 7.9, 25.5, 100.25, 1000.5)]
    + [(df, 1e-12) for df in (2000, 10_000, 100_000, DF_MAX)],
)
def test_p_relative_error_against_50_digit_beta(df, rel):
    for t in _t_grid(df):
        exact = t_tail_by_betainc(t, df)
        if exact > P_FLOOR:
            assert two_tailed_p(t, df) == pytest.approx(exact, rel=rel, abs=0), t


@pytest.mark.parametrize("t", [0.5, 2.0])  # symmetric and direct fraction
def test_p_out_of_terms_raises(monkeypatch, t):
    monkeypatch.setattr(stats_module, "_MAX_TERMS", 1)
    with pytest.raises(ComputationError, match="did not converge in 1 terms"):
        two_tailed_p(t, 10)


def test_p_rejects_df_above_the_bound_and_nan_t():
    assert 0.0 < two_tailed_p(2.0, DF_MAX) < 1.0
    with pytest.raises(InputError, match=f"df must be between 1 and {DF_MAX}"):
        two_tailed_p(2.0, DF_MAX + 1)
    with pytest.raises(InputError, match="t must be a number"):
        two_tailed_p(float("nan"), 5)


def test_fits_run_without_scipy():
    """A fresh interpreter in which importing scipy fails still imports the
    CLI and fits a trend and a correlation."""
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import numpy as np\n"
        "import somqe.cli\n"
        "from somqe import Series, linear_fit, pearson\n"
        "x = np.arange(6.0)\n"
        "y = np.array([1.0, 3.0, 2.0, 5.0, 4.0, 6.0])\n"
        "assert 0.0 < linear_fit(Series('y', x, y)).p < 1.0\n"
        "assert 0.0 < pearson(Series('x', x, x), Series('y', x, y)).p < 1.0\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr


def test_importing_the_cli_loads_no_xml_or_process_pool_modules():
    """A fresh `import somqe.cli` stays cheap: the SVG escape is three
    replaces, the frame pool's modules load only when frames are mapped,
    `json` only when a trace is written, `signal` only when a worker starts,
    and `numpy.ma`, which `np.median` would import, not with the CLI."""
    code = (
        "import sys\n"
        "import somqe.cli\n"
        "heavy = ('xml.sax', 'multiprocessing', 'concurrent.futures', 'json', 'signal',\n"
        "         'numpy.ma')\n"
        "print(sorted(m for m in heavy if m in sys.modules))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


# ---------------------------------------------------------------------------
# correlation

def test_pearson_matches_exact_oracle():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(3, 30))
        a = rng.uniform(-10, 10, n)
        b = rng.uniform(-10, 10, n)
        x = np.arange(n, dtype=float)
        corr = pearson(Series("a", x, a), Series("b", x, b))
        assert corr.r == pytest.approx(pearson_oracle(a, b), abs=1e-13)


def test_pearson_self_correlation_is_one():
    series = make_series(9)
    corr = pearson(series, series)
    assert corr.r == 1.0
    assert corr.p == P_FLOOR


def test_pearson_sign_flip():
    series = make_series(10)
    flipped = Series("neg", series.x, -series.y)
    assert pearson(series, flipped).r == pytest.approx(-1.0)


def test_pearson_validation_errors():
    x3 = np.arange(3.0)
    good = Series("g", x3, np.array([1.0, 2.0, 4.0]))
    with pytest.raises(InputError, match="length mismatch"):
        pearson(good, Series("b", np.arange(4.0), np.arange(4.0)))
    with pytest.raises(InputError, match="zero variance"):
        pearson(good, Series("flat", x3, np.full(3, 2.0)))
    tiny = Series("t", np.arange(2.0), np.array([1.0, 2.0]))
    with pytest.raises(InputError, match="series too short"):
        pearson(tiny, tiny)


@pytest.mark.parametrize("scale, squares_overflow", [(1e152, False), (1e160, True)])
def test_fits_refuse_sums_that_overflow(scale, squares_overflow):
    """Past the float range the fit would read r2 0 and p 1, or nan.

    At 1e152 only the product of two centered sums overflows; at 1e160 the
    sums of squares themselves do.  Either is one input error naming the
    series, with no numpy warning on the way."""
    years = np.arange(1984.0, 2009.0)
    rng = np.random.default_rng(3)
    big = Series("big", years, rng.normal(size=25) * scale)
    other = Series("qe", years, rng.normal(size=25) * scale)
    with np.errstate(over="ignore"):
        squares = [float(np.sum((s.y - s.y.mean()) ** 2)) for s in (big, other)]
    assert not any(map(math.isfinite, squares)) if squares_overflow else all(
        map(math.isfinite, squares)
    )
    message = "values too large, their sums overflow a float"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match=f"^series 'big': {message}$"):
            linear_fit(big)
        with pytest.raises(InputError, match=f"^series 'qe' against 'big': {message}$"):
            pearson(other, big)


def test_correlation_t_p_relationship():
    corr = pearson(make_series(11), make_series(12))
    expected_t = abs(corr.r) * np.sqrt(corr.df / (1 - corr.r**2))
    assert corr.t == pytest.approx(expected_t, rel=1e-12)
    assert corr.p == pytest.approx(two_tailed_p(corr.t, corr.df), rel=1e-12)


# ---------------------------------------------------------------------------
# parsing and rendering

def test_parse_decimal_accepts_both_marks():
    assert parse_decimal("3.5") == 3.5
    assert parse_decimal("3,5") == 3.5
    assert parse_decimal(" -0,25 ") == -0.25
    assert parse_decimal("1984") == 1984.0
    assert parse_decimal("1e3") == 1000.0
    assert parse_decimal("+5") == 5.0
    assert parse_decimal(".5") == 0.5


def test_parse_decimal_rejects_ambiguity():
    with pytest.raises(ValueError):
        parse_decimal("1,234.5")
    with pytest.raises(ValueError):
        parse_decimal("1,2,3")
    with pytest.raises(ValueError):
        parse_decimal("abc")
    # float() reads these as 15, 1990 and 1990: '_' grouping, Arabic-Indic digits
    for text in ("1_5", "19_90", "\u0661\u0669\u0669\u0660"):
        with pytest.raises(ValueError, match="not a decimal number"):
            parse_decimal(text)


def test_parse_count_takes_ascii_digits_alone():
    assert parse_count("0") == 0
    assert parse_count(" 1000\t") == 1000
    assert parse_count("007") == 7
    assert parse_count(str(2**64)) == 2**64
    # int() reads all but the first six as 10, 2, -2, 100, 3 and 10
    for text in ("", " ", "1.0", "1e3", "4 4", "x", "1_0", "+2", "-2",
                 "\u0661\u0660\u0660", "\u0663", "\uff11\uff10"):
        with pytest.raises(ValueError, match="not a whole number"):
            parse_count(text)


@pytest.mark.parametrize("text", ["nan", "NaN", "inf", "-Infinity", "1e400", "-1,5e999"])
def test_parse_decimal_rejects_non_finite(text):
    with pytest.raises(ValueError, match="not a finite number"):
        parse_decimal(text)


def test_regression_row_format():
    fit = RegressionResult(
        slope=0.0015542, intercept=-2.8, r2=0.4777, t=4.58, df=23, p=0.00013
    )
    row = regression_csv_row("city", fit)
    fields = row.split(",")
    assert fields[0] == "city"
    assert fields[1] == "1.5542000000e-03"
    assert fields[5] == "23"
    assert len(fields) == 7


def test_correlation_row_format():
    corr = CorrelationResult(r=0.7136, t=4.88, df=23, p=6.2e-05)
    assert correlation_csv_row("visitors", corr) == "visitors,0.7136,4.88,23,6.2e-05"


def test_csv_label_quoting():
    fit = RegressionResult(0.0, 0.0, 0.0, 0.0, 3, 1.0)
    row = regression_csv_row('label,with"comma', fit)
    assert row.startswith('"label,with""comma",')
