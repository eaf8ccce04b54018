"""Trend fits and correlation for short yearly series.

Ordinary least squares on centered sums:

    slope = Sxy / Sxx        intercept = mean(y) - slope * mean(x)
    r2 = Sxy^2 / (Sxx Syy)   t = sqrt(r2 * df / (1 - r2)),  df = n - 2

and the two-tailed tail probability of Student's t through the regularized
incomplete beta identity p = I_{df/(df+t^2)}(df/2, 1/2).  Reported p values
are floored at 1e-15 so downstream CSV never prints a hard zero.

Numbers in text form may use either '.' or ',' as the decimal mark; series
from mainland-European sources arrive comma-marked and are accepted as-is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import betainc

from .errors import InputError

P_FLOOR = 1e-15


@dataclass(frozen=True, eq=False)
class Series:
    """A labelled sequence of (x, y) points, usually (year, value)."""

    label: str
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        if x.ndim != 1 or y.ndim != 1:
            raise InputError("series data must be one-dimensional")
        if x.shape != y.shape:
            raise InputError(
                f"length mismatch: {x.size} x values against {y.size} y values"
            )
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise InputError("series values must be finite")
        x = x.copy()
        y = y.copy()
        x.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return int(self.x.size)


@dataclass(frozen=True)
class RegressionResult:
    slope: float
    intercept: float
    r2: float
    t: float
    df: int
    p: float
    degenerate: bool = False  # constant y: slope 0, r2 0, p 1


@dataclass(frozen=True)
class CorrelationResult:
    r: float
    t: float
    df: int
    p: float


def _centered_sums(x: np.ndarray, y: np.ndarray):
    mx = x.mean()
    my = y.mean()
    dx = x - mx
    dy = y - my
    return mx, my, float(dx @ dx), float(dy @ dy), float(dx @ dy)


def two_tailed_p(t: float, df: int) -> float:
    """P(|T| >= t) for T ~ Student's t with df degrees of freedom."""
    if df < 1:
        raise InputError("df must be at least 1")
    t = abs(float(t))
    if np.isinf(t):
        return P_FLOOR
    x = df / (df + t * t)
    p = float(betainc(df / 2.0, 0.5, x))
    return min(max(p, P_FLOOR), 1.0)


def linear_fit(series: Series) -> RegressionResult:
    """OLS fit of y on x with significance of the slope.

    A constant y is reported as a flagged degenerate fit (slope 0, r2 0,
    p 1) rather than an error; a constant x has no defined slope and
    raises.
    """
    if series.n < 3:
        raise InputError("series too short: need at least 3 points")
    _, my, sxx, syy, sxy = _centered_sums(series.x, series.y)
    if sxx == 0.0:
        raise InputError("degenerate x values: no variance to fit a slope")
    df = series.n - 2
    if syy == 0.0:
        return RegressionResult(0.0, my, 0.0, 0.0, df, 1.0, degenerate=True)
    slope = sxy / sxx
    intercept = my - slope * series.x.mean()
    r2 = min((sxy * sxy) / (sxx * syy), 1.0)
    t = np.inf if r2 >= 1.0 else float(np.sqrt(r2 * df / (1.0 - r2)))
    return RegressionResult(slope, intercept, r2, t, df, two_tailed_p(t, df))


def pearson(a: Series, b: Series) -> CorrelationResult:
    """Pearson correlation of two series paired by position (their y values)."""
    if a.n != b.n:
        raise InputError(f"length mismatch: {a.n} against {b.n} points")
    if a.n < 3:
        raise InputError("series too short: need at least 3 points")
    _, _, saa, sbb, sab = _centered_sums(a.y, b.y)
    if saa == 0.0 or sbb == 0.0:
        raise InputError("zero variance: correlation is undefined")
    r = sab / float(np.sqrt(saa * sbb))
    r = max(-1.0, min(1.0, r))
    df = a.n - 2
    r2 = r * r
    t = np.inf if r2 >= 1.0 else float(abs(r) * np.sqrt(df / (1.0 - r2)))
    return CorrelationResult(r, t, df, two_tailed_p(t, df))


def parse_decimal(text: str) -> float:
    """Parse a number whose decimal mark may be ',' or '.'.

    A lone comma is treated as the decimal mark.  Mixed marks or multiple
    commas (thousands grouping) are rejected rather than guessed at.
    """
    cleaned = text.strip()
    if "," in cleaned:
        if "." in cleaned or cleaned.count(",") > 1:
            raise ValueError(f"ambiguous decimal syntax: {text!r}")
        cleaned = cleaned.replace(",", ".")
    return float(cleaned)


def _fmt(value: float) -> str:
    return "%.10g" % value


def regression_csv_row(label: str, fit: RegressionResult) -> str:
    """One CSV line: label,slope,intercept,r2,t,df,p.

    The slope is printed in scientific notation so small per-year trends
    stay readable in raw units; any scaled form belongs in a comment, not
    in the data column.
    """
    return ",".join(
        [
            csv_label(label),
            "%.10e" % fit.slope,
            _fmt(fit.intercept),
            _fmt(fit.r2),
            _fmt(fit.t),
            str(fit.df),
            _fmt(fit.p),
        ]
    )


def correlation_csv_row(label: str, corr: CorrelationResult) -> str:
    """One CSV line: label,r,t,df,p."""
    return ",".join(
        [csv_label(label), _fmt(corr.r), _fmt(corr.t), str(corr.df), _fmt(corr.p)]
    )


def csv_label(label: str) -> str:
    if any(ch in label for ch in ',"\n'):
        return '"' + label.replace('"', '""') + '"'
    return label
