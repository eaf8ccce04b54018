"""Trend fits and correlation for short yearly series.

Ordinary least squares on centered sums, each product reduced by numpy's
one-thread pairwise `np.add.reduce` (the package's one summation rule, see
`somqe.som`), not by a BLAS dot product:

    slope = Sxy / Sxx        intercept = mean(y) - slope * mean(x)
    r2 = Sxy^2 / (Sxx Syy)   t = sqrt(r2 * df / (1 - r2)),  df = n - 2

and the two-tailed tail probability of Student's t through the regularized
incomplete beta identity p = I_x(df/2, 1/2), x = df/(df+t^2).  Reported p
values are floored at 1e-15 so downstream CSV never prints a hard zero.

I_x(a, b) = x^a (1-x)^b 2F1(a+b, 1; a+1; x) / (a B(a, b)), and Gauss's
continued fraction for 2F1(s, 1; a+1; w) is summed by modified Lentz
(Numerical Recipes 6.4) with the standard library only.  For
x >= (a+1)/(a+b+2) the tail is 1 - I_{1-x}(b, a), so s = a+b and w = 1-x.
Below that the fraction runs after Pfaff's transformation,
x^a (1-x)^(b-1) 2F1(1-b, 1; a+1; -x/(1-x)) / (a B(a, b)), whose terms are
all positive for b = 1/2; Numerical Recipes' own form cancels there as x
nears 1 at large df.  The prefactor is built in logs from t and df
directly, with log Gamma(a+1/2) - log Gamma(a) from its asymptotic series
for a >= 20.  Against 50-digit arithmetic the relative error stays below
1e-13 up to DF_MAX = 10^6 degrees of freedom; a larger df raises InputError.

Numbers in text form may use either '.' or ',' as the decimal mark; series
from mainland-European sources arrive comma-marked and are accepted as-is.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ComputationError, InputError

P_FLOOR = 1e-15
DF_MAX = 10**6
_MAX_TERMS = 500  # every df up to DF_MAX converges within 135 terms
_TINY = 1e-300  # Lentz's guard against a zero denominator
_LOG_SQRT_PI = 0.5 * math.log(math.pi)


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


def _centered_sums(x: np.ndarray, y: np.ndarray, names: str):
    """(mean x, mean y, Sxx, Syy, Sxy); InputError naming `names` where a sum,
    Sxx Syy or Sxy^2 passes the float range, which would read as r 0 and p 1.
    The sums are not rescaled: that would change the bits of every finite fit."""
    with np.errstate(over="ignore", invalid="ignore"):
        mx, my = x.mean(), y.mean()
        dx, dy = x - mx, y - my
        sxx, syy, sxy = (float(np.add.reduce(a * b)) for a, b in ((dx, dx), (dy, dy), (dx, dy)))
    if not all(map(math.isfinite, (sxx, syy, sxy, sxx * syy, sxy * sxy))):
        raise InputError(f"{names}: values too large, their sums overflow a float")
    return mx, my, sxx, syy, sxy


def _log_gamma_ratio(a: float) -> float:
    """log Gamma(a + 1/2) - log Gamma(a), without subtracting two large lgammas."""
    if a < 20.0:
        return math.log(math.gamma(a + 0.5) / math.gamma(a))
    z = 1.0 / (a * a)
    tail = 1 / 8 - z * (1 / 192 - z * (1 / 640 - z * (17 / 14336 - z * 31 / 18432)))
    return 0.5 * math.log(a) - tail / a


def _gauss_cf(a: float, s: float, w: float) -> float:
    """2F1(s, 1; a + 1; w) as 1 / (1 + e1 / (1 + e2 / (1 + ...))), modified Lentz."""
    f, c, d = 1.0, 1.0, 0.0
    for k in range(1, _MAX_TERMS + 1):
        m = k // 2
        if k % 2:
            e = -(a + m) * (s + m) * w / ((a + k - 1) * (a + k))
        else:
            e = m * (s - a - m) * w / ((a + k - 1) * (a + k))
        d = 1.0 + e * d
        c = 1.0 + e / c
        d = 1.0 / (d if abs(d) >= _TINY else _TINY)
        c = c if abs(c) >= _TINY else _TINY
        step = c * d
        f *= step
        if abs(step - 1.0) <= sys.float_info.epsilon:
            return 1.0 / f
    raise ComputationError(
        f"t tail: continued fraction did not converge in {_MAX_TERMS} terms"
    )


def two_tailed_p(t: float, df: int) -> float:
    """P(|T| >= t) for T ~ Student's t with 1 <= df <= DF_MAX degrees of freedom."""
    if not 1 <= df <= DF_MAX:
        raise InputError(f"df must be between 1 and {DF_MAX}, got {df}")
    t = float(t)
    if math.isnan(t):
        raise InputError("t must be a number, got nan")
    t2 = t * t
    if t2 == 0.0:
        return 1.0
    if math.isinf(t2):
        return P_FLOOR
    a = 0.5 * df
    log_x = -math.log1p(t2 / df)
    log_1mx = math.log(t2) - math.log(df + t2)
    # a log x - log B(a, 1/2)
    log_lead = a * log_x + _log_gamma_ratio(a) - _LOG_SQRT_PI
    if df / (df + t2) < (a + 1.0) / (a + 2.5):
        p = math.exp(log_lead - 0.5 * log_1mx) * _gauss_cf(a, 0.5, -df / t2) / a
    else:
        p = 1.0 - 2.0 * math.exp(log_lead + 0.5 * log_1mx) * _gauss_cf(
            0.5, a + 0.5, t2 / (df + t2)
        )
    return min(max(p, P_FLOOR), 1.0)


def linear_fit(series: Series) -> RegressionResult:
    """OLS fit of y on x with significance of the slope.

    A constant y is reported as a flagged degenerate fit (slope 0, r2 0,
    p 1) rather than an error; a constant x has no defined slope and
    raises.
    """
    if series.n < 3:
        raise InputError("series too short: need at least 3 points")
    _, my, sxx, syy, sxy = _centered_sums(series.x, series.y, f"series {series.label!r}")
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
    _, _, saa, sbb, sab = _centered_sums(a.y, b.y, f"series {a.label!r} against {b.label!r}")
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
    commas (thousands grouping) are rejected rather than guessed at, and so
    are '_' grouping, digits other than ASCII 0-9, nan, infinities and
    numbers too large for a float.
    """
    cleaned = text.strip()
    if "," in cleaned:
        if "." in cleaned or cleaned.count(",") > 1:
            raise ValueError(f"ambiguous decimal syntax: {text!r}")
        cleaned = cleaned.replace(",", ".")
    if not cleaned.isascii() or "_" in cleaned:  # float() reads 1_5, and any script's digits
        raise ValueError(f"not a decimal number: {text!r}")
    value = float(cleaned)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def parse_count(text: str) -> int:
    """Parse a whole number of ASCII digits 0-9 alone, blanks around it
    stripped; int() would also take a sign, '_' and any script's digits."""
    cleaned = text.strip()
    if not (cleaned.isascii() and cleaned.isdigit()):
        raise ValueError(f"not a whole number: {text!r}")
    return int(cleaned)


def _fmt(value: float) -> str:
    return "%.10g" % value


REGRESSION_HEADER = "# regression: label,slope,intercept,r2,t,df,p"
CORRELATION_HEADER = "# correlations: label,r,t,df,p"


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
    # a leading '#' would make the row a comment line to the readers
    if label.startswith("#") or any(ch in label for ch in ',"\n'):
        return '"' + label.replace('"', '""') + '"'
    return label
