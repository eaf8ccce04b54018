"""Self-contained SVG scatter plots with a fitted line.

No plotting dependency: the emitted markup is a fixed template filled with
coordinates formatted to two decimals, so rerunning a pipeline writes byte
identical files.  Plots carry axis tick labels, axis titles and a one-line
annotation of the fit.
"""

from __future__ import annotations

import math

_WIDTH = 640
_HEIGHT = 440
_MARGIN_LEFT = 72
_MARGIN_RIGHT = 24
_MARGIN_TOP = 44
_MARGIN_BOTTOM = 56


def _escape(text: str) -> str:
    """XML-escape '&', '<' and '>', in that order, for element text."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _nice_ticks(lo: float, hi: float, target: int = 5):
    """Round tick positions covering [lo, hi] with a 1-2-5 step."""
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / target
    magnitude = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = magnitude * mult
        if raw <= step:
            break
    first = math.ceil(lo / step)
    last = math.floor(hi / step)
    return [k * step for k in range(first, last + 1)]


def _pad_range(values):
    lo = min(values)
    hi = max(values)
    if hi == lo:
        lo -= 0.5
        hi += 0.5
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def scatter_svg(
    xs,
    ys,
    *,
    title: str,
    xlabel: str,
    ylabel: str,
    line: tuple[float, float] | None = None,
    annotation: str = "",
) -> str:
    """Render points (and optionally the line y = line[1] + line[0] x)."""
    xs = [float(v) for v in xs]
    ys = [float(v) for v in ys]
    if len(xs) != len(ys) or not xs:
        raise ValueError("scatter_svg needs matching non-empty coordinate lists")
    x_lo, x_hi = _pad_range(xs)
    y_lo, y_hi = _pad_range(ys)
    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(x: float) -> float:
        return _MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return _MARGIN_TOP + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
        f'<text x="{_WIDTH / 2:.2f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15" fill="#111111">'
        f"{_escape(title)}</text>",
    ]
    # frame
    parts.append(
        f'<rect x="{_MARGIN_LEFT}" y="{_MARGIN_TOP}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="#888888" stroke-width="1"/>'
    )
    for tick in _nice_ticks(x_lo, x_hi):
        tx = px(tick)
        parts.append(
            f'<line x1="{tx:.2f}" y1="{_MARGIN_TOP + plot_h}" x2="{tx:.2f}" '
            f'y2="{_MARGIN_TOP + plot_h + 5}" stroke="#888888" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{tx:.2f}" y="{_MARGIN_TOP + plot_h + 20}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="11" '
            f'fill="#333333">{_escape("%.10g" % tick)}</text>'
        )
    for tick in _nice_ticks(y_lo, y_hi):
        ty = py(tick)
        parts.append(
            f'<line x1="{_MARGIN_LEFT - 5}" y1="{ty:.2f}" x2="{_MARGIN_LEFT}" '
            f'y2="{ty:.2f}" stroke="#888888" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_LEFT - 9}" y="{ty + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11" fill="#333333">'
            f'{_escape("%.10g" % tick)}</text>'
        )
    if line is not None:
        slope, intercept = line
        x_left, x_right = x_lo, x_hi
        parts.append(
            f'<line x1="{px(x_left):.2f}" y1="{_clamp_py(py, intercept + slope * x_left, y_lo, y_hi):.2f}" '
            f'x2="{px(x_right):.2f}" y2="{_clamp_py(py, intercept + slope * x_right, y_lo, y_hi):.2f}" '
            f'stroke="#b03030" stroke-width="1.5"/>'
        )
    for x, y in zip(xs, ys):
        parts.append(
            f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3.2" '
            f'fill="#294e80" fill-opacity="0.85"/>'
        )
    parts.append(
        f'<text x="{_WIDTH / 2:.2f}" y="{_HEIGHT - 14}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" fill="#111111">'
        f"{_escape(xlabel)}</text>"
    )
    parts.append(
        f'<text x="18" y="{_MARGIN_TOP + plot_h / 2:.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" fill="#111111" '
        f'transform="rotate(-90 18 {_MARGIN_TOP + plot_h / 2:.2f})">'
        f"{_escape(ylabel)}</text>"
    )
    if annotation:
        parts.append(
            f'<text x="{_MARGIN_LEFT + 8}" y="{_MARGIN_TOP + 16}" '
            f'font-family="sans-serif" font-size="11" fill="#555555">'
            f"{_escape(annotation)}</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _clamp_py(py, y_value: float, y_lo: float, y_hi: float) -> float:
    return py(min(max(y_value, y_lo), y_hi))
