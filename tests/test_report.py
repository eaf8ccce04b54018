"""SVG scatter plots: pinned bytes for inputs the pipeline rarely draws."""

import hashlib

import pytest

from somqe.report import scatter_svg

# sha256 of each plot's markup, taken before the text elements shared a writer
CASES = {
    "no-line": (
        ([1990, 1995, 2000, 2005], [0.12, 0.18, 0.11, 0.2]),
        dict(title="qe by year", xlabel="year", ylabel="qe", annotation="no fit"),
        "c0239801c77f91cccbb3fc9b95fda80c733443fee3b276c43b51216ca32d2d38",
    ),
    "empty-annotation": (
        ([1.0, 2.0, 3.0], [3.5, 2.25, 1.0]),
        dict(title="t", xlabel="x", ylabel="y", line=(-1.25, 4.75), annotation=""),
        "09fc802acd1bba6b5c2e1b4d995eea19a35b1b4a27317dc505c2cd796e27fa4a",
    ),
    "markup-in-labels": (
        ([0.5, 1.5, 4.0], [-0.02, 0.01, 0.05]),
        dict(
            title="R&D <share> & more",
            xlabel="a<b & c>d",
            ylabel="&amp; <y>",
            line=(0.02, -0.03),
            annotation="r = 0.9 <p & 1> ok",
        ),
        "955f75cab6a052369bdda4bafdf2ceedb90527cf6145ba965eee702d4f877f58",
    ),
    "single-point": (
        ([2000], [0.5]),
        dict(title="one", xlabel="year", ylabel="qe", line=(0.0, 0.5), annotation="one point"),
        "44c026d54bcdece64fea38fed31afae355bbea90af4e54de4116a77487760f49",
    ),
    "line-clamped": (
        ([0.0, 1.0, 2.0, 3.0], [1.0, 1.1, 0.9, 1.05]),
        dict(title="steep", xlabel="x", ylabel="y", line=(40.0, -60.0), annotation="clamped"),
        "a170171165296fa26064deb36479ad3f8f5e468328805c81b46e9e6b6ef99fd5",
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_scatter_svg_bytes_are_pinned(case):
    (xs, ys), kwargs, digest = CASES[case]
    svg = scatter_svg(xs, ys, **kwargs)
    assert hashlib.sha256(svg.encode("utf-8")).hexdigest() == digest

