"""Bundled Las Vegas 1984-2008 reference series.

Two CSV files ship with the package: per-year quantization errors of two
regions of interest (the city core and a residential area on the northern
fringe) scored against a 4x4 map trained on the 2008 frame, and the matching
demographic series (annual visitors in millions, county population in
thousands).  Both tables carry the year column exactly as published, where
1990 is missing and 1991 appears twice; pass year_fix="relabel-1990" to get
the consistent labeling.
"""

from __future__ import annotations

from importlib import resources

from .pipeline import apply_year_fix, ingest_covariates
from .stats import Series

CITY = "las_vegas_city"
NORTH = "residential_north"
VISITORS = "visitors_millions"
POPULATION = "population_thousands"


def _load(name: str, year_fix: str) -> dict[str, Series]:
    path = resources.files("somqe.data") / name
    with resources.as_file(path) as real_path:
        series = ingest_covariates(real_path)
    return {s.label: apply_year_fix(s, year_fix) for s in series}


def load_qe_series(year_fix: str = "as-printed") -> dict[str, Series]:
    """The two reference QE series keyed by ROI name."""
    return _load("las_vegas_qe.csv", year_fix)


def load_demographics(year_fix: str = "as-printed") -> dict[str, Series]:
    """Visitor and population series keyed by column name."""
    return _load("las_vegas_demographics.csv", year_fix)
