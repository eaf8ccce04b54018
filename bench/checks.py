"""Correctness checks on the artifacts of one `somqe run`.

Every run counts as failed unless it exited 0 and its outputs pass:

  * report.csv holds one QE row per frame, a qe_trend row with slope > 0 and
    p < 0.001 (the growing new-colour region must register as change, as in
    acceptance criterion 04b), and one correlation row per covariate
  * transforms.txt holds one record per frame
  * plots/ holds the trend plot and one plot per covariate

Registration error against the generator's truth is measured here too, but
it is reported, not gated: the seed's registration is pulled by the new
colour and the benchmark must show that, not fail on it.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

from stackgen import COVARIATES

DETERMINISM_SET = ("report.csv", "grid.txt", "transforms.txt")


def determinism_digest(out_dir) -> str:
    """sha256 over the byte-identical artifact set, names included."""
    out_dir = Path(out_dir)
    files = [out_dir / name for name in DETERMINISM_SET]
    files += sorted((out_dir / "plots").iterdir()) if (out_dir / "plots").is_dir() else []
    digest = hashlib.sha256()
    for path in files:
        digest.update(str(path.relative_to(out_dir)).encode() + b"\0")
        digest.update(path.read_bytes() if path.is_file() else b"<missing>")
        digest.update(b"\0")
    return digest.hexdigest()


def read_transforms(path) -> list[tuple[float, float, float]]:
    rows = []
    for line in Path(path).read_text(encoding="ascii").splitlines():
        if line.strip() and not line.startswith("#"):
            fields = line.split()
            rows.append((float(fields[2]), float(fields[3]), float(fields[4])))
    return rows


def registration_errors(transforms, truth) -> dict:
    """Largest translation and rotation gaps over the registered frames.

    Only defined when the workload registers; frames are matched to truth by
    manifest position, the anchor excluded.
    """
    if truth["mode"] == "none":
        return {"registered": 0, "px_max": None, "rad_max": None, "within_0.1px": 0}
    gaps_px, gaps_rad = [], []
    for i, ((dx, dy, theta), frame) in enumerate(zip(transforms, truth["frames"])):
        if i == truth["anchor_index"]:
            continue
        gaps_px.append(math.hypot(dx - frame["dx"], dy - frame["dy"]))
        gaps_rad.append(abs(theta - frame["theta"]))
    return {
        "registered": len(gaps_px),
        "px_max": max(gaps_px),
        "rad_max": max(gaps_rad) if truth["mode"] == "rigid" else None,
        "within_0.1px": sum(g <= 0.1 for g in gaps_px),
    }


def check_run(out_dir, truth) -> tuple[list[str], dict]:
    """(problems, registration errors) for one run's output directory."""
    out_dir = Path(out_dir)
    n_frames = len(truth["frames"])
    problems = []
    try:
        lines = (out_dir / "report.csv").read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        return [f"report.csv unreadable: {exc}"], {}
    rows = [r for r in csv.reader(ln for ln in lines if ln and not ln.startswith("#"))]
    qe_rows = [r for r in rows if len(r) == 4]
    if len(qe_rows) != n_frames:
        problems.append(f"report.csv has {len(qe_rows)} QE rows, expected {n_frames}")
    trend = [r for r in rows if r[0] == "qe_trend"]
    if len(trend) != 1 or len(trend[0]) != 7:
        problems.append("report.csv has no qe_trend row")
    else:
        try:
            slope, p = float(trend[0][1]), float(trend[0][6])
        except ValueError:
            slope, p = math.nan, math.nan
        if not (slope > 0.0 and p < 0.001):
            problems.append(f"QE trend not significant growth: slope {slope:.4g}, p {p:.3g}")
    correlations = [r for r in rows if len(r) == 5]
    if len(correlations) != len(COVARIATES):
        problems.append(f"report.csv has {len(correlations)} correlation rows")
    plots = list((out_dir / "plots").glob("*.svg")) if (out_dir / "plots").is_dir() else []
    if len(plots) != 1 + len(COVARIATES):
        problems.append(f"plots/ has {len(plots)} SVG files, expected {1 + len(COVARIATES)}")
    if not (out_dir / "grid.txt").is_file():
        problems.append("grid.txt missing")
    try:
        transforms = read_transforms(out_dir / "transforms.txt")
    except (OSError, ValueError, IndexError) as exc:
        return problems + [f"transforms.txt unreadable: {exc}"], {}
    if len(transforms) != n_frames:
        problems.append(f"transforms.txt has {len(transforms)} records, expected {n_frames}")
        return problems, {}
    errors = registration_errors(transforms, truth)
    if errors["px_max"] is not None and not math.isfinite(errors["px_max"]):
        problems.append("registration error is not finite")
    return problems, errors
