"""The whole pipeline on a synthetic frame stack, library-first.

Builds ten frames of a scene that gradually "builds up" (more and more
pixels switch from a ground color to varied bright ones), writes them to
disk with a manifest, then runs: load, align, normalize, train a map on the
anchor frame, score every frame, fit the year trend, correlate against a
covariate, and emit the CSV report and SVG plots.

Everything here is also reachable from the command line (which trains on
the manifest's last frame, the default anchor):

    somqe run --manifest demo-out/frames.tsv --covariates demo-out/cov.csv \
        --grid 2x2 --out demo-out/run
"""

from pathlib import Path

import numpy as np

from somqe import RasterImage, save_image
from somqe.pipeline import (
    RunConfig,
    emit_csv,
    emit_svg_plots,
    read_manifest,
    report_csv_text,
    run_pipeline,
)

out_root = Path("demo-out")
out_root.mkdir(exist_ok=True)

rng = np.random.default_rng(55)
side, n_frames, per_step = 48, 10, 40
ground = (96, 118, 84)
positions = rng.choice(side * side, size=(n_frames - 1) * per_step, replace=False)
colors = rng.integers(120, 256, size=(positions.size, 3), dtype=np.uint8)

lines = []
for k in range(n_frames):
    frame = np.full((side, side, 3), ground, dtype=np.uint8)
    upto = k * per_step
    frame[positions[:upto] // side, positions[:upto] % side] = colors[:upto]
    name = f"frame_{1999 + k}.ppm"
    save_image(RasterImage(frame), out_root / name)
    lines.append(f"{name}\t{1999 + k}\t{1999 + k}")
(out_root / "frames.tsv").write_text("\n".join(lines) + "\n")
(out_root / "cov.csv").write_text(
    "year,built_up_share\n"
    + "\n".join(
        f"{1999 + k},{k * per_step / (side * side):.4f}" for k in range(n_frames)
    )
    + "\n"
)

manifest = read_manifest(out_root / "frames.tsv", roi_name="toy scene",
                         anchor_index=0)
config = RunConfig(
    grid_width=2, grid_height=2, iterations=500,
    registration_mode="translation", normalize=False, seed=0,
    covariates=out_root / "cov.csv",
)
# the covariates are read and paired with the frames before any frame loads
report = run_pipeline(manifest, config)

emit_csv(report, out_root / "report.csv", config)
plots = emit_svg_plots(report, out_root / "plots")

print(report_csv_text(report, config))
print(f"report: {out_root / 'report.csv'}")
for path in plots:
    print(f"plot:   {path}")
