"""Structural-change scoring for registered image time series.

Train a small self-organizing map on an anchor frame, score every frame by
its quantization error against that map, and relate the resulting series to
covariates with least-squares trends and Pearson correlation.  See the
subpackages: `som` (map training and scoring), `raster` (image IO and
contrast), `register` (subpixel alignment), `stats` (fits and significance),
`pipeline` (manifest-driven runs), `cli` (command-line front end).
"""

from .errors import ComputationError, InputError, RegistrationError, SomqeError
from .pipeline import (
    Manifest,
    ManifestEntry,
    QeReport,
    QeRow,
    RunConfig,
    apply_year_fix,
    correlate,
    emit_csv,
    emit_svg_plots,
    ingest_covariates,
    read_manifest,
    run_pipeline,
)
from .raster import RasterImage, load_image, normalize_contrast, save_image
from .register import RegistrationTransform, register_pair, resample
from .som import (
    QeResult,
    SomGrid,
    TrainingParams,
    best_matching_unit,
    empty_model_count,
    fit_som,
    initialize_grid,
    load_grid,
    quantization_error,
    save_grid,
    train,
    train_step,
)
from .stats import (
    CorrelationResult,
    RegressionResult,
    Series,
    linear_fit,
    pearson,
    two_tailed_p,
)

__version__ = "0.1.0"

__all__ = [
    "ComputationError",
    "InputError",
    "RegistrationError",
    "SomqeError",
    "Manifest",
    "ManifestEntry",
    "QeReport",
    "QeRow",
    "RunConfig",
    "apply_year_fix",
    "correlate",
    "emit_csv",
    "emit_svg_plots",
    "ingest_covariates",
    "read_manifest",
    "run_pipeline",
    "RasterImage",
    "load_image",
    "normalize_contrast",
    "save_image",
    "RegistrationTransform",
    "register_pair",
    "resample",
    "QeResult",
    "SomGrid",
    "TrainingParams",
    "best_matching_unit",
    "empty_model_count",
    "fit_som",
    "initialize_grid",
    "load_grid",
    "quantization_error",
    "save_grid",
    "train",
    "train_step",
    "CorrelationResult",
    "RegressionResult",
    "Series",
    "linear_fit",
    "pearson",
    "two_tailed_p",
    "__version__",
]
