"""Estimation and approximate inference for multivariate-response GLMs
with hidden confounding."""

from .data_io import Dataset, load_dataset, read_csv_table, save_matrix_csv
from .errors import DataValidationError, GhiveError, NumericalError
from .families import BERNOULLI, GAUSSIAN, POISSON, GlmFamily, family_from_name
from .inference import (
    Contrast,
    InferenceResult,
    basis_contrast,
    confidence_interval,
    naive_wald_interval,
    normal_quantile,
)
from .pipeline import (
    GhiveFit,
    Mode,
    deserialize_fit,
    ghive_fit,
    ghive_fit_many,
    serialize_fit,
    with_projection,
)
from .qml import CoefMatrix, SplitPlan, fit_naive_mle, make_split
from .simulate import (
    SimConfig,
    SimTruth,
    frob_err,
    fstar_oracle,
    gaussian_fstar_closed_form,
    make_truth,
    oracle_bias,
    proj_err,
    sample_dataset,
)
from .experiments import ExperimentSpec, experiment_spec, run_experiment

__version__ = "0.1.0"

__all__ = [
    "BERNOULLI",
    "GAUSSIAN",
    "POISSON",
    "CoefMatrix",
    "Contrast",
    "Dataset",
    "DataValidationError",
    "ExperimentSpec",
    "GhiveError",
    "GhiveFit",
    "GlmFamily",
    "InferenceResult",
    "Mode",
    "NumericalError",
    "SimConfig",
    "SimTruth",
    "SplitPlan",
    "basis_contrast",
    "confidence_interval",
    "deserialize_fit",
    "experiment_spec",
    "family_from_name",
    "fit_naive_mle",
    "frob_err",
    "fstar_oracle",
    "gaussian_fstar_closed_form",
    "ghive_fit",
    "ghive_fit_many",
    "load_dataset",
    "make_split",
    "make_truth",
    "naive_wald_interval",
    "normal_quantile",
    "oracle_bias",
    "proj_err",
    "read_csv_table",
    "run_experiment",
    "sample_dataset",
    "save_matrix_csv",
    "serialize_fit",
    "with_projection",
    "__version__",
]
