"""Subsample ridge ensembles: asymptotic risk theory, generalized
cross-validation, Monte Carlo experiments, and GCV-based tuning."""

__version__ = "1.0.0"

from .ensemble import (
    Dataset,
    EnsembleFit,
    GcvReport,
    UndefinedOobError,
    conditional_risk,
    ensemble_fit,
    gcv,
    oob_error,
    predict,
    sample_subsets,
    training_error,
)
from .fixed_point import (
    DivergentVarianceError,
    ExcludedBoundaryError,
    FixedPointSolution,
    solve_v,
)
from .montecarlo import SimConfig, SimResult, generate_ar1, run_experiment
from .risk import (
    ContourPoint,
    RiskDecomposition,
    asymptotic_risk,
    contour_lambda_for_phis,
    equivalence_path,
    gcv_denominator_limit,
    gcv_limit,
    gcv_limit_finite_M,
    inconsistency_gap,
    optimal_lambda,
    optimal_subsample,
    risk_surface,
    surface_nan_reasons,
    training_error_limit,
)
from .spectra import (
    ModelSpec,
    NullSignalError,
    SpectralMeasure,
    ar1_covariance,
    ar1_model,
    isotropic_model,
    signal_measure,
)
from .tuning import TuneResult, subsample_grid, tune_k, tune_lambda

__all__ = [
    "__version__",
    "Dataset", "EnsembleFit", "GcvReport", "UndefinedOobError",
    "conditional_risk", "ensemble_fit", "gcv", "oob_error", "predict",
    "sample_subsets", "training_error",
    "DivergentVarianceError", "ExcludedBoundaryError", "FixedPointSolution",
    "solve_v",
    "SimConfig", "SimResult", "generate_ar1", "run_experiment",
    "ContourPoint", "RiskDecomposition", "asymptotic_risk",
    "contour_lambda_for_phis", "equivalence_path", "gcv_denominator_limit",
    "gcv_limit", "gcv_limit_finite_M", "inconsistency_gap", "optimal_lambda",
    "optimal_subsample", "risk_surface", "surface_nan_reasons",
    "training_error_limit",
    "ModelSpec", "NullSignalError", "SpectralMeasure", "ar1_covariance",
    "ar1_model", "isotropic_model", "signal_measure",
    "TuneResult", "subsample_grid", "tune_k", "tune_lambda",
]
