"""The public names, and the signatures the benchmark under `perfbench/`
binds by parameter name or calls by keyword."""

import dataclasses
import inspect

import subridge
from subridge import ensemble


def parameters(fn):
    return list(inspect.signature(fn).parameters)


def test_every_exported_name_resolves():
    for name in subridge.__all__:
        assert hasattr(subridge, name), name


def test_exported_names():
    # Adding or removing an export is a deliberate change to this list.
    assert sorted(subridge.__all__) == [
        "ContourPoint", "Dataset", "DivergentVarianceError", "EnsembleFit",
        "ExcludedBoundaryError", "FixedPointSolution", "GcvReport",
        "ModelSpec", "NullSignalError", "RiskDecomposition", "SimConfig",
        "SimResult", "SpectralMeasure", "TuneResult", "UndefinedOobError",
        "__version__", "ar1_covariance", "ar1_model", "asymptotic_risk",
        "conditional_risk", "contour_lambda_for_phis", "ensemble_fit",
        "equivalence_path", "gcv", "gcv_denominator_limit", "gcv_limit",
        "gcv_limit_finite_M", "generate_ar1", "inconsistency_gap",
        "isotropic_model", "oob_error", "optimal_lambda", "optimal_subsample",
        "predict", "risk_surface", "run_experiment", "sample_subsets",
        "signal_measure", "solve_v", "subsample_grid", "surface_nan_reasons",
        "training_error", "training_error_limit", "tune_k", "tune_lambda",
    ]


def test_member_is_gone():
    assert "Member" not in subridge.__all__
    assert not hasattr(subridge, "Member")
    assert not hasattr(ensemble, "Member")
    assert [f.name for f in dataclasses.fields(subridge.EnsembleFit)] == [
        "lam", "k", "M", "coef", "union_indices", "mean_trace"]


def test_traced_signatures():
    # perfbench/tracing.py binds these leading parameters by name.
    assert parameters(subridge.ensemble_fit) == ["data", "k", "M", "lam", "seed"]
    assert parameters(subridge.solve_v) == ["lam", "theta", "H"]


def test_theory_workload_calls():
    # perfbench/workloads.py calls ar1_model(rho, p_ref=, sigma2=) and
    # unpacks three values, then gcv_limit_finite_M(lam, phi, phis, model, M=).
    built = subridge.ar1_model(0.5, p_ref=20, sigma2=1.0)
    assert isinstance(built, tuple) and len(built) == 3
    model = built[0]
    assert parameters(subridge.gcv_limit_finite_M)[:4] == [
        "lam", "phi", "phis", "model"]
    value = subridge.gcv_limit_finite_M(0.1, 0.5, 2.0, model, M=3)
    assert value > 0
