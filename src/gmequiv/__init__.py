"""gmequiv: a numerical laboratory for Gauss-Markov regression experiments.

Triangular covariance kernels Cov(X_s, X_t) = u(min) v(max) drive two
classical experiments (discrete regression with dependent Gaussian noise
and continuous observation of a drifted path). This package simulates both
exactly, computes the information-theoretic statistics that decide their
equivalence, and exercises the constructions that break it.

`import gmequiv` loads no submodule: each public name below is imported
from its submodule on first access (PEP 562) and then cached here.
"""

import importlib

_EXPORTS = {
    "counterexample": (
        "DecisionProblem", "IndistinguishabilityReport", "build_fn",
        "endpoint_increment", "indistinguishability_check",
    ),
    "diagnostics": (
        "BandDecomposition", "FunctionFamily", "RateReport", "band_split_decomposition",
        "band_terms_statistic", "class_extremal_family", "discretization_statistic",
        "fixed_family", "kl_chain", "kl_dense", "kl_sequential", "projection_statistic",
        "random_family", "rate_sweep", "single_frequency_family",
        "transformation_discrepancy",
    ),
    "errors": (
        "AssumptionViolation", "DegenerateCell", "EvaluationError", "ExpressionSyntaxError",
        "GmequivError", "GridMismatch", "GridMissingEndpoints", "HermitianViolation",
        "KernelDegenerate", "QuadratureFailure", "SingularCovariance", "UnknownIdentifier",
    ),
    "experiments": (
        "kriging_path_experiment", "path_from_discrete",
        "reconstruct_discrete_from_path", "simulate_e1", "simulate_e2", "simulate_increments",
    ),
    "expr": ("KernelExpression", "parse_kernel_expression"),
    "fourier": (
        "ClassSpec", "FourierFunction", "function_from_spec", "sample_ellipsoid",
    ),
    "kernels": (
        "GaussMarkovKernel", "ValidationReport", "covariance", "gram", "kernel_from_spec",
        "make_kernel", "preset", "validate_assumption",
    ),
    "rkhs": (
        "kriging_interpolate", "kriging_interpolate_dense", "projection_distance",
        "projection_distance_dense", "rkhs_norm",
    ),
    "samples": ("DiscreteSample", "PathSample"),
    "sampling": ("sample_paths",),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_ORIGIN)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
