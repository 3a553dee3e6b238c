"""gmequiv: a numerical laboratory for Gauss-Markov regression experiments.

Triangular covariance kernels Cov(X_s, X_t) = u(min) v(max) drive two
classical experiments (discrete regression with dependent Gaussian noise
and continuous observation of a drifted path). This package simulates both
exactly, computes the information-theoretic statistics that decide their
equivalence, and exercises the constructions that break it.
"""

from .counterexample import (
    DecisionProblem,
    IndistinguishabilityReport,
    build_fn,
    endpoint_increment,
    indistinguishability_check,
)
from .diagnostics import (
    BandDecomposition,
    FunctionFamily,
    RateReport,
    band_split_decomposition,
    band_terms_statistic,
    class_extremal_family,
    discretization_statistic,
    fixed_family,
    kl_chain,
    kl_dense,
    kl_sequential,
    projection_statistic,
    random_family,
    rate_sweep,
    single_frequency_family,
    transformation_discrepancy,
)
from .errors import (
    AssumptionViolation,
    DegenerateCell,
    DivisionByZero,
    EvaluationError,
    ExpressionSyntaxError,
    GmequivError,
    GridMismatch,
    GridMissingEndpoints,
    HermitianViolation,
    KernelDegenerate,
    QuadratureFailure,
    SingularCovariance,
    UnknownIdentifier,
)
from .experiments import (
    kriging_path_experiment,
    path_from_discrete,
    reconstruct_discrete_from_path,
    simulate_e1,
    simulate_e2,
    simulate_increments,
)
from .expr import KernelExpression, parse_kernel_expression
from .fourier import (
    ClassSpec,
    FourierFunction,
    HoelderReport,
    function_from_spec,
    hoelder_check,
    sample_ellipsoid,
)
from .kernels import (
    GaussMarkovKernel,
    KernelFlags,
    ValidationReport,
    condition_on_zero,
    covariance,
    gram,
    kernel_from_spec,
    make_kernel,
    preset,
    validate_assumption,
)
from .rkhs import (
    RkhsElement,
    element_from_g,
    g_from_f,
    kriging_interpolate,
    kriging_interpolate_dense,
    kriging_residual_process,
    projection_distance,
    projection_distance_dense,
    q_inverse,
    rkhs_norm,
)
from .samples import DiscreteSample, PathSample
from .sampling import sample_paths

__version__ = "0.1.0"
