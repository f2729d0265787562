"""Multiple-set linear canonical analysis.

Population and empirical solvers for the joint canonical analysis of K >= 2
variable sets, asymptotic machinery for the estimators, tests of mutual
non-correlation, and a reproducible Monte Carlo verification harness. No module
of the package imports ``numpy.ma``.
"""

__version__ = "0.1.0"

from .blocks import (
    BlockStructure,
    SymmetricEig,
    psd_sqrt,
    sym_eig,
    sym_power,
)
from .exceptions import (
    InsufficientSampleError,
    MslcaError,
    NearSingularError,
    NegativeWeightError,
    NuTooSmallError,
    PlanPreconditionError,
    RepeatedEigenvaluesError,
)
from .population import (
    ConstraintDiagnostics,
    CovarianceModel,
    MslcaSolution,
    build_phi,
    build_t,
    solve_mslca,
    verify_constraints,
)
from .estimation import (
    Dataset,
    MslcaFit,
    align_sign,
    fit_mslca,
    whiten,
)
from .asymptotics import (
    EigenChiSquareDist,
    build_gamma,
    c_tensor,
    c_tensor_gaussian,
    quad_form_pvalue,
    sigma_matrix,
)
from .noncorr import (
    TestReport,
    chi2_test,
    degrees_of_freedom,
    general_test,
)
from .simulate import (
    ExperimentResult,
    SimulationPlan,
    ks_distance,
    rng_stream,
    run_experiment,
    sample_gaussian,
    sample_student_t,
    student_t_kurtosis_scale,
)

__all__ = [
    "__version__",
    "BlockStructure",
    "SymmetricEig",
    "psd_sqrt",
    "sym_eig",
    "sym_power",
    "MslcaError",
    "NearSingularError",
    "RepeatedEigenvaluesError",
    "NegativeWeightError",
    "NuTooSmallError",
    "InsufficientSampleError",
    "PlanPreconditionError",
    "CovarianceModel",
    "MslcaSolution",
    "ConstraintDiagnostics",
    "build_phi",
    "build_t",
    "solve_mslca",
    "verify_constraints",
    "Dataset",
    "MslcaFit",
    "fit_mslca",
    "align_sign",
    "whiten",
    "EigenChiSquareDist",
    "build_gamma",
    "c_tensor",
    "c_tensor_gaussian",
    "sigma_matrix",
    "quad_form_pvalue",
    "TestReport",
    "degrees_of_freedom",
    "chi2_test",
    "general_test",
    "SimulationPlan",
    "ExperimentResult",
    "rng_stream",
    "sample_gaussian",
    "sample_student_t",
    "student_t_kurtosis_scale",
    "ks_distance",
    "run_experiment",
]
