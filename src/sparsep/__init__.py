"""Sparse multichannel separation with random probes.

Matrix-free concatenated-convolution operators, sparse recovery solvers,
restricted-isometry diagnostics, and reproducible Monte Carlo harnesses.
"""

__version__ = "0.1.0"

from .errors import (
    BudgetError,
    DataError,
    DimensionError,
    FormatError,
    ParameterError,
    SparsepError,
)
from .probes import (
    ProblemDims,
    ProbeSet,
    generate_probes,
)
from .operators import (
    FoldMap,
    MeasurementOperator,
    Variant,
    build_dense_folded,
    build_dense_linear,
    folded_operator,
    linear_operator,
)
from .snorm import SNormResult, rip_delta, snorm_exact, snorm_randomized
from .solvers import (
    RecoveryResult,
    SolverConfig,
    reference_bpdn,
    solve_bpdn,
    solve_iht,
    solve_oracle_ls,
)
from .experiments import (
    ExperimentConfig,
    ExperimentRecord,
    grid_points,
    replay_trial,
    run_experiment,
)

__all__ = [
    "__version__",
    "BudgetError",
    "DataError",
    "DimensionError",
    "FormatError",
    "ParameterError",
    "SparsepError",
    "ProblemDims",
    "ProbeSet",
    "generate_probes",
    "FoldMap",
    "MeasurementOperator",
    "Variant",
    "linear_operator",
    "folded_operator",
    "build_dense_linear",
    "build_dense_folded",
    "SNormResult",
    "snorm_exact",
    "snorm_randomized",
    "rip_delta",
    "SolverConfig",
    "RecoveryResult",
    "solve_bpdn",
    "solve_iht",
    "solve_oracle_ls",
    "reference_bpdn",
    "ExperimentConfig",
    "ExperimentRecord",
    "grid_points",
    "run_experiment",
    "replay_trial",
]
