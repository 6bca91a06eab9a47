"""Fairness-aware local-privacy mechanism design for sensitive attributes.

The package designs randomization mechanisms that make a dataset's sensitive
attribute both locally private and fairer for downstream learning: a closed
form for binary attributes, a Dinkelbach iteration over LPs for k-ary
ones (whose certificate lists each step's disparity target t and LP value
s), plus the standard randomized-response baselines, fairness metrics, a
small trainable classifier, and a reproducible CSV pipeline.
"""

from .binary_design import (
    BinaryDesignResult,
    BranchCase,
    objective_ratio,
    opt_binary,
)
from .dataset import ColumnsConfig, TabularDataset, export_csv, ingest_csv
from .distribution import (
    JointDistribution,
    delta,
    delta_prime,
    equivalence_bounds,
    estimate_distribution,
)
from .kary_design import (
    Certificate,
    KaryDesignResult,
    SolverConfig,
    assemble_constraints,
    fairness_rows_at,
    min_achievable_error,
    solve_opt_k,
)
from .evaluation import (
    Calibration,
    FairnessReport,
    LinearClassifier,
    TrainConfig,
    equalized_odds_gaps,
    equalized_opportunity_gap,
    evaluate,
    statistical_parity_gap,
    train_logistic,
)
from .mechanisms import (
    BinaryMechanism,
    MechanismMatrix,
    SsParams,
    SubsetReport,
    grr_matrix,
    induced_distribution,
    matrix_of_binary,
    perturb_dataset,
    privacy_level,
    rr_mechanism,
    ss_induced_distribution,
    ss_params,
    ss_perturb,
    ss_privacy_level,
    verify_ldp,
)
from .pipeline import (
    Mechanism,
    RunConfig,
    cmd_design,
    cmd_evaluate,
    cmd_perturb,
    cmd_sweep,
    cmd_verify,
    load_config,
)
from .synthetic import PlantedConfig, bayes_accuracy, generate_planted

__all__ = [
    "BinaryDesignResult",
    "BranchCase",
    "objective_ratio",
    "opt_binary",
    "JointDistribution",
    "delta",
    "delta_prime",
    "equivalence_bounds",
    "estimate_distribution",
    "Certificate",
    "KaryDesignResult",
    "SolverConfig",
    "assemble_constraints",
    "fairness_rows_at",
    "min_achievable_error",
    "solve_opt_k",
    "BinaryMechanism",
    "MechanismMatrix",
    "SsParams",
    "SubsetReport",
    "grr_matrix",
    "induced_distribution",
    "matrix_of_binary",
    "perturb_dataset",
    "privacy_level",
    "rr_mechanism",
    "ss_induced_distribution",
    "ss_params",
    "ss_perturb",
    "ss_privacy_level",
    "verify_ldp",
    "ColumnsConfig",
    "TabularDataset",
    "export_csv",
    "ingest_csv",
    "Calibration",
    "FairnessReport",
    "LinearClassifier",
    "TrainConfig",
    "equalized_odds_gaps",
    "equalized_opportunity_gap",
    "evaluate",
    "statistical_parity_gap",
    "train_logistic",
    "Mechanism",
    "RunConfig",
    "cmd_design",
    "cmd_evaluate",
    "cmd_perturb",
    "cmd_sweep",
    "cmd_verify",
    "load_config",
    "PlantedConfig",
    "bayes_accuracy",
    "generate_planted",
]

__version__ = "0.1.0"
