"""Identification and equivalence calculus for discrete-time MIMO
input/output models: block simulation, cross-order equivalence testing and
order reduction, regularized recursive least squares, excitation
diagnostics, and closed-form convergence targets for every fit order at or
above the true one."""

__version__ = "0.1.0"

from .errors import NumericalError, ValidationError
from .model_core import (
    IOModel,
    Trajectory,
    TransitionPair,
    output_transition,
    simulate,
    transition_pair,
)
from .equivalence import (
    EquivalenceCertificate,
    ReducibilityReport,
    ReductionResult,
    build_lift_matrix,
    is_equivalent,
    lift_once,
    reduce_once,
    reducibility_check,
    trivial_embed,
)
from .rls import (
    FoldRecord,
    RlsState,
    batch_solve,
    cost,
    initial_state,
    regressor_matrix,
    rls_fold,
)
from .excitation import GramLimit, estimate_gram_limit, lift_identity_check, partial_gram_min_eigs
from .convergence import (
    ConvergenceTrace,
    ProjectedLimit,
    predict_asymptote,
    projected_limit,
    run_tracked_identification,
    theta_equivalence_residual,
)
from .inputs import InputSpec, generate_input, parse_input_spec
from .experiment import ExperimentConfig, RunManifest, load_config, run_experiment

__all__ = [
    "NumericalError", "ValidationError",
    "IOModel", "Trajectory", "TransitionPair", "output_transition", "simulate",
    "transition_pair",
    "EquivalenceCertificate", "ReducibilityReport", "ReductionResult",
    "build_lift_matrix", "is_equivalent", "lift_once", "reduce_once", "reducibility_check",
    "trivial_embed",
    "FoldRecord", "RlsState", "batch_solve", "cost", "initial_state",
    "regressor_matrix", "rls_fold",
    "GramLimit", "estimate_gram_limit", "lift_identity_check", "partial_gram_min_eigs",
    "ConvergenceTrace", "ProjectedLimit", "predict_asymptote",
    "projected_limit", "run_tracked_identification", "theta_equivalence_residual",
    "InputSpec", "generate_input", "parse_input_spec",
    "ExperimentConfig", "RunManifest", "load_config", "run_experiment",
]
