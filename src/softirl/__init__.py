"""Reward and soft-value recovery from behavioral transition data.

The core solver reduces maximum-likelihood inverse reinforcement learning
under softmax behavior to probabilistic classification of the behavior
policy followed by an iterated regression that solves a linear fixed point
in a state potential. A gradient-based MaxEnt baseline and gridworld
benchmark harness are included.
"""

from softirl.envs import (
    FeatureMap,
    GridworldSpec,
    TransitionDataset,
    build_env,
    expert_policy,
    read_dataset,
    sample_transitions,
    write_dataset,
)
from softirl.maxent import MaxEntConfig, MaxEntFit, maxent_fit, maxent_loglik_and_grad
from softirl.mdp import (
    TabularMdp,
    apply_P,
    conditional_loglik,
    expect_mu,
    logsumexp_actions,
    policy_Q,
    policy_value,
    soft_bellman_residual,
    soft_value_iteration,
    stationary_distribution,
)
from softirl.metrics import MetricsReport, evaluate, qdiff
from softirl.oracles import (
    ClassifierSpec,
    FittedClassifier,
    FittedRegressor,
    RegressorSpec,
    fit_classifier,
    fit_regressor,
    log_policy,
)
from softirl.solver import (
    IrlSolution,
    NormalizationMeasure,
    SolverConfig,
    SolverDiagnostics,
    check_normalization,
    classify_then_regress,
    exact_population_solver,
    shape,
    split_classify_regress,
)

__version__ = "0.1.0"

__all__ = [
    "ClassifierSpec",
    "FeatureMap",
    "FittedClassifier",
    "FittedRegressor",
    "GridworldSpec",
    "IrlSolution",
    "MaxEntConfig",
    "MaxEntFit",
    "MetricsReport",
    "NormalizationMeasure",
    "RegressorSpec",
    "SolverConfig",
    "SolverDiagnostics",
    "TabularMdp",
    "TransitionDataset",
    "apply_P",
    "build_env",
    "check_normalization",
    "classify_then_regress",
    "conditional_loglik",
    "evaluate",
    "exact_population_solver",
    "expect_mu",
    "expert_policy",
    "fit_classifier",
    "fit_regressor",
    "log_policy",
    "logsumexp_actions",
    "maxent_fit",
    "maxent_loglik_and_grad",
    "policy_Q",
    "policy_value",
    "qdiff",
    "read_dataset",
    "sample_transitions",
    "shape",
    "soft_bellman_residual",
    "soft_value_iteration",
    "split_classify_regress",
    "stationary_distribution",
    "write_dataset",
]
