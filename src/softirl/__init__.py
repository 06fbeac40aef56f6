"""Reward and soft-value recovery from behavioral transition data.

The core solver reduces maximum-likelihood inverse reinforcement learning
under softmax behavior to probabilistic classification of the behavior
policy followed by an iterated regression that solves a linear fixed point
in a state potential. A gradient-based MaxEnt baseline and gridworld
benchmark harness are included.
"""

from softirl.envs import (
    GridworldSpec,
    TransitionDataset,
    build_env,
    expert_policy,
    read_dataset,
    sample_transitions,
    write_dataset,
)
from softirl.maxent import MaxEntConfig, MaxEntFit, maxent_fit
from softirl.mdp import (
    TabularMdp,
    apply_P,
    soft_value_iteration,
)
from softirl.metrics import MetricsReport, evaluate, qdiff
from softirl.oracles import (
    FittedRegressor,
    fit_classifier,
    fit_regressor,
)
from softirl.solver import (
    IrlSolution,
    SolverConfig,
    SolverDiagnostics,
    check_normalization,
    classify_then_regress,
    exact_population_solver,
    split_classify_regress,
)

__version__ = "0.1.0"

__all__ = [
    "FittedRegressor",
    "GridworldSpec",
    "IrlSolution",
    "MaxEntConfig",
    "MaxEntFit",
    "MetricsReport",
    "SolverConfig",
    "SolverDiagnostics",
    "TabularMdp",
    "TransitionDataset",
    "apply_P",
    "build_env",
    "check_normalization",
    "classify_then_regress",
    "evaluate",
    "exact_population_solver",
    "expert_policy",
    "fit_classifier",
    "fit_regressor",
    "maxent_fit",
    "qdiff",
    "read_dataset",
    "sample_transitions",
    "soft_value_iteration",
    "split_classify_regress",
    "write_dataset",
]
