"""Prediction repository and simulation engine for tabular model benchmarking.

Stores per-task, per-config model predictions and evaluations in a dense
binary format, then simulates ensembling, zeroshot portfolio learning, and
anytime budgets purely from the stored data.
"""

from .aggregate import (
    MethodResults,
    WinRate,
    average_rank,
    mean_normalized_error,
    normalized_error,
    rescaled_loss,
    winrate,
)
from .ensemble import EnsembleWeights, caruana_select, ensemble_predict, evaluate_ensemble
from .metrics import auc_loss, log_loss, rmse, task_loss
from .portfolio import (
    NORMALIZED_LOSS,
    RAW_LOSS,
    Portfolio,
    learn_portfolio,
    loo_train_tasks,
)
from .simulate import (
    BudgetPolicy,
    SimResult,
    anytime_filter,
    prefix_len,
    simulate_portfolio,
    simulate_single_family,
)
from .store import (
    TEST,
    VAL,
    ConfigMeta,
    ProblemType,
    Repository,
    StoreError,
    TaskMeta,
    open_repo,
    validate_repo,
    write_repo,
)
from .synth import (
    FamilySpec,
    GeneratorSpec,
    SpecError,
    aggregate_bag_predictions,
    generate_repo,
    oracle_auc_pairwise,
    oracle_greedy_extension,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetPolicy",
    "ConfigMeta",
    "EnsembleWeights",
    "FamilySpec",
    "GeneratorSpec",
    "MethodResults",
    "NORMALIZED_LOSS",
    "Portfolio",
    "ProblemType",
    "RAW_LOSS",
    "Repository",
    "SimResult",
    "SpecError",
    "StoreError",
    "TEST",
    "TaskMeta",
    "VAL",
    "WinRate",
    "aggregate_bag_predictions",
    "anytime_filter",
    "auc_loss",
    "average_rank",
    "caruana_select",
    "ensemble_predict",
    "evaluate_ensemble",
    "generate_repo",
    "learn_portfolio",
    "log_loss",
    "loo_train_tasks",
    "mean_normalized_error",
    "normalized_error",
    "open_repo",
    "oracle_auc_pairwise",
    "oracle_greedy_extension",
    "prefix_len",
    "rescaled_loss",
    "rmse",
    "simulate_portfolio",
    "simulate_single_family",
    "task_loss",
    "validate_repo",
    "winrate",
    "write_repo",
]
