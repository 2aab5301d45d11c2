"""Zeroshot portfolio learning from stored validation losses.

A portfolio is an ordered list of configs picked greedily: each step appends
the candidate that minimizes the mean, over training tasks, of the minimum
validation loss across the selected set. Two aggregation modes exist: raw
stored losses, and per-task min-max normalization over the candidate pool
(the default, which keeps heterogeneous metrics comparable across tasks).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .store import Repository, TaskMeta, _cell

RAW_LOSS = "raw_loss"
NORMALIZED_LOSS = "normalized_loss"
AGGREGATIONS = (RAW_LOSS, NORMALIZED_LOSS)

DEFAULT_SIZE = 200


@dataclass
class Portfolio:
    """Ordered config ordinals with the training objective after each pick."""

    configs: list[int]
    objective_trajectory: list[float]
    aggregation: str


def normalize_losses(loss_matrix: np.ndarray) -> np.ndarray:
    """Min-max rescale each row (task) across candidates; constant rows map to 0."""
    lo = loss_matrix.min(axis=1, keepdims=True)
    hi = loss_matrix.max(axis=1, keepdims=True)
    span = hi - lo
    out = np.zeros_like(loss_matrix)
    np.divide(loss_matrix - lo, span, out=out, where=span > 0)
    return out


def learn_portfolio(train_tasks, candidates, n_max: int, aggregation: str,
                    repo: Repository) -> Portfolio:
    """Greedy portfolio over ``candidates`` evaluated on ``train_tasks``.

    Ties go to the lowest config ordinal; a config is never picked twice
    (re-picking cannot improve a min-based objective). Stops after ``n_max``
    picks or when candidates are exhausted. No step depends on ``n_max``, so
    the first k picks and objectives of a larger run are the size-k
    portfolio. A non-finite loss among the selected tasks and candidates is a
    ValueError naming its (task, config).
    """
    if aggregation not in AGGREGATIONS:
        raise ValueError(f"aggregation must be one of {AGGREGATIONS}, got {aggregation!r}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    task_ids = sorted({repo.task_index(t) for t in train_tasks})
    if not task_ids:
        raise ValueError("train task list is empty")
    ordinals = repo.config_ordinals(candidates)

    losses = np.asarray(repo.eval_table[:, :, 0], dtype=np.float64)[np.ix_(task_ids, ordinals)]
    if not np.isfinite(losses).all():
        i, k = np.argwhere(~np.isfinite(losses))[0]
        raise ValueError(f"non-finite validation loss at {_cell(repo, task_ids[i], ordinals[k])}")
    if aggregation == NORMALIZED_LOSS:
        losses = normalize_losses(losses)
    # one C-contiguous row per candidate, so each row's mean sums the tasks in order
    by_cand = np.ascontiguousarray(losses.T)
    n_tasks = len(task_ids)
    current = np.full(n_tasks, np.inf)
    buf = np.empty_like(by_cand)
    objective = np.empty(len(ordinals))
    taken = np.zeros(len(ordinals), dtype=bool)
    picked: list[int] = []
    trajectory: list[float] = []
    for _ in range(min(n_max, len(ordinals))):
        # the reduce and true-divide of .mean(axis=1), without its temporaries: same bits
        np.minimum(current, by_cand, out=buf)
        np.add.reduce(buf, axis=1, out=objective)
        objective /= n_tasks
        objective[taken] = np.inf
        col = int(np.argmin(objective))  # first minimum: the lowest ordinal wins ties
        taken[col] = True
        picked.append(ordinals[col])
        np.minimum(current, by_cand[col], out=current)
        trajectory.append(float(objective[col]))
    return Portfolio(configs=picked, objective_trajectory=trajectory, aggregation=aggregation)


def loo_train_tasks(repo: Repository, held_out_dataset: str) -> list[TaskMeta]:
    """All tasks whose dataset differs from ``held_out_dataset`` (leakage guard)."""
    if held_out_dataset not in repo.datasets:
        raise KeyError(f"unknown dataset: {held_out_dataset!r}")
    return [t for t in repo.tasks if t.dataset_id != held_out_dataset]
