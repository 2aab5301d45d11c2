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

    Picks and objective bits are those of the plain greedy, which scores
    every remaining candidate at every step, but most of those scores are
    skipped (lazy greedy, Minoux 1978). Each score that is computed is the
    plain greedy's, ``np.add.reduce(np.minimum(current, rows), axis=1) / n``
    on C-contiguous rows, where ``current`` holds each task's least loss
    over the picks so far and ``n`` is the number of tasks.

    - Bound: a candidate's exact score falls by no more than the objective
      does, as ``min(a', x) >= min(a, x) - (a - a')`` when ``a' <= a``. If c
      was last scored ``F_c`` when the objective was ``f_then``, its exact
      score now is at least ``f_now - g_c``, with the stale gain
      ``g_c = f_then - F_c``. Step one scores every candidate. Its
      ``f_then`` is the objective of the column maxima: that state lies above
      every later ``current``, and each candidate's score in it is the one
      step one computes.
    - Margin: let ``L`` be the largest absolute loss in the table, so every
      summed term lies in ``[-L, L]``. A computed score or objective (``n``
      terms summed in any order, then divided by ``n``) is within
      ``delta = n * eps * L`` of its exact value. The computed bound is made
      of three such values and two rounded subtractions whose results lie
      within ``3 L``, so it is within ``3 * delta + 3 * eps * L`` of the exact
      bound, and the computed score is within ``delta`` of the exact score.
      The margin ``4 * (n + 1) * eps * L`` covers the sum.
    - Step: score the candidate with the lowest bound, then, in one gather
      in ascending ordinal, every remaining candidate whose bound is at most
      that score plus the margin. Rounding is monotone, so every candidate
      that scores at most that score is among them, and their first minimum
      is the plain greedy's pick.
    - Tail: once ``current`` is at most ``floor``, each task's least loss
      over all candidates, on every task, no remaining row is below
      ``current`` anywhere, and every remaining score sums the values of
      ``current``, as the last objective did. Zero signs cannot tell those
      sums apart. ``np.minimum`` returns its second operand on ties, so a
      row's ``-0.0`` may stand in for a ``+0.0`` of ``current``. But
      ``np.add.reduce`` starts from its identity ``+0.0``, and a rounded sum
      is ``-0.0`` only when both addends are. So a zero leaf's sign changes
      only the sign of zero partial sums, and the total is never ``-0.0``.
      Each remaining score therefore has the last objective's bits, and the
      rest of the portfolio is the remaining candidates in ordinal order,
      each with that objective.
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
    n_cands, n_tasks = by_cand.shape
    n_picks = min(n_max, n_cands)
    margin = 4 * (n_tasks + 1) * np.finfo(np.float64).eps * float(np.abs(by_cand).max())
    floor = by_cand.min(axis=0)

    current = np.full(n_tasks, np.inf)
    objective = float(np.add.reduce(by_cand.max(axis=0)) / n_tasks)  # step one's f_then
    gain = np.empty(n_cands)
    bound = np.full(n_cands, -np.inf)  # step one scores every row
    picked: list[int] = []
    trajectory: list[float] = []
    while len(picked) < n_picks and not (current <= floor).all():
        # the reduce and true-divide of .mean(axis=1), without its temporaries: same bits
        best = np.add.reduce(np.minimum(current, by_cand[np.argmin(bound)])) / n_tasks
        cols = np.flatnonzero(bound <= best + margin)
        scores = np.add.reduce(np.minimum(current, by_cand[cols]), axis=1)
        scores /= n_tasks
        k = int(np.argmin(scores))  # first minimum: the lowest ordinal wins ties
        col = int(cols[k])
        gain[cols] = objective - scores
        gain[col] = -np.inf  # a picked row's bound is inf, so it is never scored again
        objective = float(scores[k])
        picked.append(ordinals[col])
        trajectory.append(objective)
        np.minimum(current, by_cand[col], out=current)
        np.subtract(objective, gain, out=bound)
    for col in np.flatnonzero(gain > -np.inf)[: n_picks - len(picked)].tolist():
        picked.append(ordinals[col])
        trajectory.append(trajectory[-1])
    return Portfolio(configs=picked, objective_trajectory=trajectory, aggregation=aggregation)


def loo_train_tasks(repo: Repository, held_out_dataset: str) -> list[TaskMeta]:
    """All tasks whose dataset differs from ``held_out_dataset`` (leakage guard)."""
    if held_out_dataset not in repo.datasets:
        raise KeyError(f"unknown dataset: {held_out_dataset!r}")
    return [t for t in repo.tasks if t.dataset_id != held_out_dataset]
