"""Greedy ensemble selection over stored predictions.

Selection is with replacement: each step adds the candidate whose inclusion
minimizes the validation loss of the running average, ties going to the
lowest config ordinal. The full trajectory is recorded for every step; the
returned weights come from the best prefix, which makes the ensemble's
validation loss never worse than the best single candidate's.

A task's candidate validation predictions are taken once from its
validation slab (:meth:`Repository.task_predictions`) as an ``(M, n, o)``
float64 stack. :meth:`metrics.StackLoss.check` checks that stack once, as
:func:`metrics.task_loss` checks each candidate, and returns the ``(M, n)``
column each metric reads. Each step then scores all M candidates in one
array operation, :meth:`metrics.StackLoss.score` of ``(running + columns) /
step``, where ``running`` sums the picked candidates' columns. That is the
column of the step's full average ``(running + stack) / step``, bit for bit,
so every score equals a full ``StackLoss`` call on that average. The checks
of that call hold without running it:

- shape: every average has the stack's shape;
- finite values: a step averages at most ``c_max`` stored float32 values,
  which cannot overflow float64;
- multiclass row sums: decided once per task. Let ``D`` be the largest
  distance from one of a candidate row sum. An average of row sums that are
  each within ``D`` of one is itself within ``D`` of one, and the row sums
  of a step's full average differ from that exact average by at most
  ``(c_max + o) * eps * mass``, where ``mass`` is the largest sum of
  absolute values in one candidate row. So when ``D`` is inside
  ``ROW_SUM_TOL`` by twice that bound, and by at least ``SCREEN_MARGIN``, no
  row of any step can fail and no later step is checked. Otherwise every
  later step runs the full check on its full average, so a step raises
  exactly when that check would.

The scalar ``task_loss`` stays the reference: the tests compare the batched
picks against it, and the final validation and test losses of an ensemble
come from it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import metrics
from .store import ROW_SUM_TOL, TEST, VAL, ProblemType, Repository

DEFAULT_STEPS = 40
SCREEN_MARGIN = 1e-9  # least distance inside ROW_SUM_TOL that skips later steps' row-sum checks


@dataclass
class EnsembleWeights:
    """Selection counts per config ordinal, normalized by total steps taken.

    ``trajectory`` holds one (chosen ordinal, validation loss after the step)
    pair for every step of the full run, even when the returned weights come
    from an earlier prefix.
    """

    counts: dict[int, int]
    steps: int
    trajectory: list[tuple[int, float]]

    @property
    def val_loss(self) -> float:
        """Validation loss of the returned (best-prefix) weights."""
        return self.trajectory[self.steps - 1][1]


def caruana_select(task, candidate_configs, c_max: int, repo: Repository) -> EnsembleWeights:
    """Run ``c_max`` greedy selection steps on a task's validation predictions.

    Returns the weights of the trajectory prefix with the lowest validation
    loss (earliest such prefix on ties). Step one therefore always picks the
    best single candidate.
    """
    if c_max < 1:
        raise ValueError(f"c_max must be >= 1, got {c_max}")
    t = repo.task_index(task)
    ordinals = repo.config_ordinals(candidate_configs)
    meta = repo.tasks[t]
    loss_of = metrics.StackLoss(meta, repo.labels(t, VAL))
    stack = repo.task_predictions(t, VAL)[ordinals].astype(np.float64)
    columns = loss_of.check(stack)  # step one's check: its average (0 + stack) / 1 is the stack
    picked = None  # running sum of the picked rows, kept only when later steps need the full check
    if meta.problem is ProblemType.MULTICLASS and c_max > 1:
        mass = np.abs(stack).sum(axis=2).max()
        rounding = (c_max + stack.shape[2]) * np.finfo(np.float64).eps * mass
        if np.abs(stack.sum(axis=2) - 1.0).max() > ROW_SUM_TOL - max(SCREEN_MARGIN, 2.0 * rounding):
            picked = np.zeros(stack.shape[1:], dtype=np.float64)

    running = np.zeros(columns.shape[1], dtype=np.float64)
    trajectory: list[tuple[int, float]] = []
    picks: list[int] = []
    for step in range(1, c_max + 1):
        if picked is not None and step > 1:
            loss_of.check((picked + stack) / step)
        scores = loss_of.score((running + columns) / step)
        k = int(np.argmin(scores))  # first minimum: the lowest ordinal wins ties
        running += columns[k]
        if picked is not None:
            picked += stack[k]
        picks.append(ordinals[k])
        trajectory.append((ordinals[k], float(scores[k])))

    losses = [loss for _, loss in trajectory]
    best_step = int(np.argmin(losses))  # earliest minimum
    counts = dict(sorted(Counter(picks[: best_step + 1]).items()))
    return EnsembleWeights(counts=counts, steps=best_step + 1, trajectory=trajectory)


def ensemble_predict(weights: EnsembleWeights, task, split, repo: Repository) -> np.ndarray:
    """Weighted average of stored member predictions; float32 like the store.

    Members come from the task split's slab and are summed in the order of
    ``weights.counts``.
    """
    t = repo.task_index(task)
    if isinstance(split, str):
        split = {"val": VAL, "test": TEST}[split]
    if not weights.counts:
        raise ValueError("ensemble weights are empty")
    slab = repo.task_predictions(t, split)
    terms = [count * slab[repo.config_index(j)].astype(np.float64)
             for j, count in weights.counts.items()]
    return (reduce(np.add, terms) / weights.steps).astype(np.float32)


def _select_and_score(repo: Repository, t: int, candidates, c_max: int
                      ) -> tuple[EnsembleWeights, float, float]:
    """Greedy weights of task ``t`` and the validation and test losses of that ensemble."""
    meta = repo.tasks[t]
    w = caruana_select(t, candidates, c_max, repo)
    val = metrics.task_loss(meta, ensemble_predict(w, t, VAL, repo), repo.labels(t, VAL))
    test = metrics.task_loss(meta, ensemble_predict(w, t, TEST, repo), repo.labels(t, TEST))
    return w, val, test


def evaluate_ensemble(datasets, folds, configs, ensemble_size: int,
                      repo: Repository) -> np.ndarray:
    """Ensemble losses per (dataset, fold): shape (len(datasets), len(folds), 2).

    The last axis is (val_loss, test_loss), in the order of the input lists.
    """
    ordinals = repo.config_ordinals(configs)
    results = [_select_and_score(repo, repo.task_index((d, f)), ordinals, ensemble_size)[1:]
               for d in datasets for f in folds]
    return np.array(results, dtype=np.float64).reshape(len(datasets), len(folds), 2)
