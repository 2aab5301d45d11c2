"""Greedy ensemble selection over stored predictions.

Selection is with replacement: each step adds the candidate whose inclusion
minimizes the validation loss of the running average, ties going to the
lowest config ordinal. The full trajectory is recorded for every step; the
returned weights come from the best prefix, which makes the ensemble's
validation loss never worse than the best single candidate's.

A task's candidate validation predictions are taken once from its
validation slab (:meth:`Repository.task_predictions`) as an ``(M, n, o)``
float64 array, and each step scores all M candidates in one
array operation with :class:`metrics.StackLoss`, which checks and computes
exactly what :func:`metrics.task_loss` does for each candidate. The scalar
``task_loss`` stays the reference: the tests compare the batched picks
against it, and the final validation and test losses of an ensemble come
from it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import metrics
from .store import TEST, VAL, Repository

DEFAULT_STEPS = 40


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

    def weight(self, config: int) -> float:
        return self.counts.get(config, 0) / self.steps


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
    loss_of = metrics.StackLoss(repo.tasks[t], repo.labels(t, VAL))
    stack = repo.task_predictions(t, VAL)[ordinals].astype(np.float64)

    running = np.zeros(stack.shape[1:], dtype=np.float64)
    trajectory: list[tuple[int, float]] = []
    picks: list[int] = []
    for step in range(1, c_max + 1):
        scores = loss_of((running + stack) / step)
        k = int(np.argmin(scores))  # first minimum: the lowest ordinal wins ties
        running += stack[k]
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
