"""Greedy ensemble selection over stored predictions.

Selection is with replacement: each step adds the candidate whose inclusion
minimizes the validation loss of the running average, ties going to the
lowest config ordinal. The full trajectory is recorded for every step; the
returned weights come from the best prefix, which makes the ensemble's
validation loss never worse than the best single candidate's. A step's pick
does not depend on how many steps follow it, so a run of ``c`` steps is the
first ``c`` steps of any longer run on the same pool. Every greedy result is
therefore :func:`_best_prefix` of one run per distinct pool.

There is one greedy loop. It takes candidate pools of one task, each with
its own step count. Pools that are equal after
:meth:`Repository.config_ordinals` share one run, as long as the largest
count any of them asks for, and each then gets the best prefix of its own
count. The distinct pools run side by side, each exactly as a run of that
pool alone would, and :func:`caruana_select` is the call with one pool. The
candidates of all pools are taken once from the task's validation slab
(:meth:`Repository.task_predictions`) as an ``(M, n, o)`` float64 stack of
their union. :meth:`metrics.StackLoss.check` checks that stack once, as
:func:`metrics.task_loss` checks each candidate, and returns the ``(M, n)``
column each metric reads. The pools' entries, one pool after another,
gather their columns from it once. Each step then scores every entry of
every pool in one :meth:`metrics.StackLoss.score` call on ``(running +
columns) / step``, where ``running`` is the entry's pool's sum of picked
columns. That is the column of the pool's full average ``(running + stack)
/ step``, bit for bit, and every score reduces one row of that same
elementwise expression, so it equals the score of the pool's own run and
of a full ``StackLoss`` call on its average. The scores go into a ``(P,
W)`` grid, ``W`` the widest pool, whose slots past a pool's end hold
``inf``; the first minimum of each grid row is that pool's pick, so the
lowest ordinal wins ties and an ``inf`` slot never does. Only real entries
are scored: a pool of 200 next to pools of 20 would otherwise score mostly
padding. Every pool steps until the longest run ends; the steps past a
run's own length are never returned or checked. The checks of a full call
hold without running it:

- shape: every average has the stack's shape;
- finite values: a step averages at most ``c_max`` stored float32 values,
  which cannot overflow float64;
- multiclass row sums: decided once per run, from its pool's candidates
  alone and its own length ``c``, so each run decides as the own run of its
  longest request does. Let ``D`` be the largest distance from one of a
  candidate row sum. An average of row sums that are each within ``D`` of
  one is itself within ``D`` of one, and the row sums of a step's full
  average differ from that exact average by at most ``(c + o) * eps *
  mass``, where ``mass`` is the largest sum of absolute values in one
  candidate row. So when ``D`` is inside ``ROW_SUM_TOL`` by twice that
  bound, and by at least ``SCREEN_MARGIN``, no row of any of the run's
  steps can fail and no later step of it is checked. Otherwise the run keeps
  the sum of its picked rows, and each later step up to ``c`` runs the full
  check on the full averages of all such runs still running, at once. A
  step at which no checked run is still running checks nothing.

A pooled call therefore raises exactly when some request's own run raises,
with a message that some request's own run gives. The one check of the
union fails exactly when the check of some pool's candidates fails, and the
first of its parts to fail (shape, then finite values, then row sums) is
the first to fail for some pool. A later step ``s`` raises exactly when the
check of some checked run's full average fails there. That run is at least
``s`` steps long, so the request of its length checks step ``s`` in its own
run and raises there too. Conversely, a request whose own run raises at step
``s`` is checked at its count, so its pool's run, whose margin at a length
at least as large is no smaller, is checked at step ``s`` as well.

The validation and test losses of a task's ensembles come from one
``StackLoss`` call per split on the stack of their float32 predictions,
whose entries equal ``task_loss`` of each, bit for bit. The scalar
``task_loss`` stays the reference: the tests compare the batched picks and
those losses against it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate

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
    return _select_pools(repo, task, [candidate_configs], c_max)[0]


def _best_prefix(trajectory: list[tuple[int, float]], steps: int) -> EnsembleWeights:
    """The weights a run of ``steps`` steps returns: the earliest best prefix of
    ``trajectory`` cut to ``steps``."""
    trajectory = trajectory[:steps]
    losses = [loss for _, loss in trajectory]
    best = losses.index(min(losses)) + 1  # the losses are finite, so min finds the first best
    counts = dict(sorted(Counter(j for j, _ in trajectory[:best]).items()))
    return EnsembleWeights(counts=counts, steps=best, trajectory=trajectory)


def _select_pools(repo: Repository, task, pools, c_max) -> list[EnsembleWeights]:
    """:func:`caruana_select` of each candidate pool of one task, in one greedy loop.

    ``c_max`` is one step count for every pool or a list of one per pool.
    Pools that are equal after :meth:`Repository.config_ordinals` run once, to
    the most steps any of them asks for, and each gets the best prefix of its
    own count.
    """
    counts = list(c_max) if isinstance(c_max, list) else [c_max] * len(pools)
    if min(counts) < 1:
        raise ValueError(f"c_max must be >= 1, got {min(counts)}")
    t = repo.task_index(task)
    requests = [tuple(repo.config_ordinals(pool)) for pool in pools]
    # each distinct pool's run, with the most steps any request asks of it: sorted,
    # a pool's largest count comes last and so is the one the dict keeps
    lengths = dict(sorted(zip(requests, counts, strict=True)))
    pools, c_max = list(lengths), max(counts)
    meta = repo.tasks[t]
    loss_of = metrics.StackLoss(meta, repo.labels(t, VAL))
    union = sorted(set().union(*pools))
    stack = repo.task_predictions(t, VAL)[union].astype(np.float64)
    columns = loss_of.check(stack)  # step one's check: its average (0 + stack) / 1 is the stack
    # the pools' entries, one pool after another, as rows of the stack
    at = {j: i for i, j in enumerate(union)}
    rows = np.array([at[j] for pool in pools for j in pool])
    cols = columns[rows]
    sizes = [len(pool) for pool in pools]
    p, width = len(pools), max(sizes)
    owner = np.repeat(np.arange(p), sizes)
    firsts = np.array([0, *accumulate(sizes[:-1])])
    # a (P, W) grid of inf takes each step's scores, for the first minimum of each
    # pool; its slots past a pool's end stay inf
    slots = np.arange(len(rows)) + (owner * width - firsts[owner])
    grid = np.empty(p * width, dtype=np.float64)

    # each run's own row-sum decision at its own length; picked sums each pool's
    # picked rows, kept only when later steps check some run's full averages
    picked = None
    if meta.problem is ProblemType.MULTICLASS and c_max > 1:
        per_row = np.stack([np.abs(stack.sum(axis=2) - 1.0).max(axis=1),
                            np.abs(stack).sum(axis=2).max(axis=1)])
        distance, mass = np.maximum.reduceat(per_row[:, rows], firsts, axis=1)
        length = np.array(list(lengths.values()))
        rounding = (length + stack.shape[2]) * np.finfo(np.float64).eps * mass
        checked = (distance > ROW_SUM_TOL - np.maximum(SCREEN_MARGIN, 2.0 * rounding))[owner]
        if checked.any():
            checked_stack, checked_owner = stack[rows[checked]], owner[checked]
            checked_length = length[checked_owner]
            picked = np.zeros((p, *stack.shape[1:]), dtype=np.float64)

    running = np.zeros((p, columns.shape[1]), dtype=np.float64)
    picks = np.empty((c_max, p), dtype=np.int64)  # each step's picked entry per pool
    losses = np.empty((c_max, p), dtype=np.float64)
    for step in range(1, c_max + 1):
        if picked is not None and step > 1:
            ended = checked_length < step
            if ended.any():  # a checked run has taken its last step: stop checking it
                checked_stack, checked_owner, checked_length = (
                    a[~ended] for a in (checked_stack, checked_owner, checked_length))
            if checked_owner.size:
                loss_of.check((picked.take(checked_owner, axis=0) + checked_stack) / step)
        scores = loss_of.score((running.take(owner, axis=0) + cols) / step)
        grid.fill(np.inf)
        grid[slots] = scores
        # each pool's first minimum: the lowest ordinal wins ties
        k = grid.reshape(p, width).argmin(axis=1) + firsts
        running += cols[k]
        if picked is not None:
            picked += stack[rows[k]]
        picks[step - 1] = k
        losses[step - 1] = scores[k]

    chosen = np.array(union)[rows[picks]]  # (c_max, P) ordinals
    runs = {pool: list(zip(pool_picks, pool_losses))
            for pool, pool_picks, pool_losses in zip(pools, chosen.T.tolist(), losses.T.tolist())}
    return [_best_prefix(runs[pool], steps) for pool, steps in zip(requests, counts)]


def ensemble_predict(weights: EnsembleWeights, task, split, repo: Repository) -> np.ndarray:
    """Weighted average of stored member predictions; float32 like the store.

    Members come from the task split's slab and are summed in the order of
    ``weights.counts``.
    """
    t = repo.task_index(task)
    if isinstance(split, str):
        if split not in ("val", "test"):
            raise ValueError(f"split must be 'val' or 'test', got {split!r}")
        split = VAL if split == "val" else TEST
    if not weights.counts:
        raise ValueError("ensemble weights are empty")
    slab = repo.task_predictions(t, split)
    terms = [count * slab[repo.config_index(j)].astype(np.float64)
             for j, count in weights.counts.items()]
    return (reduce(np.add, terms) / weights.steps).astype(np.float32)


def _ensemble_losses(repo: Repository, t: int, weights: list[EnsembleWeights]
                     ) -> tuple[list[float], list[float]]:
    """Validation and test losses of each ensemble of task ``t``: one StackLoss call per split."""
    meta = repo.tasks[t]
    return tuple(
        metrics.StackLoss(meta, repo.labels(t, split))(
            np.stack([ensemble_predict(w, t, split, repo) for w in weights])).tolist()
        for split in (VAL, TEST))


def _select_and_score(repo: Repository, t: int, candidates, c_max: int
                      ) -> tuple[EnsembleWeights, float, float]:
    """Greedy weights of task ``t`` and the validation and test losses of that ensemble."""
    w = caruana_select(t, candidates, c_max, repo)
    [val], [test] = _ensemble_losses(repo, t, [w])
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
