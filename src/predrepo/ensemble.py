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
its own step count. Each pool is an ascending array of distinct ordinals:
the simulation hands its pools over so, and any other pool goes through
:meth:`Repository.config_ordinals`. Equal pools share one run, as long as
the largest count any of them asks for, and each then gets the best prefix
of its own count. The distinct pools run side by side, each exactly as a
run of that pool alone would, and :func:`caruana_select` is the call with
one pool. The candidates of all pools are taken once from the task's
validation slab (:meth:`Repository.task_predictions`) as an ``(M, n, o)``
float64 stack of their union. One pool is its own union; more are merged
through a mark per config, which gives the union in ascending order and
each entry's row in it with no sort or hash. :meth:`metrics.StackLoss.check`
checks that stack once, as :func:`metrics.task_loss` checks each candidate,
and returns the ``(M, n)`` column each metric reads. Each step then scores
every entry of every pool in one :meth:`metrics.StackLoss.score` call on
``(running + columns) / step``, where ``running`` is the entry's pool's sum
of picked columns and ``columns`` the entries' columns, gathered once. That
is the column of the pool's full average ``(running + stack) / step``, bit
for bit, and every score reduces one row of that same elementwise
expression, so it equals the score of the pool's own run and of a full
``StackLoss`` call on its average. Step one's ``(0 + column) / 1`` is
``column + 0.0`` (it differs from the column only in the sign of a zero),
so step one scores each union column once and each entry reads its row's
score. The scores go into a ``(P,
W)`` grid, ``W`` the widest pool, filled with ``inf`` once. A step writes
only the slots of real entries, so the padding slots past a pool's end are
never written and hold ``inf``. The first minimum of each grid row is that
pool's pick, so the lowest ordinal wins ties and an ``inf`` slot never
does. Only real entries are scored: a pool of 200 next to pools of 20 would
otherwise score mostly padding. Every pool steps until the longest run
ends; the steps past a run's own length are never returned or checked. The
checks of a full call hold without running it:

- shape: every average has the stack's shape;
- finite values: a step averages at most ``c_max`` stored float32 values,
  which cannot overflow float64;
- multiclass row sums: decided once per call, from the candidates of all
  pools and the longest run's length ``c``. Let ``D`` be the largest
  distance from one of a candidate row sum, taken one class column at a
  time by :func:`store._class_sums`, which gives numpy's row sums without
  its loop per row. An average of row sums that are each within ``D`` of
  one is itself within ``D`` of one, and the row sums of a step's full
  average differ from that exact average by at most ``(c +
  o) * eps * mass``, where ``mass`` is the largest sum of absolute values in
  one candidate row. So when ``D`` is inside ``ROW_SUM_TOL`` by twice that
  bound, and by at least ``SCREEN_MARGIN``, no row of any step of any run
  can fail and no later step is checked. Otherwise each pool keeps the sum
  of its picked rows, and each later step runs the full check on the full
  averages of every run still running, at once.

The same bound decides a run alone, from its own pool's candidates and its
own length, and a run clear on its own cannot fail any step's check. A
pooled call therefore raises exactly when some request's own run raises,
with a message that some request's own run gives. The one check of the
union fails exactly when the check of some pool's candidates fails, and the
first of its parts to fail (shape, then finite values, then row sums) is
the first to fail for some pool. A later step ``s`` raises exactly when the
check of some run's full average fails there. That run is at least ``s``
steps long and not clear on its own, so the request of its length checks
step ``s`` in its own run and raises there too. Conversely, a request whose
own run raises at step ``s`` is not clear on its own. Its pool's candidates
are among the call's and its length is at most ``c``, so the call's ``D``
and bound are no smaller and the call's screen trips too; its pool's run,
at least ``s`` steps long, is checked at step ``s`` and raises.

The validation and test losses of a task's ensembles come from one
``StackLoss`` call per split on the stack of their float32 predictions,
whose entries equal ``task_loss`` of each, bit for bit. A split's distinct
ensembles are built at once, each as :func:`ensemble_predict` builds it:
one gather of the members' cells into an ``(E, K, n, o)`` array, ``K`` the
most members, each cell times its count, then one add per member position,
left to right, as ``reduce(np.add, ...)`` adds the terms in the order of
``counts``. The slots past an ensemble's last member hold ``-0.0``, the one
addend that leaves every float as it is, ``-0.0`` too; ``0.0`` would turn a
``-0.0`` sum into ``0.0``, and ``0 * cell`` would read a cell of another
config, NaN perhaps. The scalar ``task_loss`` stays the reference: the
tests compare the batched picks and those losses against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import metrics
from .store import ROW_SUM_TOL, TEST, VAL, ProblemType, Repository, _class_sums

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
    if isinstance(candidate_configs, np.ndarray):  # resolved entry by entry, not taken as is
        candidate_configs = list(candidate_configs)
    return _select_pools(repo, task, [candidate_configs], c_max)[0]


def _best_prefix(trajectory: list[tuple[int, float]], steps: int) -> EnsembleWeights:
    """The weights a run of ``steps`` steps returns: the earliest best prefix of
    ``trajectory`` cut to ``steps``."""
    trajectory = trajectory[:steps]
    losses = [loss for _, loss in trajectory]
    best = losses.index(min(losses)) + 1  # the losses are finite, so min finds the first best
    counts: dict[int, int] = {}
    for j in sorted([j for j, _ in trajectory[:best]]):  # a Counter costs 1.5 us more a call
        counts[j] = counts.get(j, 0) + 1
    return EnsembleWeights(counts=counts, steps=best, trajectory=trajectory)


def _select_pools(repo: Repository, task, pools, c_max) -> list[EnsembleWeights]:
    """:func:`caruana_select` of each candidate pool of one task, in one greedy loop.

    ``c_max`` is one step count for every pool or a list of one per pool. A
    pool is an ``np.ndarray`` of ascending, distinct, in-range config
    ordinals, taken as it is (the simulation hands its pools over so), or
    any other iterable of configs, resolved by
    :meth:`Repository.config_ordinals`. Equal pools run once, to the most
    steps any of them asks for, and each gets the best prefix of its own
    count.
    """
    counts = list(c_max) if isinstance(c_max, list) else [c_max] * len(pools)
    if min(counts) < 1:
        raise ValueError(f"c_max must be >= 1, got {min(counts)}")
    t = repo.task_index(task)
    requests = [pool if type(pool) is np.ndarray else np.array(repo.config_ordinals(pool))
                for pool in pools]
    keys = [pool.tobytes() for pool in requests]
    # each distinct pool's run, with the most steps any request asks of it
    lengths: dict[bytes, int] = {}
    for key, steps in zip(keys, counts, strict=True):
        lengths[key] = max(steps, lengths.get(key, 0))
    pools = list(dict(zip(keys, requests)).values())  # one array per key, in key order
    c_max = max(counts)
    meta = repo.tasks[t]
    loss_of = metrics.StackLoss(meta, repo.labels(t, VAL))
    # the union of the pools, and each entry's row in it: one pool is its own
    # union, and more are merged through a mark per config
    if len(pools) == 1:
        union, rows = pools[0], np.arange(len(pools[0]))
    else:
        entries = np.concatenate(pools)
        row_of = np.zeros(repo.n_configs, dtype=np.intp)
        row_of[entries] = 1
        union = np.flatnonzero(row_of)
        row_of[union] = np.arange(union.size)
        rows = row_of[entries]
    stack = repo.task_predictions(t, VAL)[union].astype(np.float64)
    columns = loss_of.check(stack)  # step one's check: its average (0 + stack) / 1 is the stack
    sizes = [len(pool) for pool in pools]
    p, width = len(pools), max(sizes)
    owner = np.repeat(np.arange(p), sizes)
    firsts = np.add.accumulate(sizes) - sizes  # np.cumsum of a list costs 3 us more
    # a (P, W) grid of inf takes each step's scores, for the first minimum of each
    # pool; only the real entries' slots are written, so those past a pool's end stay inf
    slots = np.arange(len(rows)) + (owner * width - firsts[owner])
    grid = np.full(p * width, np.inf)

    # one row-sum decision for the call, from all candidates and the longest run;
    # picked sums each pool's picked rows, kept only when later steps check
    picked = None
    if meta.problem is ProblemType.MULTICLASS and c_max > 1:
        distance, mass = np.abs(_class_sums(stack) - 1.0).max(), _class_sums(np.abs(stack)).max()
        rounding = (c_max + stack.shape[2]) * np.finfo(np.float64).eps * mass
        if distance > ROW_SUM_TOL - max(SCREEN_MARGIN, 2.0 * rounding):
            length = np.array(list(lengths.values()))[owner]  # each entry's run length
            picked = np.zeros((p, *stack.shape[1:]), dtype=np.float64)

    # step one scores each union column once: its (0 + column) / 1 is column + 0.0
    scores = loss_of.score(columns + 0.0)[rows]
    if c_max > 1:
        cols = columns[rows]
        running = np.zeros((p, columns.shape[1]), dtype=np.float64)
    picks = np.empty((c_max, p), dtype=np.intp)  # each step's picked entry per pool
    losses = np.empty((c_max, p), dtype=np.float64)
    for step in range(1, c_max + 1):
        if step > 1:
            if picked is not None:
                live = length >= step  # the entries of the runs that have not taken their last step
                loss_of.check((picked.take(owner[live], axis=0) + stack[rows[live]]) / step)
            scores = loss_of.score((running.take(owner, axis=0) + cols) / step)
        grid[slots] = scores
        # each pool's first minimum: the lowest ordinal wins ties
        k = grid.reshape(p, width).argmin(axis=1) + firsts
        picks[step - 1] = k
        losses[step - 1] = scores[k]
        if step < c_max:
            running += cols[k]
            if picked is not None:
                picked += stack[rows[k]]

    chosen = union[rows[picks]]  # (c_max, P) ordinals
    runs = {key: list(zip(pool_picks, pool_losses))
            for key, pool_picks, pool_losses in zip(lengths, chosen.T.tolist(), losses.T.tolist())}
    return [_best_prefix(runs[key], steps) for key, steps in zip(keys, counts)]


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
    """Validation and test losses of each ensemble of task ``t``: one StackLoss call per split.

    Ensembles with equal counts, in equal order, and equal steps have equal
    predictions, so each distinct one is built and scored once and its
    losses are shared. A split's distinct ensembles are built together, as
    :func:`ensemble_predict` builds each: one gather of their members'
    cells, each times its count, added over member positions left to right,
    then divided by the steps and cast to float32. The slots past an
    ensemble's last member hold ``-0.0``, which leaves every sum as it is.
    """
    meta = repo.tasks[t]
    index: dict[tuple, int] = {}
    rows = [index.setdefault((tuple(w.counts.items()), w.steps), len(index)) for w in weights]
    sizes = np.array([len(counts) for counts, _ in index])
    members = np.zeros((len(index), sizes.max()), dtype=np.intp)
    weight = np.zeros(members.shape, dtype=np.float64)
    for e, (counts, _) in enumerate(index):
        members[e, :len(counts)], weight[e, :len(counts)] = zip(*counts)
    padding = np.arange(members.shape[1]) >= sizes[:, None]
    steps = np.array([steps for _, steps in index], dtype=np.float64)[:, None, None]
    losses = []
    for split in (VAL, TEST):
        terms = repo.task_predictions(t, split)[members].astype(np.float64)
        terms *= weight[:, :, None, None]
        terms[padding] = -0.0
        total = terms[:, 0]
        for k in range(1, members.shape[1]):
            total += terms[:, k]
        stack = (total / steps).astype(np.float32)
        losses.append(metrics.StackLoss(meta, repo.labels(t, split))(stack)[rows].tolist())
    return losses[0], losses[1]


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
