"""Anytime-budget simulation over leave-one-dataset-out portfolios.

Configs are "trained" in portfolio order against recorded fit times: a config
is included iff the cumulative fit time after it still fits the budget, and
the walk stops at the first exclusion. When nothing fits, a designated cheap
fallback config stands in. Ensemble selection itself is charged no time; it
is a lookup-table operation over stored predictions.

Every simulation computes only on checked evaluation values: it starts with
:func:`store._check_evals`, the screen :func:`store.open_repo` runs, because
an in-memory repository takes its table unchecked and keeps the caller's
array. A NaN, infinite or negative record is a StoreError naming the first.

One loop simulates, :func:`_simulate_methods`. For each task it builds the
greedy candidate pool of every method asked for, each family's
``tuned+ensemble`` pool and one pool per run of a leave-one-out portfolio
set, and makes one pooled greedy call for them all, each pool with its own
step count. A run's result is the best prefix of its own count of the one
greedy run on its pool, so runs on the same pool share that run.
``simulate`` asks for every family at ``c_max`` and two runs on one set:
``Portfolio (ensemble)`` at ``c_max`` and ``Portfolio`` at one step.
``ablate`` asks for every family at ``--c-max`` and every distinct run (one
per learner input, size and ``c_max``) at its own ``c_max``.
:func:`simulate_portfolio` and :func:`simulate_single_family` ask for one run
or one family; the ``default`` and ``tuned`` family modes need no greedy run
and skip the loop.

The bookkeeping before that loop is done in whole-array passes, each equal,
bit for bit, to the per-task code it replaces (:func:`_walk`,
:func:`anytime_filter` and a sort of (loss, ordinal) pairs remain its
one-task forms):

- Budget walks (:func:`_walks`): one ``np.add.accumulate`` along the rows
  of a (tasks, order) table of fit times per family, and per run for all of
  its held-out portfolios, padded to the longest. An accumulate adds each
  row left to right, as :func:`prefix_len` does, so every running total,
  and so every cut, is the one-task walk's. A walk ends at its order's end,
  padding or not, and ``+ 0.0`` turns a ``-0.0`` total into the ``0.0`` of a
  sum started from zero.
- Tuned picks and pools (:func:`_family_rows`): one ``np.lexsort`` of each
  family's table by (untrained, stored validation loss, ordinal) ranks each
  task's trained configs by loss, ties to the lowest ordinal, ahead of every
  untrained one, whatever its loss. That is the order of sorted (loss,
  ordinal) pairs over the trained prefix: the screen leaves no NaN, which
  ``sorted`` and ``np.lexsort`` would place differently, and both read
  ``-0.0`` and ``0.0`` as equal.
- Pools: each goes to the greedy loop as an ascending array of distinct
  ordinals (:func:`_sorted_prefixes`), which it takes as it is.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .ensemble import EnsembleWeights, _ensemble_losses, _select_pools
from .portfolio import NORMALIZED_LOSS, Portfolio, learn_portfolio, loo_train_tasks
from .store import Repository, _check_evals

FALLBACK_MAX_FIT_S = 60.0
TUNED_ENSEMBLE_POOL = 20  # ensemble is built on the best configs found by the search

MODE_DEFAULT = "default"
MODE_TUNED = "tuned"
MODE_TUNED_ENSEMBLE = "tuned+ensemble"
FAMILY_MODES = (MODE_DEFAULT, MODE_TUNED, MODE_TUNED_ENSEMBLE)


class BudgetPolicy:
    """Training-time budget plus the fallback used when nothing fits.

    The fallback must be quick on every task of the repository; this is
    checked at construction.
    """

    def __init__(self, budget_s: float, fallback_config, repo: Repository):
        if not budget_s > 0:
            raise ValueError(f"budget_s must be > 0, got {budget_s}")
        self.budget_s = float(budget_s)
        self.fallback_config = repo.config_index(fallback_config)
        fit_times = np.asarray(repo.eval_table[:, self.fallback_config, 2])
        worst = float(fit_times.max())
        if worst > FALLBACK_MAX_FIT_S:
            raise ValueError(
                f"fallback config {repo.configs[self.fallback_config].config_id!r} takes "
                f"{worst:.1f}s on some task, above the {FALLBACK_MAX_FIT_S:.0f}s limit"
            )


@dataclass
class SimResult:
    """Outcome of simulating one method on one task."""

    dataset_id: str
    fold: int
    included_configs: list[int]
    used_fallback: bool
    val_loss: float
    test_loss: float
    sim_fit_time_s: float
    sim_infer_time_s: float

    @property
    def key(self) -> tuple[str, int]:
        return (self.dataset_id, self.fold)


def prefix_len(fit_times, budget_s: float) -> int:
    """How many leading entries fit: largest k with sum(times[:k]) <= budget."""
    total = 0.0
    for k, t in enumerate(fit_times):
        total += float(t)
        if total > budget_s:
            return k
    return len(fit_times)


def _sum_in_order(values: list[float]) -> float:
    """Left-to-right float sum. Not ``sum()``: from Python 3.12 it compensates float lists."""
    total = 0.0
    for v in values:
        total += v
    return total


def _walks(repo: Repository, tasks: np.ndarray, orders: list[list[int]], of_task: np.ndarray,
           policy: BudgetPolicy) -> tuple[np.ndarray, np.ndarray, list[tuple[list[int], bool, float]]]:
    """Train an order on each of ``tasks`` under the budget: ``orders[of_task[i]]`` on ``tasks[i]``.

    Returns the (tasks, width) table of each task's order, past its end
    padded with ordinal 0, each task's count of trained configs, and its
    (trained, used_fallback, fit_s). One ``np.add.accumulate`` along the rows
    of the table's fit times adds each row left to right, as
    :func:`prefix_len` does, and a walk stops at its first running total over
    the budget, NaN and negative fit times included, or at its order's end.
    ``+ 0.0`` turns a ``-0.0`` total into the ``0.0`` that a sum started from
    zero gives.
    """
    fit_times = repo.eval_table[:, :, 2]
    lengths = np.array([len(order) for order in orders])
    ordinals = np.zeros((len(orders), lengths.max()), dtype=np.intp)
    for row, order in zip(ordinals, orders):
        row[:len(order)] = order
    ordinals = ordinals[of_task]
    total = np.add.accumulate(fit_times[tasks[:, None], ordinals], axis=1)
    over = total > policy.budget_s
    k = np.minimum(np.where(over.any(axis=1), over.argmax(axis=1), total.shape[1]),
                   lengths[of_task])
    j = policy.fallback_config
    fit = np.where(k > 0, total[np.arange(len(k)), k - 1], fit_times[tasks, j]) + 0.0
    return ordinals, k, [(orders[o][:n], False, f) if n else ([j], True, f)
                         for o, n, f in zip(of_task.tolist(), k.tolist(), fit.tolist())]


def _walk(repo: Repository, t: int, order: list[int],
          policy: BudgetPolicy) -> tuple[list[int], bool, float]:
    """Train ``order`` on task ``t`` under the budget: (trained, used_fallback, fit_s)."""
    return _walks(repo, np.array([t]), [order], np.zeros(1, dtype=np.intp), policy)[2][0]


def anytime_filter(portfolio: Portfolio, task, policy: BudgetPolicy,
                   repo: Repository) -> tuple[list[int], bool]:
    """Budget-filter a portfolio for one task; returns (included, used_fallback)."""
    if not portfolio.configs:
        raise ValueError("portfolio is empty")
    trained, used_fallback, _ = _walk(repo, repo.task_index(task), list(portfolio.configs), policy)
    return trained, used_fallback


def _sorted_prefixes(ordinals: np.ndarray, k: np.ndarray, fallback: int) -> list[np.ndarray]:
    """Each row's first ``k[r]`` ordinals in ascending order, or ``[fallback]``
    where ``k[r]`` is 0: the sorted pools :func:`ensemble._select_pools` takes as
    they are."""
    kept = np.arange(ordinals.shape[1]) < k[:, None]
    cut = np.sort(np.where(kept, ordinals, np.iinfo(np.intp).max), axis=1)
    return [row[:n] if n else np.array([fallback]) for row, n in zip(cut, k.tolist())]


def _ensemble_results(repo: Repository, t: int, walks: list[tuple[list[int], bool, float]],
                      weights: list[EnsembleWeights]) -> list[SimResult]:
    """One SimResult per budget walk and its pool's ensemble weights on task ``t``.

    Each result keeps its walk's list of trained configs, which no other
    result shares.
    """
    meta = repo.tasks[t]
    infer_times = repo.eval_table[t, :, 3].tolist()
    return [SimResult(meta.dataset_id, meta.fold, trained, fb, val, test, fit,
                      _sum_in_order([infer_times[j] for j in w.counts]))
            for (trained, fb, fit), w, val, test in zip(walks, weights,
                                                        *_ensemble_losses(repo, t, weights))]


def _loo_portfolios(repo: Repository, n_max: int, aggregation: str,
                    candidates: list[int] | None = None,
                    train_datasets: dict[str, list[str]] | None = None) -> dict[str, Portfolio]:
    """One portfolio per dataset, learned on every other dataset's tasks.

    ``train_datasets`` optionally restricts, per held-out dataset, which other
    datasets contribute training tasks (used by ablations).
    """
    if len(repo.datasets) < 2:
        raise ValueError("leave-one-out simulation needs at least 2 datasets")
    if candidates is None:
        candidates = list(range(repo.n_configs))
    portfolios = {}
    for dataset in repo.datasets:
        train = loo_train_tasks(repo, dataset)
        if train_datasets is not None:
            allowed = set(train_datasets[dataset])
            train = [t for t in train if t.dataset_id in allowed]
        if not train:
            raise ValueError(f"no training tasks remain for held-out dataset {dataset!r}")
        portfolios[dataset] = learn_portfolio(train, candidates, n_max, aggregation, repo)
    return portfolios


def simulate_portfolio(repo: Repository, policy: BudgetPolicy, n_max: int,
                       c_max: int, aggregation: str = NORMALIZED_LOSS) -> list[SimResult]:
    """Anytime LOO simulation: one SimResult per task, in repository task order."""
    _check_evals(repo)
    _, [results] = _simulate_methods(repo, policy, c_max, [],
                                     [(_loo_portfolios(repo, n_max, aggregation), c_max)])
    return results


def _family_order(repo: Repository, family: str, order_seed: int | None) -> list[int]:
    order = repo.family_configs(family)
    if order_seed is not None:
        tag = zlib.crc32(family.encode("utf-8"))
        # a uint64 array, as in synth.rng_stream: a list would go through float64
        key = np.array([order_seed & (2**64 - 1), tag], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        order = [order[i] for i in rng.permutation(len(order))]
    return order


def _family_plan(repo: Repository, family: str, order_seed: int | None) -> tuple[int, list[int]]:
    """A family's default config and the order in which its tuned search tries its configs."""
    defaults = [j for j in repo.family_configs(family) if repo.configs[j].is_default]
    if not defaults:
        raise ValueError(f"family {family!r} has no default config")
    return defaults[0], _family_order(repo, family, order_seed)


def _family_rows(repo: Repository, default: int, order: list[int], policy: BudgetPolicy
                 ) -> tuple[list[SimResult], list[SimResult], list[np.ndarray], list[tuple]]:
    """A family's ``default`` and ``tuned`` results on every task, and its
    ``tuned+ensemble`` pools and budget walks.

    The tuned pick and pool come from one ``np.lexsort`` of each task's row by
    (untrained, stored validation loss, ordinal): the trained configs by loss,
    the lowest ordinal first on ties, and the untrained ones after them all.
    """
    tasks = np.arange(repo.n_tasks)
    ordinals, k, walks = _walks(repo, tasks, [order], np.zeros_like(tasks), policy)
    untrained = np.arange(len(order)) >= k[:, None]
    keys = (ordinals, repo.eval_table[tasks[:, None], ordinals, 0], untrained)
    ranked = np.take_along_axis(ordinals, np.lexsort(keys, axis=1)[:, :TUNED_ENSEMBLE_POOL], axis=1)
    best = np.where(k > 0, ranked[:, 0], policy.fallback_config)
    plain, tuned = [], []
    for meta, rec, top, (trained, fb, fit) in zip(
            repo.tasks, repo.eval_table[:, default].tolist(),
            repo.eval_table[tasks, best].tolist(), walks):
        plain.append(SimResult(meta.dataset_id, meta.fold, [default], False,
                               rec[0], rec[1], rec[2] + 0.0, rec[3]))
        tuned.append(SimResult(meta.dataset_id, meta.fold, list(trained), fb,
                               top[0], top[1], fit, top[3]))
    pools = _sorted_prefixes(ranked, np.minimum(k, TUNED_ENSEMBLE_POOL), policy.fallback_config)
    return plain, tuned, pools, walks


def simulate_single_family(repo: Repository, family: str, mode: str,
                           policy: BudgetPolicy, c_max: int,
                           order_seed: int | None = None) -> list[SimResult]:
    """Simulate one model family on every task.

    ``default`` reports the family's default config as stored, except that a
    ``-0.0`` fit time reads ``0.0`` as in the other rows. ``tuned`` walks the
    family's configs in repository order (or a seeded shuffle) under the
    budget and keeps the one with the best stored validation loss.
    ``tuned+ensemble`` runs greedy selection over the best 20 configs that fit.
    """
    if mode not in FAMILY_MODES:
        raise ValueError(f"mode must be one of {FAMILY_MODES}, got {mode!r}")
    _check_evals(repo)
    if mode == MODE_TUNED_ENSEMBLE:
        by_family, _ = _simulate_methods(repo, policy, c_max, [family], [], order_seed)
        return by_family[family, mode]
    plain, tuned, _, _ = _family_rows(repo, *_family_plan(repo, family, order_seed), policy)
    return plain if mode == MODE_DEFAULT else tuned


def _simulate_methods(repo: Repository, policy: BudgetPolicy, c_max: int,
                      families: list[str], runs: list[tuple[dict[str, Portfolio], int]],
                      order_seed: int | None = None
                      ) -> tuple[dict[tuple[str, str], list[SimResult]], list[list[SimResult]]]:
    """The three methods of each of ``families``, with ``c_max`` greedy steps,
    and the portfolio method of each run in ``runs``, with one greedy call per
    task for all of their pools.

    Each run is a (leave-one-out portfolio set, step count) pair: on each
    task it runs greedy selection with that many steps over its held-out
    dataset's portfolio of the set, budget-filtered. That is ``Portfolio
    (ensemble)``, or ``Portfolio`` when the count is one. Runs whose pools
    are equal on a task share one greedy run there, and each takes the best
    prefix of its own count, as a run of that count alone would return.

    Returns ``(by_family, ensembles)``. ``by_family`` maps each ``(family,
    mode)``, in ``families`` order and then ``FAMILY_MODES`` order, to one
    SimResult per task. ``ensembles[i]`` holds one SimResult per task for
    ``runs[i]``.
    """
    _check_evals(repo)
    by_family, pools, walks = {}, [], []
    for family in families:
        default, order = _family_plan(repo, family, order_seed)
        plain, tuned, family_pools, family_walks = _family_rows(repo, default, order, policy)
        by_family[family, MODE_DEFAULT], by_family[family, MODE_TUNED] = plain, tuned
        by_family[family, MODE_TUNED_ENSEMBLE] = []
        pools.append(family_pools)
        walks.append(family_walks)
    tasks = np.arange(repo.n_tasks)
    dataset_index = {dataset: i for i, dataset in enumerate(repo.datasets)}
    of_task = np.array([dataset_index[meta.dataset_id] for meta in repo.tasks])
    for portfolios, _ in runs:
        orders = [list(portfolios[dataset].configs) for dataset in repo.datasets]
        ordinals, k, run_walks = _walks(repo, tasks, orders, of_task, policy)
        pools.append(_sorted_prefixes(ordinals, k, policy.fallback_config))
        walks.append(run_walks)

    # the results of each pool in a task's pool list: the family pools, then the runs' pools
    outs = [by_family[family, MODE_TUNED_ENSEMBLE] for family in families] + [[] for _ in runs]
    counts = [c_max] * len(families) + [steps for _, steps in runs]
    for t in range(repo.n_tasks):
        task_walks = [method_walks[t] for method_walks in walks]
        weights = _select_pools(repo, t, [method_pools[t] for method_pools in pools], counts)
        for out, result in zip(outs, _ensemble_results(repo, t, task_walks, weights)):
            out.append(result)
    return by_family, outs[len(families):]
