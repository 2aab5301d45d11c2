"""Anytime-budget simulation over leave-one-dataset-out portfolios.

Configs are "trained" in portfolio order against recorded fit times: a config
is included iff the cumulative fit time after it still fits the budget, and
the walk stops at the first exclusion. When nothing fits, a designated cheap
fallback config stands in. Ensemble selection itself is charged no time; it
is a lookup-table operation over stored predictions.

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
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .ensemble import EnsembleWeights, _ensemble_losses, _select_pools
from .portfolio import NORMALIZED_LOSS, Portfolio, learn_portfolio, loo_train_tasks
from .store import Repository

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


def _walk(repo: Repository, t: int, order: list[int],
          policy: BudgetPolicy) -> tuple[list[int], bool, float]:
    """Train ``order`` on task ``t`` under the budget: (trained, used_fallback, fit_s).

    Adds left to right and stops at the first running total over the budget, as
    :func:`prefix_len` does, NaN and negative fit times included. ``+ 0.0`` turns
    a ``-0.0`` total into the ``0.0`` that a sum started from zero gives.
    """
    total = np.add.accumulate(repo.eval_table[t, order, 2])
    over = np.flatnonzero(total > policy.budget_s)
    k = int(over[0]) if over.size else len(order)
    if k == 0:
        j = policy.fallback_config
        return [j], True, float(repo.eval_table[t, j, 2]) + 0.0
    return order[:k], False, float(total[k - 1]) + 0.0


def anytime_filter(portfolio: Portfolio, task, policy: BudgetPolicy,
                   repo: Repository) -> tuple[list[int], bool]:
    """Budget-filter a portfolio for one task; returns (included, used_fallback)."""
    if not portfolio.configs:
        raise ValueError("portfolio is empty")
    trained, used_fallback, _ = _walk(repo, repo.task_index(task), list(portfolio.configs), policy)
    return trained, used_fallback


def _ensemble_results(repo: Repository, t: int, walks: list[tuple[list[int], bool, float]],
                      weights: list[EnsembleWeights]) -> list[SimResult]:
    """One SimResult per budget walk and its pool's ensemble weights on task ``t``."""
    meta = repo.tasks[t]
    out = []
    for (trained, fb, fit), w, val, test in zip(walks, weights,
                                                *_ensemble_losses(repo, t, weights)):
        infer = _sum_in_order(repo.eval_table[t, list(w.counts), 3].tolist())
        out.append(SimResult(meta.dataset_id, meta.fold, list(trained), fb, val, test, fit, infer))
    return out


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


def _family_task(repo: Repository, t: int, default: int, order: list[int],
                 policy: BudgetPolicy) -> tuple[SimResult, SimResult, list[int], tuple]:
    """A family's ``default`` and ``tuned`` results on task ``t``, and its
    ``tuned+ensemble`` pool and budget walk."""
    meta = repo.tasks[t]
    rec = repo.eval_table[t, default]
    plain = SimResult(meta.dataset_id, meta.fold, [default], False,
                      float(rec[0]), float(rec[1]), float(rec[2]) + 0.0, float(rec[3]))
    walk = trained, fb, fit = _walk(repo, t, order, policy)
    # (validation loss, ordinal) pairs: the lowest loss first, the lowest ordinal on ties
    ranked = sorted(zip(repo.eval_table[t, trained, 0].tolist(), trained))
    rec = repo.eval_table[t, ranked[0][1]]
    tuned = SimResult(meta.dataset_id, meta.fold, list(trained), fb,
                      float(rec[0]), float(rec[1]), fit, float(rec[3]))
    return plain, tuned, [j for _, j in ranked[:TUNED_ENSEMBLE_POOL]], walk


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
    if mode == MODE_TUNED_ENSEMBLE:
        by_family, _ = _simulate_methods(repo, policy, c_max, [family], [], order_seed)
        return by_family[family, mode]
    default, order = _family_plan(repo, family, order_seed)
    tasks = [_family_task(repo, t, default, order, policy) for t in range(repo.n_tasks)]
    return [plain if mode == MODE_DEFAULT else tuned for plain, tuned, _, _ in tasks]


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
    plans = [_family_plan(repo, family, order_seed) for family in families]
    by_family = {(family, mode): [] for family in families for mode in FAMILY_MODES}
    # the results of each pool in a task's pool list: the family pools, then the runs' pools
    outs = [by_family[family, MODE_TUNED_ENSEMBLE] for family in families] + [[] for _ in runs]
    counts = [c_max] * len(families) + [steps for _, steps in runs]
    for t in range(repo.n_tasks):
        pools, walks = [], []
        for family, (default, order) in zip(families, plans):
            plain, tuned, pool, walk = _family_task(repo, t, default, order, policy)
            by_family[family, MODE_DEFAULT].append(plain)
            by_family[family, MODE_TUNED].append(tuned)
            pools.append(pool)
            walks.append(walk)
        for portfolios, _ in runs:
            walks.append(_walk(repo, t, list(portfolios[repo.tasks[t].dataset_id].configs), policy))
            pools.append(walks[-1][0])
        weights = _select_pools(repo, t, pools, counts)
        for out, result in zip(outs, _ensemble_results(repo, t, walks, weights)):
            out.append(result)
    return by_family, outs[len(families):]
