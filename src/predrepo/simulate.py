"""Anytime-budget simulation over leave-one-dataset-out portfolios.

Configs are "trained" in portfolio order against recorded fit times: a config
is included iff the cumulative fit time after it still fits the budget, and
the walk stops at the first exclusion. When nothing fits, a designated cheap
fallback config stands in. Ensemble selection itself is charged no time; it
is a lookup-table operation over stored predictions.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .ensemble import EnsembleWeights, _ensemble_losses, _select_pools, caruana_select
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


def _filter_order(order: list[int], t: int, policy: BudgetPolicy,
                  repo: Repository) -> tuple[list[int], bool]:
    k = prefix_len(repo.eval_table[t, order, 2].tolist(), policy.budget_s)
    if k == 0:
        return [policy.fallback_config], True
    return order[:k], False


def anytime_filter(portfolio: Portfolio, task, policy: BudgetPolicy,
                   repo: Repository) -> tuple[list[int], bool]:
    """Budget-filter a portfolio for one task; returns (included, used_fallback)."""
    if not portfolio.configs:
        raise ValueError("portfolio is empty")
    t = repo.task_index(task)
    return _filter_order(list(portfolio.configs), t, policy, repo)


@dataclass
class _Pool:
    """A task's greedy candidate pool, and what the budget paid to train for it."""

    candidates: list[int]
    trained: list[int]
    used_fallback: bool


def _ensemble_results(repo: Repository, t: int, pools: list[_Pool],
                      weights: list[EnsembleWeights]) -> list[SimResult]:
    """One SimResult per pool and its ensemble weights on task ``t``."""
    meta = repo.tasks[t]
    out = []
    for pool, w, val, test in zip(pools, weights, *_ensemble_losses(repo, t, weights)):
        fit = _sum_in_order(repo.eval_table[t, pool.trained, 2].tolist())
        members = [j for j, c in w.counts.items() if c > 0]
        infer = _sum_in_order(repo.eval_table[t, members, 3].tolist())
        out.append(SimResult(meta.dataset_id, meta.fold, list(pool.trained), pool.used_fallback,
                             val, test, fit, infer))
    return out


def _ensemble_result(repo: Repository, t: int, pool: _Pool, c_max: int) -> SimResult:
    return _ensemble_results(repo, t, [pool], [caruana_select(t, pool.candidates, c_max, repo)])[0]


def _first_step(w: EnsembleWeights) -> EnsembleWeights:
    """The one-member ensemble of a greedy run's first pick: what a run with
    ``c_max`` 1 returns."""
    first = w.trajectory[0]
    return EnsembleWeights(counts={first[0]: 1}, steps=1, trajectory=[first])


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


def _loo_pool(repo: Repository, t: int, portfolios: dict[str, Portfolio],
              policy: BudgetPolicy) -> _Pool:
    included, fb = anytime_filter(portfolios[repo.tasks[t].dataset_id], t, policy, repo)
    return _Pool(included, included, fb)


def _simulate_loo(repo: Repository, policy: BudgetPolicy, portfolios: dict[str, Portfolio],
                  c_max: int) -> tuple[list[SimResult], dict[str, Portfolio]]:
    """Each task run on its held-out dataset's portfolio from ``_loo_portfolios``.

    Returns ``(results, portfolios)``; the benchmark's tracer counts the
    results as the first item of that pair.
    """
    return [_ensemble_result(repo, t, _loo_pool(repo, t, portfolios, policy), c_max)
            for t in range(repo.n_tasks)], portfolios


def simulate_portfolio(repo: Repository, policy: BudgetPolicy, n_max: int,
                       c_max: int, aggregation: str = NORMALIZED_LOSS) -> list[SimResult]:
    """Anytime LOO simulation: one SimResult per task, in repository task order."""
    results, _ = _simulate_loo(repo, policy, _loo_portfolios(repo, n_max, aggregation), c_max)
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
                 policy: BudgetPolicy) -> tuple[SimResult, SimResult, _Pool]:
    """A family's ``default`` and ``tuned`` results on task ``t``, and its
    ``tuned+ensemble`` pool."""
    meta = repo.tasks[t]
    rec = repo.eval_table[t, default]
    plain = SimResult(meta.dataset_id, meta.fold, [default], False,
                      float(rec[0]), float(rec[1]), float(rec[2]), float(rec[3]))
    included, fb = _filter_order(order, t, policy, repo)
    # (validation loss, ordinal) pairs: the lowest loss first, the lowest ordinal on ties
    ranked = sorted(zip(repo.eval_table[t, included, 0].tolist(), included))
    rec = repo.eval_table[t, ranked[0][1]]
    fit = _sum_in_order(repo.eval_table[t, included, 2].tolist())
    tuned = SimResult(meta.dataset_id, meta.fold, list(included), fb,
                      float(rec[0]), float(rec[1]), fit, float(rec[3]))
    pool = _Pool([j for _, j in ranked[:TUNED_ENSEMBLE_POOL]], included, fb)
    return plain, tuned, pool


def simulate_single_family(repo: Repository, family: str, mode: str,
                           policy: BudgetPolicy, c_max: int,
                           order_seed: int | None = None) -> list[SimResult]:
    """Simulate one model family on every task.

    ``default`` reports the family's default config as stored. ``tuned`` walks
    the family's configs in repository order (or a seeded shuffle) under the
    budget and keeps the one with the best stored validation loss.
    ``tuned+ensemble`` runs greedy selection over the best 20 configs that fit.
    """
    if mode not in FAMILY_MODES:
        raise ValueError(f"mode must be one of {FAMILY_MODES}, got {mode!r}")
    default, order = _family_plan(repo, family, order_seed)

    def run(t: int) -> SimResult:
        plain, tuned, pool = _family_task(repo, t, default, order, policy)
        if mode == MODE_TUNED_ENSEMBLE:
            return _ensemble_result(repo, t, pool, c_max)
        return plain if mode == MODE_DEFAULT else tuned

    return [run(t) for t in range(repo.n_tasks)]


def _simulate_methods(repo: Repository, policy: BudgetPolicy, c_max: int,
                      order_seed: int | None = None,
                      portfolios: dict[str, Portfolio] | None = None
                      ) -> tuple[dict[tuple[str, str], list[SimResult]], list[SimResult],
                                 list[SimResult]]:
    """Every family method and, given leave-one-out ``portfolios``, both
    portfolio methods, with one greedy run per task for all of its pools.

    Returns ``(families, portfolio_ensemble, portfolio)``. ``families`` maps
    each ``(family, mode)``, in repository family order and then
    ``FAMILY_MODES`` order, to what :func:`simulate_single_family` returns.
    ``portfolio_ensemble`` is what :func:`_simulate_loo` returns for
    ``portfolios``, and ``portfolio`` is what it returns with ``c_max`` 1:
    the first step of each ``portfolio_ensemble`` run. Both are empty without
    ``portfolios``.
    """
    plans = [_family_plan(repo, family, order_seed) for family in repo.families]
    families = {(family, mode): [] for family in repo.families for mode in FAMILY_MODES}
    portfolio_ensemble: list[SimResult] = []
    portfolio: list[SimResult] = []
    for t in range(repo.n_tasks):
        pools = []
        for family, (default, order) in zip(repo.families, plans):
            plain, tuned, pool = _family_task(repo, t, default, order, policy)
            families[family, MODE_DEFAULT].append(plain)
            families[family, MODE_TUNED].append(tuned)
            pools.append(pool)
        if portfolios is not None:
            pools.append(_loo_pool(repo, t, portfolios, policy))
        weights = _select_pools(repo, t, [pool.candidates for pool in pools], c_max)
        if portfolios is not None:
            pools.append(pools[-1])
            weights.append(_first_step(weights[-1]))
        results = _ensemble_results(repo, t, pools, weights)
        for family, result in zip(repo.families, results):
            families[family, MODE_TUNED_ENSEMBLE].append(result)
        if portfolios is not None:
            portfolio_ensemble.append(results[-2])
            portfolio.append(results[-1])
    return families, portfolio_ensemble, portfolio
