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

from .ensemble import _select_and_score
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


def _ensemble_result(repo: Repository, t: int, candidates: list[int], trained: list[int],
                     used_fallback: bool, c_max: int) -> SimResult:
    # candidates feed the greedy selection; trained is what the budget paid for
    meta = repo.tasks[t]
    w, val, test = _select_and_score(repo, t, candidates, c_max)
    fit = _sum_in_order(repo.eval_table[t, trained, 2].tolist())
    members = [j for j, c in w.counts.items() if c > 0]
    infer = _sum_in_order(repo.eval_table[t, members, 3].tolist())
    return SimResult(meta.dataset_id, meta.fold, list(trained), used_fallback,
                     val, test, fit, infer)


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


def _simulate_loo(repo: Repository, policy: BudgetPolicy, portfolios: dict[str, Portfolio],
                  c_max: int) -> tuple[list[SimResult], dict[str, Portfolio]]:
    """Each task run on its held-out dataset's portfolio from ``_loo_portfolios``.

    Returns ``(results, portfolios)``; the benchmark's tracer counts the
    results as the first item of that pair.
    """
    def run(t: int) -> SimResult:
        meta = repo.tasks[t]
        included, fb = anytime_filter(portfolios[meta.dataset_id], t, policy, repo)
        return _ensemble_result(repo, t, included, included, fb, c_max)

    return [run(t) for t in range(repo.n_tasks)], portfolios


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
    members = repo.family_configs(family)
    defaults = [j for j in members if repo.configs[j].is_default]
    if not defaults:
        raise ValueError(f"family {family!r} has no default config")
    default = defaults[0]
    order = _family_order(repo, family, order_seed)

    def run(t: int) -> SimResult:
        meta = repo.tasks[t]
        if mode == MODE_DEFAULT:
            rec = repo.eval_table[t, default]
            return SimResult(meta.dataset_id, meta.fold, [default], False,
                             float(rec[0]), float(rec[1]), float(rec[2]), float(rec[3]))
        included, fb = _filter_order(order, t, policy, repo)
        # (validation loss, ordinal) pairs: the lowest loss first, the lowest ordinal on ties
        ranked = list(zip(repo.eval_table[t, included, 0].tolist(), included))
        if mode == MODE_TUNED:
            best = min(ranked)[1]
            rec = repo.eval_table[t, best]
            fit = _sum_in_order(repo.eval_table[t, included, 2].tolist())
            return SimResult(meta.dataset_id, meta.fold, list(included), fb,
                             float(rec[0]), float(rec[1]), fit, float(rec[3]))
        pool = [j for _, j in sorted(ranked)[:TUNED_ENSEMBLE_POOL]]
        return _ensemble_result(repo, t, pool, included, fb, c_max)

    return [run(t) for t in range(repo.n_tasks)]
