"""Cross-method aggregation: normalized error, fractional ranks, win rates,
and rescaled loss.

All functions compare methods over an identical task set (a missing cell is
an error, not a skip). Normalized error rescales each task's losses between
the best method (0) and the median method (1), with the denominator floored
at 1e-5 and scores clipped to [0, 1] per task before any averaging. Win rates
and rescaled losses aggregate fold losses to dataset means first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .metrics import average_ranks

DENOM_FLOOR = 1e-5

TaskKey = tuple[str, int]


@dataclass
class MethodResults:
    """Per-task test losses (and optional times) for one method."""

    method: str
    losses: dict[TaskKey, float]
    time_fit: dict[TaskKey, float] | None = None
    time_infer: dict[TaskKey, float] | None = None


def _check_unique_names(methods: list[MethodResults]) -> None:
    names = [m.method for m in methods]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate method names: {names}")


def _common_tasks(methods: list[MethodResults]) -> list[TaskKey]:
    if not methods:
        raise ValueError("no methods given")
    tasks = sorted(methods[0].losses)
    universe = set(tasks)
    for m in methods:
        missing = universe.symmetric_difference(m.losses)
        if missing:
            raise ValueError(
                f"method {m.method!r} does not cover the same tasks; "
                f"mismatched cells: {sorted(missing)[:5]}"
            )
    return tasks


def _loss_table(methods: list[MethodResults]) -> tuple[list[TaskKey], np.ndarray]:
    tasks = _common_tasks(methods)
    table = np.array([[m.losses[t] for t in tasks] for m in methods], dtype=np.float64)
    bad = np.argwhere(~np.isfinite(table))
    if bad.size:
        i, t = bad[0]
        raise ValueError(f"method {methods[i].method!r} has a non-finite loss {table[i, t]} "
                         f"on task {tasks[t]}")
    return tasks, table


def lower_median(values, axis: int = -1):
    """Element at index ceil(k/2)-1 of the values sorted along ``axis`` (an achieved loss)."""
    s = np.sort(np.asarray(values, dtype=np.float64), axis=axis)
    return np.take(s, (s.shape[axis] + 1) // 2 - 1, axis=axis)


def _normalized_table(methods: list[MethodResults]) -> tuple[list[TaskKey], np.ndarray]:
    """The tasks and the (methods, tasks) table of normalized errors."""
    if len(methods) < 2:
        raise ValueError("normalized error needs at least 2 methods")
    _check_unique_names(methods)
    tasks, table = _loss_table(methods)
    topline = table.min(axis=0)
    denom = np.maximum(lower_median(table, axis=0) - topline, DENOM_FLOOR)
    return tasks, np.clip((table - topline) / denom, 0.0, 1.0)


def normalized_error(methods: list[MethodResults]) -> dict[tuple[str, TaskKey], float]:
    """Per (method, task) score in [0, 1]: 0 at the best loss, 1 at the median."""
    tasks, scores = _normalized_table(methods)
    return {(m.method, task): float(scores[i, k])
            for i, m in enumerate(methods) for k, task in enumerate(tasks)}


def mean_normalized_error(methods: list[MethodResults]) -> dict[str, float]:
    # one C-contiguous row per method, so each mean sums the tasks in order
    means = _normalized_table(methods)[1].mean(axis=1)
    return {m.method: float(means[i]) for i, m in enumerate(methods)}


def average_rank(methods: list[MethodResults]) -> dict[str, float]:
    """Mean fractional rank per method (best loss = rank 1, ties averaged)."""
    if len(methods) < 2:
        raise ValueError("ranking needs at least 2 methods")
    _check_unique_names(methods)
    _, table = _loss_table(methods)
    means = average_ranks(table, axis=0).mean(axis=1)
    return {m.method: float(means[i]) for i, m in enumerate(methods)}


def _dataset_means(method: MethodResults, fold_count: int | None) -> dict[str, float]:
    by_dataset: dict[str, list[float]] = {}
    for (dataset, _fold), loss in sorted(method.losses.items()):
        by_dataset.setdefault(dataset, []).append(loss)
    if fold_count is None:
        counts = {len(v) for v in by_dataset.values()}
        if len(counts) != 1:
            raise ValueError(f"method {method.method!r} has uneven fold counts per dataset")
    else:
        for dataset, losses in by_dataset.items():
            if len(losses) != fold_count:
                raise ValueError(
                    f"method {method.method!r} has {len(losses)} folds for dataset "
                    f"{dataset!r}, expected {fold_count}"
                )
    return {d: float(np.mean(v)) for d, v in by_dataset.items()}


class WinRate(NamedTuple):
    winrate: float
    n_better: int
    n_worse: int
    n_equal: int


def winrate(method_a: MethodResults, method_b: MethodResults,
            fold_count: int | None) -> WinRate:
    """Per-dataset win rate of ``method_a`` against ``method_b``.

    Fold losses are averaged per dataset first; a dataset counts as a win when
    a's mean loss is strictly lower, and ties (exact float equality) count one
    half. winrate(a, b) + winrate(b, a) = 1 exactly.
    """
    _common_tasks([method_a, method_b])
    means_a = _dataset_means(method_a, fold_count)
    means_b = _dataset_means(method_b, fold_count)
    pairs = [(means_a[d], means_b[d]) for d in means_a]
    n_better = sum(a < b for a, b in pairs)
    n_worse = sum(a > b for a, b in pairs)
    n_equal = len(pairs) - n_better - n_worse
    return WinRate((n_better + 0.5 * n_equal) / len(pairs), n_better, n_worse, n_equal)


def rescaled_loss(methods: list[MethodResults], fold_count: int | None = None) -> dict[str, float]:
    """Min-max rescaled loss per dataset (best method 0, worst 1), averaged."""
    if len(methods) < 2:
        raise ValueError("rescaled loss needs at least 2 methods")
    _check_unique_names(methods)
    _common_tasks(methods)
    means = [_dataset_means(m, fold_count) for m in methods]
    datasets = sorted(means[0])
    totals = np.zeros(len(methods))
    for dataset in datasets:
        losses = np.array([mm[dataset] for mm in means])
        lo, hi = losses.min(), losses.max()
        if hi > lo:
            totals += (losses - lo) / (hi - lo)
    return {m.method: float(totals[i] / len(datasets)) for i, m in enumerate(methods)}
