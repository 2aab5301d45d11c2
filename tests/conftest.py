from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from predrepo import (
    ConfigMeta,
    FamilySpec,
    GeneratorSpec,
    ProblemType,
    Repository,
    TaskMeta,
    generate_repo,
    task_loss,
)
from predrepo.store import ROW_SUM_TOL, TEST, VAL


def make_handmade_repo(seed: int = 0) -> Repository:
    """Small mixed-problem repository built directly from arrays.

    Three datasets (regression, binary, multiclass) with 2 folds each and 3
    configs in 2 families. Stored losses are computed from the stored float32
    predictions, like any valid repository.
    """
    rng = np.random.default_rng(seed)
    tasks = []
    for d, problem, o in (("reg", ProblemType.REGRESSION, 1),
                          ("bin", ProblemType.BINARY, 1),
                          ("mc", ProblemType.MULTICLASS, 3)):
        for fold in range(2):
            tasks.append(TaskMeta(d, fold, problem, n_val=12, n_test=10, o=o, n_features=5))
    configs = [
        ConfigMeta("alpha-default", "alpha", is_default=True),
        ConfigMeta("alpha-001", "alpha"),
        ConfigMeta("beta-default", "beta", is_default=True),
    ]

    labels = []
    predictions = []
    evals = np.zeros((len(tasks), len(configs), 4))
    for t, task in enumerate(tasks):
        if task.problem is ProblemType.REGRESSION:
            y_val = rng.standard_normal(task.n_val)
            y_test = rng.standard_normal(task.n_test)
        elif task.problem is ProblemType.BINARY:
            y_val = np.array([0, 1] * (task.n_val // 2))
            y_test = np.array([0, 1] * (task.n_test // 2))
        else:
            y_val = rng.integers(0, task.o, task.n_val)
            y_test = rng.integers(0, task.o, task.n_test)
        labels.append((y_val, y_test))
        slabs = (np.empty((len(configs), task.n_val, task.o), dtype=np.float32),
                 np.empty((len(configs), task.n_test, task.o), dtype=np.float32))
        predictions.append(slabs)
        for j in range(len(configs)):
            for split, n in ((VAL, task.n_val), (TEST, task.n_test)):
                if task.problem is ProblemType.REGRESSION:
                    arr = rng.standard_normal((n, 1))
                elif task.problem is ProblemType.BINARY:
                    arr = rng.random((n, 1))
                else:
                    raw = rng.random((n, task.o))
                    arr = raw / raw.sum(axis=1, keepdims=True)
                slabs[split][j] = arr.astype(np.float32)
            evals[t, j, 0] = task_loss(task, slabs[VAL][j], y_val)
            evals[t, j, 1] = task_loss(task, slabs[TEST][j], y_test)
            evals[t, j, 2] = float(rng.uniform(1, 100))
            evals[t, j, 3] = float(rng.uniform(1e-4, 1e-2))
    return Repository.in_memory(tasks, configs, 2, labels, predictions, evals)


def repo_arrays(repo: Repository):
    """Writable copies of a repository's labels, prediction slabs and evaluations.

    They come in the form :meth:`Repository.in_memory` takes, so a test can
    perturb them (cell ``(t, j, split)`` is ``predictions[t][split][j]``) and
    build the perturbed repository with :func:`rebuild_repo`.
    """
    labels = [tuple(np.array(repo.labels(t, s)) for s in (VAL, TEST))
              for t in range(repo.n_tasks)]
    predictions = [tuple(np.array(repo.task_predictions(t, s)) for s in (VAL, TEST))
                   for t in range(repo.n_tasks)]
    return labels, predictions, np.array(repo.eval_table)


def rebuild_repo(repo: Repository, labels, predictions, evals) -> Repository:
    """In-memory repository with ``repo``'s metadata and the given arrays."""
    return Repository.in_memory(repo.tasks, repo.configs, repo.folds_per_dataset,
                                labels, predictions, evals)


def small_spec(seed: int = 11, **overrides) -> GeneratorSpec:
    kwargs = dict(
        seed=seed,
        n_datasets=4,
        folds=2,
        families=(
            FamilySpec("gbm", 4, 0.85, 0.5, 0.3),
            FamilySpec("mlp", 3, 0.6, 0.8, 0.2),
        ),
        rows_val=(20, 30),
        rows_test=(20, 30),
        problem_mix={"binary": 0.5, "multiclass": 0.25, "regression": 0.25},
        bag_folds=4,
    )
    kwargs.update(overrides)
    return GeneratorSpec(**kwargs)


# the row sums furthest from one that pass the check: one float64 further fails
HIGHEST_SUM = 1.0 + math.floor(ROW_SUM_TOL * 2**52) * 2**-52
LOWEST_SUM = 1.0 - math.floor(ROW_SUM_TOL * 2**53) * 2**-53


def row_summing_to(total, *leading):
    """The float32 ``leading`` entries and three more; the row's float64 sum,
    taken in order, is exactly ``total``."""
    entries = [np.float32(v) for v in leading]
    rest = Fraction(total) - sum(Fraction(float(v)) for v in entries)
    for _ in range(3):
        entries.append(np.float32(float(rest)))
        rest -= Fraction(float(entries[-1]))
    assert rest == 0
    return entries


def full_sum_off(p):
    """The row-sum test as numpy's own sums decide it: the reference for the screen."""
    return np.abs(np.asarray(p, dtype=np.float64).sum(axis=-1) - 1.0) > ROW_SUM_TOL


def ulps_around(x: float, k: int, dtype=np.float64) -> list[float]:
    """The ``dtype`` value nearest ``x`` and the ``k`` values on either side of it."""
    lo = hi = dtype(x)
    out = [float(lo)]
    for _ in range(k):
        lo, hi = np.nextafter(lo, dtype(-np.inf)), np.nextafter(hi, dtype(np.inf))
        out += [float(lo), float(hi)]
    return out


# row sums 0-4 ulp on either side of both tolerance edges, in float64 and in float32
EDGE_SUMS = ulps_around(1.0 + ROW_SUM_TOL, 4) + ulps_around(1.0 - ROW_SUM_TOL, 4)
EDGE_SUMS_F32 = [x for edge in (1.0 + ROW_SUM_TOL, 1.0 - ROW_SUM_TOL)
                 for x in ulps_around(edge, 4, np.float32)]


def at_sum(row: np.ndarray, target: float) -> np.ndarray:
    """``row`` with its last entry moved until numpy's float64 sum of the row is
    ``target``, or as near as that entry's spacing allows."""
    row = row.copy()
    row[-1] += row.dtype.type(target - row.astype(np.float64).sum())
    for _ in range(64):
        total = row.astype(np.float64).sum()
        if total == target:
            break
        row[-1] = np.nextafter(row[-1], row.dtype.type(np.inf if total < target else -np.inf))
    return row


@pytest.fixture()
def handmade_repo() -> Repository:
    return make_handmade_repo()


@pytest.fixture(scope="session")
def synth_repo() -> Repository:
    return generate_repo(small_spec())
