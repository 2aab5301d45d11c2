"""Task losses: RMSE, AUC loss (1 - AUC), and log loss, plus per-task dispatch.

All three are minimized; AUC is reported as 1 - AUC so downstream code never
needs to know a metric's direction. Computation is float64 regardless of the
input dtype.

The scalar functions score one prediction matrix and are the reference.
:class:`StackLoss` scores a stack of matrices in one array operation per
metric, with the same checks and the same values. It is two parts: a check
of the stack that returns the ``(M, n)`` column the metric reads, and a
scorer of such columns. Greedy ensemble selection checks its candidate stack
once and then scores the averaged columns of every step; the column of an
average is the average of the columns, so the scores are those of the full
average.

There is one tie-averaging rank kernel. :func:`auc_loss` and the Table 2
ranks of :mod:`predrepo.aggregate` take their ranks from
:func:`average_ranks`. :class:`StackLoss` gets the AUC from one value sort
of each row with its positive scores appended, with no argsort: a row
without ties has an exact integer rank sum read off that sort, and only the
rows with a tie go through the rank kernel. Ranks are half-integers, so
every sum of them is exact in float64 and both paths give the AUC of
:func:`auc_loss` bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .store import ROW_SUM_TOL, ProblemType, TaskMeta, _rows_off_one

LOG_LOSS_EPS = 1e-15


def _as_1d(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64).reshape(-1)
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains NaN or infinity")
    return arr


def _sorted_ranks(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort order along the last axis, and ``first + last`` in that order: the
    sorted positions of the first and the last member of each value's tie group.

    Both come back with shape ``(rows, n)``, one row per vector along the last axis."""
    n = x.shape[-1]
    rows = x.reshape(math.prod(x.shape[:-1]), n)
    order = np.argsort(rows, axis=-1)
    # one flat gather; take_along_axis broadcasts an index array per axis and costs more
    ranked = rows.reshape(-1)[order + _row_starts(rows)]
    at = np.arange(n)
    new_group = ranked[:, 1:] != ranked[:, :-1]  # a tie group starts at i + 1
    first = np.zeros(rows.shape, dtype=np.int64)
    first[:, 1:] = np.where(new_group, at[1:], 0)
    np.maximum.accumulate(first, axis=-1, out=first)
    last = np.full(rows.shape, n - 1, dtype=np.int64)
    last[:, :-1] = np.where(new_group, at[:-1], n - 1)
    last = np.minimum.accumulate(last[:, ::-1], axis=-1)[:, ::-1]
    return order, first + last


def _row_starts(rows: np.ndarray) -> np.ndarray:
    """Flat offset of each row of a C-contiguous 2-D array, as a column."""
    return (np.arange(rows.shape[0]) * rows.shape[1])[:, None]


def average_ranks(x, axis: int = -1) -> np.ndarray:
    """1-based float64 ranks along ``axis``; a tie group at sorted positions
    first..last shares rank (first + last) / 2 + 1. ``x`` must hold no NaN."""
    a = np.moveaxis(np.asarray(x), axis, -1)
    order, twice = _sorted_ranks(a)
    ranks = np.empty(twice.shape)
    ranks.reshape(-1)[order + _row_starts(ranks)] = twice / 2.0 + 1.0
    return np.moveaxis(ranks.reshape(a.shape), -1, axis)


def rmse(pred, target) -> float:
    """Root mean squared error."""
    p = _as_1d(pred, "pred")
    t = _as_1d(target, "target")
    if p.shape != t.shape:
        raise ValueError(f"length mismatch: pred has {p.size}, target has {t.size}")
    return float(np.sqrt(np.mean((p - t) ** 2)))


def auc_loss(score, label) -> float:
    """1 - AUC via the rank statistic, ties counting one half.

    Equivalent to the trapezoidal ROC area and to the pairwise win
    probability; O(n log n).
    """
    s = _as_1d(score, "score")
    y = np.asarray(label).reshape(-1)
    if s.shape != y.shape:
        raise ValueError(f"length mismatch: score has {s.size}, label has {y.size}")
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("labels must be binary (0 or 1)")
    pos = y == 1
    n_pos = int(pos.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC undefined: labels contain a single class")
    ranks = average_ranks(s)
    auc = (ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    return float(1.0 - auc)


def log_loss(probs, label) -> float:
    """Mean negative log likelihood of the true class, clipped at 1e-15."""
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 2 or p.shape[1] < 2:
        raise ValueError(f"probs must be a (n, k) matrix with k >= 2, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError("probs contains NaN or infinity")
    sums = p.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > ROW_SUM_TOL):
        raise ValueError("probs rows are not row-stochastic within 1e-5")
    y = np.asarray(label).reshape(-1)
    if y.size != p.shape[0]:
        raise ValueError(f"length mismatch: probs has {p.shape[0]} rows, label has {y.size}")
    if np.any(y < 0) or np.any(y >= p.shape[1]):
        raise ValueError("label out of range")
    picked = np.clip(p[np.arange(p.shape[0]), y.astype(np.int64)], LOG_LOSS_EPS, 1.0 - LOG_LOSS_EPS)
    return float(-np.mean(np.log(picked)))


def task_loss(task: TaskMeta, pred, target) -> float:
    """Dispatch to the task's metric given a (rows, o) prediction matrix."""
    p = np.asarray(pred, dtype=np.float64)
    if p.ndim == 1:
        p = p.reshape(-1, 1)
    if p.shape[1] != task.o:
        raise ValueError(f"prediction has {p.shape[1]} columns, task {task.key} has o={task.o}")
    if task.problem is ProblemType.REGRESSION:
        return rmse(p[:, 0], target)
    if task.problem is ProblemType.BINARY:
        return auc_loss(p[:, 0], target)
    return log_loss(p, target)


class StackLoss:
    """Task loss of many prediction matrices at once.

    ``StackLoss(task, target)(stack)`` maps an ``(M, n, o)`` stack of
    prediction matrices to the ``(M,)`` array whose entry ``m`` equals
    ``task_loss(task, stack[m], target)``. Construction checks the labels,
    raising ``ValueError`` as the scalar metrics do (targets finite, binary
    labels 0 or 1 with both present, class indices in range), and then sets
    up the scorer from them; :meth:`of_checked_labels` is the set-up alone,
    for labels a caller has checked already. A call is :meth:`check`
    followed by :meth:`score`:

    - :meth:`check` checks the stack as ``task_loss`` checks each matrix: its
      shape, finite values and, for multiclass tasks, rows that sum to one
      within 1e-5. Any failed check raises ``ValueError``. It returns the
      ``(M, n)`` column the metric reads: column 0, or for multiclass tasks
      each row's true-class probability. The row sums are screened by the
      store's kernel (:func:`store._rows_off_one`): a mat-vec sum
      with a proven rounding bound decides every row outside a narrow band
      around the tolerance, and numpy sums the rows inside it, so ``check``
      raises exactly when ``np.abs(p.sum(axis=2) - 1.0) > 1e-5`` somewhere.
      Its last step is :meth:`column`, which reads that column and checks
      nothing; a caller whose cells are already checked reads it directly.
    - :meth:`score` computes the loss from such a column and checks nothing.
      An RMSE or AUC column may also be float32: RMSE widens it at its
      subtraction and AUC only orders and compares its values, so it scores
      as its float64 copy, bit for bit.

    Every metric is elementwise in the stack before it reduces a row, so the
    column of an average of stacks is the same average of their columns, bit
    for bit. Greedy ensemble selection relies on this: it checks its
    candidates once and then scores averaged columns.

    The AUC comes from the rank sum of the positive examples. :meth:`score`
    sorts each candidate's scores with its positive examples' scores
    appended, so every positive value is in the sorted row twice, and counts
    equal neighbours. A tie group of ``g`` values of which ``q`` are positive
    makes ``g + q - 1`` equal neighbours, which is ``q`` exactly when ``g`` is
    one. So a row is free of ties exactly when it has ``n_pos`` equal
    neighbours; ``-0.0`` and ``+0.0`` compare equal and so count as a tie. In
    a tie-free row, the two copies of the positive with 0-based rank ``r``
    that ``k`` positives precede stand at sorted positions ``r + k`` and
    ``r + k + 1``. So the 1-based rank sum is the sum of the positions ``i``
    whose value equals that at ``i + 1``, less ``n_pos * (n_pos - 1) / 2``,
    plus ``n_pos``: an exact integer. Only rows with a tie take their average
    ranks from the rank kernel of :func:`average_ranks`. Every rank sum is an
    integer or a half-integer, exact in float64, so the AUC loss is bit-equal
    to :func:`auc_loss`.
    """

    def __init__(self, task: TaskMeta, target):
        if task.problem is ProblemType.REGRESSION:
            y = _as_1d(target, "target")
        else:
            y = np.asarray(target).reshape(-1)
        if task.problem is ProblemType.BINARY:
            if not np.all((y == 0) | (y == 1)):
                raise ValueError("labels must be binary (0 or 1)")
            if np.count_nonzero(y) in (0, y.size):
                raise ValueError("AUC undefined: labels contain a single class")
        elif task.problem is ProblemType.MULTICLASS:
            if np.any(y < 0) or np.any(y >= task.o):
                raise ValueError("label out of range")
            y = y.astype(np.int64)
        self._set_up(task, y)

    @classmethod
    def of_checked_labels(cls, task: TaskMeta, labels: np.ndarray) -> StackLoss:
        """The scorer ``StackLoss(task, labels)`` builds, with none of its label checks.

        ``labels`` is a 1-D float64 or integer array that passes them: finite
        targets, or class indices (0 and 1 of a binary task, both present).
        :func:`store.validate_repo` passes each task's float64 label view once
        :func:`store._label_violations` has passed it, so no label is checked
        twice or copied to int64; every score has the bits of the public
        construction's.
        """
        loss = cls.__new__(cls)
        loss._set_up(task, labels)
        return loss

    def _set_up(self, task: TaskMeta, y: np.ndarray) -> None:
        self.task, self._y = task, y
        if task.problem is ProblemType.BINARY:
            self._pos = y == 1
            self._n_pos = int(np.count_nonzero(self._pos))
            self._n_neg = y.size - self._n_pos
            # one product with the neighbour-equality matrix gives each row's
            # count of equal neighbours and the sum of their positions
            self._count_and_sum = np.ones((y.size + self._n_pos - 1, 2))
            self._count_and_sum[:, 1] = np.arange(y.size + self._n_pos - 1)
        elif task.problem is ProblemType.MULTICLASS:
            # each row's true-class entry in a config's flattened (n * o) matrix;
            # a float class index is integral, so the unsafe cast is exact
            self._flat = np.arange(y.size) * task.o
            np.add(self._flat, y, out=self._flat, casting="unsafe")

    def __call__(self, stack) -> np.ndarray:
        return self.score(self.check(stack))

    def check(self, stack) -> np.ndarray:
        """Check an ``(M, n, o)`` stack; return the float64 ``(M, n)`` column
        the task's metric reads."""
        p = np.asarray(stack, dtype=np.float64)
        expected = (self._y.size, self.task.o)
        if p.ndim != 3 or p.shape[1:] != expected:
            raise ValueError(f"prediction stack has shape {p.shape}, task {self.task.key} "
                             f"needs (M, {expected[0]}, {expected[1]})")
        if not np.all(np.isfinite(p)):
            raise ValueError("predictions contain NaN or infinity")
        if self.task.problem is ProblemType.MULTICLASS and _rows_off_one(p).any():
            raise ValueError("probs rows are not row-stochastic within 1e-5")
        return self.column(p)

    def column(self, stack: np.ndarray) -> np.ndarray:
        """The float64 ``(M, n)`` column of an ``(M, n, o)`` stack, as :meth:`check`
        returns it, without checking anything: for a stack already checked, or
        one whose unchecked configs' scores are thrown away, as
        :func:`store.validate_repo` throws away those of the configs it has
        already named. Each config's score reduces its own row only.

        Only the column is widened to float64; float32 widens exactly, so a
        float32 stack gives the bits of its float64 copy."""
        if self.task.problem is not ProblemType.MULTICLASS:
            return np.asarray(stack[:, :, 0], dtype=np.float64)
        # np.take gives C-contiguous rows, so the mean sums each row in the same
        # order as log_loss does; the shape is spelled out for a stack of no configs
        m, n, o = stack.shape
        column = np.take(stack.reshape(m, n * o), self._flat, axis=1)
        return np.asarray(column, dtype=np.float64)

    def score(self, column: np.ndarray) -> np.ndarray:
        """``(M,)`` losses of an ``(M, n)`` column from :meth:`check`, or of an
        average of such columns."""
        # np.add.reduce and a true divide are what np.mean runs along a row,
        # without its wrapper's cost on every greedy step
        n = column.shape[1]
        if self.task.problem is ProblemType.REGRESSION:
            return np.sqrt(np.add.reduce((column - self._y) ** 2, axis=1) / n)
        if self.task.problem is ProblemType.BINARY:
            return self._auc_loss(column)
        picked = np.clip(column, LOG_LOSS_EPS, 1.0 - LOG_LOSS_EPS)
        return -(np.add.reduce(np.log(picked), axis=1) / n)

    def _auc_loss(self, scores: np.ndarray) -> np.ndarray:
        n_pos, n_neg = self._n_pos, self._n_neg
        both = np.concatenate([scores, scores[:, self._pos]], axis=1)
        both.sort(axis=1)
        # sums of small integers: exact in float64, in any order
        equal, at_sum = ((both[:, 1:] == both[:, :-1]) @ self._count_and_sum).T
        rank_sum = at_sum - (n_pos * (n_pos - 1) // 2 - n_pos)
        tied = equal != n_pos
        if tied.any():
            # gather the ranks in sorted order; scattering them back costs a third more
            order, twice = _sorted_ranks(scores[tied])
            rank_sum[tied] = np.where(self._pos[order], twice, 0).sum(axis=1) / 2.0 + n_pos
        auc = (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
        return 1.0 - auc
