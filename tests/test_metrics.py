from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from predrepo import ProblemType, TaskMeta, auc_loss, log_loss, rmse, task_loss
from predrepo import metrics
from predrepo.metrics import StackLoss, average_ranks
from predrepo.synth import oracle_auc_pairwise


def two_pass_rmse(pred, target):
    # independent reference: explicit loop, no numpy reductions
    diffs = [float(p) - float(t) for p, t in zip(pred, target)]
    total = 0.0
    for d in diffs:
        total += d * d
    return math.sqrt(total / len(diffs))


def direct_log_loss(probs, label):
    total = 0.0
    for i, y in enumerate(label):
        p = min(max(float(probs[i][int(y)]), 1e-15), 1 - 1e-15)
        total -= math.log(p)
    return total / len(label)


class TestRmse:
    def test_identity(self):
        x = np.array([0.5, -1.0, 2.0])
        assert rmse(x, x) == 0.0

    def test_hand_arithmetic(self):
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(math.sqrt(12.5), abs=1e-12)

    def test_matches_two_pass_reference(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = rng.standard_normal(100)
            t = rng.standard_normal(100)
            assert abs(rmse(p, t) - two_pass_rmse(p, t)) <= 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            rmse([1.0, 2.0], [1.0])

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            rmse([1.0, float("nan")], [1.0, 2.0])

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_triangle_bound(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = rng.standard_normal((3, 20))
        assert rmse(a, c) <= rmse(a, b) + rmse(b, c) + 1e-12


def brute_force_ranks(x):
    """1 + #{x_j < x_i} + (#{x_j == x_i} - 1) / 2 for each x_i of a 1-d sequence."""
    return np.array([1 + sum(b < a for b in x) + (sum(b == a for b in x) - 1) / 2 for a in x])


class TestAverageRanks:
    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_matches_brute_force_on_tie_heavy_integers(self, axis):
        rng = np.random.default_rng(21)
        for _ in range(100):
            shape = (int(rng.integers(1, 9)), int(rng.integers(1, 30)))
            x = rng.integers(-2, int(rng.integers(-1, 5)), shape).astype(float)
            got = average_ranks(x, axis=axis)
            want = np.apply_along_axis(brute_force_ranks, axis, x)
            assert got.dtype == np.float64 and got.shape == x.shape
            assert np.array_equal(got, want)

    def test_default_axis_is_last(self):
        x = np.array([[3.0, 1.0, 2.0], [0.0, 0.0, 5.0]])
        assert np.array_equal(average_ranks(x), [[3.0, 1.0, 2.0], [1.5, 1.5, 3.0]])
        assert np.array_equal(average_ranks(x, axis=0), [[2.0, 2.0, 1.0], [1.0, 1.0, 2.0]])

    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    def test_all_ties_share_the_middle_rank(self, n):
        assert np.array_equal(average_ranks(np.full(n, 0.25)), np.full(n, (n + 1) / 2))
        assert np.array_equal(average_ranks(np.full((n, 3), 4.0), axis=0),
                              np.full((n, 3), (n + 1) / 2))

    def test_single_element(self):
        assert np.array_equal(average_ranks([7.0]), [1.0])
        assert np.array_equal(average_ranks([[7.0, 8.0]], axis=0), [[1.0, 1.0]])

    def test_negative_zero_ties_with_zero(self):
        x = np.array([0.0, -0.0, 1.0, -0.0, -1.0])
        assert np.array_equal(average_ranks(x), [3.0, 3.0, 5.0, 3.0, 1.0])
        assert np.array_equal(average_ranks(x), brute_force_ranks(x))


class TestAucLoss:
    def test_perfect_ranking(self):
        assert auc_loss([0.9, 0.1], [1, 0]) == 0.0

    def test_all_ties_is_half(self):
        assert auc_loss([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == pytest.approx(0.5)

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(2)
        for trial in range(30):
            n = int(rng.integers(5, 500))
            if trial % 3 == 0:
                scores = rng.integers(0, 4, n).astype(float)  # tie-heavy
            else:
                scores = rng.standard_normal(n)
            labels = rng.integers(0, 2, n)
            if labels.sum() in (0, n):
                labels[0] = 1 - labels[0]
            assert abs(auc_loss(scores, labels) - oracle_auc_pairwise(scores, labels)) <= 1e-12

    def test_single_class_undefined(self):
        with pytest.raises(ValueError, match="AUC undefined"):
            auc_loss([0.1, 0.2], [1, 1])

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_monotone_transform_invariance(self, seed):
        rng = np.random.default_rng(seed)
        s = rng.standard_normal(30)
        y = rng.integers(0, 2, 30)
        if y.sum() in (0, 30):
            y[0] = 1 - y[0]
        base = auc_loss(s, y)
        assert auc_loss(2 * s + 1, y) == pytest.approx(base, abs=1e-12)
        assert auc_loss(np.exp(s), y) == pytest.approx(base, abs=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_complement_sums_to_one_without_ties(self, seed):
        rng = np.random.default_rng(seed)
        s = rng.permutation(40).astype(float)  # distinct scores
        y = rng.integers(0, 2, 40)
        if y.sum() in (0, 40):
            y[0] = 1 - y[0]
        assert auc_loss(s, y) + auc_loss(-s, y) == pytest.approx(1.0, abs=1e-12)


class TestLogLoss:
    def test_one_hot_correct_is_zero(self):
        probs = np.eye(3)[[0, 1, 2, 1]]
        assert log_loss(probs, [0, 1, 2, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_probs(self):
        probs = np.full((6, 4), 0.25)
        assert log_loss(probs, [0, 1, 2, 3, 0, 1]) == pytest.approx(math.log(4), abs=1e-12)

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            raw = rng.random((200, 5))
            probs = raw / raw.sum(axis=1, keepdims=True)
            labels = rng.integers(0, 5, 200)
            assert abs(log_loss(probs, labels) - direct_log_loss(probs, labels)) <= 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            log_loss(np.full((2, 3), 1 / 3), [0, 3])

    def test_non_stochastic_rows_rejected(self):
        with pytest.raises(ValueError, match="row-stochastic"):
            log_loss(np.array([[0.5, 0.3], [0.5, 0.5]]), [0, 1])

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_mass_toward_true_class_decreases_loss(self, seed):
        rng = np.random.default_rng(seed)
        raw = rng.random((15, 4)) + 0.05
        probs = raw / raw.sum(axis=1, keepdims=True)
        labels = rng.integers(0, 4, 15)
        better = probs.copy()
        idx = np.arange(15)
        better[idx, labels] += 0.05
        better /= better.sum(axis=1, keepdims=True)
        assert log_loss(better, labels) < log_loss(probs, labels)


class TestTaskLoss:
    @pytest.mark.parametrize(
        "problem,o", [(ProblemType.REGRESSION, 1), (ProblemType.BINARY, 1),
                      (ProblemType.MULTICLASS, 3)]
    )
    def test_dispatch(self, problem, o):
        task = TaskMeta("d", 0, problem, n_val=4, n_test=4, o=o)
        rng = np.random.default_rng(0)
        if problem is ProblemType.REGRESSION:
            pred = rng.standard_normal((4, 1))
            target = rng.standard_normal(4)
            assert task_loss(task, pred, target) == pytest.approx(rmse(pred[:, 0], target))
        elif problem is ProblemType.BINARY:
            pred = rng.random((4, 1))
            target = np.array([0, 1, 0, 1])
            assert task_loss(task, pred, target) == pytest.approx(auc_loss(pred[:, 0], target))
        else:
            raw = rng.random((4, 3))
            pred = raw / raw.sum(axis=1, keepdims=True)
            target = np.array([0, 1, 2, 0])
            assert task_loss(task, pred, target) == pytest.approx(log_loss(pred, target))

    def test_shape_mismatch(self):
        task = TaskMeta("d", 0, ProblemType.MULTICLASS, n_val=4, n_test=4, o=3)
        with pytest.raises(ValueError, match="columns"):
            task_loss(task, np.zeros((4, 2)), [0, 1, 0, 1])


def scalar_losses(task, stack, target):
    return np.array([task_loss(task, m, target) for m in stack])


def stochastic(rng, shape):
    raw = rng.random(shape) + 1e-3
    return raw / raw.sum(axis=-1, keepdims=True)


# score rows: distinct values (no tie), a few levels (ties in most rows), or
# signed zeros among a few values (-0.0 == +0.0, so they form one tie group)
AUC_ROW_VALUES = {
    "distinct": st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    "levels": st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    "signed zeros": st.sampled_from([-0.0, 0.0, -1.0, 1.0]),
}


@st.composite
def auc_stacks(draw):
    """Labels with both classes (often a single positive or negative) and a
    stack of 1-6 rows, each drawn from its own kind of values."""
    n = draw(st.integers(2, 40))
    n_pos = draw(st.sampled_from([1, n - 1]) | st.integers(1, n - 1))
    y = np.array(draw(st.permutations([1] * n_pos + [0] * (n - n_pos))))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(sorted(AUC_ROW_VALUES)))
        rows.append(draw(st.lists(AUC_ROW_VALUES[kind], min_size=n, max_size=n,
                                  unique=kind == "distinct")))
    return y, np.array(rows, dtype=np.float64)[:, :, None]


class TestStackLoss:
    """The batched kernel against the scalar metrics, row by row."""

    def test_rmse_matches_scalar(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            m, n = int(rng.integers(1, 25)), int(rng.integers(1, 300))
            task = TaskMeta("d", 0, ProblemType.REGRESSION, n_val=n, n_test=n, o=1)
            stack = rng.standard_normal((m, n, 1)) * rng.uniform(0.1, 100)
            y = rng.standard_normal(n)
            got = StackLoss(task, y)(stack)
            want = np.array([rmse(row[:, 0], y) for row in stack])
            assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("levels", [2, 3, 5, None])
    def test_auc_matches_scalar_with_heavy_ties(self, levels):
        rng = np.random.default_rng(12)
        for _ in range(30):
            m, n = int(rng.integers(1, 25)), int(rng.integers(2, 300))
            task = TaskMeta("d", 0, ProblemType.BINARY, n_val=n, n_test=n, o=1)
            stack = rng.random((m, n, 1))
            if levels is not None:  # a few distinct scores: most rows tie
                stack = np.floor(stack * levels) / levels
            y = rng.integers(0, 2, n)
            y[:2] = (0, 1)
            got = StackLoss(task, y)(stack)
            want = np.array([auc_loss(row[:, 0], y) for row in stack])
            assert np.max(np.abs(got - want)) <= 1e-12
            oracle = np.array([oracle_auc_pairwise(row[:, 0], y) for row in stack])
            assert np.max(np.abs(got - oracle)) <= 1e-12

    def test_auc_all_ties_is_half(self):
        task = TaskMeta("d", 0, ProblemType.BINARY, n_val=4, n_test=4, o=1)
        got = StackLoss(task, [0, 1, 1, 0])(np.full((3, 4, 1), 0.3))
        assert np.array_equal(got, np.full(3, 0.5))

    @given(auc_stacks())
    @settings(max_examples=150, deadline=None)
    def test_auc_bit_equal_to_scalar(self, case):
        y, stack = case
        task = TaskMeta("d", 0, ProblemType.BINARY, n_val=y.size, n_test=y.size, o=1)
        got = StackLoss(task, y)(stack)
        assert [float(v).hex() for v in got] == [auc_loss(row[:, 0], y).hex() for row in stack]

    def test_auc_ranks_only_tied_rows(self, monkeypatch):
        rng = np.random.default_rng(16)
        n = 30
        task = TaskMeta("d", 0, ProblemType.BINARY, n_val=n, n_test=n, o=1)
        y = rng.integers(0, 2, n)
        y[:2] = (0, 1)
        stack = rng.permuted(np.tile(np.arange(n) - n // 2, (7, 1)), axis=1).astype(np.float64)
        stack[2, 5] = stack[2, 9]  # a plain tie
        stack[4][stack[4] == 0] = -0.0  # one signed zero: still no tie
        stack[6, [3, 8]] = (-0.0, 0.0)  # -0.0 == +0.0: a tie
        stack = stack[:, :, None]
        want = [auc_loss(row[:, 0], y).hex() for row in stack]

        ranked = []
        sorted_ranks = metrics._sorted_ranks

        def recording(x):
            ranked.append(x.copy())
            return sorted_ranks(x)

        monkeypatch.setattr(metrics, "_sorted_ranks", recording)
        got = StackLoss(task, y)(stack)
        assert [float(v).hex() for v in got] == want
        assert len(ranked) == 1 and np.array_equal(ranked[0], stack[[2, 6], :, 0])
        ranked.clear()
        StackLoss(task, y)(stack[[0, 1, 3, 4, 5]])
        assert ranked == []

    @pytest.mark.parametrize("o", [2, 3, 7])
    def test_log_loss_matches_scalar(self, o):
        rng = np.random.default_rng(13)
        for _ in range(30):
            m, n = int(rng.integers(1, 25)), int(rng.integers(1, 300))
            task = TaskMeta("d", 0, ProblemType.MULTICLASS, n_val=n, n_test=n, o=o)
            stack = stochastic(rng, (m, n, o))
            stack[:, :, 0] *= rng.random((m, n)) < 0.9  # some exact zeros: clipping
            stack /= stack.sum(axis=2, keepdims=True)
            y = rng.integers(0, o, n)
            got = StackLoss(task, y)(stack)
            want = np.array([log_loss(row, y) for row in stack])
            assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("drift,accepted", [(9.9e-6, True), (-9.9e-6, True),
                                                (1.01e-5, False), (-1.01e-5, False)])
    def test_row_sum_edge_matches_scalar(self, drift, accepted):
        rng = np.random.default_rng(14)
        task = TaskMeta("d", 0, ProblemType.MULTICLASS, n_val=50, n_test=50, o=3)
        y = rng.integers(0, 3, 50)
        stack = stochastic(rng, (4, 50, 3))
        stack[2, 17] *= 1.0 + drift
        if accepted:
            got = StackLoss(task, y)(stack)
            assert np.max(np.abs(got - scalar_losses(task, stack, y))) <= 1e-12
        else:
            with pytest.raises(ValueError, match="row-stochastic"):
                task_loss(task, stack[2], y)
            with pytest.raises(ValueError, match="row-stochastic"):
                StackLoss(task, y)(stack)

    @pytest.mark.parametrize(
        "problem,o", [(ProblemType.REGRESSION, 1), (ProblemType.BINARY, 1),
                      (ProblemType.MULTICLASS, 3)]
    )
    def test_non_finite_rejected(self, problem, o):
        task = TaskMeta("d", 0, problem, n_val=4, n_test=4, o=o)
        stack = np.full((2, 4, o), 1.0 / o)
        stack[1, 2, 0] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            StackLoss(task, [0, 1, 0, 1])(stack)

    def test_shape_rejected(self):
        task = TaskMeta("d", 0, ProblemType.MULTICLASS, n_val=4, n_test=4, o=3)
        loss = StackLoss(task, [0, 1, 2, 0])
        with pytest.raises(ValueError, match="shape"):
            loss(np.full((2, 4, 2), 0.5))  # wrong column count
        with pytest.raises(ValueError, match="shape"):
            loss(np.full((2, 5, 3), 1 / 3))  # wrong row count
        with pytest.raises(ValueError, match="shape"):
            loss(np.full((4, 3), 1 / 3))  # a single matrix, not a stack

    @pytest.mark.parametrize("problem,o,levels", [
        (ProblemType.BINARY, 1, 3), (ProblemType.BINARY, 1, 9), (ProblemType.BINARY, 1, None),
        (ProblemType.MULTICLASS, 2, None), (ProblemType.MULTICLASS, 5, None),
        (ProblemType.MULTICLASS, 3, 4), (ProblemType.REGRESSION, 1, None),
    ])
    def test_averaged_columns_score_like_averaged_stacks(self, problem, o, levels):
        # greedy selection scores (running column + columns) / step; a full call
        # scores (running + stack) / step: every step's scores must be bit-equal
        rng = np.random.default_rng(15)
        for _ in range(10):
            m, n = int(rng.integers(1, 20)), int(rng.integers(2, 160))
            task = TaskMeta("d", 0, problem, n_val=n, n_test=n, o=o)
            if problem is ProblemType.MULTICLASS:
                stack = stochastic(rng, (m, n, o))
                y = rng.integers(0, o, n)
            else:
                stack = rng.random((m, n, o)) * (4.0 if problem is ProblemType.REGRESSION else 1.0)
                y = rng.integers(0, 2, n) if problem is ProblemType.BINARY else rng.random(n)
            if levels is not None:  # a few distinct values: scores tie within a row
                stack = np.floor(stack * levels) / levels
                if problem is ProblemType.MULTICLASS:
                    stack[:, :, -1] = 1.0 - stack[:, :, :-1].sum(axis=2)
            stack = stack.astype(np.float32).astype(np.float64)  # stored predictions
            if problem is ProblemType.BINARY:
                y[:2] = (0, 1)
            loss = StackLoss(task, y)
            columns = loss.check(stack)
            running, running_column = np.zeros((n, o)), np.zeros(n)
            for step in range(1, 25):
                got = loss.score((running_column + columns) / step)
                want = loss((running + stack) / step)
                assert got.tobytes() == want.tobytes(), step
                k = int(rng.integers(m))
                running += stack[k]
                running_column += columns[k]

    def test_labels_checked_on_construction(self):
        binary = TaskMeta("d", 0, ProblemType.BINARY, n_val=4, n_test=4, o=1)
        with pytest.raises(ValueError, match="single class"):
            StackLoss(binary, [1, 1, 1, 1])
        with pytest.raises(ValueError, match="binary"):
            StackLoss(binary, [0, 1, 2, 1])
        multiclass = TaskMeta("d", 0, ProblemType.MULTICLASS, n_val=2, n_test=2, o=3)
        with pytest.raises(ValueError, match="out of range"):
            StackLoss(multiclass, [0, 3])
        regression = TaskMeta("d", 0, ProblemType.REGRESSION, n_val=2, n_test=2, o=1)
        with pytest.raises(ValueError, match="NaN"):
            StackLoss(regression, [0.0, np.inf])
