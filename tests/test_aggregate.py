from __future__ import annotations

import numpy as np
import pytest

from predrepo import (
    MethodResults,
    average_rank,
    mean_normalized_error,
    normalized_error,
    rescaled_loss,
    winrate,
)
from predrepo.aggregate import lower_median


def make_methods(table: np.ndarray, n_datasets: int, folds: int) -> list[MethodResults]:
    """table[m, t] = loss of method m on task t; tasks = datasets x folds."""
    keys = [(f"d{d}", f) for d in range(n_datasets) for f in range(folds)]
    assert table.shape[1] == len(keys)
    return [
        MethodResults(f"m{m}", {k: float(table[m, i]) for i, k in enumerate(keys)})
        for m in range(table.shape[0])
    ]


class TestNormalizedError:
    def test_three_method_example(self):
        methods = make_methods(np.array([[0.1], [0.2], [0.4]]), 1, 1)
        scores = normalized_error(methods)
        task = ("d0", 0)
        assert scores[("m0", task)] == pytest.approx(0.0)
        assert scores[("m1", task)] == pytest.approx(1.0)
        assert scores[("m2", task)] == pytest.approx(1.0)  # clipped

    def test_all_equal_losses_score_zero(self):
        methods = make_methods(np.full((4, 3), 0.7), 1, 3)
        scores = normalized_error(methods)
        assert all(v == 0.0 for v in scores.values())

    def test_matches_direct_recomputation(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            table = rng.random((7, 12))
            methods = make_methods(table, 4, 3)
            scores = normalized_error(methods)
            for col in range(12):
                losses = table[:, col]
                top = losses.min()
                base = np.sort(losses)[(7 + 1) // 2 - 1]
                for m in range(7):
                    want = min(max((losses[m] - top) / max(base - top, 1e-5), 0.0), 1.0)
                    key = (f"m{m}", (f"d{col // 3}", col % 3))
                    assert abs(scores[key] - want) <= 1e-12

    def test_scores_always_in_unit_interval(self):
        rng = np.random.default_rng(11)
        table = np.exp(5 * rng.standard_normal((5, 9)))
        scores = normalized_error(make_methods(table, 3, 3))
        assert all(0.0 <= v <= 1.0 for v in scores.values())

    def test_affine_invariance_when_clip_free(self):
        rng = np.random.default_rng(12)
        # spread columns so no score clips and no denominator floors
        base = np.sort(rng.random((5, 6)) + 0.5, axis=0)
        methods_a = make_methods(base, 2, 3)
        scale, shift = 3.7, 11.0
        methods_b = make_methods(scale * base + shift, 2, 3)
        a = normalized_error(methods_a)
        b = normalized_error(methods_b)
        for key in a:
            if 0.0 < a[key] < 1.0:
                assert b[key] == pytest.approx(a[key], abs=1e-12)

    def test_single_method_rejected(self):
        with pytest.raises(ValueError):
            normalized_error(make_methods(np.array([[0.1]]), 1, 1))

    def test_missing_cell_rejected(self):
        methods = make_methods(np.ones((2, 4)), 2, 2)
        del methods[1].losses[("d1", 1)]
        with pytest.raises(ValueError, match="does not cover the same tasks"):
            normalized_error(methods)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("ranking", [normalized_error, average_rank])
    def test_non_finite_loss_is_named(self, value, ranking):
        table = np.ones((3, 4))
        table[1, 2] = value
        with pytest.raises(ValueError) as err:
            ranking(make_methods(table, 2, 2))
        assert str(err.value) == f"method 'm1' has a non-finite loss {value} on task ('d1', 0)"

    def test_lower_median_is_achieved_loss(self):
        assert lower_median(np.array([3.0, 1.0, 2.0, 4.0])) == 2.0
        assert lower_median(np.array([5.0, 1.0, 3.0])) == 3.0


class TestAverageRank:
    def test_strict_dominance(self):
        methods = make_methods(np.array([[0.1, 0.2], [0.3, 0.5]]), 1, 2)
        ranks = average_rank(methods)
        assert ranks == {"m0": 1.0, "m1": 2.0}

    def test_identical_methods_tie_at_one_and_a_half(self):
        methods = make_methods(np.array([[0.4, 0.4], [0.4, 0.4]]), 1, 2)
        ranks = average_rank(methods)
        assert ranks == {"m0": 1.5, "m1": 1.5}

    def test_matches_sort_based_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            table = rng.integers(0, 5, size=(5, 8)).astype(float)  # force ties
            methods = make_methods(table, 4, 2)
            got = average_rank(methods)
            per_method = np.zeros(5)
            for col in range(8):
                order = np.argsort(table[:, col], kind="stable")
                ranks = np.empty(5)
                i = 0
                while i < 5:
                    k = i
                    while k + 1 < 5 and table[order[k + 1], col] == table[order[i], col]:
                        k += 1
                    ranks[order[i : k + 1]] = (i + k) / 2 + 1
                    i = k + 1
                per_method += ranks
            for m in range(5):
                assert got[f"m{m}"] == pytest.approx(per_method[m] / 8, abs=1e-12)

    def test_rank_sum_per_task(self):
        rng = np.random.default_rng(14)
        k = 6
        table = rng.random((k, 4))
        methods = make_methods(table, 2, 2)
        ranks = average_rank(methods)
        assert all(1.0 <= v <= k for v in ranks.values())
        assert sum(ranks.values()) * 4 == pytest.approx(k * (k + 1) / 2 * 4)


class TestWinrate:
    def test_self_comparison_paper_anchor(self):
        rng = np.random.default_rng(15)
        table = rng.random((1, 200 * 3))
        m = make_methods(table, 200, 3)[0]
        assert winrate(m, m, 3) == (0.500, 0, 0, 200)

    def test_strict_winner(self):
        a, b = make_methods(np.array([[0.1] * 6, [0.9] * 6]), 3, 2)
        assert winrate(a, b, 2) == (1.0, 3, 0, 0)
        assert winrate(b, a, 2) == (0.0, 0, 3, 0)

    def test_matches_direct_comparison_oracle(self):
        rng = np.random.default_rng(16)
        for _ in range(30):
            table = rng.random((2, 10 * 2))
            table[:, :4] = 0.5  # manufacture exact ties on the first datasets
            a, b = make_methods(table, 10, 2)
            got = winrate(a, b, 2)
            wins = ties = losses = 0
            for d in range(10):
                la = np.mean([table[0, 2 * d], table[0, 2 * d + 1]])
                lb = np.mean([table[1, 2 * d], table[1, 2 * d + 1]])
                if la < lb:
                    wins += 1
                elif la == lb:
                    ties += 1
                else:
                    losses += 1
            assert got == ((wins + 0.5 * ties) / 10, wins, losses, ties)

    def test_symmetry(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            table = rng.random((2, 8))
            a, b = make_methods(table, 4, 2)
            assert winrate(a, b, 2).winrate + winrate(b, a, 2).winrate == 1.0

    def test_fold_count_mismatch(self):
        a, b = make_methods(np.ones((2, 6)), 3, 2)
        with pytest.raises(ValueError, match="folds"):
            winrate(a, b, 3)

    def test_task_set_mismatch(self):
        a, b = make_methods(np.ones((2, 4)), 2, 2)
        del b.losses[("d0", 0)]
        with pytest.raises(ValueError, match="does not cover"):
            winrate(a, b, 2)


class TestRescaledLoss:
    def test_best_and_worst_everywhere(self):
        table = np.array([[0.1] * 4, [0.5] * 4, [0.9] * 4])
        methods = make_methods(table, 2, 2)
        out = rescaled_loss(methods, 2)
        assert out["m0"] == 0.0
        assert out["m2"] == 1.0
        assert out["m1"] == pytest.approx(0.5)

    def test_matches_direct_recomputation(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            table = rng.random((4, 6))
            methods = make_methods(table, 3, 2)
            got = rescaled_loss(methods, 2)
            means = table.reshape(4, 3, 2).mean(axis=2)  # (method, dataset)
            want = np.zeros(4)
            for d in range(3):
                col = means[:, d]
                want += (col - col.min()) / (col.max() - col.min())
            for m in range(4):
                assert got[f"m{m}"] == pytest.approx(want[m] / 3, abs=1e-12)

    def test_per_dataset_affine_invariance(self):
        rng = np.random.default_rng(19)
        table = rng.random((3, 6))
        methods_a = make_methods(table, 3, 2)
        scaled = table.copy().reshape(3, 3, 2)
        for d in range(3):
            scaled[:, d, :] = scaled[:, d, :] * (d + 2.0) + 5.0 * d
        methods_b = make_methods(scaled.reshape(3, 6), 3, 2)
        a = rescaled_loss(methods_a, 2)
        b = rescaled_loss(methods_b, 2)
        for name in a:
            assert b[name] == pytest.approx(a[name], abs=1e-12)

    def test_constant_dataset_contributes_zero(self):
        table = np.array([[0.5, 0.5, 0.1, 0.1], [0.5, 0.5, 0.9, 0.9]])
        out = rescaled_loss(make_methods(table, 2, 2), 2)
        assert out == {"m0": 0.0, "m1": 0.5}


class TestMeanNormalizedError:
    def test_mean_of_per_task_scores(self):
        table = np.array([[0.1, 0.4], [0.2, 0.2], [0.4, 0.1]])
        methods = make_methods(table, 1, 2)
        means = mean_normalized_error(methods)
        assert means["m1"] == pytest.approx(1.0)
        assert means["m0"] == pytest.approx(0.5)
        assert means["m2"] == pytest.approx(0.5)
