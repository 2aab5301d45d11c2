from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from predrepo import (
    NORMALIZED_LOSS,
    ConfigMeta,
    FamilySpec,
    ProblemType,
    RAW_LOSS,
    Repository,
    TaskMeta,
    generate_repo,
    learn_portfolio,
    loo_train_tasks,
)
from predrepo.portfolio import normalize_losses
from predrepo.synth import oracle_greedy_extension

from conftest import make_handmade_repo, rebuild_repo, repo_arrays, small_spec


def scalar_portfolio(losses, ordinals, n_max):
    """Reference greedy loop: one ``np.mean`` per remaining candidate and step.

    ``losses`` is (tasks, candidates); returns the picked ordinals and the
    objective after each pick.
    """
    current = np.full(losses.shape[0], np.inf)
    remaining = list(range(len(ordinals)))
    picked, trajectory = [], []
    for _ in range(min(n_max, len(ordinals))):
        best_col, best_obj = -1, np.inf
        for col in remaining:
            obj = float(np.mean(np.minimum(current, losses[:, col])))
            if obj < best_obj:
                best_obj, best_col = obj, col
        picked.append(ordinals[best_col])
        current = np.minimum(current, losses[:, best_col])
        trajectory.append(best_obj)
        remaining.remove(best_col)
    return picked, trajectory


def full_scan_portfolio(losses, ordinals, n_max):
    """The greedy loop that scores every remaining candidate at every step.

    ``losses`` is (tasks, candidates), already normalized where the mode
    asks for it; returns the picked ordinals and the objective after each
    pick, with the arithmetic ``learn_portfolio`` must reproduce bit for bit.
    """
    by_cand = np.ascontiguousarray(losses.T)
    n_tasks = losses.shape[0]
    current = np.full(n_tasks, np.inf)
    buf = np.empty_like(by_cand)
    objective = np.empty(len(ordinals))
    taken = np.zeros(len(ordinals), dtype=bool)
    picked, trajectory = [], []
    for _ in range(min(n_max, len(ordinals))):
        np.minimum(current, by_cand, out=buf)
        np.add.reduce(buf, axis=1, out=objective)
        objective /= n_tasks
        objective[taken] = np.inf
        col = int(np.argmin(objective))
        taken[col] = True
        picked.append(ordinals[col])
        np.minimum(current, by_cand[col], out=current)
        trajectory.append(float(objective[col]))
    return picked, trajectory


def loss_table_repo(losses) -> Repository:
    """Repository whose validation losses are ``losses`` (tasks, configs), stored as given."""
    n_tasks, n_configs = losses.shape
    tasks = [TaskMeta(f"d{t // 2}", t % 2, ProblemType.REGRESSION, n_val=1, n_test=1, o=1)
             for t in range(n_tasks)]
    configs = [ConfigMeta(f"c{j:02d}", "fam") for j in range(n_configs)]
    slab = np.zeros((n_configs, 1, 1), dtype=np.float32)
    evals = np.ones((n_tasks, n_configs, 4))
    evals[:, :, 0] = losses
    return Repository.in_memory(tasks, configs, 2, [(np.zeros(1), np.zeros(1))] * n_tasks,
                                [(slab, slab)] * n_tasks, evals)


LOSS_TABLES = ("tie_heavy", "saturating", "continuous", "signed_zero")


def draw_loss_table(kind: str, rng, n_tasks: int, n_cands: int):
    shape = (n_tasks, n_cands)
    if kind == "tie_heavy":  # a few distinct levels: ties within and across tasks
        levels = int(rng.integers(1, 4))
        return rng.integers(0, levels + 1, shape) / levels
    if kind == "saturating":  # few tasks: the normalized objective soon reaches 0
        return rng.random((min(n_tasks, 3), n_cands))
    if kind == "continuous":
        return rng.random(shape) ** 3 * 10.0
    return rng.choice(np.array([0.0, -0.0, 0.25]), shape)  # raw losses hold both zeros


class TestLearnPortfolio:
    def test_size_one_is_best_mean_loss(self, synth_repo):
        pf = learn_portfolio(synth_repo.tasks, range(synth_repo.n_configs), 1,
                             RAW_LOSS, synth_repo)
        means = synth_repo.eval_table[:, :, 0].mean(axis=0)
        assert pf.configs == [int(np.argmin(means))]
        assert pf.objective_trajectory == [pytest.approx(float(means.min()))]

    def test_dominated_config_still_picked_second(self, handmade_repo):
        # shrink config 0's losses so it dominates config 1 on every task
        repo = handmade_repo
        repo.eval_table[:, 0, 0] = repo.eval_table[:, 1, 0] * 0.5
        pf = learn_portfolio(repo.tasks, [0, 1], 2, RAW_LOSS, repo)
        assert pf.configs == [0, 1]

    @pytest.mark.parametrize("aggregation", [RAW_LOSS, NORMALIZED_LOSS])
    def test_picks_match_extension_oracle(self, aggregation):
        spec = small_spec(seed=31, n_datasets=3, folds=2)  # 6 tasks available
        repo = generate_repo(spec)
        rng = np.random.default_rng(12)
        for _ in range(10):
            task_ids = sorted(rng.choice(repo.n_tasks, size=5, replace=False).tolist())
            cands = sorted(rng.choice(repo.n_configs, size=6, replace=False).tolist())
            tasks = [repo.tasks[t] for t in task_ids]
            pf = learn_portfolio(tasks, cands, 3, aggregation, repo)
            state: list[int] = []
            for pick in pf.configs:
                expect = oracle_greedy_extension(state, cands, tasks, repo,
                                                 aggregation=aggregation)
                assert pick == expect
                state.append(pick)

    def test_picks_match_scalar_loop_on_tie_heavy_tables(self):
        repo = generate_repo(small_spec(seed=61, families=(
            FamilySpec("gbm", 12, 0.8, 0.5, 0.3), FamilySpec("mlp", 12, 0.6, 0.8, 0.2))))
        rng = np.random.default_rng(5)
        for trial in range(200):
            if trial % 4 == 3:
                repo.eval_table[:, :, 0] = rng.random((repo.n_tasks, repo.n_configs))
            else:  # a few distinct levels: ties within and across tasks
                levels = rng.integers(1, 4)
                repo.eval_table[:, :, 0] = rng.integers(0, levels + 1,
                                                        (repo.n_tasks, repo.n_configs)) / levels
            task_ids = sorted(rng.choice(repo.n_tasks, size=rng.integers(1, repo.n_tasks + 1),
                                         replace=False).tolist())
            cands = sorted(rng.choice(repo.n_configs, size=rng.integers(1, repo.n_configs + 1),
                                      replace=False).tolist())
            n_max = int(rng.integers(1, len(cands) + 2))
            for aggregation in (RAW_LOSS, NORMALIZED_LOSS):
                losses = repo.eval_table[np.ix_(task_ids, cands)][:, :, 0]
                if aggregation == NORMALIZED_LOSS:
                    losses = normalize_losses(losses)
                pf = learn_portfolio([repo.tasks[t] for t in task_ids], cands, n_max,
                                     aggregation, repo)
                assert (pf.configs, pf.objective_trajectory) == scalar_portfolio(
                    losses, cands, n_max)

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(LOSS_TABLES), normalized=st.booleans(),
           n_tasks=st.integers(1, 12), n_cands=st.integers(1, 40),
           extra=st.integers(-39, 3), seed=st.integers(0, 2**16))
    def test_lazy_steps_match_full_scan(self, kind, normalized, n_tasks, n_cands, extra, seed):
        rng = np.random.default_rng(seed)
        losses = draw_loss_table(kind, rng, n_tasks, n_cands)
        aggregation = NORMALIZED_LOSS if normalized and kind != "signed_zero" else RAW_LOSS
        n_max = max(1, n_cands + extra)  # from 1 to beyond the candidate count
        repo = loss_table_repo(losses)
        cands = sorted(rng.choice(n_cands, size=rng.integers(1, n_cands + 1),
                                  replace=False).tolist())
        pf = learn_portfolio(repo.tasks, cands, n_max, aggregation, repo)
        table = losses[:, cands]
        if aggregation == NORMALIZED_LOSS:
            table = normalize_losses(table)
        configs, trajectory = full_scan_portfolio(table, cands, n_max)
        assert pf.configs == configs
        assert [x.hex() for x in pf.objective_trajectory] == [x.hex() for x in trajectory]

    @pytest.mark.parametrize("losses", [[[0.0, -0.0, 0.0]], [[-0.0, 0.0, 0.5], [0.0, -0.0, 0.5]],
                                        [[0.5, -0.0, 0.0], [0.0, 0.5, -0.0]]])
    def test_saturation_tail_keeps_zero_bits(self, losses):
        # np.minimum keeps a row's -0.0 against a +0.0 of the running minimum, so
        # the full scan sums it where the tail repeats the last objective
        losses = np.array(losses)
        repo = loss_table_repo(losses)
        n = losses.shape[1]
        pf = learn_portfolio(repo.tasks, range(n), n, RAW_LOSS, repo)
        configs, trajectory = full_scan_portfolio(losses, list(range(n)), n)
        assert pf.configs == configs
        assert [x.hex() for x in pf.objective_trajectory] == [x.hex() for x in trajectory]

    def test_smaller_portfolio_is_prefix_of_larger(self):
        # ablate learns one set at the largest size and cuts it for the smaller ones
        repo = generate_repo(small_spec(seed=67, families=(
            FamilySpec("gbm", 12, 0.8, 0.5, 0.3), FamilySpec("mlp", 12, 0.6, 0.8, 0.2))))
        rng = np.random.default_rng(9)
        for trial in range(60):
            if trial % 3 == 2:
                repo.eval_table[:, :, 0] = rng.random((repo.n_tasks, repo.n_configs))
            else:  # a few distinct levels: ties within and across tasks
                levels = rng.integers(1, 4)
                repo.eval_table[:, :, 0] = rng.integers(0, levels + 1,
                                                        (repo.n_tasks, repo.n_configs)) / levels
            task_ids = sorted(rng.choice(repo.n_tasks, size=rng.integers(1, repo.n_tasks + 1),
                                         replace=False).tolist())
            tasks = [repo.tasks[t] for t in task_ids]
            cands = sorted(rng.choice(repo.n_configs, size=rng.integers(1, repo.n_configs + 1),
                                      replace=False).tolist())
            for aggregation in (RAW_LOSS, NORMALIZED_LOSS):
                full = learn_portfolio(tasks, cands, len(cands), aggregation, repo)
                for k in range(1, len(cands) + 1):
                    pf = learn_portfolio(tasks, cands, k, aggregation, repo)
                    assert pf.configs == full.configs[:k]
                    assert ([x.hex() for x in pf.objective_trajectory]
                            == [x.hex() for x in full.objective_trajectory[:k]])

    def test_no_duplicates_and_trajectory_non_increasing(self, synth_repo):
        pf = learn_portfolio(synth_repo.tasks, range(synth_repo.n_configs),
                             synth_repo.n_configs, NORMALIZED_LOSS, synth_repo)
        assert len(set(pf.configs)) == len(pf.configs)
        traj = pf.objective_trajectory
        assert all(traj[i + 1] <= traj[i] + 1e-15 for i in range(len(traj) - 1))

    def test_train_task_permutation_invariance(self, synth_repo):
        tasks = list(synth_repo.tasks)
        a = learn_portfolio(tasks, range(synth_repo.n_configs), 4, NORMALIZED_LOSS, synth_repo)
        b = learn_portfolio(tasks[::-1], range(synth_repo.n_configs), 4,
                            NORMALIZED_LOSS, synth_repo)
        assert a == b

    def test_single_train_task_raw_first_pick(self, synth_repo):
        task = synth_repo.tasks[3]
        pf = learn_portfolio([task], range(synth_repo.n_configs), 2, RAW_LOSS, synth_repo)
        assert pf.configs[0] == int(np.argmin(synth_repo.eval_table[3, :, 0]))

    def test_empty_inputs(self, synth_repo):
        with pytest.raises(ValueError):
            learn_portfolio([], [0, 1], 2, RAW_LOSS, synth_repo)
        with pytest.raises(ValueError):
            learn_portfolio(synth_repo.tasks, [], 2, RAW_LOSS, synth_repo)

    @pytest.mark.parametrize("aggregation", [RAW_LOSS, NORMALIZED_LOSS])
    def test_non_finite_loss_is_named(self, aggregation):
        repo = make_handmade_repo()
        repo.eval_table[0, 2, 0] = np.nan
        with pytest.raises(ValueError, match=r"non-finite validation loss at "
                                             r"\(task=\('reg', 0\), config=beta-default\)"):
            learn_portfolio(repo.tasks, range(3), 3, aggregation, repo)
        # a table without the bad entry is still learned
        pf = learn_portfolio(repo.tasks[1:], range(3), 3, aggregation, repo)
        assert sorted(pf.configs) == [0, 1, 2]

    def test_leakage_freedom(self):
        base = generate_repo(small_spec(seed=41))
        held_out = base.datasets[1]
        train = loo_train_tasks(base, held_out)
        reference = learn_portfolio(train, range(base.n_configs), 5,
                                    NORMALIZED_LOSS, base)
        perturbed = generate_repo(small_spec(seed=41))
        labels, preds, evals = repo_arrays(perturbed)
        rng = np.random.default_rng(99)
        for t in perturbed.dataset_tasks(held_out):
            for j in range(perturbed.n_configs):
                for split in (0, 1):
                    arr = preds[t][split][j]
                    arr += rng.random(arr.shape).astype(np.float32) * 1e-3
                evals[t, j, :2] = rng.random(2)
        perturbed = rebuild_repo(perturbed, labels, preds, evals)
        again = learn_portfolio(loo_train_tasks(perturbed, held_out),
                                range(perturbed.n_configs), 5, NORMALIZED_LOSS, perturbed)
        assert again == reference


class TestLooTrainTasks:
    def test_counts(self):
        repo = generate_repo(small_spec(
            seed=3, n_datasets=10, folds=3,
            families=(small_spec().families[0],), rows_val=(8, 10), rows_test=(8, 10)))
        train = loo_train_tasks(repo, repo.datasets[0])
        assert len(train) == 27

    def test_held_out_absent(self, synth_repo):
        held = synth_repo.datasets[2]
        train = loo_train_tasks(synth_repo, held)
        assert all(t.dataset_id != held for t in train)
        assert len(train) == synth_repo.n_tasks - synth_repo.folds_per_dataset

    def test_unknown_dataset(self, synth_repo):
        with pytest.raises(KeyError, match="unknown dataset"):
            loo_train_tasks(synth_repo, "missing")

    def test_single_dataset_gives_empty_then_error(self):
        repo = generate_repo(small_spec(seed=5, n_datasets=1))
        train = loo_train_tasks(repo, repo.datasets[0])
        assert train == []
        with pytest.raises(ValueError):
            learn_portfolio(train, range(repo.n_configs), 2, RAW_LOSS, repo)


class TestNormalizeLosses:
    def test_constant_rows_map_to_zero(self):
        mat = np.array([[3.0, 3.0, 3.0], [1.0, 2.0, 3.0]])
        out = normalize_losses(mat)
        assert np.array_equal(out[0], [0.0, 0.0, 0.0])
        assert out[1] == pytest.approx([0.0, 0.5, 1.0])
