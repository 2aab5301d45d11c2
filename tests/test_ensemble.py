from __future__ import annotations

from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from predrepo import (
    ConfigMeta,
    EnsembleWeights,
    FamilySpec,
    ProblemType,
    Repository,
    TaskMeta,
    caruana_select,
    ensemble_predict,
    evaluate_ensemble,
    generate_repo,
    metrics,
    task_loss,
)
from predrepo.ensemble import _ensemble_losses, _select_pools
from predrepo.store import TEST, VAL
from predrepo.synth import oracle_greedy_extension

from conftest import HIGHEST_SUM, LOWEST_SUM, row_summing_to, small_spec


def single_task_repo(problem, y_val, y_test, config_preds, times=None):
    """One-task repository from explicit per-config (val, test) predictions."""
    y_val, y_test = np.asarray(y_val), np.asarray(y_test)
    o = next(iter(config_preds.values()))[0].shape[1]
    task = TaskMeta("d", 0, problem, n_val=len(y_val), n_test=len(y_test), o=o)
    configs = [ConfigMeta(cid, "fam", is_default=(i == 0))
               for i, cid in enumerate(config_preds)]
    val, test = (np.stack([np.asarray(p[s], dtype=np.float32) for p in config_preds.values()])
                 for s in (VAL, TEST))
    evals = np.zeros((1, len(configs), 4))
    for j in range(len(configs)):
        evals[0, j, 0] = task_loss(task, val[j], y_val)
        evals[0, j, 1] = task_loss(task, test[j], y_test)
        evals[0, j, 2] = times[j] if times else 1.0
        evals[0, j, 3] = 1e-3
    return Repository.in_memory([task], configs, 1, [(y_val, y_test)], [(val, test)], evals)


def unchecked_repo(problem, y_val, val_preds):
    """One-task repository that stores its inputs as given, invalid ones too."""
    y_val = np.asarray(y_val)
    n, o = val_preds[0].shape
    task = TaskMeta("d", 0, problem, n_val=n, n_test=n, o=o)
    configs = [ConfigMeta(f"c{j}", "fam") for j in range(len(val_preds))]
    slab = np.stack([np.asarray(pv, dtype=np.float32) for pv in val_preds])
    evals = np.zeros((1, len(configs), 4))
    return Repository.in_memory([task], configs, 1, [(y_val, y_val)], [(slab, slab)], evals)


def col(*values):
    return np.array(values, dtype=np.float64).reshape(-1, 1)


class TestCaruanaSelect:
    def test_single_candidate(self):
        repo = single_task_repo(
            ProblemType.REGRESSION, [1.0, 2.0], [1.0],
            {"a": (col(1.5, 2.5), col(1.0)), "b": (col(0.0, 0.0), col(0.0))},
        )
        w = caruana_select(("d", 0), ["a"], 4, repo)
        assert w.counts == {0: 1}
        assert w.val_loss == pytest.approx(repo.loss_val(("d", 0), "a"))

    def test_perfect_candidate_picked_first_with_zero_loss(self):
        y = np.array([0, 1, 0, 1, 1, 0])
        repo = single_task_repo(
            ProblemType.BINARY, y, y,
            {"noisy": (col(0.6, 0.4, 0.7, 0.3, 0.2, 0.9), col(*([0.5] * 6))),
             "sharp": (col(0.1, 0.9, 0.2, 0.8, 0.7, 0.3), col(0.1, 0.9, 0.2, 0.8, 0.7, 0.3))},
        )
        w = caruana_select(("d", 0), ["noisy", "sharp"], 3, repo)
        assert w.trajectory[0][0] == repo.config_index("sharp")
        assert w.val_loss == 0.0

    def test_step_one_is_argmin_single_model(self, synth_repo):
        for t in range(synth_repo.n_tasks):
            w = caruana_select(t, range(synth_repo.n_configs), 1, synth_repo)
            stored = synth_repo.eval_table[t, :, 0]
            assert w.trajectory[0][0] == int(np.argmin(stored))

    def test_trajectory_has_c_max_entries_and_best_prefix_returned(self, synth_repo):
        w = caruana_select(0, range(synth_repo.n_configs), 10, synth_repo)
        assert len(w.trajectory) == 10
        losses = [l for _, l in w.trajectory]
        assert w.steps == int(np.argmin(losses)) + 1
        assert sum(w.counts.values()) == w.steps
        assert w.counts == dict(Counter(j for j, _ in w.trajectory[: w.steps]))

    def test_duplicate_candidates_equal_dedup(self, synth_repo):
        a = caruana_select(1, [0, 1, 2], 6, synth_repo)
        b = caruana_select(1, [0, 1, 2, 1, 0], 6, synth_repo)
        assert a == b

    def test_candidate_permutation_invariance(self, synth_repo):
        cands = list(range(synth_repo.n_configs))
        a = caruana_select(2, cands, 6, synth_repo)
        b = caruana_select(2, cands[::-1], 6, synth_repo)
        assert a == b

    def test_empty_candidates(self, synth_repo):
        with pytest.raises(ValueError, match="empty"):
            caruana_select(0, [], 4, synth_repo)

    def test_every_step_matches_extension_oracle(self):
        # M=4 regression configs, n=6 rows, C_max=3, exhaustively verified
        rng = np.random.default_rng(5)
        y_val, y_test = rng.standard_normal(6), rng.standard_normal(4)
        config_preds = {
            f"c{i}": (rng.standard_normal((6, 1)), rng.standard_normal((4, 1)))
            for i in range(4)
        }
        repo = single_task_repo(ProblemType.REGRESSION, y_val, y_test, config_preds)
        w = caruana_select(("d", 0), list(config_preds), 3, repo)
        state: list[int] = []
        for step, (pick, _) in enumerate(w.trajectory):
            expect = oracle_greedy_extension(state, list(range(4)), ("d", 0), repo)
            assert pick == expect, f"step {step}"
            state.append(pick)
        # returned loss is the minimum over greedy-reachable prefixes
        assert w.val_loss == min(l for _, l in w.trajectory)

    def test_dominance_over_best_single(self, synth_repo):
        rng = np.random.default_rng(7)
        for _ in range(50):
            t = int(rng.integers(synth_repo.n_tasks))
            k = int(rng.integers(2, synth_repo.n_configs + 1))
            cands = sorted(rng.choice(synth_repo.n_configs, size=k, replace=False).tolist())
            w = caruana_select(t, cands, 8, synth_repo)
            best_single = min(synth_repo.eval_table[t, j, 0] for j in cands)
            assert w.val_loss <= best_single + 1e-12


def scalar_select(task, candidates, c_max, repo):
    """Reference greedy loop: one scalar task_loss call per (step, candidate)."""
    t = repo.task_index(task)
    meta = repo.tasks[t]
    y = repo.labels(t, VAL)
    preds = {j: repo.predictions(t, j, VAL).astype(np.float64) for j in candidates}
    running = np.zeros((meta.n_val, meta.o))
    trajectory = []
    for step in range(1, c_max + 1):
        best_j, best_loss = -1, np.inf
        for j in sorted(candidates):
            loss = task_loss(meta, (running + preds[j]) / step, y)
            if loss < best_loss:
                best_j, best_loss = j, loss
        running += preds[best_j]
        trajectory.append((best_j, best_loss))
    losses = [loss for _, loss in trajectory]
    steps = int(np.argmin(losses)) + 1
    return trajectory, steps, dict(Counter(j for j, _ in trajectory[:steps]))


class TestBatchedScoring:
    def test_picks_and_best_prefix_match_scalar_loop(self, synth_repo):
        rng = np.random.default_rng(17)
        for t in range(synth_repo.n_tasks):
            for candidates in (list(range(synth_repo.n_configs)),
                               sorted(rng.choice(synth_repo.n_configs, 4, replace=False).tolist())):
                w = caruana_select(t, candidates, 40, synth_repo)
                trajectory, steps, counts = scalar_select(t, candidates, 40, synth_repo)
                assert [j for j, _ in w.trajectory] == [j for j, _ in trajectory]
                for (_, got), (_, want) in zip(w.trajectory, trajectory):
                    assert abs(got - want) <= 1e-12
                assert w.steps == steps
                assert w.counts == counts

    def test_nan_in_one_candidate_rejected(self):
        bad = col(0.3, 0.6, np.nan, 0.7)
        repo = unchecked_repo(ProblemType.REGRESSION, [0.0, 1.0, 0.0, 1.0],
                              [col(0.1, 0.9, 0.2, 0.8), bad])
        with pytest.raises(ValueError, match="NaN"):
            caruana_select(("d", 0), [0, 1], 3, repo)

    def test_non_stochastic_multiclass_row_rejected(self):
        good = np.array([[0.6, 0.4], [0.3, 0.7], [0.5, 0.5]])
        bad = np.array([[0.6, 0.4], [0.3, 0.6], [0.5, 0.5]])  # row 1 sums to 0.9
        repo = unchecked_repo(ProblemType.MULTICLASS, [0, 1, 0], [good, bad])
        with pytest.raises(ValueError, match="row-stochastic"):
            caruana_select(("d", 0), [0, 1], 3, repo)

    def test_single_class_binary_labels_rejected(self):
        repo = unchecked_repo(ProblemType.BINARY, [1, 1, 1, 1], [col(0.1, 0.9, 0.2, 0.8)])
        with pytest.raises(ValueError, match="single class"):
            caruana_select(("d", 0), [0], 3, repo)


def full_average_select(task, candidates, c_max, repo):
    """Reference greedy trajectory: every step checks and scores the full
    average ``(running + stack) / step`` in one StackLoss call."""
    t = repo.task_index(task)
    ordinals = repo.config_ordinals(candidates)
    loss_of = metrics.StackLoss(repo.tasks[t], repo.labels(t, VAL))
    stack = repo.task_predictions(t, VAL)[ordinals].astype(np.float64)
    running = np.zeros(stack.shape[1:])
    trajectory = []
    for step in range(1, c_max + 1):
        scores = loss_of((running + stack) / step)
        k = int(np.argmin(scores))
        running += stack[k]
        trajectory.append((ordinals[k], float(scores[k])))
    return trajectory


@pytest.fixture()
def check_calls(monkeypatch):
    """Live count of StackLoss.check calls."""
    calls = [0]
    check = metrics.StackLoss.check

    def counted(self, stack):
        calls[0] += 1
        return check(self, stack)

    monkeypatch.setattr(metrics.StackLoss, "check", counted)
    return calls


def row_sum_repo(total, seed, big=0.0, m=6, n=40):
    """A multiclass task: first a decoy whose rows sum to about one and which
    greedy steps never pick, then ``m`` candidates whose every row sums to
    ``total``. A nonzero ``big`` puts entries near ``big`` and ``-big`` in each row."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, n)
    if big:
        y[:] = 2  # the column of ``first``: the big entries would clip
    preds = []
    for _ in range(m):
        first = rng.uniform(0.2, 0.8, n)
        if big:
            # unequal magnitudes: the averages of +big and -big entries round apart
            plus, minus = (big + 4.0 * rng.integers(-3, 4, n) for _ in range(2))
            rows = [row_summing_to(total, a, -b, f) for a, b, f in zip(plus, minus, first)]
        else:
            rows = [row_summing_to(total, f) for f in first]
        preds.append(np.array(rows))
    assert all(np.all(p.astype(np.float64).sum(axis=1) == total) for p in preds)
    decoy = np.full((n, preds[0].shape[1]), 0.01)
    decoy[np.arange(n), (y + 1) % decoy.shape[1]] = 1.0 - 0.01 * (decoy.shape[1] - 1)
    return unchecked_repo(ProblemType.MULTICLASS, y, [decoy] + preds)


def outcome(run):
    """A trajectory, or the message of the ValueError that ended it."""
    try:
        return run()
    except ValueError as exc:
        return str(exc)


class TestCheckOnce:
    """caruana_select checks its candidates once and scores averaged columns;
    every step must equal a full check and score of the full average."""

    def test_trajectory_bit_equal_to_full_average_loop(self, synth_repo, check_calls):
        rng = np.random.default_rng(19)
        for t in range(synth_repo.n_tasks):
            for candidates in (list(range(synth_repo.n_configs)),
                               sorted(rng.choice(synth_repo.n_configs, 3, replace=False).tolist())):
                check_calls[0] = 0
                w = caruana_select(t, candidates, 40, synth_repo)
                assert check_calls[0] == 1  # stored rows never come near the tolerance
                assert w.trajectory == full_average_select(t, candidates, 40, synth_repo)
        assert {task.problem for task in synth_repo.tasks} == set(ProblemType)

    @pytest.mark.parametrize("levels", [2, 3, 6])
    def test_tie_heavy_binary_bit_equal(self, levels):
        rng = np.random.default_rng(20 + levels)
        for _ in range(10):
            n = int(rng.integers(8, 60))
            y = rng.integers(0, 2, n)
            y[:2] = (0, 1)
            preds = [np.floor(rng.random((n, 1)) * levels) / levels for _ in range(8)]
            repo = unchecked_repo(ProblemType.BINARY, y, preds)
            w = caruana_select(0, range(8), 15, repo)
            assert w.trajectory == full_average_select(0, range(8), 15, repo)

    @pytest.mark.parametrize("total", [HIGHEST_SUM - 2**-33, LOWEST_SUM + 2**-33])
    def test_rows_inside_the_margin_run_the_full_check(self, total, check_calls):
        # 1.2e-10 inside the tolerance: the screen cannot rule a failure out
        repo = row_sum_repo(total, 0)
        w = caruana_select(0, range(7), 11, repo)
        assert check_calls[0] == 11
        assert w.trajectory == full_average_select(0, range(7), 11, repo)

    @pytest.mark.parametrize("total", [HIGHEST_SUM - 2**-28, LOWEST_SUM + 2**-28])
    def test_rows_outside_the_margin_are_checked_once(self, total, check_calls):
        repo = row_sum_repo(total, 0)  # 3.7e-9 inside the tolerance
        w = caruana_select(0, range(7), 11, repo)
        assert check_calls[0] == 1
        assert w.trajectory == full_average_select(0, range(7), 11, repo)

    @pytest.mark.parametrize("total,big,first_failing_step", [
        (HIGHEST_SUM, 0.0, 3), (LOWEST_SUM, 0.0, 2),
        # 1.9e-9 inside the tolerance, but entries of 2**25 round by up to 3.7e-9
        (HIGHEST_SUM - 2**-29, 2.0**25, 3), (LOWEST_SUM + 2**-29, 2.0**25, 3),
    ])
    def test_rows_near_the_tolerance_raise_at_the_same_step(self, total, big,
                                                            first_failing_step):
        # every candidate row passes; rounding in some average pushes a row sum over
        repo = row_sum_repo(total, 0, big)
        for c_max in range(1, 8):
            got = outcome(lambda: caruana_select(0, range(7), c_max, repo).trajectory)
            want = outcome(lambda: full_average_select(0, range(7), c_max, repo))
            if c_max < first_failing_step:
                assert isinstance(want, list)
            else:
                assert want == "probs rows are not row-stochastic within 1e-5"
            assert got == want

    @settings(max_examples=200, deadline=None)
    @given(high=st.booleans(), inset=st.sampled_from([0, *range(26, 41)]),
           big=st.sampled_from([0.0] + [2.0**e for e in range(10, 27)]),
           m=st.integers(2, 6), n=st.integers(5, 40), c_max=st.integers(1, 8),
           seed=st.integers(0, 2**16))
    def test_near_tolerance_outcome_equals_full_average_loop(self, high, inset, big, m, n,
                                                             c_max, seed):
        # row sums on the tolerance or 2**-inset inside it, on either side; the
        # exponents are sampled uniformly so that large entries meet a small inset
        shift = 2.0**-inset if inset else 0.0
        total = HIGHEST_SUM - shift if high else LOWEST_SUM + shift
        repo = row_sum_repo(total, seed, big, m, n)
        got = outcome(lambda: caruana_select(0, range(m + 1), c_max, repo).trajectory)
        assert got == outcome(lambda: full_average_select(0, range(m + 1), c_max, repo))


def weights_bits(w):
    """Everything a run returns, with each trajectory loss as its float's hex."""
    return w.counts, w.steps, [(j, loss.hex()) for j, loss in w.trajectory]


def select_pools(repo, t, pools, c_max):
    """``_select_pools`` on pools of any configs, each resolved as
    ``caruana_select`` resolves its candidates; ``c_max`` is one step count
    for every pool or a list of one per pool."""
    counts = c_max if isinstance(c_max, list) else [c_max] * len(pools)
    resolved = [np.array(repo.config_ordinals(pool)) for pool in pools]
    return _select_pools(repo, t, resolved, counts)


def pooled_outcome(repo, t, pools, c_max):
    return outcome(lambda: [weights_bits(w) for w in select_pools(repo, t, pools, c_max)])


def assert_pooled_equals_own_runs(repo, t, pools, c_max):
    """The pooled run gives each pool its own run's result, bit for bit; it
    raises when some pool's own run raises, with a message one of them gives."""
    own = [outcome(lambda: weights_bits(caruana_select(t, pool, c_max, repo))) for pool in pools]
    got = pooled_outcome(repo, t, pools, c_max)
    if all(isinstance(o, tuple) for o in own):
        assert got == own
    else:
        assert isinstance(got, str) and got in own
    return got


@lru_cache(maxsize=None)
def wide_repo():
    """22 configs over every problem type: room for pools of up to 20."""
    repo = generate_repo(small_spec(seed=31, families=(
        FamilySpec("gbm", 12, 0.85, 0.5, 0.3), FamilySpec("mlp", 10, 0.6, 0.8, 0.2))))
    assert {task.problem for task in repo.tasks} == set(ProblemType)
    return repo


def mixed_row_sum_repo(totals, seed, big=0.0, m=4, n=30):
    """A multiclass task with row_sum_repo's decoy first, then ``m`` candidates
    per total in ``totals`` (the labels of the first total's repository)."""
    parts = [row_sum_repo(total, seed + i, big, m, n) for i, total in enumerate(totals)]
    slabs = [part.task_predictions(0, VAL) for part in parts]
    preds = [slabs[0][0]] + [c for slab in slabs for c in slab[1:]]
    return unchecked_repo(ProblemType.MULTICLASS, parts[0].labels(0, VAL), preds)


POOLS = st.lists(st.lists(st.integers(0, 21), min_size=1, max_size=20), min_size=1, max_size=5)


class TestPooledRuns:
    """One greedy loop runs many pools of a task; each pool must get its own run."""

    @settings(max_examples=60, deadline=None)
    @given(t=st.integers(0, 7), pools=POOLS, c_max=st.integers(1, 12))
    def test_every_problem_type_equals_own_runs(self, t, pools, c_max):
        # uneven sizes from 1 to 20; pools overlap and may repeat a config
        repo = wide_repo()
        assert_pooled_equals_own_runs(repo, t, pools, c_max)
        for pool, w in zip(pools, select_pools(repo, t, pools, c_max)):
            assert w.trajectory == full_average_select(t, pool, c_max, repo)

    @settings(max_examples=40, deadline=None)
    @given(levels=st.sampled_from([2, 3, 6]), n=st.integers(8, 40), seed=st.integers(0, 2**16),
           pools=st.lists(st.lists(st.integers(0, 19), min_size=1, max_size=20),
                          min_size=1, max_size=5),
           c_max=st.integers(1, 12))
    def test_tie_heavy_binary_equals_own_runs(self, levels, n, seed, pools, c_max):
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 2, n)
        y[:2] = (0, 1)
        preds = [np.floor(rng.random((n, 1)) * levels) / levels for _ in range(20)]
        assert_pooled_equals_own_runs(unchecked_repo(ProblemType.BINARY, y, preds), 0,
                                      pools, c_max)

    @settings(max_examples=80, deadline=None)
    @given(totals=st.lists(st.sampled_from([
               1.0, HIGHEST_SUM - 2**-28, LOWEST_SUM + 2**-28,  # outside the margin
               HIGHEST_SUM - 2**-33, LOWEST_SUM + 2**-33,  # inside the margin
               HIGHEST_SUM, LOWEST_SUM]), min_size=1, max_size=3),  # on the tolerance
           big=st.sampled_from([0.0, 2.0**25]), seed=st.integers(0, 2**16),
           pools=st.lists(st.lists(st.integers(0, 12), min_size=1, max_size=8),
                          min_size=1, max_size=5),
           c_max=st.integers(1, 8))
    def test_multiclass_row_sum_decisions_stay_per_pool(self, totals, big, seed, pools, c_max):
        repo = mixed_row_sum_repo(totals, seed, big)
        pools = [[j % repo.n_configs for j in pool] for pool in pools]
        assert_pooled_equals_own_runs(repo, 0, pools, c_max)

    def test_checked_pools_run_the_full_check_and_clean_ones_do_not(self, check_calls):
        # configs 1-4 sum to one, configs 5-8 are 1.2e-10 inside the tolerance
        repo = mixed_row_sum_repo([1.0, HIGHEST_SUM - 2**-33], 0)
        pools = [[1, 2, 3, 4], [0, 5, 6], [2, 7, 8], [4]]
        got = assert_pooled_equals_own_runs(repo, 0, pools, 9)
        assert isinstance(got, list)
        check_calls[0] = 0
        select_pools(repo, 0, pools, 9)
        assert check_calls[0] == 9  # the candidates once, then each later step once
        check_calls[0] = 0
        select_pools(repo, 0, [pools[0], pools[3]], 9)
        assert check_calls[0] == 1

    def test_the_screen_band_grows_with_the_longest_run(self, check_calls):
        # every row 4.5e-8 inside the tolerance, with entries near 2**22: the
        # rounding band reaches that inset for runs of 6 steps or more
        repo = row_sum_repo(HIGHEST_SUM - 3 * 2**-26, 0, 2.0**22)
        caruana_select(0, [1, 2], 5, repo)
        assert check_calls[0] == 1
        check_calls[0] = 0
        assert isinstance(assert_pooled_equals_own_runs(repo, 0, [[1, 2], range(7)], 9), list)
        check_calls[0] = 0
        select_pools(repo, 0, [[1, 2], range(7)], [5, 9])
        assert check_calls[0] == 9  # the candidates once, then each later step once

    def test_nan_in_one_pool_raises_its_message(self):
        bad = col(0.3, 0.6, np.nan, 0.7)
        clean = [col(0.1, 0.9, 0.2, 0.8), col(0.2, 0.7, 0.4, 0.9), col(0.5, 0.1, 0.3, 0.2)]
        repo = unchecked_repo(ProblemType.REGRESSION, [0.0, 1.0, 0.0, 1.0], clean + [bad])
        pools = [[0, 1], [1, 2], [2, 3], [0]]
        got = assert_pooled_equals_own_runs(repo, 0, pools, 3)
        assert got == "predictions contain NaN or infinity"
        assert isinstance(pooled_outcome(repo, 0, [pools[0], pools[1], pools[3]], 3), list)

    @pytest.mark.parametrize("c_max", range(1, 6))
    def test_one_pool_over_the_tolerance_at_step_3(self, c_max):
        # configs 1-4 sum to one; configs 5-8 pass, but some average of them goes
        # over the tolerance at step 3 (see test_rows_near_the_tolerance_raise_at_the_same_step)
        repo = mixed_row_sum_repo([1.0, HIGHEST_SUM], 0)
        pools = [[1, 2, 3, 4], [0, 5, 6, 7, 8], [2, 4]]
        own = outcome(lambda: caruana_select(0, pools[1], c_max, repo).trajectory)
        assert isinstance(own, list) == (c_max < 3)
        got = assert_pooled_equals_own_runs(repo, 0, pools, c_max)
        if c_max >= 3:
            assert got == "probs rows are not row-stochastic within 1e-5"

    def test_final_losses_equal_task_loss(self):
        repo = wide_repo()
        for t, meta in enumerate(repo.tasks):
            weights = select_pools(repo, t, [range(20), [3, 7], [21, 0, 5, 9]], 10)
            for split, losses in zip((VAL, TEST), _ensemble_losses(repo, t, weights)):
                want = [task_loss(meta, ensemble_predict(w, t, split, repo), repo.labels(t, split))
                        for w in weights]
                assert [x.hex() for x in losses] == [x.hex() for x in want]


    def test_equal_ensembles_are_scored_once(self, monkeypatch):
        repo = wide_repo()
        scored = []
        check = metrics.StackLoss.check

        def counted(self, stack):
            scored.append(len(stack))
            return check(self, stack)

        monkeypatch.setattr(metrics.StackLoss, "check", counted)
        for t, meta in enumerate(repo.tasks):
            # the first three pools are one pool: the first two requests are one
            # ensemble, and the one-step request may be one with them too
            weights = select_pools(repo, t, [range(20), [19, *range(19)], range(20), [3, 7]],
                                    [8, 8, 1, 8])
            scored.clear()
            got = _ensemble_losses(repo, t, weights)
            distinct = {(tuple(w.counts.items()), w.steps) for w in weights}
            assert len(distinct) < len(weights)
            # one stack per split, of one row per distinct ensemble
            assert scored == [len(distinct)] * 2
            for split, losses in zip((VAL, TEST), got):
                want = [task_loss(meta, ensemble_predict(w, t, split, repo), repo.labels(t, split))
                        for w in weights]
                assert [x.hex() for x in losses] == [x.hex() for x in want]


def assert_counted_equals_own_runs(repo, t, pools, counts):
    """The call with one step count per pool gives each pool its own run of its
    count, bit for bit; it raises when some own run raises, with one of their
    messages."""
    own = [outcome(lambda: weights_bits(caruana_select(t, pool, c, repo)))
           for pool, c in zip(pools, counts)]
    got = outcome(lambda: [weights_bits(w) for w in select_pools(repo, t, pools, counts)])
    if all(isinstance(o, tuple) for o in own):
        assert got == own
    else:
        assert isinstance(got, str) and got in own
    return got


def requested(pools, requests):
    """The pool of each (pool index, count) request; every other request lists
    its pool reversed, which is the same pool after config_ordinals."""
    asked = [pools[i % len(pools)] for i, _ in requests]
    return [pool[::-1] if k % 2 else pool for k, pool in enumerate(asked)]


REQUESTS = st.lists(st.tuples(st.integers(0, 3), st.integers(1, 12)), min_size=1, max_size=8)


class TestBestPrefixRuns:
    """Each distinct pool runs once, to the most steps any request asks of it;
    every request gets the best prefix of its own count."""

    @settings(max_examples=60, deadline=None)
    @given(t=st.integers(0, 7), requests=REQUESTS,
           pools=st.lists(st.lists(st.integers(0, 21), min_size=1, max_size=20),
                          min_size=1, max_size=4))
    def test_per_pool_counts_equal_own_runs(self, t, pools, requests):
        asked = requested(pools, requests)
        got = assert_counted_equals_own_runs(wide_repo(), t, asked, [c for _, c in requests])
        assert isinstance(got, list)

    @settings(max_examples=80, deadline=None)
    @given(totals=st.lists(st.sampled_from([
               1.0, HIGHEST_SUM - 2**-28, LOWEST_SUM + 2**-28,
               HIGHEST_SUM - 2**-33, LOWEST_SUM + 2**-33, HIGHEST_SUM, LOWEST_SUM]),
               min_size=1, max_size=3),
           big=st.sampled_from([0.0, 2.0**25]), seed=st.integers(0, 2**16),
           pools=st.lists(st.lists(st.integers(0, 12), min_size=1, max_size=8),
                          min_size=1, max_size=4),
           requests=REQUESTS)
    def test_row_sum_raises_follow_own_runs(self, totals, big, seed, pools, requests):
        repo = mixed_row_sum_repo(totals, seed, big)
        asked = [[j % repo.n_configs for j in pool] for pool in requested(pools, requests)]
        assert_counted_equals_own_runs(repo, 0, asked, [c for _, c in requests])

    def test_a_raise_past_every_count_of_its_pool_is_not_raised(self):
        # pool [0, 5, 6, 7, 8] goes over the tolerance at step 3 (see
        # test_one_pool_over_the_tolerance_at_step_3)
        repo = mixed_row_sum_repo([1.0, HIGHEST_SUM], 0)
        over, clean = [0, 5, 6, 7, 8], [1, 2, 3, 4]
        message = "probs rows are not row-stochastic within 1e-5"
        assert outcome(lambda: caruana_select(0, over, 3, repo)) == message
        got = assert_counted_equals_own_runs(repo, 0, [over, clean], [2, 5])
        assert got[0] == weights_bits(caruana_select(0, over, 2, repo))
        assert assert_counted_equals_own_runs(repo, 0, [over, clean, over], [2, 5, 5]) == message

    def test_equal_pools_score_as_many_rows_as_one(self, monkeypatch):
        scored = []
        score = metrics.StackLoss.score

        def counted(self, column):
            scored.append(column.shape[0])
            return score(self, column)

        monkeypatch.setattr(metrics.StackLoss, "score", counted)
        repo = wide_repo()
        select_pools(repo, 0, [[3, 5, 9]], 6)
        one, scored[:] = list(scored), []
        assert_counted_equals_own_runs(repo, 0, [[3, 5, 9], [9, 5, 3], [5, 3, 9, 9]], [6, 2, 4])
        assert one == [3] * 6
        assert scored[:6] == one  # the pooled call's steps, before the own runs'

    def test_counts_are_checked(self, synth_repo):
        with pytest.raises(ValueError, match="c_max must be >= 1, got 0"):
            select_pools(synth_repo, 0, [[1], [2]], [3, 0])
        with pytest.raises(ValueError, match="shorter"):
            select_pools(synth_repo, 0, [[1], [2]], [3])


# ensembles of 1-6 members in any order, counts 1-3, some of them equal
ENSEMBLES = st.lists(st.dictionaries(st.integers(0, 21), st.integers(1, 3), min_size=1,
                                     max_size=6), min_size=1, max_size=6)


class TestEnsembleLosses:
    """``_ensemble_losses`` builds a split's distinct ensembles together: each loss
    equals ``task_loss`` of ``ensemble_predict``, run once per ensemble."""

    @staticmethod
    def assert_equal_one_ensemble_at_a_time(repo, t, weights):
        meta = repo.tasks[t]
        for split, losses in zip((VAL, TEST), _ensemble_losses(repo, t, weights)):
            want = [task_loss(meta, ensemble_predict(w, t, split, repo), repo.labels(t, split))
                    for w in weights]
            assert [x.hex() for x in losses] == [x.hex() for x in want]

    @settings(max_examples=80, deadline=None)
    @given(t=st.integers(0, 7), ensembles=ENSEMBLES)
    def test_every_problem_type(self, t, ensembles):
        weights = [EnsembleWeights(counts, sum(counts.values()), []) for counts in ensembles]
        self.assert_equal_one_ensemble_at_a_time(wide_repo(), t, weights)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16), ensembles=ENSEMBLES, extra=st.integers(0, 2))
    def test_signed_zeros_and_more_steps_than_picks(self, seed, ensembles, extra):
        rng = np.random.default_rng(seed)
        # config 0 predicts NaN and is in no ensemble: no padding slot may read it
        preds = [np.full((6, 1), np.nan)] + [rng.choice([-0.0, 0.0, 0.1, -0.7, 3.0], (6, 1))
                                             for _ in range(22)]
        repo = unchecked_repo(ProblemType.REGRESSION, rng.standard_normal(6), preds)
        weights = [EnsembleWeights({j + 1: c for j, c in counts.items()},
                                   sum(counts.values()) + extra, []) for counts in ensembles]
        self.assert_equal_one_ensemble_at_a_time(repo, 0, weights)

    def test_members_add_left_to_right(self):
        # 1 + 2**-24 is a float32 rounding tie, and adding the two 2**-53 first
        # lifts the float64 sum above it: the float32 mean depends on the order
        preds = [col(1.0), col(2.0**-24), col(2.0**-53), col(2.0**-53)]
        repo = unchecked_repo(ProblemType.REGRESSION, [0.0], preds)
        forward = EnsembleWeights({0: 1, 1: 1, 2: 1, 3: 1}, 1, [])
        backward = EnsembleWeights({3: 1, 2: 1, 1: 1, 0: 1}, 1, [])
        assert ensemble_predict(forward, 0, VAL, repo) != ensemble_predict(backward, 0, VAL, repo)
        # with a one-member ensemble beside them: three padding slots
        self.assert_equal_one_ensemble_at_a_time(
            repo, 0, [forward, backward, EnsembleWeights({2: 1}, 1, [])])


class TestEnsemblePredict:
    def test_identity_weights(self, synth_repo):
        w = EnsembleWeights(counts={3: 1}, steps=1, trajectory=[(3, 0.0)])
        out = ensemble_predict(w, 0, VAL, synth_repo)
        assert np.array_equal(out, synth_repo.predictions(0, 3, VAL))

    def test_hand_weighted_average(self):
        repo = single_task_repo(
            ProblemType.BINARY, [1, 0], [1, 0],
            {"A": (col(0.9, 0.3), col(0.9, 0.3)), "B": (col(0.6, 0.0), col(0.6, 0.0))},
        )
        w = EnsembleWeights(counts={0: 2, 1: 1}, steps=3, trajectory=[(0, 0.0)] * 3)
        out = ensemble_predict(w, ("d", 0), "val", repo)
        assert out == pytest.approx(np.array([[0.8], [0.2]]), abs=1e-7)

    def test_equal_members_return_the_matrix(self, synth_repo):
        a = synth_repo.predictions(0, 2, TEST).astype(np.float64)
        w = EnsembleWeights(counts={2: 2}, steps=2, trajectory=[(2, 0.0)] * 2)
        out = ensemble_predict(w, 0, TEST, synth_repo)
        assert out == pytest.approx(a, abs=1e-7)

    def test_bit_equal_to_per_member_reads(self, synth_repo):
        for t in range(synth_repo.n_tasks):
            w = caruana_select(t, range(synth_repo.n_configs), 9, synth_repo)
            for split in (VAL, TEST):
                acc = None
                for j, count in w.counts.items():
                    term = count * synth_repo.predictions(t, j, split).astype(np.float64)
                    acc = term if acc is None else acc + term
                want = (acc / w.steps).astype(np.float32)
                assert ensemble_predict(w, t, split, synth_repo).tobytes() == want.tobytes()

    def test_classification_output_row_stochastic(self, synth_repo):
        for t, task in enumerate(synth_repo.tasks):
            if task.problem is not ProblemType.MULTICLASS:
                continue
            w = caruana_select(t, range(synth_repo.n_configs), 6, synth_repo)
            out = ensemble_predict(w, t, VAL, synth_repo)
            assert np.all(np.abs(out.sum(axis=1) - 1.0) <= 1e-5)
            break

    @pytest.mark.parametrize("split", ["train", "VAL"])
    def test_unknown_split_name_is_a_value_error_naming_it(self, synth_repo, split):
        w = EnsembleWeights(counts={3: 1}, steps=1, trajectory=[(3, 0.0)])
        with pytest.raises(ValueError, match=f"split must be 'val' or 'test', got '{split}'"):
            ensemble_predict(w, 0, split, synth_repo)


class TestEvaluateEnsemble:
    def test_best_single_config_matches_stored_losses(self, synth_repo):
        t = 0
        best = int(np.argmin(synth_repo.eval_table[t, :, 0]))
        meta = synth_repo.tasks[t]
        out = evaluate_ensemble([meta.dataset_id], [meta.fold],
                                [synth_repo.configs[best].config_id], 5, synth_repo)
        assert out[0, 0, 0] == pytest.approx(synth_repo.eval_table[t, best, 0], abs=1e-6)
        assert out[0, 0, 1] == pytest.approx(synth_repo.eval_table[t, best, 1], abs=1e-6)

    def test_duplicate_configs_equal_dedup(self, synth_repo):
        ids = [c.config_id for c in synth_repo.configs[:3]]
        a = evaluate_ensemble(synth_repo.datasets[:2], [0], ids, 4, synth_repo)
        b = evaluate_ensemble(synth_repo.datasets[:2], [0], ids + ids[:2], 4, synth_repo)
        assert np.array_equal(a, b)

    def test_matches_eager_oracle(self):
        spec = small_spec(seed=23, n_datasets=2, folds=3)  # 2 datasets x 3 folds
        repo = generate_repo(spec)
        configs = [c.config_id for c in repo.configs[:5]]
        got = evaluate_ensemble(repo.datasets, [0, 1, 2], configs, 4, repo)
        want = eager_evaluate(repo, repo.datasets, [0, 1, 2], configs, 4)
        assert got == pytest.approx(want, abs=1e-10)

    def test_unknown_dataset(self, synth_repo):
        with pytest.raises(KeyError):
            evaluate_ensemble(["nope"], [0], [0], 4, synth_repo)

    def test_repository_method_matches_module_function(self, synth_repo):
        ids = [c.config_id for c in synth_repo.configs[:4]]
        via_method = synth_repo.evaluate_ensemble(
            datasets=synth_repo.datasets[:2], folds=[0, 1], configs=ids, ensemble_size=5)
        via_function = evaluate_ensemble(synth_repo.datasets[:2], [0, 1], ids, 5, synth_repo)
        assert np.array_equal(via_method, via_function)
        m = synth_repo.predict_val(dataset=synth_repo.datasets[0], fold=1, config=ids[0])
        assert m.shape[0] == synth_repo.tasks[1].n_val


    def test_config_ordinals_resolved_once_per_call(self, synth_repo, monkeypatch):
        calls = []
        resolve = Repository.config_ordinals

        def counted(self, configs):
            calls.append(configs)
            return resolve(self, configs)

        monkeypatch.setattr(Repository, "config_ordinals", counted)
        ids = [c.config_id for c in synth_repo.configs[:4]]
        evaluate_ensemble(synth_repo.datasets[:2], [0, 1], ids, 5, synth_repo)
        assert calls == [ids]  # not once more for each of the four tasks


# candidate lists with unsorted and repeated entries
ARRAY_CANDIDATES = st.lists(st.integers(0, 21), min_size=1, max_size=12)


class TestArrayCandidates:
    """An array of candidates names the configs its entries name, as the list
    of those entries does: ``np.int64`` ordinals or ``np.str_`` config ids."""

    @staticmethod
    def forms(repo, ordinals):
        """The list of ordinals, then the same candidates in the other forms."""
        ids = [repo.configs[j].config_id for j in ordinals]
        return ordinals, [np.array(ordinals), ids, np.array(ids)]

    @settings(max_examples=30, deadline=None)
    @given(t=st.integers(0, 7), ordinals=ARRAY_CANDIDATES, c_max=st.integers(1, 8))
    def test_caruana_select(self, t, ordinals, c_max):
        repo = wide_repo()
        reference, others = self.forms(repo, ordinals)
        want = weights_bits(caruana_select(t, reference, c_max, repo))
        for candidates in others:
            assert weights_bits(caruana_select(t, candidates, c_max, repo)) == want

    @settings(max_examples=15, deadline=None)
    @given(ordinals=ARRAY_CANDIDATES, size=st.integers(1, 6))
    def test_evaluate_ensemble(self, ordinals, size):
        repo = wide_repo()
        reference, others = self.forms(repo, ordinals)
        folds = sorted({task.fold for task in repo.tasks})
        want = evaluate_ensemble(repo.datasets, folds, reference, size, repo)
        for candidates in others:
            got = evaluate_ensemble(repo.datasets, folds, candidates, size, repo)
            assert got.tobytes() == want.tobytes()


def eager_evaluate(repo, datasets, folds, configs, size):
    """Straight-line reimplementation that loads everything eagerly."""
    cand = sorted({repo.config_index(c) for c in configs})
    out = np.zeros((len(datasets), len(folds), 2))
    for i, d in enumerate(datasets):
        for k, f in enumerate(folds):
            t = repo.task_index((d, f))
            meta = repo.tasks[t]
            y_val = repo.labels(t, VAL)
            val = {j: repo.predictions(t, j, VAL).astype(np.float64) for j in cand}
            picks, losses = [], []
            for _ in range(size):
                best_j, best_loss = None, np.inf
                for j in cand:
                    stack = np.stack([val[p] for p in picks] + [val[j]])
                    loss = task_loss(meta, np.mean(stack, axis=0), y_val)
                    if loss < best_loss:
                        best_j, best_loss = j, loss
                picks.append(best_j)
                losses.append(best_loss)
            keep = picks[: int(np.argmin(losses)) + 1]
            for s, split in enumerate((VAL, TEST)):
                stack = np.stack([repo.predictions(t, j, split).astype(np.float64)
                                  for j in keep])
                avg = np.mean(stack, axis=0).astype(np.float32)
                y = repo.labels(t, split)
                out[i, k, s] = task_loss(meta, avg, y)
    return out
