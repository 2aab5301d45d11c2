from __future__ import annotations

import re
import warnings

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from predrepo import (
    NORMALIZED_LOSS,
    RAW_LOSS,
    BudgetPolicy,
    ConfigMeta,
    FamilySpec,
    Portfolio,
    ProblemType,
    Repository,
    SimResult,
    StoreError,
    TaskMeta,
    anytime_filter,
    caruana_select,
    ensemble_predict,
    evaluate_ensemble,
    generate_repo,
    learn_portfolio,
    loo_train_tasks,
    prefix_len,
    simulate_portfolio,
    simulate_single_family,
    task_loss,
)
from predrepo.ensemble import _ensemble_losses
from predrepo.simulate import (
    TUNED_ENSEMBLE_POOL,
    _family_order,
    _loo_portfolios,
    _simulate_methods,
    _sum_in_order,
    _walk,
)
from predrepo.store import TEST, VAL

from conftest import HIGHEST_SUM, rebuild_repo, repo_arrays, row_summing_to, small_spec


@pytest.fixture(scope="module")
def repo():
    return generate_repo(small_spec(seed=17))


@pytest.fixture(scope="module")
def open_policy(repo):
    return BudgetPolicy(1e12, 0, repo)


class TestPrefix:
    def test_stated_budgets(self):
        times = [100.0, 200.0, 300.0]
        assert prefix_len(times, 50) == 0
        assert prefix_len(times, 100) == 1
        assert prefix_len(times, 350) == 2
        assert prefix_len(times, 700) == 3

    def test_budget_monotonicity(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            times = rng.uniform(0.1, 100, size=rng.integers(1, 10))
            budgets = np.sort(rng.uniform(0, 400, size=4))
            lens = [prefix_len(times, b) for b in budgets]
            assert lens == sorted(lens)


class TestBudgetPolicy:
    def test_slow_fallback_rejected(self, repo):
        slow = int(np.argmax(repo.eval_table[:, :, 2].max(axis=0)))
        with pytest.raises(ValueError, match="fallback"):
            BudgetPolicy(3600, slow, repo)

    def test_nonpositive_budget_rejected(self, repo):
        with pytest.raises(ValueError, match="budget_s"):
            BudgetPolicy(0, 0, repo)


class TestAnytimeFilter:
    def test_include_prefix_and_fallback(self, repo):
        t = 0
        order = [1, 2, 3]
        times = [repo.eval_table[t, j, 2] for j in order]
        pf = Portfolio(configs=order, objective_trajectory=[0.0] * 3,
                       aggregation=RAW_LOSS)
        policy = BudgetPolicy(times[0] + times[1], 0, repo)
        included, fb = anytime_filter(pf, t, policy, repo)
        assert included == order[:2] and fb is False

        policy = BudgetPolicy(times[0] * 0.5, 0, repo)
        included, fb = anytime_filter(pf, t, policy, repo)
        assert included == [0] and fb is True

    def test_everything_fits(self, repo, open_policy):
        pf = Portfolio(configs=list(range(repo.n_configs)),
                       objective_trajectory=[0.0] * repo.n_configs,
                       aggregation=RAW_LOSS)
        included, fb = anytime_filter(pf, 0, open_policy, repo)
        assert included == pf.configs and fb is False


class TestSimulatePortfolio:
    def test_nmax_one_collapses_to_loo_best_single(self, repo, open_policy):
        results = simulate_portfolio(repo, open_policy, n_max=1, c_max=5)
        for r in results:
            t = repo.task_index(r.key)
            pf = learn_portfolio(loo_train_tasks(repo, r.dataset_id),
                                 range(repo.n_configs), 1, NORMALIZED_LOSS, repo)
            j = pf.configs[0]
            assert r.included_configs == [j]
            assert r.val_loss == pytest.approx(repo.eval_table[t, j, 0], abs=1e-6)
            assert r.test_loss == pytest.approx(repo.eval_table[t, j, 1], abs=1e-6)

    def test_tiny_budget_forces_fallback_everywhere(self, repo):
        policy = BudgetPolicy(1e-3, 0, repo)
        results = simulate_portfolio(repo, policy, n_max=4, c_max=5)
        for r in results:
            t = repo.task_index(r.key)
            assert r.used_fallback is True
            assert r.included_configs == [0]
            assert r.val_loss == pytest.approx(repo.eval_table[t, 0, 0], abs=1e-6)
            assert r.test_loss == pytest.approx(repo.eval_table[t, 0, 1], abs=1e-6)
            assert r.sim_fit_time_s == repo.eval_table[t, 0, 2]

    def test_included_is_prefix_and_fit_time_is_sum(self, repo):
        t_mid = float(np.median(repo.eval_table[:, :, 2]))
        policy = BudgetPolicy(3 * t_mid, 0, repo)
        results = simulate_portfolio(repo, policy, n_max=6, c_max=5)
        for r in results:
            t = repo.task_index(r.key)
            pf = learn_portfolio(loo_train_tasks(repo, r.dataset_id),
                                 range(repo.n_configs), 6, NORMALIZED_LOSS, repo)
            if not r.used_fallback:
                assert r.included_configs == pf.configs[: len(r.included_configs)]
            expected_fit = sum(repo.eval_table[t, j, 2] for j in r.included_configs)
            assert r.sim_fit_time_s == pytest.approx(expected_fit, rel=1e-12)
            assert r.used_fallback or r.sim_fit_time_s <= policy.budget_s

    def test_infinite_budget_equals_evaluate_ensemble(self, repo, open_policy):
        results = simulate_portfolio(repo, open_policy, n_max=5, c_max=6)
        by_key = {r.key: r for r in results}
        for dataset in repo.datasets:
            pf = learn_portfolio(loo_train_tasks(repo, dataset),
                                 range(repo.n_configs), 5, NORMALIZED_LOSS, repo)
            folds = sorted(repo.tasks[t].fold for t in repo.dataset_tasks(dataset))
            tensor = evaluate_ensemble([dataset], folds, pf.configs, 6, repo)
            for k, fold in enumerate(folds):
                r = by_key[(dataset, fold)]
                assert r.val_loss == tensor[0, k, 0]
                assert r.test_loss == tensor[0, k, 1]

    def test_single_dataset_repo_rejected(self):
        repo = generate_repo(small_spec(seed=19, n_datasets=1))
        with pytest.raises(ValueError, match="at least 2 datasets"):
            simulate_portfolio(repo, BudgetPolicy(10, 0, repo), 2, 2)

    def test_matches_straight_line_reference(self, repo):
        budget = float(np.median(repo.eval_table[:, :, 2])) * 4
        policy = BudgetPolicy(budget, 0, repo)
        got = simulate_portfolio(repo, policy, n_max=4, c_max=4)
        want = reference_simulation(repo, budget, fallback=0, n_max=4, c_max=4)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.key == w["key"]
            assert g.included_configs == w["included"]
            assert g.used_fallback == w["fallback"]
            assert g.val_loss == pytest.approx(w["val"], abs=1e-10)
            assert g.test_loss == pytest.approx(w["test"], abs=1e-10)
            assert g.sim_fit_time_s == pytest.approx(w["fit"], abs=1e-9)
            assert g.sim_infer_time_s == pytest.approx(w["infer"], abs=1e-12)


class TestSimulateSingleFamily:
    def test_single_config_family_modes_coincide(self, open_policy):
        spec = small_spec(seed=29, families=(
            small_spec().families[0],
            FamilySpec("solo", 1, 0.7, 0.6, 0.1),
        ))
        repo = generate_repo(spec)
        policy = BudgetPolicy(1e12, 0, repo)
        results = {mode: simulate_single_family(repo, "solo", mode, policy, 4)
                   for mode in ("default", "tuned", "tuned+ensemble")}
        solo = repo.config_index("solo-default")
        for mode, res in results.items():
            for r in res:
                t = repo.task_index(r.key)
                assert r.included_configs == [solo]
                assert r.val_loss == pytest.approx(repo.eval_table[t, solo, 0], abs=1e-6)
                assert r.test_loss == pytest.approx(repo.eval_table[t, solo, 1], abs=1e-6)

    def test_tuned_val_loss_beats_default(self, repo, open_policy):
        default = [j for j in repo.family_configs("gbm")
                   if repo.configs[j].is_default][0]
        tuned = simulate_single_family(repo, "gbm", "tuned", open_policy, 4)
        base = simulate_single_family(repo, "gbm", "default", open_policy, 4)
        for r_t, r_d in zip(tuned, base):
            assert default in r_t.included_configs  # default fits an unbounded budget
            assert r_t.val_loss <= r_d.val_loss + 1e-12

    def test_unknown_family(self, repo, open_policy):
        with pytest.raises(KeyError, match="unknown family"):
            simulate_single_family(repo, "nope", "default", open_policy, 4)

    def test_order_seed_is_deterministic_and_harmless_without_budget(self, repo, open_policy):
        a = simulate_single_family(repo, "gbm", "tuned", open_policy, 4, order_seed=5)
        b = simulate_single_family(repo, "gbm", "tuned", open_policy, 4, order_seed=5)
        assert a == b
        plain = simulate_single_family(repo, "gbm", "tuned", open_policy, 4)
        # an unbounded budget trains every config, so only the recorded
        # training order can differ, never the chosen losses
        for r_s, r_p in zip(a, plain):
            assert sorted(r_s.included_configs) == sorted(r_p.included_configs)
            assert r_s.val_loss == r_p.val_loss
            assert r_s.test_loss == r_p.test_loss

    def test_matches_reference_script(self):
        spec = small_spec(seed=37, n_datasets=3, families=(
            FamilySpec("gbm", 4, 0.85, 0.5, 0.3),
            FamilySpec("mlp", 4, 0.6, 0.8, 0.2),
        ))
        repo = generate_repo(spec)  # M=8 over two families
        budget = float(np.median(repo.eval_table[:, :, 2])) * 3
        policy = BudgetPolicy(budget, 0, repo)
        for family in repo.families:
            for mode in ("default", "tuned", "tuned+ensemble"):
                got = simulate_single_family(repo, family, mode, policy, 4)
                want = reference_family(repo, family, mode, budget, fallback=0, c_max=4)
                for g, w in zip(got, want):
                    assert g.included_configs == w["included"]
                    assert g.val_loss == pytest.approx(w["val"], abs=1e-10)
                    assert g.test_loss == pytest.approx(w["test"], abs=1e-10)
                    assert g.sim_fit_time_s == pytest.approx(w["fit"], abs=1e-9)


# -- every simulation computes only on checked evaluation values


EVAL_FIELDS = {"loss_val": 0, "loss_test": 1, "fit_time": 2, "infer_time": 3}
BAD_VALUES = {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"), "negative": -2.5}
SIMULATIONS = ("portfolio", "family-default", "family-tuned", "family-tuned+ensemble",
               "ablate-driver")


def run_simulation(name, repo, policy, runs):
    """One of SIMULATIONS: simulate_portfolio, a family mode, or ablate's driver
    with every family and ``runs``, learned before the table went bad."""
    if name == "portfolio":
        return simulate_portfolio(repo, policy, 3, 2)
    if name == "ablate-driver":
        return _simulate_methods(repo, policy, 2, repo.families, runs)
    return simulate_single_family(repo, "gbm", name.removeprefix("family-"), policy, 2)


class TestCheckedEvaluations:
    """An in-memory repository takes its evaluation table unchecked, and keeps
    the caller's array: each simulation screens it where it starts and raises a
    StoreError naming the first bad record, as open_repo does."""

    @pytest.fixture(scope="class")
    def base(self):
        return generate_repo(small_spec(seed=17))

    @staticmethod
    def bad_records(base, evals, field, value):
        """Write ``value`` into two records; return how the first in (task, config) order is named."""
        evals[3, 2, field] = value
        evals[1, 4, field] = value
        return re.escape(f"(task={base.tasks[1].key}, config={base.configs[4].config_id})")

    @pytest.mark.parametrize("value", BAD_VALUES.values(), ids=BAD_VALUES.keys())
    @pytest.mark.parametrize("field", EVAL_FIELDS.values(), ids=EVAL_FIELDS.keys())
    @pytest.mark.parametrize("simulation", SIMULATIONS)
    def test_written_after_construction(self, base, simulation, field, value):
        labels, predictions, evals = repo_arrays(base)
        repo = rebuild_repo(base, labels, predictions, evals)
        policy = BudgetPolicy(1e12, 0, repo)
        runs = [(_loo_portfolios(repo, 3, NORMALIZED_LOSS), 2)]
        run_simulation(simulation, repo, policy, runs)  # clean: simulates
        name = self.bad_records(base, evals, field, value)  # the caller's array is the repository's
        with pytest.raises(StoreError, match=f"^invalid evaluation record at {name}$"):
            run_simulation(simulation, repo, policy, runs)

    @pytest.mark.parametrize("field", EVAL_FIELDS.values(), ids=EVAL_FIELDS.keys())
    @pytest.mark.parametrize("simulation", SIMULATIONS)
    def test_given_to_in_memory(self, base, simulation, field):
        labels, predictions, evals = repo_arrays(base)
        runs = [(_loo_portfolios(base, 3, NORMALIZED_LOSS), 2)]
        name = self.bad_records(base, evals, field, float("nan"))
        repo = rebuild_repo(base, labels, predictions, evals)
        with pytest.raises(StoreError, match=f"^invalid evaluation record at {name}$"):
            run_simulation(simulation, repo, BudgetPolicy(1e12, 0, repo), runs)

    def test_negative_zero_is_a_checked_value(self, base):
        labels, predictions, evals = repo_arrays(base)
        evals[:, :, 2:] = -0.0  # fit and inference times of -0.0 pass min >= 0
        repo = rebuild_repo(base, labels, predictions, evals)
        policy = BudgetPolicy(1e12, 0, repo)
        results = simulate_portfolio(repo, policy, 3, 2)
        for family in repo.families:
            for mode in ("default", "tuned"):  # these rows read the times as stored
                results += simulate_single_family(repo, family, mode, policy, 2)
        for r in results:
            assert (r.sim_fit_time_s.hex(), r.sim_infer_time_s.hex()) == ((0.0).hex(),) * 2


# -- the budget walk as it was before array indexing: one eval_table scalar per config


class TestFamilyOrder:
    def test_wrapping_seeds_draw_distinct_orders_without_warning(self):
        repo = generate_repo(small_spec(seed=17, n_datasets=2, folds=1, families=(
            FamilySpec("gbm", 12, 0.85, 0.5, 0.3),)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            orders = [tuple(_family_order(repo, "gbm", seed))
                      for seed in (0, -1, -2, -3, 2**63 + 1)]
            assert tuple(_family_order(repo, "gbm", 2**64 - 1)) == orders[1]
        assert len(set(orders)) == len(orders)
        assert sorted(orders[0]) == repo.family_configs("gbm")


def scalar_filter_order(order, t, policy, repo):
    times = [repo.eval_table[t, j, 2] for j in order]
    k = prefix_len(times, policy.budget_s)
    if k == 0:
        return [policy.fallback_config], True
    return order[:k], False


def scalar_ensemble_times(repo, t, w, trained):
    fit = float(sum(repo.eval_table[t, j, 2] for j in trained))
    infer = float(sum(repo.eval_table[t, j, 3] for j, c in w.counts.items() if c > 0))
    return fit, infer


def scalar_family_result(repo, t, order, mode, policy, c_max):
    """(included, fallback, val, test, fit, infer) of a tuned or tuned+ensemble row."""
    included, fb = scalar_filter_order(order, t, policy, repo)
    if mode == "tuned":
        best = min(included, key=lambda j: (repo.eval_table[t, j, 0], j))
        rec = (repo.eval_table[t, best] + 0.0).tolist()
        fit = float(sum(repo.eval_table[t, j, 2] for j in included))
        return included, fb, rec[0], rec[1], fit, rec[3]
    pool = sorted(included, key=lambda j: (repo.eval_table[t, j, 0], j))[:TUNED_ENSEMBLE_POOL]
    w = caruana_select(t, pool, c_max, repo)
    [val], [test] = _ensemble_losses(repo, t, [w])
    return (included, fb, val, test) + scalar_ensemble_times(repo, t, w, included)


def result_bits(r):
    return (r.included_configs, r.used_fallback, r.val_loss.hex(), r.test_loss.hex(),
            r.sim_fit_time_s.hex(), r.sim_infer_time_s.hex())


def expected_bits(included, fb, val, test, fit, infer):
    return (list(included), fb, val.hex(), test.hex(), fit.hex(), infer.hex())


class TestArrayBudgetWalk:
    """The array-indexed walk, picks and time sums are bit-equal to the scalar loops."""

    C_MAX = 3

    @pytest.fixture(scope="class")
    def walk_repo(self):
        repo = generate_repo(small_spec(seed=71, families=(
            FamilySpec("gbm", 24, 0.8, 0.5, 0.3), FamilySpec("mlp", 5, 0.6, 0.8, 0.2))))
        rng = np.random.default_rng(23)
        shape = (repo.n_tasks, repo.n_configs)
        # few levels of inexact binary fractions: zero fit times, tied sums and losses
        repo.eval_table[:, :, 2] = rng.integers(0, 4, shape) * 0.1
        repo.eval_table[:, :, 3] = rng.integers(0, 3, shape) * 0.01 + rng.random(shape) * 1e-3
        repo.eval_table[:, :, 0] = rng.integers(0, 3, shape) / 3
        return repo

    def budgets(self, repo):
        """Budgets equal to a cumulative fit time of some walk, plus a tiny and a huge one."""
        out = {0.05, 1e12}
        for family in repo.families:
            order = repo.family_configs(family)
            for t in range(3):
                total = 0.0
                for m, j in enumerate(order[:6]):
                    total += float(repo.eval_table[t, j, 2])
                    if total > 0 and m >= 2:
                        out.add(total)
        return sorted(out)

    def test_filter_order_matches_scalar(self, walk_repo):
        repo = walk_repo
        rng = np.random.default_rng(4)
        exact = 0
        for budget in self.budgets(repo):
            policy = BudgetPolicy(budget, 0, repo)
            for t in range(repo.n_tasks):
                for _ in range(5):
                    order = rng.permutation(repo.n_configs)[:rng.integers(1, 12)].tolist()
                    trained, fb, fit = _walk(repo, t, order, policy)
                    assert (trained, fb) == scalar_filter_order(order, t, policy, repo)
                    total = 0.0
                    for j in trained:
                        total += float(repo.eval_table[t, j, 2])
                    assert fit.hex() == total.hex()
                    exact += not fb and total == budget
        assert exact > 0  # some walk ends exactly on its budget

    @pytest.mark.parametrize("mode", ["tuned", "tuned+ensemble"])
    @pytest.mark.parametrize("order_seed", [None, 3, 11])
    def test_family_rows_match_scalar(self, walk_repo, mode, order_seed):
        repo = walk_repo
        fallbacks = 0
        for budget in self.budgets(repo):
            policy = BudgetPolicy(budget, 0, repo)
            for family in repo.families:
                order = _family_order(repo, family, order_seed)
                got = simulate_single_family(repo, family, mode, policy, self.C_MAX,
                                             order_seed=order_seed)
                for t, r in enumerate(got):
                    want = scalar_family_result(repo, t, order, mode, policy, self.C_MAX)
                    assert result_bits(r) == expected_bits(*want)
                    fallbacks += r.used_fallback
        assert fallbacks > 0

    def test_portfolio_rows_match_scalar(self, walk_repo):
        repo = walk_repo
        portfolios = _loo_portfolios(repo, 8, NORMALIZED_LOSS)
        fallbacks = 0
        for budget in self.budgets(repo):
            policy = BudgetPolicy(budget, 0, repo)
            for t, r in enumerate(simulate_portfolio(repo, policy, 8, self.C_MAX)):
                order = list(portfolios[repo.tasks[t].dataset_id].configs)
                included, fb = scalar_filter_order(order, t, policy, repo)
                w = caruana_select(t, included, self.C_MAX, repo)
                [val], [test] = _ensemble_losses(repo, t, [w])
                want = (included, fb, val, test) + scalar_ensemble_times(repo, t, w, included)
                assert result_bits(r) == expected_bits(*want)
                fallbacks += r.used_fallback
        assert fallbacks > 0


# fit times an in-memory repository may hold: _walk must walk NaN and negative
# times as prefix_len does, and sum -0.0 to the 0.0 a sum from zero gives
FIT_LEVELS = (-0.0, 0.0, 0.1, 0.2, 0.3, -0.1, float("nan"))


def fit_time_repo(fit_times) -> Repository:
    """One-task repository whose config ``j`` has fit time ``fit_times[j]``."""
    task = TaskMeta("d", 0, ProblemType.REGRESSION, n_val=1, n_test=1, o=1)
    configs = [ConfigMeta(f"c{j}", "fam", is_default=j == 0) for j in range(len(fit_times))]
    slab = np.zeros((len(configs), 1, 1), dtype=np.float32)
    evals = np.zeros((1, len(configs), 4))
    evals[0, :, 2] = fit_times
    return Repository.in_memory([task], configs, 1, [(np.zeros(1), np.zeros(1))],
                                [(slab, slab)], evals)


@st.composite
def walk_cases(draw):
    """(fit times, order, budget): the budget is a positive running total of the order."""
    fits = draw(st.lists(st.sampled_from(FIT_LEVELS), min_size=1, max_size=8))
    order = draw(st.permutations(range(len(fits))))[:draw(st.integers(1, len(fits)))]
    totals = np.add.accumulate([fits[j] for j in order]).tolist()
    budget = draw(st.sampled_from(sorted({x for x in totals if x > 0} | {0.05})))
    return fits, order, budget


@given(walk_cases())
@example(([-0.0, -0.0], [0, 1], 0.05))  # an all -0.0 walk: its running total is -0.0
@example(([-0.0, 0.3], [1, 0], 0.05))  # the -0.0 fallback stands in
# no shrink phase: a failure reports its first failing example at once
@settings(max_examples=300, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
def test_walk_equals_prefix_len_and_sum(case):
    fits, order, budget = case
    repo = fit_time_repo(fits)
    trained, fb, fit = _walk(repo, 0, order, BudgetPolicy(budget, 0, repo))
    times = [fits[j] for j in order]
    k = prefix_len(times, budget)
    want_trained = order[:k] if k else [0]
    want_fit = _sum_in_order(times[:k] if k else [fits[0]])
    assert (trained, fb, fit.hex()) == (want_trained, k == 0, want_fit.hex())


# -- the simulation's array passes against a per-task reference of one-call functions

FIT_STEPS = (-0.0, 0.0, 0.1, 0.2, 0.3)
VAL_LOSSES = (-0.0, 0.0, 0.25, 0.5)  # few levels: ties within a trained prefix
INFER_STEPS = (-0.0, 0.0, 0.001, 0.003)
PREDICTION_LEVELS = {ProblemType.REGRESSION: (-0.0, 0.0, 0.5, -0.5, 1.0),
                     ProblemType.BINARY: (-0.0, 0.0, 0.25, 0.5, 1.0)}
# multiclass rows summing to one, or 1.2e-10 inside the tolerance: the greedy
# then checks every later step
ROW_TOTALS = (1.0, HIGHEST_SUM - 2**-33)


def drawn_repo(rng, problems, folds, sizes) -> Repository:
    """Tasks of ``problems`` (one dataset each) and two families of ``sizes``
    configs, each family's first config its default, with values drawn from
    few levels: ties, ``-0.0`` and rows near the row-sum tolerance."""
    tasks, labels, predictions = [], [], []
    m = sum(sizes)
    for d, problem in enumerate(problems):
        o = 4 if problem is ProblemType.MULTICLASS else 1
        for fold in range(folds):
            n = int(rng.integers(4, 8))
            tasks.append(TaskMeta(f"d{d}", fold, problem, n_val=n, n_test=n, o=o))
            if problem is ProblemType.REGRESSION:
                ys = [rng.choice([-1.0, 0.0, 0.5], n) for _ in range(2)]
            else:
                ys = [np.r_[0, 1, rng.integers(0, 2 if o == 1 else o, n - 2)] for _ in range(2)]
            labels.append(tuple(ys))
            if problem is ProblemType.MULTICLASS:
                total = ROW_TOTALS[int(rng.integers(len(ROW_TOTALS)))]
                slabs = [np.array([[row_summing_to(total, f) for f in rng.uniform(0.2, 0.8, n)]
                                   for _ in range(m)]) for _ in range(2)]
            else:
                levels = PREDICTION_LEVELS[problem]
                slabs = [rng.choice(levels, (m, n, 1)) for _ in range(2)]
            predictions.append(tuple(np.asarray(slab, dtype=np.float32) for slab in slabs))
    configs = [ConfigMeta(f"{family}-{i:03d}", family, is_default=i == 0)
               for family, size in zip(("gbm", "mlp"), sizes) for i in range(size)]
    evals = np.stack([rng.choice(levels, (len(tasks), m))
                      for levels in (VAL_LOSSES, VAL_LOSSES, FIT_STEPS, INFER_STEPS)], axis=2)
    return Repository.in_memory(tasks, configs, folds, labels, predictions, evals)


@st.composite
def simulation_cases(draw):
    """A drawn repository, budget, family c_max and order seed, and runs: some
    equal to an earlier one, each at its own step count."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    problems = draw(st.lists(st.sampled_from(list(ProblemType)), min_size=2, max_size=3))
    repo = drawn_repo(rng, problems, draw(st.integers(1, 2)),
                      (draw(st.integers(1, 5)), draw(st.integers(1, 5))))
    runs = []
    for steps in draw(st.lists(st.sampled_from([1, 2, 3, 5]), min_size=1, max_size=3)):
        if runs and draw(st.booleans()):
            portfolios = runs[int(rng.integers(len(runs)))][0]
        else:
            portfolios = {}
            for d in repo.datasets:
                order = rng.permutation(repo.n_configs)[:rng.integers(1, repo.n_configs + 1)]
                portfolios[d] = Portfolio(order.tolist(), [0.0] * len(order), RAW_LOSS)
        runs.append((portfolios, steps))
    # 0.05 trains nothing when the first fit time is above zero
    budget = draw(st.sampled_from([0.05, 0.15, 0.3, 0.45, 1e12]))
    return (repo, budget, draw(st.sampled_from([1, 2, 4])), draw(st.sampled_from([None, 3])),
            runs)


def one_call_methods(repo, policy, c_max, runs, order_seed):
    """``_simulate_methods``' results, method by method and task by task, from
    ``anytime_filter``, ``caruana_select``, ``ensemble_predict`` and
    ``task_loss``, and the stored records of the default and tuned picks.
    Returns ``(by_family, ensembles)``, or the set of messages of the
    ValueErrors some method raised."""
    evals = repo.eval_table
    messages = set()

    def ensemble(t, included, fb, pool, steps):
        meta = repo.tasks[t]
        try:
            w = caruana_select(t, pool, steps, repo)
            val, test = (task_loss(meta, ensemble_predict(w, t, split, repo), repo.labels(t, split))
                         for split in (VAL, TEST))
        except ValueError as e:
            messages.add(str(e))
            return None
        return SimResult(meta.dataset_id, meta.fold, included, fb, val, test,
                         _sum_in_order(evals[t, included, 2].tolist()),
                         _sum_in_order(evals[t, list(w.counts), 3].tolist()))

    by_family = {}
    for family in repo.families:
        default = [j for j in repo.family_configs(family) if repo.configs[j].is_default][0]
        order = _family_order(repo, family, order_seed)
        rows = {mode: [] for mode in ("default", "tuned", "tuned+ensemble")}
        for t, meta in enumerate(repo.tasks):
            rec = (evals[t, default] + 0.0).tolist()
            rows["default"].append(SimResult(meta.dataset_id, meta.fold, [default], False, *rec))
            portfolio = Portfolio(order, [0.0] * len(order), RAW_LOSS)
            included, fb = anytime_filter(portfolio, t, policy, repo)
            ranked = sorted(included, key=lambda j: (evals[t, j, 0], j))
            rec = (evals[t, ranked[0]] + 0.0).tolist()
            fit = _sum_in_order(evals[t, included, 2].tolist())
            rows["tuned"].append(SimResult(meta.dataset_id, meta.fold, included, fb,
                                           rec[0], rec[1], fit, rec[3]))
            rows["tuned+ensemble"].append(
                ensemble(t, included, fb, ranked[:TUNED_ENSEMBLE_POOL], c_max))
        by_family.update({(family, mode): results for mode, results in rows.items()})
    ensembles = []
    for portfolios, steps in runs:
        ensembles.append([])
        for t, meta in enumerate(repo.tasks):
            included, fb = anytime_filter(portfolios[meta.dataset_id], t, policy, repo)
            ensembles[-1].append(ensemble(t, included, fb, included, steps))
    return messages or (by_family, ensembles)


def all_result_bits(by_family, ensembles):
    return ({key: [result_bits(r) for r in results] for key, results in by_family.items()},
            [[result_bits(r) for r in results] for results in ensembles])


@given(simulation_cases())
@settings(max_examples=150, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
def test_array_passes_equal_one_call_methods(case):
    repo, budget, c_max, order_seed, runs = case
    policy = BudgetPolicy(budget, 0, repo)
    want = one_call_methods(repo, policy, c_max, runs, order_seed)
    if isinstance(want, set):
        with pytest.raises(ValueError) as raised:
            _simulate_methods(repo, policy, c_max, repo.families, runs, order_seed)
        assert str(raised.value) in want
        return
    got = _simulate_methods(repo, policy, c_max, repo.families, runs, order_seed)
    assert list(got[0]) == list(want[0])
    assert all_result_bits(*got) == all_result_bits(*want)


# -- straight-line reference implementations (independent of the library paths)


def ref_greedy_losses(repo, t, candidates, c_max):
    """Plain eager greedy; returns (picks kept, val matrix, test matrix)."""
    meta = repo.tasks[t]
    y_val = repo.labels(t, VAL)
    val = {j: repo.predictions(t, j, VAL).astype(np.float64) for j in candidates}
    picks, losses = [], []
    for _ in range(c_max):
        best_j, best_loss = None, np.inf
        for j in sorted(candidates):
            stack = np.stack([val[p] for p in picks] + [val[j]])
            loss = task_loss(meta, np.mean(stack, axis=0), y_val)
            if loss < best_loss:
                best_j, best_loss = j, loss
        picks.append(best_j)
        losses.append(best_loss)
    keep = picks[: int(np.argmin(losses)) + 1]
    val_m = np.mean(np.stack([val[j] for j in keep]), axis=0).astype(np.float32)
    test_m = np.mean(np.stack([repo.predictions(t, j, TEST).astype(np.float64)
                               for j in keep]), axis=0).astype(np.float32)
    return keep, val_m, test_m


def ref_portfolio(repo, train_task_ids, candidates, n_max):
    sub = repo.eval_table[:, :, 0][np.ix_(train_task_ids, candidates)].astype(float)
    lo, hi = sub.min(axis=1, keepdims=True), sub.max(axis=1, keepdims=True)
    norm = np.where(hi > lo, (sub - lo) / np.where(hi > lo, hi - lo, 1.0), 0.0)
    chosen = []
    for _ in range(min(n_max, len(candidates))):
        best_j, best_obj = None, np.inf
        for col, j in enumerate(candidates):
            if j in chosen:
                continue
            sel = [candidates.index(c) for c in chosen] + [col]
            obj = norm[:, sel].min(axis=1).mean()
            if obj < best_obj:
                best_j, best_obj = j, obj
        chosen.append(best_j)
    return chosen


def reference_simulation(repo, budget, fallback, n_max, c_max):
    out = []
    for t, meta in enumerate(repo.tasks):
        train_ids = [i for i, m in enumerate(repo.tasks)
                     if m.dataset_id != meta.dataset_id]
        pf = ref_portfolio(repo, train_ids, list(range(repo.n_configs)), n_max)
        included, fb = [], False
        total = 0.0
        for j in pf:
            total += repo.eval_table[t, j, 2]
            if total > budget:
                break
            included.append(j)
        if not included:
            included, fb = [fallback], True
        keep, val_m, test_m = ref_greedy_losses(repo, t, included, c_max)
        out.append({
            "key": meta.key,
            "included": included,
            "fallback": fb,
            "val": task_loss(meta, val_m, repo.labels(t, VAL)),
            "test": task_loss(meta, test_m, repo.labels(t, TEST)),
            "fit": sum(repo.eval_table[t, j, 2] for j in included),
            "infer": sum(repo.eval_table[t, j, 3] for j in set(keep)),
        })
    return out


def reference_family(repo, family, mode, budget, fallback, c_max):
    members = [j for j, c in enumerate(repo.configs) if c.family == family]
    default = [j for j in members if repo.configs[j].is_default][0]
    out = []
    for t, meta in enumerate(repo.tasks):
        if mode == "default":
            out.append({"included": [default],
                        "val": repo.eval_table[t, default, 0],
                        "test": repo.eval_table[t, default, 1],
                        "fit": repo.eval_table[t, default, 2]})
            continue
        included, fb = [], False
        total = 0.0
        for j in members:
            total += repo.eval_table[t, j, 2]
            if total > budget:
                break
            included.append(j)
        if not included:
            included, fb = [fallback], True
        fit = sum(repo.eval_table[t, j, 2] for j in included)
        if mode == "tuned":
            best = min(included, key=lambda j: (repo.eval_table[t, j, 0], j))
            out.append({"included": included, "val": repo.eval_table[t, best, 0],
                        "test": repo.eval_table[t, best, 1], "fit": fit})
        else:
            pool = sorted(included, key=lambda j: (repo.eval_table[t, j, 0], j))[:20]
            _, val_m, test_m = ref_greedy_losses(repo, t, pool, c_max)
            out.append({"included": included,
                        "val": task_loss(meta, val_m, repo.labels(t, VAL)),
                        "test": task_loss(meta, test_m, repo.labels(t, TEST)),
                        "fit": fit})
    return out
