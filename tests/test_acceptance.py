"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion. The heavyweight qualitative checks (criteria 10 and 11) build
a D=20, S=3, M=60 repository per seed and are bounded at five minutes total.
"""

from __future__ import annotations

import functools
import hashlib
import json
import time

import numpy as np
import pytest

from predrepo import (
    NORMALIZED_LOSS,
    RAW_LOSS,
    BudgetPolicy,
    ConfigMeta,
    FamilySpec,
    GeneratorSpec,
    MethodResults,
    Portfolio,
    ProblemType,
    Repository,
    StoreError,
    TaskMeta,
    anytime_filter,
    auc_loss,
    caruana_select,
    generate_repo,
    learn_portfolio,
    log_loss,
    loo_train_tasks,
    mean_normalized_error,
    normalized_error,
    open_repo,
    prefix_len,
    rmse,
    simulate_portfolio,
    simulate_single_family,
    task_loss,
    validate_repo,
    winrate,
    write_repo,
)
from predrepo.cli import main
from predrepo.store import STORE_FILES, TEST, VAL
from predrepo.synth import oracle_auc_pairwise, oracle_greedy_extension

from conftest import rebuild_repo, repo_arrays, small_spec
from test_aggregate import make_methods

THREADS = 4


def criterion(number: int, description: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nFAIL criterion {number}: {description}")
                raise
            print(f"\nPASS criterion {number}: {description}")

        return wrapper

    return decorate


def oracle_task_repos(n_repos: int, first_seed: int) -> list[Repository]:
    """Small mixed repos sized for the exhaustive oracles (M=6, n <= 50)."""
    return [
        generate_repo(small_spec(
            seed=first_seed + i, n_datasets=5, folds=2,
            rows_val=(10, 50), rows_test=(10, 50),
            families=(FamilySpec("a", 3, 0.8, 0.6, 0.3),
                      FamilySpec("b", 3, 0.6, 0.9, 0.2)),
            bag_folds=2,
        ))
        for i in range(n_repos)
    ]


@criterion(1, "caruana_select step picks equal the exhaustive extension oracle")
def test_criterion_1_ensemble_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    repos = oracle_task_repos(10, first_seed=300)
    checked = 0
    for repo in repos:
        for t in range(repo.n_tasks):
            c_max = int(rng.integers(2, 5))
            w = caruana_select(t, range(repo.n_configs), c_max, repo)
            state: list[int] = []
            for step, (pick, _) in enumerate(w.trajectory):
                expect = oracle_greedy_extension(state, list(range(repo.n_configs)),
                                                 t, repo)
                assert pick == expect, f"task {repo.tasks[t].key} step {step}"
                state.append(pick)
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 100
    assert elapsed < 10.0, f"took {elapsed:.1f}s"


@criterion(2, "learn_portfolio picks equal the exhaustive extension oracle in both modes")
def test_criterion_2_portfolio_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(43)
    repos = oracle_task_repos(5, first_seed=400)
    runs = 0
    while runs < 100:
        repo = repos[runs % len(repos)]
        aggregation = (RAW_LOSS, NORMALIZED_LOSS)[runs % 2]
        n_tasks = int(rng.integers(2, 6))
        task_ids = sorted(rng.choice(repo.n_tasks, size=n_tasks, replace=False).tolist())
        tasks = [repo.tasks[t] for t in task_ids]
        n_max = int(rng.integers(1, 4))
        pf = learn_portfolio(tasks, range(repo.n_configs), n_max, aggregation, repo)
        state: list[int] = []
        for pick in pf.configs:
            expect = oracle_greedy_extension(state, list(range(repo.n_configs)),
                                             tasks, repo, aggregation=aggregation)
            assert pick == expect
            state.append(pick)
        runs += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"


@criterion(3, "metric implementations match brute-force references within 1e-12")
def test_criterion_3_metric_oracles():
    rng = np.random.default_rng(44)
    for trial in range(200):
        n = int(rng.integers(5, 501))
        if trial % 3 == 0:
            scores = rng.integers(0, 5, n).astype(float)  # tie-heavy
        else:
            scores = rng.standard_normal(n)
        labels = rng.integers(0, 2, n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        assert abs(auc_loss(scores, labels) - oracle_auc_pairwise(scores, labels)) <= 1e-12

    import math

    for _ in range(50):
        n = int(rng.integers(2, 200))
        p, t = rng.standard_normal(n), rng.standard_normal(n)
        direct = math.sqrt(sum((float(a) - float(b)) ** 2 for a, b in zip(p, t)) / n)
        assert abs(rmse(p, t) - direct) <= 1e-12

        k = int(rng.integers(2, 6))
        raw = rng.random((n, k)) + 1e-3
        probs = raw / raw.sum(axis=1, keepdims=True)
        y = rng.integers(0, k, n)
        direct = -sum(math.log(min(max(float(probs[i, y[i]]), 1e-15), 1 - 1e-15))
                      for i in range(n)) / n
        assert abs(log_loss(probs, y) - direct) <= 1e-12


@criterion(4, "ensemble validation loss never exceeds the best single candidate")
def test_criterion_4_ensemble_dominance():
    rng = np.random.default_rng(45)
    repos = oracle_task_repos(5, first_seed=500)
    violations = 0
    for draw in range(500):
        repo = repos[draw % len(repos)]
        t = int(rng.integers(repo.n_tasks))
        k = int(rng.integers(2, repo.n_configs + 1))
        cands = sorted(rng.choice(repo.n_configs, size=k, replace=False).tolist())
        w = caruana_select(t, cands, 8, repo)
        best_single = min(repo.eval_table[t, j, 0] for j in cands)
        if w.val_loss > best_single:
            violations += 1
    assert violations == 0


def crafted_times_repo() -> Repository:
    """One regression task; config 0 is a cheap fallback, 1..3 cost 100/200/300s."""
    task = TaskMeta("d", 0, ProblemType.REGRESSION, n_val=4, n_test=4, o=1)
    configs = [ConfigMeta(f"c{j}", "fam", is_default=(j == 0)) for j in range(4)]
    rng = np.random.default_rng(0)
    y = rng.standard_normal(4)
    preds, evals = np.empty((2, 4, 4, 1), dtype=np.float32), np.zeros((1, 4, 4))
    for j in range(4):
        for split in (VAL, TEST):
            preds[split, j] = rng.standard_normal((4, 1)).astype(np.float32)
        evals[0, j, 0] = task_loss(task, preds[VAL, j], y)
        evals[0, j, 1] = task_loss(task, preds[TEST, j], y)
        evals[0, j, 2] = [1.0, 100.0, 200.0, 300.0][j]
        evals[0, j, 3] = 1e-3
    return Repository.in_memory([task], configs, 1, [(y, y)], [tuple(preds)], evals)


@criterion(5, "anytime prefixes match the stated budgets and are budget-monotone")
def test_criterion_5_anytime_semantics():
    repo = crafted_times_repo()
    pf = Portfolio(configs=[1, 2, 3], objective_trajectory=[0.0] * 3,
                   aggregation=RAW_LOSS)
    expected = {50.0: ([0], True), 100.0: ([1], False),
                350.0: ([1, 2], False), 700.0: ([1, 2, 3], False)}
    for budget, want in expected.items():
        policy = BudgetPolicy(budget, 0, repo)
        assert anytime_filter(pf, 0, policy, repo) == want

    rng = np.random.default_rng(46)
    for _ in range(1000):
        times = rng.uniform(0.01, 50, size=int(rng.integers(1, 12)))
        budgets = np.sort(rng.uniform(0, 200, size=5))
        lens = [prefix_len(times, b) for b in budgets]
        assert lens == sorted(lens)


@criterion(6, "self win-rate anchors at (0.500, 0, 0, D) and winrates are symmetric")
def test_criterion_6_winrate_anchor():
    rng = np.random.default_rng(47)
    table = rng.random((1, 200 * 3))
    m = make_methods(table, 200, 3)[0]
    assert winrate(m, m, 3) == (0.500, 0, 0, 200)

    for _ in range(100):
        pair = rng.random((2, 12))
        if rng.random() < 0.3:
            pair[:, :4] = 0.25  # force exact ties
        a, b = make_methods(pair, 6, 2)
        assert winrate(a, b, 2).winrate + winrate(b, a, 2).winrate == 1.0


@criterion(7, "normalized error matches the formula exactly and stays in [0, 1]")
def test_criterion_7_normalized_error():
    methods = make_methods(np.array([[0.1], [0.2], [0.4]]), 1, 1)
    scores = normalized_error(methods)
    assert scores[("m0", ("d0", 0))] == 0.0
    assert scores[("m1", ("d0", 0))] == 1.0
    assert scores[("m2", ("d0", 0))] == 1.0

    rng = np.random.default_rng(48)
    for _ in range(100):
        k, t = int(rng.integers(2, 9)), int(rng.integers(1, 4)) * 2
        table = np.exp(rng.standard_normal((k, t)))
        ms = make_methods(table, t // 2, 2)
        scores = normalized_error(ms)
        for col in range(t):
            losses = table[:, col]
            top = losses.min()
            base = float(np.sort(losses)[(k + 1) // 2 - 1])
            for row in range(k):
                want = min(max((losses[row] - top) / max(base - top, 1e-5), 0.0), 1.0)
                got = scores[(f"m{row}", (f"d{col // 2}", col % 2))]
                assert abs(got - want) <= 1e-12
                assert 0.0 <= got <= 1.0


@criterion(8, "perturbing the held-out dataset leaves the learned portfolio identical")
def test_criterion_8_loo_leakage_freedom():
    for trial in range(20):
        spec = small_spec(seed=600 + trial, n_datasets=3, folds=2,
                          rows_val=(15, 25), rows_test=(15, 25), bag_folds=2)
        base = generate_repo(spec)
        held = base.datasets[trial % 3]
        reference = learn_portfolio(loo_train_tasks(base, held),
                                    range(base.n_configs), 4, NORMALIZED_LOSS, base)

        perturbed = generate_repo(spec)
        labels, preds, evals = repo_arrays(perturbed)
        rng = np.random.default_rng(trial)
        for t in perturbed.dataset_tasks(held):
            task = perturbed.tasks[t]
            for split in (VAL, TEST):
                y = labels[t][split]
                if task.problem is ProblemType.REGRESSION:
                    y += rng.standard_normal(y.shape)
                else:
                    y[:2] = y[:2][::-1]
                for j in range(perturbed.n_configs):
                    arr = preds[t][split][j]
                    arr += rng.random(arr.shape).astype(np.float32) * 1e-3
            evals[t, :, :2] = rng.random((perturbed.n_configs, 2))
        perturbed = rebuild_repo(perturbed, labels, preds, evals)
        again = learn_portfolio(loo_train_tasks(perturbed, held),
                                range(perturbed.n_configs), 4, NORMALIZED_LOSS, perturbed)
        assert again == reference, f"trial {trial}"


@criterion(9, "generation and simulation are deterministic across runs and thread counts")
def test_criterion_9_determinism(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(small_spec(seed=700).to_dict()))
    assert main(["generate", "--spec", str(spec_path), "--out", str(tmp_path / "a")]) == 0
    assert main(["generate", "--spec", str(spec_path), "--out", str(tmp_path / "b")]) == 0
    for name in STORE_FILES:
        ha = hashlib.sha256((tmp_path / "a" / name).read_bytes()).hexdigest()
        hb = hashlib.sha256((tmp_path / "b" / name).read_bytes()).hexdigest()
        assert ha == hb, name

    outputs = []
    for threads in ("1", "8"):
        out = tmp_path / f"sim{threads}.csv"
        code = main(["simulate", "--repo", str(tmp_path / "a"), "--budget-s", "1e12",
                     "--n-max", "5", "--c-max", "8", "--threads", threads,
                     "--out", str(out)])
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


# -- criteria 10 and 11: qualitative desk-scale reproduction ----------------


def fig2_spec(seed: int) -> GeneratorSpec:
    # equal family strengths keep the cross-method spread dominated by the
    # mode (default vs tuned vs ensembled), so the orderings under test are
    # not decided by saturation against the median baseline; families still
    # differ through their correlated noise components. Two bag folds leave
    # enough independent test noise for config-ensembling to remove, and the
    # row counts concentrate per-task losses so orderings are not decided by
    # single noise realizations.
    return GeneratorSpec(
        seed=seed,
        n_datasets=20,
        folds=3,
        families=(
            FamilySpec("gbm", 20, 0.75, 0.55, 0.3),
            FamilySpec("mlp", 20, 0.75, 0.55, 0.3),
            FamilySpec("knn", 20, 0.75, 0.55, 0.3),
        ),
        rows_val=(100, 160),
        rows_test=(100, 160),
        problem_mix={"binary": 0.3, "multiclass": 0.3, "regression": 0.4},
        bag_folds=2,
    )


def fig2_method_errors(repo: Repository) -> dict[str, float]:
    policy = BudgetPolicy(1e12, 0, repo)
    methods: dict[str, list] = {}
    methods["Portfolio (ensemble)"] = simulate_portfolio(
        repo, policy, n_max=10, c_max=40)
    for family in repo.families:
        for mode, label in (("default", "default"), ("tuned", "tuned"),
                            ("tuned+ensemble", "tuned + ensemble")):
            methods[f"{family} ({label})"] = simulate_single_family(
                repo, family, mode, policy, 40)
    tables = [
        MethodResults(name, {r.key: r.test_loss for r in results})
        for name, results in methods.items()
    ]
    return mean_normalized_error(tables)


@criterion(10, "tuning/ensembling ordering and portfolio dominance hold in >= 8/10 seeds")
def test_criterion_10_fig2_qualitative():
    start = time.perf_counter()
    good = 0
    for seed in range(10):
        repo = generate_repo(fig2_spec(800 + seed))
        errors = fig2_method_errors(repo)
        ordered = all(
            errors[f"{fam} (default)"] >= errors[f"{fam} (tuned)"]
            >= errors[f"{fam} (tuned + ensemble)"]
            for fam in ("gbm", "mlp", "knn")
        )
        dominant = all(
            errors["Portfolio (ensemble)"] < errors[f"{fam} (tuned + ensemble)"]
            for fam in ("gbm", "mlp", "knn")
        )
        if ordered and dominant:
            good += 1
    elapsed = time.perf_counter() - start
    assert good >= 8, f"only {good}/10 seeds show the expected ordering"
    assert elapsed < 300.0, f"took {elapsed:.0f}s"


@criterion(11, "portfolio size is monotone on the training objective; ensemble size plateaus")
def test_criterion_11_ablation_shapes(tmp_path):
    repo_dir = tmp_path / "repo"
    write_repo(generate_repo(fig2_spec(800)), repo_dir)

    size_csv = tmp_path / "size.csv"
    code = main(["ablate", "--repo", str(repo_dir), "--axis", "portfolio-size",
                 "--values", "1,2,4,8", "--seeds", "0", "--budget-s", "1e12",
                 "--n-max", "10", "--c-max", "40", "--threads", str(THREADS),
                 "--out", str(size_csv)])
    assert code == 0
    lines = size_csv.read_text().splitlines()[1:]
    objectives = [float(line.split(",")[4]) for line in lines]
    errors = [float(line.split(",")[3]) for line in lines]
    assert all(objectives[i + 1] <= objectives[i] for i in range(len(objectives) - 1))
    assert errors[0] >= errors[-1]  # size 1 never beats the full portfolio

    members_csv = tmp_path / "members.csv"
    code = main(["ablate", "--repo", str(repo_dir), "--axis", "ensemble-members",
                 "--values", "25,40", "--seeds", "0", "--budget-s", "1e12",
                 "--n-max", "10", "--c-max", "40", "--threads", str(THREADS),
                 "--out", str(members_csv)])
    assert code == 0
    rows = [line.split(",") for line in members_csv.read_text().splitlines()[1:]]
    err = {int(r[1]): float(r[3]) for r in rows}
    assert abs(err[25] - err[40]) <= 0.01 * err[40] + 1e-12


@criterion(12, "stores validate cleanly, recompute losses, and reject corrupt files")
def test_criterion_12_store_round_trip(tmp_path):
    repo = generate_repo(small_spec(seed=900))
    assert validate_repo(repo) == []

    write_repo(repo, tmp_path / "r")
    opened = open_repo(tmp_path / "r")
    assert validate_repo(opened) == []

    opened.eval_table.flags.writeable = False  # memmap is read-only already
    perturbed = generate_repo(small_spec(seed=900))
    perturbed.eval_table[0, 0, 0] += 1e-2
    report = validate_repo(perturbed)
    assert len(report) == 1 and "loss_val mismatch" in report[0]

    blob = tmp_path / "r" / "preds.blob"
    data = blob.read_bytes()
    blob.write_bytes(data[:-8])
    with pytest.raises(StoreError, match="blob shorter than index extent"):
        open_repo(tmp_path / "r")
    blob.write_bytes(b"XXXX" + data[4:])
    with pytest.raises(StoreError, match="bad magic"):
        open_repo(tmp_path / "r")
