from __future__ import annotations

import warnings

import numpy as np
import pytest

from predrepo import (
    FamilySpec,
    GeneratorSpec,
    ProblemType,
    SpecError,
    aggregate_bag_predictions,
    caruana_select,
    generate_repo,
    task_loss,
    validate_repo,
    write_repo,
)
from predrepo.store import TEST, VAL
from predrepo.synth import oracle_auc_pairwise, oracle_greedy_extension, rng_stream, subsample_rng

from conftest import small_spec


class TestGeneratorSpec:
    def test_round_trip_through_dict(self):
        spec = small_spec()
        assert GeneratorSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(n_datasets=0),
            dict(folds=0),
            dict(bag_folds=0),
            dict(rows_val=(1, 5)),
            dict(rows_test=(10, 5)),
            dict(multiclass_classes=(1, 4)),
            dict(families=()),
            dict(problem_mix={"binary": -1.0}),
            dict(problem_mix={"sparse": 1.0}),
        ],
    )
    def test_invalid_fields_rejected(self, overrides):
        with pytest.raises(SpecError):
            small_spec(**overrides).validate()

    @pytest.mark.parametrize(
        "family",
        [
            FamilySpec("f", 0, 0.5, 0.5, 0.1),
            FamilySpec("f", 2, 1.5, 0.5, 0.1),
            FamilySpec("f", 2, 0.5, 0.0, 0.1),
            FamilySpec("f", 2, 0.5, 0.5, 1.0),
        ],
    )
    def test_invalid_family_rejected(self, family):
        with pytest.raises(SpecError):
            small_spec(families=(family,)).validate()

    def test_duplicate_family_names_rejected(self):
        fams = (FamilySpec("f", 2, 0.5, 0.5, 0.1), FamilySpec("f", 3, 0.6, 0.5, 0.1))
        with pytest.raises(SpecError, match="duplicate family"):
            small_spec(families=fams).validate()


class TestGenerateRepo:
    def test_deterministic_bytes(self, tmp_path):
        spec = small_spec(seed=101)
        write_repo(generate_repo(spec), tmp_path / "a")
        write_repo(generate_repo(spec), tmp_path / "b")
        for name in ("manifest.json", "labels.bin", "evals.bin", "preds.idx", "preds.blob"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_passes_validation(self):
        assert validate_repo(generate_repo(small_spec(seed=103))) == []

    @pytest.mark.parametrize("seed", [11, 103, 900])
    def test_stored_losses_equal_scalar_task_loss(self, seed):
        repo = generate_repo(small_spec(seed=seed))
        for t, task in enumerate(repo.tasks):
            for j in range(repo.n_configs):
                for split in (VAL, TEST):
                    want = task_loss(task, repo.predictions(t, j, split), repo.labels(t, split))
                    assert repo.eval_table[t, j, split] == want

    def test_binary_tasks_have_both_classes(self):
        repo = generate_repo(small_spec(seed=107, problem_mix={"binary": 1.0}))
        for t, task in enumerate(repo.tasks):
            assert task.problem is ProblemType.BINARY
            for split in (VAL, TEST):
                y = repo.labels(t, split)
                assert 0 < y.sum() < len(y)

    def test_perfect_config_has_minimal_val_loss_everywhere(self):
        spec = small_spec(seed=109, families=(
            FamilySpec("weak", 3, 0.5, 1.0, 0.2),
            FamilySpec("sharp", 1, 1.0, 1e-9, 0.0),
        ))
        repo = generate_repo(spec)
        sharp = repo.config_index("sharp-default")
        for t in range(repo.n_tasks):
            losses = repo.eval_table[t, :, 0]
            assert losses[sharp] <= losses.min() + 1e-12

    def test_seed_changes_values_not_shapes(self):
        a = generate_repo(small_spec(seed=113))
        b = generate_repo(small_spec(seed=127))
        assert a.tasks == b.tasks  # shapes and metadata are seed-stable
        assert [c.config_id for c in a.configs] == [c.config_id for c in b.configs]
        assert not np.array_equal(a.eval_table, b.eval_table)
        assert not np.array_equal(a.predictions(0, 0, VAL), b.predictions(0, 0, VAL))

    def test_fallback_config_is_cheap(self):
        repo = generate_repo(small_spec(seed=131))
        assert repo.eval_table[:, 0, 2].max() <= 3.0

    def test_ensembles_beat_best_single_config(self):
        # two families with rho < 0.5: ensembling should never lose on validation
        wins = 0
        runs = 20
        for seed in range(runs):
            repo = generate_repo(small_spec(
                seed=1000 + seed, n_datasets=2, folds=1,
                rows_val=(15, 20), rows_test=(15, 20),
                families=(FamilySpec("a", 2, 0.7, 0.6, 0.3),
                          FamilySpec("b", 2, 0.7, 0.6, 0.3)),
            ))
            ens, single = [], []
            for t in range(repo.n_tasks):
                w = caruana_select(t, range(repo.n_configs), 8, repo)
                ens.append(w.val_loss)
            best = int(np.argmin(repo.eval_table[:, :, 0].mean(axis=0)))
            single = repo.eval_table[:, best, 0]
            if np.mean(ens) <= np.mean(single):
                wins += 1
        assert wins >= 0.95 * runs


# 64-bit seed values above 2**63 (every negative seed too): a key list cast
# through float64 rounded them; -1, -2 and -3 drew seed 0's streams, 2**63 + 1
# drew 2**63's
WRAPPING_SEEDS = [0, -1, -2, -3, 2**63 + 1]


class TestSeedStreams:
    def test_wrapping_seeds_draw_distinct_streams_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for stream in (lambda s: rng_stream(s, 3, 1, 2), lambda s: subsample_rng(s, 1, 2)):
                draws = [tuple(stream(seed).integers(0, 2**62, 4)) for seed in WRAPPING_SEEDS]
                assert len(set(draws)) == len(WRAPPING_SEEDS)
                # a seed is taken modulo 2**64: -1 and 2**64 - 1 are one seed
                assert tuple(stream(2**64 - 1).integers(0, 2**62, 4)) == draws[1]
            tables = [generate_repo(small_spec(seed=seed, n_datasets=2, folds=1)).eval_table
                      for seed in (0, -1)]
        assert not np.array_equal(*tables)

    @pytest.mark.parametrize("seed", [0, 7919, 2**53 + 1, 2**63 - 1])
    def test_seeds_below_2_63_keep_their_streams(self, seed):
        tag = (3 << 48) | (1 << 24) | 2
        want = np.random.Generator(np.random.Philox(key=[seed, tag])).integers(0, 2**62, 4)
        assert np.array_equal(rng_stream(seed, 3, 1, 2).integers(0, 2**62, 4), want)


class TestAggregateBagPredictions:
    def test_single_fold_identity(self):
        m = np.arange(6, dtype=float).reshape(3, 2)
        assert np.array_equal(aggregate_bag_predictions([m]), m)

    def test_opposite_folds_cancel(self):
        m = np.random.default_rng(0).standard_normal((4, 1))
        out = aggregate_bag_predictions([m, -m])
        assert out == pytest.approx(np.zeros((4, 1)))

    def test_matches_direct_mean(self):
        rng = np.random.default_rng(1)
        folds = [rng.standard_normal((5, 3)) for _ in range(8)]
        want = sum(folds) / 8
        assert aggregate_bag_predictions(folds) == pytest.approx(want, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shapes differ"):
            aggregate_bag_predictions([np.zeros((2, 1)), np.zeros((3, 1))])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_bag_predictions([])


class TestOracles:
    def test_pairwise_auc_single_class(self):
        with pytest.raises(ValueError, match="AUC undefined"):
            oracle_auc_pairwise([0.1, 0.2], [0, 0])

    def test_pairwise_auc_hand_cases(self):
        assert oracle_auc_pairwise([0.9, 0.1], [1, 0]) == 0.0
        assert oracle_auc_pairwise([0.5, 0.5], [1, 0]) == 0.5

    def test_extension_single_candidate(self, synth_repo):
        assert oracle_greedy_extension([], [4], 0, synth_repo) == 4

    def test_extension_m_too_large(self):
        repo = generate_repo(small_spec(seed=137, n_datasets=2, families=(
            FamilySpec("a", 5, 0.7, 0.6, 0.2), FamilySpec("b", 5, 0.7, 0.6, 0.2))))
        with pytest.raises(ValueError, match="M too large"):
            oracle_greedy_extension([], list(range(9)), 0, repo)
        with pytest.raises(ValueError, match="M too large"):
            oracle_greedy_extension([9], list(range(8)), [repo.tasks[0]], repo)
