from __future__ import annotations

import hashlib
import json
import re
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from predrepo import synth
from predrepo.store import TEST, VAL
from predrepo.synth import oracle_auc_pairwise, oracle_greedy_extension, rng_stream, subsample_rng

from conftest import small_spec


def uneven_bag_spec() -> GeneratorSpec:
    """Multiclass-heavy spec with 8 bag folds and 5-13 validation rows.

    No n_val here is a multiple of 8, so the bag segments are uneven, and
    n_val 6 and 7 leave some segments empty; one task has 9 classes.
    """
    return small_spec(seed=0, problem_mix={"binary": 0.25, "multiclass": 0.5, "regression": 0.25},
                      rows_val=(5, 13), rows_test=(6, 9), multiclass_classes=(3, 9), bag_folds=8)


# sha256 of the five store files, keyed by small_spec seed or by name; the
# byte contract of the generator (every stream, its draw order and the
# arithmetic after it)
PINNED_STORE_DIGESTS = {
    0: {
        "manifest.json": "bf5b4bb484a4bcf28e6a9d4f340b5fbc1c01b0fd08020aa2138be23646320cec",
        "labels.bin": "4d41b6304e2d466e39d27110369e7551fa09e12702032a28fdd6f438fc79c52f",
        "evals.bin": "c820105dbef20393a66466d818544e4fe9e73f68b1ce88a3553aac818bb2e9c8",
        "preds.idx": "91ad47c198c278d1048077952d206b986a4ae5723537db6f10ab3107c23fcd5c",
        "preds.blob": "7340fbfa9511e80e32c805e1ad60c4c6e0909ec60c444aaaad4174d4e46b3ebf",
    },
    900: {
        "manifest.json": "7fa75c56ac07007ef943962eeb77984b3f02720298a375ef539bb46755119ddf",
        "labels.bin": "b158467572a3a46a29b2b2d5bee8460bb9d48ff4a401452bad351096385ac6c4",
        "evals.bin": "9e4ddc86654fc7c8c786548719be4e3b0201432c9d4102df8eb3413cf8a2f7e6",
        "preds.idx": "91ad47c198c278d1048077952d206b986a4ae5723537db6f10ab3107c23fcd5c",
        "preds.blob": "e8bb21aa3b65acbf8219a9f949f81fab73cd34119083d15ae443cf31742afd59",
    },
    2**64 - 1: {
        "manifest.json": "a12cc4af1dbe89808ed207bd5ef8871f2bbdb9e52e1e504b1423da46c33a337d",
        "labels.bin": "c719e4c14de8ca56d219d647e4032ea1acf1980e15407d936d7ddba92ef9ca07",
        "evals.bin": "da24ccc588e84e837480510394697442a06584e6665db55878ece4967ad5370f",
        "preds.idx": "91ad47c198c278d1048077952d206b986a4ae5723537db6f10ab3107c23fcd5c",
        "preds.blob": "ccca5ea43d63516849b75e247e34c9a7849b2f799428a1d093d77727e9a6495c",
    },
    "uneven-bags": {
        "manifest.json": "b0926145d29acaa77ed19d3b22ed1e21e948f35d31e56e245761373a60ac5c1c",
        "labels.bin": "7e334903c951a0504e125a51aeb0a8e007b1154d6cc2c7962c04934c25a1e2e7",
        "evals.bin": "726a0b78321740285b8e1ca6891f21a09b9389a9cee6c53163915ff803a17dff",
        "preds.idx": "320f8c75e94852de8f768782c2d361730b7357a840ab81827aa4fb24f14bede3",
        "preds.blob": "3f8d60fd0240cfa1045c555c81464fd6654e0529779cd124dc6b76088718bab0",
    },
}


class TestGeneratorSpec:
    def test_round_trip_through_dict(self):
        spec = small_spec()
        assert GeneratorSpec.from_dict(spec.to_dict()) == spec
        assert GeneratorSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    @pytest.mark.parametrize("key,value", [
        ("seed", 1.5), ("seed", True), ("seed", "1"), ("n_datasets", 2.0), ("folds", True),
        ("bag_folds", "2"), ("bag_folds", None), ("rows_val", "55"), ("rows_val", [2, 5.0]),
        ("rows_test", [2, 3, 4]), ("multiclass_classes", [True, 4]),
        ("problem_mix", {"binary": "x"}), ("problem_mix", {"binary": True}),
        ("problem_mix", {"binary": float("inf")}), ("problem_mix", [0.5, 0.5])])
    def test_mistyped_values_rejected_naming_the_field(self, key, value):
        data = small_spec().to_dict()
        data[key] = value
        with pytest.raises(SpecError, match=f"^generator spec: invalid '{key}' value "):
            GeneratorSpec.from_dict(data)

    @pytest.mark.parametrize("key,value", [
        ("family", 3), ("count", 2.0), ("count", True), ("count", "2"), ("skill", "0.5"),
        ("skill", False), ("noise", None), ("noise", float("inf")), ("rho", float("nan"))])
    def test_mistyped_family_values_rejected_naming_the_field(self, key, value):
        data = json.loads(json.dumps(small_spec().to_dict()))
        data["families"][1][key] = value
        with pytest.raises(SpecError, match=f"^generator spec: family 1: invalid '{key}' value "):
            GeneratorSpec.from_dict(data)

    @pytest.mark.parametrize("mutate, message", [
        (lambda d: d.update(families=["a"]), "family 0: expected a JSON object, got 'a'"),
        (lambda d: d.update(families=3), "invalid 'families' value 3"),
        (lambda d: d.update(families=[{"family": "x"}]), "family 0: missing field 'count'"),
        (lambda d: d["families"][1].pop("rho"), "family 1: missing field 'rho'"),
        (lambda d: d.pop("families"), "missing field 'families'"),
        (lambda d: d.pop("seed"), "missing field 'seed'")])
    def test_malformed_families_and_missing_fields_are_named(self, mutate, message):
        data = json.loads(json.dumps(small_spec().to_dict()))
        mutate(data)
        with pytest.raises(SpecError, match=f"^generator spec: {re.escape(message)}$"):
            GeneratorSpec.from_dict(data)

    @pytest.mark.parametrize("data", [[], 3, "families"])
    def test_spec_not_an_object_rejected(self, data):
        with pytest.raises(SpecError, match="^generator spec: expected a JSON object, got "):
            GeneratorSpec.from_dict(data)

    def test_integer_weights_and_family_parameters_accepted(self):
        data = json.loads(json.dumps(small_spec().to_dict()))
        data["families"][0].update(skill=1, noise=2, rho=0)
        data["problem_mix"] = {"binary": 1, "regression": 2}
        spec = GeneratorSpec.from_dict(data)
        assert (spec.families[0].skill, spec.families[0].noise, spec.families[0].rho) == (1, 2, 0)
        assert spec.problem_mix == {"binary": 1, "regression": 2}

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


# every stream purpose, and keys at the edges of each word: seeds at and above
# 2**63, the largest task and config ids
PURPOSES = [value for name, value in vars(synth).items() if name.startswith("_P_")]
EDGE_KEYS = [(0, 0, 0), (2**63, 2**24 - 1, 2**24 - 1), (2**64 - 1, 2**24 - 1, 0),
             (2**63 + 7, 0, 2**24 - 1)]


def stream_draws(rng: np.random.Generator) -> list:
    """An array of normals drawn into ``out``, a scalar normal, uniforms and
    float32 values, which draw 32 bits at a time; exact, as bytes or hex."""
    out = np.empty((5, 3))
    rng.standard_normal(out=out)
    return [out.tobytes(), float(rng.standard_normal()).hex(),
            rng.uniform(0.5, 1.5, 7).tobytes(), rng.random(3, dtype=np.float32).tobytes()]


class TestRekeyedStreams:
    def test_purposes_are_the_generator_streams(self):
        assert sorted(PURPOSES) == list(range(8))

    @pytest.mark.parametrize("purpose", PURPOSES)
    @pytest.mark.parametrize("seed,a,b", EDGE_KEYS)
    def test_draws_equal_rng_stream(self, purpose, seed, a, b):
        rng = np.random.Generator(np.random.Philox(0))
        assert stream_draws(synth._rekey(rng, seed, purpose, a, b)) == \
            stream_draws(rng_stream(seed, purpose, a, b))

    @pytest.mark.parametrize("seed,a,b", EDGE_KEYS)
    def test_stream_left_mid_buffer_is_reset(self, seed, a, b):
        rng = synth._rekey(np.random.Generator(np.random.Philox(0)), 5, synth._P_LABELS, 1, 2)
        rng.random(dtype=np.float32)  # one 32-bit draw keeps half a word and three words
        state = rng.bit_generator.state
        assert state["buffer_pos"] == 1 and state["has_uint32"] == 1
        want = stream_draws(rng_stream(seed, synth._P_CONFIG_PREDS, a, b))
        assert stream_draws(synth._rekey(rng, seed, synth._P_CONFIG_PREDS, a, b)) == want

    def test_one_state_dict_serves_every_stream(self):
        # a dict updated in place for each stream, as generate_repo keys its streams,
        # even after a stream left mid-buffer
        rng, state = np.random.Generator(np.random.Philox(0)), synth._philox_state()
        for purpose in PURPOSES:
            for seed, a, b in EDGE_KEYS:
                assert stream_draws(synth._rekey(rng, seed, purpose, a, b, state)) == \
                    stream_draws(rng_stream(seed, purpose, a, b))
                rng.random(dtype=np.float32)

    @pytest.mark.parametrize("purpose,a,b", [(2**16, 0, 0), (-1, 0, 0), (0, 2**24, 0),
                                             (0, 0, 2**24), (0, -1, 0), (0, 0, -1)])
    def test_out_of_range_id_raises(self, purpose, a, b):
        rng = np.random.Generator(np.random.Philox(0))
        for stream in (lambda: rng_stream(0, purpose, a, b),
                       lambda: synth._rekey(rng, 0, purpose, a, b)):
            with pytest.raises(ValueError, match="^stream id out of range: "):
                stream()

    @pytest.mark.parametrize("block", [1, 3])
    def test_config_blocks_do_not_change_values(self, block, monkeypatch):
        spec = uneven_bag_spec()
        want = generate_repo(spec)
        monkeypatch.setattr(synth, "CONFIG_BLOCK", block)
        got = generate_repo(spec)
        assert got._preds.tobytes() == want._preds.tobytes()
        assert got.eval_table.tobytes() == want.eval_table.tobytes()

    def test_one_bit_generator_per_generate_call(self, monkeypatch):
        built = []
        philox = np.random.Philox

        def counted(*args, **kwargs):
            built.append(args)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counted)
        for count in (1, 3, 30):
            built.clear()
            generate_repo(small_spec(families=(FamilySpec("gbm", count, 0.85, 0.5, 0.3),
                                               FamilySpec("mlp", 3, 0.6, 0.8, 0.2))))
            assert len(built) == 1

    def test_one_state_dict_per_generate_call(self, monkeypatch):
        # each call keys its streams through a dict of its own, so concurrent
        # calls never share one
        made = []
        philox_state = synth._philox_state

        def counted():
            made.append(philox_state())
            return made[-1]

        monkeypatch.setattr(synth, "_philox_state", counted)
        spec = small_spec()
        want = generate_repo(spec)
        generate_repo(spec)
        assert len(made) == 2 and made[0] is not made[1]
        made.clear()
        with ThreadPoolExecutor(2) as pool:
            repos = list(pool.map(generate_repo, [spec] * 4))
        assert len(made) == 4
        for repo in repos:
            assert repo._preds.tobytes() == want._preds.tobytes()


def per_config_reference(spec: GeneratorSpec, repo, t: int):
    """Task ``t``'s val and test slabs and fit times, drawn config by config.

    The per-config form of the generator: one stream per config, each bag
    fold drawing its validation segment's noise and then its test noise, the
    scalar ``_link`` per matrix and ``aggregate_bag_predictions`` for the bag
    mean.
    """
    task = repo.tasks[t]
    z_val = synth._truth_logits(task.problem, repo.labels(t, VAL), task.o)
    z_test = synth._truth_logits(task.problem, repo.labels(t, TEST), task.o)
    fam_noise, sigma, time_base = [], [], []
    for fi, fam in enumerate(spec.families):
        fam_rng = rng_stream(spec.seed, synth._P_FAMILY_NOISE, a=t, b=fi)
        fam_noise.append((fam_rng.standard_normal(z_val.shape),
                          fam_rng.standard_normal(z_test.shape)))
        props = rng_stream(spec.seed, synth._P_CONFIG_PROPS, a=fi)
        mult = np.exp(synth.CONFIG_NOISE_SPREAD * props.standard_normal(fam.count))
        mult[0] = 1.0
        sigma += [fam.noise * float(m) for m in mult]
        const_rng = rng_stream(spec.seed, synth._P_FAMILY_CONST, a=fi)
        time_base += [float(np.exp(const_rng.uniform(np.log(2.0), np.log(300.0))))] * fam.count
    family = [fi for fi, fam in enumerate(spec.families) for _ in range(fam.count)]

    vals, tests, fit = [], [], []
    for j, fi in enumerate(family):
        fam = spec.families[fi]
        e_fam_val, e_fam_test = fam_noise[fi]
        w_shared, w_own = np.sqrt(fam.rho), np.sqrt(1.0 - fam.rho)
        pred_rng = rng_stream(spec.seed, synth._P_CONFIG_PREDS, a=t, b=j)
        val_logits = np.empty_like(z_val)
        bag_tests = []
        start = 0
        for size in synth._segment_sizes(task.n_val, spec.bag_folds):
            seg = slice(start, start + size)
            e_own = pred_rng.standard_normal((size, task.o))
            val_logits[seg] = (fam.skill * z_val[seg]
                               + sigma[j] * (w_shared * e_fam_val[seg] + w_own * e_own))
            e_test = pred_rng.standard_normal(z_test.shape)
            bag_tests.append(synth._link(task.problem, fam.skill * z_test
                                         + sigma[j] * (w_shared * e_fam_test + w_own * e_test)))
            start += size
        vals.append(synth._link(task.problem, val_logits).astype("<f4"))
        tests.append(aggregate_bag_predictions(bag_tests).astype("<f4"))
        time_rng = rng_stream(spec.seed, synth._P_TIMES, a=t, b=j)
        if j == 0:
            fit.append(float(time_rng.uniform(*synth.FALLBACK_FIT_RANGE)))
        else:
            fit.append(time_base[j] * float(np.exp(synth.FIT_TIME_SPREAD * time_rng.standard_normal())))
    return np.stack(vals), np.stack(tests), np.array(fit)


class TestByteContract:
    @pytest.mark.parametrize("key", list(PINNED_STORE_DIGESTS), ids=str)
    def test_store_files_match_pinned_digests(self, key, tmp_path):
        spec = uneven_bag_spec() if key == "uneven-bags" else small_spec(seed=key)
        write_repo(generate_repo(spec), tmp_path)
        got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in PINNED_STORE_DIGESTS[key]}
        assert got == PINNED_STORE_DIGESTS[key]

    @pytest.mark.parametrize("problem", list(ProblemType))
    def test_slabs_match_per_config_reference(self, problem):
        spec = uneven_bag_spec()
        repo = generate_repo(spec)
        for t, task in enumerate(repo.tasks):
            if task.problem is not problem:
                continue
            val, test, fit = per_config_reference(spec, repo, t)
            assert repo.task_predictions(t, VAL).tobytes() == val.tobytes()
            assert repo.task_predictions(t, TEST).tobytes() == test.tobytes()
            assert repo.eval_table[t, :, 2].tobytes() == fit.tobytes()
            for j in range(repo.n_configs):
                for split, slab in ((VAL, val), (TEST, test)):
                    assert repo.eval_table[t, j, split] == task_loss(task, slab[j], repo.labels(t, split))
            break
        else:
            pytest.fail(f"no {problem.value} task in the spec")


WIDE_CLASS_DIGESTS = {
    "manifest.json": "63cb04a4f09f02c36e5d358487c731144d4e973fd77caeec195cc3cc081fe361",
    "labels.bin": "8f8c85fda16fc90921bd5b8e9a7c364a294b59a9647e114b4abdf002935207d2",
    "evals.bin": "89f7a52a9a4194ba7812bbf102a6f5b581e40064bee4684add12024ca7625cf9",
    "preds.idx": "27139c55995804a8448796e3d2ff2c4963a281035fc7f05940e3ddf75d8b31e4",
    "preds.blob": "a30ddafc9e5540da1c81d128d4a600bc1bbef8325b4553530b2feaddcbe3dca1",
}


def softmax_reference(logits: np.ndarray) -> np.ndarray:
    """The softmax with numpy's own reductions over the class axis."""
    shifted = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return shifted / shifted.sum(axis=-1, keepdims=True)


class TestSoftmaxByClassColumns:
    """``_link``'s softmax, taken one class column at a time, has the bits of
    :func:`softmax_reference` at every width."""

    def test_wide_class_store_matches_pinned_digests(self, tmp_path):
        # tasks of 10, 13 and 19 classes: the sums go through numpy's own reduction
        spec = small_spec(seed=0, problem_mix={"binary": 0.25, "multiclass": 0.5,
                                               "regression": 0.25},
                          multiclass_classes=(8, 20))
        write_repo(generate_repo(spec), tmp_path)
        got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in WIDE_CLASS_DIGESTS}
        assert got == WIDE_CLASS_DIGESTS

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 20), st.integers(1, 6), st.integers(1, 8),
           st.lists(st.sampled_from([0.0, -0.0, 3.0, -3.0, 1e-300, 700.0, -745.0])
                    | st.floats(-50.0, 50.0), min_size=1, max_size=8),
           st.integers(0, 2**32 - 1))
    def test_bits_of_the_reference(self, o, k, n, values, seed):
        # a few values laid out at random as a (configs, rows, o) block: ties,
        # signed zeros and negative logits
        logits = np.random.default_rng(seed).choice(np.array(values), (k, n, o))
        got = synth._link(ProblemType.MULTICLASS, logits)
        assert got.tobytes() == softmax_reference(logits).tobytes()

    @pytest.mark.parametrize("o", range(1, 21))
    def test_bits_of_the_reference_on_generator_logits(self, o):
        rng = np.random.default_rng(o)
        y = rng.integers(0, o, 60)
        logits = (0.6 * synth._truth_logits(ProblemType.MULTICLASS, y, o)
                  + rng.uniform(0.3, 3.0, (30, 1, 1)) * rng.standard_normal((30, 60, o)))
        got = synth._link(ProblemType.MULTICLASS, logits)
        assert got.tobytes() == softmax_reference(logits).tobytes()
        assert np.shares_memory(got, logits) is False


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
