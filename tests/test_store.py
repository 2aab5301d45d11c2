from __future__ import annotations

import functools
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import textwrap
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import predrepo

from predrepo import (
    ConfigMeta,
    ProblemType,
    Repository,
    StoreError,
    TaskMeta,
    generate_repo,
    open_repo,
    validate_repo,
    write_repo,
)
from predrepo.store import _INDEX_DTYPE, TEST, VAL

from conftest import make_handmade_repo, rebuild_repo, repo_arrays, small_spec

FILES = ("manifest.json", "labels.bin", "evals.bin", "preds.idx", "preds.blob")


def read_all(path):
    return {name: (path / name).read_bytes() for name in FILES}


def one_cell_repo(n_val=2, n_test=3):
    task = TaskMeta("d", 0, ProblemType.REGRESSION, n_val=n_val, n_test=n_test, o=1)
    config = ConfigMeta("only", "fam", is_default=True)
    rng = np.random.default_rng(0)
    val = rng.standard_normal((1, n_val, 1)).astype(np.float32)
    test = rng.standard_normal((1, n_test, 1)).astype(np.float32)
    y_val = rng.standard_normal(n_val)
    y_test = rng.standard_normal(n_test)
    from predrepo import task_loss

    evals = np.array([[[task_loss(task, val[0], y_val),
                        task_loss(task, test[0], y_test), 1.0, 0.001]]])
    return Repository.in_memory([task], [config], 1, [(y_val, y_test)], [(val, test)], evals)


class TestWrite:
    def test_files_and_blob_size(self, tmp_path):
        repo = one_cell_repo(n_val=2, n_test=3)
        write_repo(repo, tmp_path / "r")
        for name in FILES:
            assert (tmp_path / "r" / name).exists()
        # header + (n_val + n_test) * o * 4 bytes for the single config
        assert (tmp_path / "r" / "preds.blob").stat().st_size == 8 + (2 + 3) * 1 * 4

    def test_rewrite_is_byte_identical(self, tmp_path, handmade_repo):
        write_repo(handmade_repo, tmp_path / "a")
        write_repo(handmade_repo, tmp_path / "b")
        assert read_all(tmp_path / "a") == read_all(tmp_path / "b")

    def test_write_open_write_round_trip_bytes(self, tmp_path, handmade_repo):
        write_repo(handmade_repo, tmp_path / "a")
        opened = open_repo(tmp_path / "a")
        write_repo(opened, tmp_path / "b")
        assert read_all(tmp_path / "a") == read_all(tmp_path / "b")

    def test_row_stochastic_violation_rejected(self, tmp_path):
        task = TaskMeta("d", 0, ProblemType.MULTICLASS, n_val=2, n_test=2, o=2)
        config = ConfigMeta("c", "f")
        bad = np.array([[0.5, 0.3], [0.5, 0.5]], dtype=np.float32)  # first row sums to 0.8
        good = np.array([[0.5, 0.5], [0.2, 0.8]], dtype=np.float32)
        preds = [(bad[None], good[None])]
        labels = [(np.array([0, 1]), np.array([0, 1]))]
        evals = np.zeros((1, 1, 4))
        repo = Repository.in_memory([task], [config], 1, labels, preds, evals)
        with pytest.raises(StoreError, match="row-stochastic violation"):
            write_repo(repo, tmp_path / "r")


class TestInMemory:
    def test_slab_pair_count_is_checked(self):
        repo = one_cell_repo()
        labels = [(repo.labels(0, VAL), repo.labels(0, TEST))]
        slabs = [(repo.task_predictions(0, VAL), repo.task_predictions(0, TEST))]
        with pytest.raises(StoreError, match="1 label pairs and 0 prediction slab pairs for 1 t"):
            Repository.in_memory(repo.tasks, repo.configs, 1, labels, [], repo.eval_table)
        with pytest.raises(StoreError, match="0 label pairs and 1 prediction slab pairs for 1 t"):
            Repository.in_memory(repo.tasks, repo.configs, 1, [], slabs, repo.eval_table)

    @pytest.mark.parametrize("split, slab, match", [
        (TEST, np.zeros((3, 1)), r"\(3, 1\) != \(1, 3, 1\) at \(task=\('d', 0\), split=1\)"),
        (TEST, np.zeros((1, 2, 2)), r"\(1, 2, 2\) != \(1, 3, 1\) at \(task=\('d', 0\), split=1\)"),
        (VAL, np.zeros((2, 2, 1)), r"\(2, 2, 1\) != \(1, 2, 1\) at \(task=\('d', 0\), split=0\)"),
    ], ids=["one-cell", "wrong-rows", "wrong-configs"])
    def test_bad_slab_is_named(self, split, slab, match):
        repo = one_cell_repo(n_val=2, n_test=3)
        pair = [repo.task_predictions(0, VAL), repo.task_predictions(0, TEST)]
        pair[split] = slab
        labels = [(repo.labels(0, VAL), repo.labels(0, TEST))]
        with pytest.raises(StoreError, match="prediction slab shape " + match):
            Repository.in_memory(repo.tasks, repo.configs, 1, labels, [tuple(pair)],
                                 repo.eval_table)

    @pytest.mark.parametrize("source", ["handmade", "generated", "opened"])
    def test_slabs_rebuild_byte_identical_files(self, tmp_path, source):
        repo = make_handmade_repo() if source == "handmade" else generate_repo(small_spec())
        if source == "opened":  # memory-mapped slabs
            write_repo(repo, tmp_path / "source")
            repo = open_repo(tmp_path / "source")
        labels = [(repo.labels(t, VAL), repo.labels(t, TEST)) for t in range(repo.n_tasks)]
        slabs = [(repo.task_predictions(t, VAL), repo.task_predictions(t, TEST))
                 for t in range(repo.n_tasks)]
        copy = Repository.in_memory(repo.tasks, repo.configs, repo.folds_per_dataset,
                                    labels, slabs, repo.eval_table)
        write_repo(repo, tmp_path / "a")
        write_repo(copy, tmp_path / "b")
        assert read_all(tmp_path / "a") == read_all(tmp_path / "b")

    def test_reads_are_read_only_views(self, handmade_repo):
        a = handmade_repo.predictions(3, 1, TEST)
        assert not a.flags.writeable and not a.flags.owndata
        assert np.shares_memory(a, handmade_repo.predictions(3, 1, TEST))
        y = handmade_repo.labels(0, VAL)  # regression targets
        assert y.dtype == np.float64 and not y.flags.writeable
        assert handmade_repo.labels(2, TEST).dtype == np.int64  # binary class indices


class TestOpen:
    def test_round_trip_matrices_bit_exact(self, tmp_path, handmade_repo):
        write_repo(handmade_repo, tmp_path / "r")
        opened = open_repo(tmp_path / "r")
        for t in range(handmade_repo.n_tasks):
            for j in range(handmade_repo.n_configs):
                for split in (VAL, TEST):
                    a = handmade_repo.predictions(t, j, split)
                    b = opened.predictions(t, j, split)
                    assert a.dtype == b.dtype == np.float32
                    assert np.array_equal(a, b)
        assert np.array_equal(np.asarray(opened.eval_table), handmade_repo.eval_table)
        for t in range(handmade_repo.n_tasks):
            for split in (VAL, TEST):
                assert np.array_equal(opened.labels(t, split), handmade_repo.labels(t, split))

    def test_metadata_round_trip(self, tmp_path, handmade_repo):
        write_repo(handmade_repo, tmp_path / "r")
        opened = open_repo(tmp_path / "r")
        assert opened.tasks == handmade_repo.tasks
        assert opened.configs == handmade_repo.configs
        assert opened.folds_per_dataset == handmade_repo.folds_per_dataset

    def test_truncated_blob(self, tmp_path, handmade_repo):
        write_repo(handmade_repo, tmp_path / "r")
        blob = tmp_path / "r" / "preds.blob"
        blob.write_bytes(blob.read_bytes()[:-10])
        with pytest.raises(StoreError, match="blob shorter than index extent"):
            open_repo(tmp_path / "r")

    def test_blob_longer_than_index_extent(self, tmp_path, handmade_repo):
        write_repo(handmade_repo, tmp_path / "r")
        blob = tmp_path / "r" / "preds.blob"
        size = blob.stat().st_size
        blob.write_bytes(blob.read_bytes() + bytes(1000))
        with pytest.raises(StoreError, match=f"blob longer than index extent: need {size} "
                                             f"bytes, preds.blob has {size + 1000}"):
            open_repo(tmp_path / "r")

    def test_bad_magic(self, tmp_path, handmade_repo):
        write_repo(handmade_repo, tmp_path / "r")
        blob = tmp_path / "r" / "preds.blob"
        data = bytearray(blob.read_bytes())
        data[:4] = b"XXXX"
        blob.write_bytes(bytes(data))
        with pytest.raises(StoreError, match="bad magic"):
            open_repo(tmp_path / "r")

    def test_unsupported_version(self, tmp_path, handmade_repo):
        write_repo(handmade_repo, tmp_path / "r")
        manifest = json.loads((tmp_path / "r" / "manifest.json").read_text())
        manifest["version"] = 999
        (tmp_path / "r" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match="unsupported version"):
            open_repo(tmp_path / "r")

    def test_unsupported_binary_version(self, tmp_path, handmade_repo):
        write_repo(handmade_repo, tmp_path / "r")
        idx = tmp_path / "r" / "preds.idx"
        data = bytearray(idx.read_bytes())
        data[4:8] = np.uint32(999).tobytes()
        idx.write_bytes(bytes(data))
        with pytest.raises(StoreError, match="unsupported version"):
            open_repo(tmp_path / "r")

    def test_missing_file(self, tmp_path, handmade_repo):
        write_repo(handmade_repo, tmp_path / "r")
        (tmp_path / "r" / "evals.bin").unlink()
        with pytest.raises(StoreError, match="missing file"):
            open_repo(tmp_path / "r")

    @pytest.mark.parametrize("field", ["configs", "tasks", "folds_per_dataset",
                                       "label_checksums"])
    def test_missing_manifest_field_is_named(self, tmp_path, handmade_repo, field):
        write_repo(handmade_repo, tmp_path / "r")
        manifest = json.loads((tmp_path / "r" / "manifest.json").read_text())
        del manifest[field]
        (tmp_path / "r" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match=f"missing required field '{field}'"):
            open_repo(tmp_path / "r")

    @pytest.mark.parametrize("field, value", [("problem", "ordinal"), ("n_val", "x"), ("o", 0)])
    def test_malformed_manifest_value_is_named(self, tmp_path, handmade_repo, field, value):
        write_repo(handmade_repo, tmp_path / "r")
        manifest = json.loads((tmp_path / "r" / "manifest.json").read_text())
        assert manifest["tasks"][0]["problem"] == "regression"  # so o=0 is invalid
        manifest["tasks"][0][field] = value
        (tmp_path / "r" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match=rf"task \('reg', 0\): .*'{field}'"):
            open_repo(tmp_path / "r")

    @pytest.mark.parametrize("field, value", [
        ("is_default", "false"), ("is_default", 1), ("config_id", 5),
        ("family", None), ("hyperparams", ["x"])])
    def test_malformed_config_value_is_named(self, tmp_path, handmade_repo, field, value):
        write_repo(handmade_repo, tmp_path / "r")
        manifest = json.loads((tmp_path / "r" / "manifest.json").read_text())
        manifest["configs"][1][field] = value
        (tmp_path / "r" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match=rf"config 1: invalid '{field}' value"):
            open_repo(tmp_path / "r")

    @pytest.mark.parametrize("value", ["x", 2.5, True, None])
    def test_malformed_folds_per_dataset_is_named(self, tmp_path, handmade_repo, value):
        write_repo(handmade_repo, tmp_path / "r")
        manifest = json.loads((tmp_path / "r" / "manifest.json").read_text())
        manifest["folds_per_dataset"] = value
        (tmp_path / "r" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match="invalid 'folds_per_dataset' value"):
            open_repo(tmp_path / "r")

    @pytest.mark.parametrize("field", ["n_val", "n_test", "o", "fold", "n_features"])
    @pytest.mark.parametrize("value", [2**32, 10**12, 2**63, 2**70, -1])
    def test_task_integer_outside_u4_is_named(self, tmp_path, handmade_repo, field, value):
        # preds.idx stores these as <u4; a wider value must not wrap or overflow
        write_repo(handmade_repo, tmp_path / "r")
        manifest = json.loads((tmp_path / "r" / "manifest.json").read_text())
        manifest["tasks"][0][field] = value
        (tmp_path / "r" / "manifest.json").write_text(json.dumps(manifest))
        where = "task 0" if field == "fold" else r"task \('reg', 0\)"
        with pytest.raises(StoreError, match=rf"^manifest.json: {where}: invalid '{field}' "
                                             rf"value {value}$"):
            open_repo(tmp_path / "r")

    @pytest.mark.parametrize("value", [2**32, 2**63, -1])
    def test_folds_per_dataset_outside_u4_is_named(self, tmp_path, handmade_repo, value):
        write_repo(handmade_repo, tmp_path / "r")
        manifest = json.loads((tmp_path / "r" / "manifest.json").read_text())
        manifest["folds_per_dataset"] = value
        (tmp_path / "r" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match=f"invalid 'folds_per_dataset' value {value}$"):
            open_repo(tmp_path / "r")

    def test_largest_u4_shape_reaches_the_index_check(self, tmp_path, handmade_repo):
        write_repo(handmade_repo, tmp_path / "r")
        manifest = json.loads((tmp_path / "r" / "manifest.json").read_text())
        manifest["tasks"][0]["n_val"] = 2**32 - 1
        (tmp_path / "r" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match=r"does not match task \('reg', 0\) "
                                             r"meta \(4294967295, 1\)"):
            open_repo(tmp_path / "r")

    @pytest.mark.parametrize("field, kind", [("tasks", "task"), ("configs", "config")])
    @pytest.mark.parametrize("value", [5, "x", None, ["a"]])
    def test_non_object_manifest_entry_is_named(self, tmp_path, handmade_repo, field, kind,
                                                value):
        write_repo(handmade_repo, tmp_path / "r")
        manifest = json.loads((tmp_path / "r" / "manifest.json").read_text())
        manifest[field][2] = value
        (tmp_path / "r" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StoreError) as err:
            open_repo(tmp_path / "r")
        assert str(err.value) == f"manifest.json: {kind} 2 is not a JSON object"

    @pytest.mark.parametrize("field", ["tasks", "configs", "label_checksums"])
    @pytest.mark.parametrize("value", [{}, {"0": "x"}, 5, "abc", None])
    def test_non_list_manifest_field_is_named(self, tmp_path, handmade_repo, field, value):
        write_repo(handmade_repo, tmp_path / "r")
        manifest = json.loads((tmp_path / "r" / "manifest.json").read_text())
        manifest[field] = value
        (tmp_path / "r" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StoreError) as err:
            open_repo(tmp_path / "r")
        assert str(err.value) == f"manifest.json: invalid {field!r} value {value!r}"

    @pytest.mark.parametrize("value", [5, None, ["x"], {"sha256": "x"}])
    def test_non_string_label_checksum_is_a_manifest_error(self, tmp_path, handmade_repo,
                                                           value):
        write_repo(handmade_repo, tmp_path / "r")
        manifest = json.loads((tmp_path / "r" / "manifest.json").read_text())
        manifest["label_checksums"][3] = value
        (tmp_path / "r" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StoreError) as err:
            open_repo(tmp_path / "r")
        assert str(err.value) == (f"manifest.json: task ('bin', 1): invalid label checksum "
                                  f"{value!r}")

    @pytest.mark.parametrize("manifest", [[], "prediction-repository", 5, None])
    def test_non_object_manifest_is_rejected(self, tmp_path, handmade_repo, manifest):
        write_repo(handmade_repo, tmp_path / "r")
        (tmp_path / "r" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match="not a prediction repository"):
            open_repo(tmp_path / "r")

    def test_shifted_index_offset_rejected(self, tmp_path, handmade_repo):
        write_repo(handmade_repo, tmp_path / "r")
        idx = tmp_path / "r" / "preds.idx"
        records = np.frombuffer(idx.read_bytes(), dtype=np.uint8, offset=8).view(_INDEX_DTYPE).copy()
        records[5]["offset"] += 4  # task 0, config 2, test: inside preds.blob, but misplaced
        idx.write_bytes(idx.read_bytes()[:8] + records.tobytes())
        with pytest.raises(StoreError, match=r"offset 236 .*\('reg', 0\).*beta-default.*232"):
            open_repo(tmp_path / "r")

    def test_flipped_label_byte_rejected(self, tmp_path, handmade_repo):
        write_repo(handmade_repo, tmp_path / "r")
        labels = tmp_path / "r" / "labels.bin"
        data = bytearray(labels.read_bytes())
        data[-1] ^= 0x01  # last byte of the last task's test labels
        labels.write_bytes(bytes(data))
        with pytest.raises(StoreError, match=r"label checksum mismatch .*\('mc', 1\)"):
            open_repo(tmp_path / "r")

    @pytest.mark.parametrize("t, j, field, value", [
        (3, 1, 0, np.nan), (0, 2, 1, -5.0), (5, 0, 2, np.inf)])
    def test_invalid_evals_entry_rejected(self, tmp_path, handmade_repo, t, j, field, value):
        write_repo(handmade_repo, tmp_path / "r")
        evals = tmp_path / "r" / "evals.bin"
        data = bytearray(evals.read_bytes())
        at = 8 + ((t * handmade_repo.n_configs + j) * 4 + field) * 8
        data[at:at + 8] = np.float64(value).tobytes()
        evals.write_bytes(bytes(data))
        cell = f"(task={handmade_repo.tasks[t].key}, config={handmade_repo.configs[j].config_id})"
        with pytest.raises(StoreError) as err:
            open_repo(tmp_path / "r")
        assert str(err.value) == f"invalid evaluation record at {cell}"

    def test_label_checksum_count_checked(self, tmp_path, handmade_repo):
        write_repo(handmade_repo, tmp_path / "r")
        manifest = json.loads((tmp_path / "r" / "manifest.json").read_text())
        manifest["label_checksums"].pop()
        (tmp_path / "r" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match="label checksums"):
            open_repo(tmp_path / "r")

    def test_open_is_lazy_and_reads_exact_extents(self, tmp_path, handmade_repo):
        write_repo(handmade_repo, tmp_path / "r")
        opened = open_repo(tmp_path / "r")
        assert opened.prediction_bytes_read == 0
        m = opened.predictions(2, 1, VAL)
        assert opened.prediction_bytes_read == m.nbytes
        opened.predictions(0, 0, TEST)
        assert opened.prediction_bytes_read == m.nbytes + 10 * 1 * 4


    def test_rewrite_onto_opened_directory(self, tmp_path, handmade_repo):
        # runs in a child process: truncating a mapped blob kills it with SIGBUS
        write_repo(handmade_repo, tmp_path / "r")
        before = read_all(tmp_path / "r")
        script = textwrap.dedent("""
            import sys
            import numpy as np
            from predrepo import open_repo, write_repo
            repo = open_repo(sys.argv[1])
            view = repo.predictions(5, 2, 1)
            old = view.copy()
            write_repo(repo, sys.argv[1])
            assert np.array_equal(view, old)
            assert np.array_equal(open_repo(sys.argv[1]).predictions(5, 2, 1), old)
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(predrepo.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "r")],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert read_all(tmp_path / "r") == before
        assert sorted(p.name for p in (tmp_path / "r").iterdir()) == sorted(FILES)


class TestManifestConfigs:
    @pytest.mark.parametrize("field", ["is_default", "family", "config_id"])
    def test_missing_config_field_names_the_config(self, tmp_path, handmade_repo, field):
        write_repo(handmade_repo, tmp_path / "r")
        manifest = json.loads((tmp_path / "r" / "manifest.json").read_text())
        del manifest["configs"][2][field]
        (tmp_path / "r" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StoreError) as err:
            open_repo(tmp_path / "r")
        assert str(err.value) == f"manifest.json is missing required field '{field}' in config 2"

    def test_duplicate_config_id_is_named(self, tmp_path, handmade_repo):
        write_repo(handmade_repo, tmp_path / "r")
        manifest = json.loads((tmp_path / "r" / "manifest.json").read_text())
        manifest["configs"][2]["config_id"] = "alpha-001"
        (tmp_path / "r" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StoreError) as err:
            open_repo(tmp_path / "r")
        assert str(err.value) == "duplicate config_id 'alpha-001' in config list"
        configs = [*handmade_repo.configs, ConfigMeta("alpha-default", "gamma")]
        with pytest.raises(StoreError, match="^duplicate config_id 'alpha-default' in config"):
            Repository(handmade_repo.tasks, configs, 2, handmade_repo._labels,
                       handmade_repo._preds, np.zeros((6, 4, 4)))


def with_val_labels(repo, t, values):
    """``repo`` with the first val labels of task ``t`` replaced by ``values``, as float64."""
    labels, preds, evals = repo_arrays(repo)
    y_val = labels[t][0].astype(np.float64)
    y_val[:len(values)] = values
    labels[t] = (y_val, labels[t][1])
    return rebuild_repo(repo, labels, preds, evals)


def write_unchecked(repo, path):
    """Write ``repo`` as a store whose labels.bin holds its labels unchecked, with
    label checksums that hold."""
    write_repo(make_handmade_repo(), path)
    header = (path / "labels.bin").read_bytes()[:8]
    (path / "labels.bin").write_bytes(header + repo._labels.astype("<f8").tobytes())
    manifest = json.loads((path / "manifest.json").read_text())
    ends = np.cumsum([task.n_val + task.n_test for task in repo.tasks]).tolist()
    manifest["label_checksums"] = [hashlib.sha256(repo._labels[a:b]).hexdigest()
                                   for a, b in zip([0, *ends], ends)]
    (path / "manifest.json").write_text(json.dumps(manifest))


# (task, first val labels, message): regression task ('reg', 0), binary task ('bin', 0)
# and multiclass task ('mc', 0), o=3
BAD_LABELS = [
    (0, [0.5, np.nan], "non-finite label for task ('reg', 0)"),
    (2, [0, 1, np.inf, 0.6], "non-finite label for task ('bin', 0)"),
    (2, [0, 1, 0.6, 1], "labels of task ('bin', 0) are not class indices in [0, 2)"),
    (2, [0, 2, 1, 0], "labels of task ('bin', 0) are not class indices in [0, 2)"),
    (2, [0, 1, -1, 1], "labels of task ('bin', 0) are not class indices in [0, 2)"),
    (4, [0, 2.9, -0.5], "labels of task ('mc', 0) are not class indices in [0, 3)"),
    (4, [0, 3, 1], "labels of task ('mc', 0) are not class indices in [0, 3)"),
]


class TestClassLabels:
    """A classification label must be a class index; the int64 read would truncate it."""

    @pytest.mark.parametrize("t, values, message", BAD_LABELS)
    def test_write_rejects_and_writes_nothing(self, tmp_path, t, values, message):
        bad = with_val_labels(make_handmade_repo(), t, values)
        with pytest.raises(StoreError) as err:
            write_repo(bad, tmp_path / "r")
        assert str(err.value) == message
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("t, values, message", BAD_LABELS)
    def test_open_rejects(self, tmp_path, t, values, message):
        write_unchecked(with_val_labels(make_handmade_repo(), t, values), tmp_path / "r")
        with pytest.raises(StoreError) as err:
            open_repo(tmp_path / "r")
        assert str(err.value) == message

    def test_cli_exits_2(self, tmp_path, capsys):
        from predrepo.cli import main

        write_unchecked(with_val_labels(make_handmade_repo(), *BAD_LABELS[0][:2]), tmp_path / "r")
        assert main(["validate", "--repo", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == f"error: {BAD_LABELS[0][2]}\n"

    @pytest.mark.parametrize("t, values, message", BAD_LABELS)
    def test_validate_reports_first(self, t, values, message):
        repo = make_handmade_repo()
        labels, preds, evals = repo_arrays(repo)
        preds[t][VAL][0][0, 0] = np.nan
        report = validate_repo(with_val_labels(rebuild_repo(repo, labels, preds, evals), t,
                                               values))
        assert report[0] == message  # before every message about the task's configs
        assert f"non-finite prediction at (task={repo.tasks[t].key}, config=alpha-default, " \
               f"split=0)" in report
        assert all(str(repo.tasks[t].key) in r for r in report)

    def test_integral_floats_and_regression_targets_pass(self, tmp_path):
        repo = with_val_labels(make_handmade_repo(), 4, [0.0, 2.0, 1.0])
        repo = with_val_labels(repo, 0, [-0.5, 2.9, 1e9])  # regression: any finite target
        assert not any("class indices" in r for r in validate_repo(repo))
        write_repo(repo, tmp_path / "r")
        assert open_repo(tmp_path / "r").labels(4, VAL)[:3].tolist() == [0, 2, 1]


@functools.lru_cache(maxsize=1)
def pristine_files() -> dict[str, bytes]:
    with tempfile.TemporaryDirectory() as d:
        write_repo(make_handmade_repo(), Path(d))
        return read_all(Path(d))


def open_altered(name: str, data: bytes):
    """Open a copy of the pristine store whose file ``name`` holds ``data``."""
    with tempfile.TemporaryDirectory() as d:
        for n, content in pristine_files().items():
            (Path(d) / n).write_bytes(data if n == name else content)
        repo = open_repo(d)
        return [repo.predictions(t, j, s).tobytes()
                for t in range(repo.n_tasks) for j in range(repo.n_configs) for s in (VAL, TEST)]


class TestFuzz:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_flipped_index_bit_rejected_unless_pad(self, data):
        idx = bytearray(pristine_files()["preds.idx"])
        pos = data.draw(st.integers(0, len(idx) - 1), label="byte")
        idx[pos] ^= 1 << data.draw(st.integers(0, 7), label="bit")
        if pos >= 8 and (pos - 8) % _INDEX_DTYPE.itemsize in (9, 10, 11):  # pad bytes
            assert open_altered("preds.idx", bytes(idx)) == open_altered(
                "preds.idx", pristine_files()["preds.idx"])
        else:
            with pytest.raises(StoreError):
                open_altered("preds.idx", bytes(idx))

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(FILES), st.data())
    def test_truncated_file_rejected(self, name, data):
        content = pristine_files()[name]
        if name == "manifest.json":
            content = content.rstrip()  # trailing whitespace is not part of the JSON text
        length = data.draw(st.integers(0, len(content) - 1), label="length")
        with pytest.raises(StoreError):
            open_altered(name, content[:length])


class TestAccess:
    def test_predict_val_and_test_shapes(self, handmade_repo):
        m = handmade_repo.predict_val("mc", 1, "alpha-001")
        assert m.shape == (12, 3)
        m = handmade_repo.predict_test("reg", 0, "alpha-default")
        assert m.shape == (10, 1)
        assert not m.flags.writeable

    def test_task_predictions_is_a_read_only_view_of_every_cell(self, tmp_path, handmade_repo):
        write_repo(handmade_repo, tmp_path / "r")
        for repo in (handmade_repo, open_repo(tmp_path / "r")):
            for t, task in enumerate(repo.tasks):
                for split, rows in ((VAL, task.n_val), (TEST, task.n_test)):
                    before = repo.prediction_bytes_read
                    slab = repo.task_predictions(task.key, split)
                    assert slab.shape == (repo.n_configs, rows, task.o)
                    assert slab.dtype == np.float32 and not slab.flags.writeable
                    assert repo.prediction_bytes_read == before + slab.nbytes
                    for j in range(repo.n_configs):
                        cell = repo.predictions(t, j, split)
                        assert np.shares_memory(slab[j], cell)
                        assert np.array_equal(slab[j], cell)
        with pytest.raises(ValueError, match="split must be"):
            handmade_repo.task_predictions(0, 2)

    @pytest.mark.parametrize("configs", [
        [2, 0, 2], range(3), (1,), [0, "beta-default", 1], [np.int64(2), 0], [True, 2],
        [False, True], [np.int64(1), np.int32(1)], [-1, 0], [0, 3], [3], [0, np.int64(3)],
        ["nope", 1], [2, 1, -4],
    ])
    def test_config_ordinals_all_int_path_matches_the_walk(self, handmade_repo, configs):
        # in-range plain ints take a shortcut; it must agree with resolving each entry
        repo = handmade_repo
        assert repo.n_configs == 3
        try:
            want = sorted({repo.config_index(c) for c in configs})
        except KeyError as e:
            with pytest.raises(KeyError) as got:
                repo.config_ordinals(configs)
            assert str(got.value) == str(e)
        else:
            got = repo.config_ordinals(configs)
            assert got == want and all(type(j) is int for j in got)

    def test_regression_single_column(self, handmade_repo):
        assert handmade_repo.predict_val("reg", 1, "beta-default").shape[1] == 1

    def test_unknown_ids(self, handmade_repo):
        with pytest.raises(KeyError, match="unknown config"):
            handmade_repo.predict_val("reg", 0, "xyz")
        with pytest.raises(KeyError, match="unknown task"):
            handmade_repo.predict_val("nope", 0, "alpha-001")

    def test_concurrent_reads_identical(self, tmp_path, handmade_repo):
        write_repo(handmade_repo, tmp_path / "r")
        opened = open_repo(tmp_path / "r")
        cells = [(t, j, s) for t in range(6) for j in range(3) for s in (VAL, TEST)]
        jobs = cells * 4  # repeat to force identical-cell concurrency

        def read(cell):
            return cell, opened.predictions(*cell).tobytes()

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(read, jobs))
        expected = {cell: handmade_repo.predictions(*cell).tobytes() for cell in cells}
        for cell, data in results:
            assert data == expected[cell]


class TestValidate:
    def test_clean_repo_empty_report(self, handmade_repo):
        assert validate_repo(handmade_repo) == []

    def test_generated_repo_empty_report(self, synth_repo):
        assert validate_repo(synth_repo) == []

    def test_perturbed_loss_is_named(self):
        repo = make_handmade_repo()
        repo.eval_table[3, 1, 0] += 1e-2
        report = validate_repo(repo)
        assert len(report) == 1
        assert "loss_val mismatch" in report[0]
        assert "('bin', 1)" in report[0] and "alpha-001" in report[0]

    def test_nan_prediction_is_named(self):
        repo = make_handmade_repo()
        labels, preds, evals = repo_arrays(repo)
        arr = preds[0][VAL][2]
        arr[0, 0] = np.nan
        repo = rebuild_repo(repo, labels, preds, evals)
        report = validate_repo(repo)
        assert any("non-finite" in r and "beta-default" in r for r in report)

    def test_invalid_eval_record_is_named(self, tmp_path):
        repo = make_handmade_repo()
        repo.eval_table[3, 1, 0] = -5.0  # would also be a loss mismatch if it were compared
        repo.eval_table[0, 2, 2] = np.inf
        assert validate_repo(repo) == [
            "invalid evaluation record at (task=('reg', 0), config=beta-default)",
            "invalid evaluation record at (task=('bin', 1), config=alpha-001)",
        ]
        with pytest.raises(StoreError) as err:
            write_repo(repo, tmp_path / "r")
        assert str(err.value) == "invalid evaluation record at (task=('reg', 0), config=beta-default)"

    def test_small_loss_drift_within_tolerance_passes(self):
        repo = make_handmade_repo()
        repo.eval_table[0, 0, 0] += 1e-8
        assert validate_repo(repo) == []


class TestCharacterization:
    """Exact reports of ``validate_repo`` and ``write_repo`` on repositories with several defects."""

    def test_many_defects(self, tmp_path):
        repo = make_handmade_repo()
        labels, preds, evals = repo_arrays(repo)
        preds[0][VAL][1][3, 0] = np.nan  # regression val cell
        preds[4][TEST][2][1] *= 0.9  # multiclass row sums to 0.9
        preds[3][VAL][0][5, 0] = 1.5  # binary score above 1
        preds[5][VAL][0][0] = [np.inf, 2.0, -1.0]  # non-finite and out of range
        preds[5][TEST][0][2] = [-0.1, 0.6, 0.5]  # sums to 1, one entry below 0
        evals[1, 2, 0] += 1e-2
        bad = rebuild_repo(repo, labels, preds, evals)
        assert validate_repo(bad) == [
            "non-finite prediction at (task=('reg', 0), config=alpha-001, split=0)",
            "loss_val mismatch at (task=('reg', 1), config=beta-default): "
            "stored=1.4404657400173253, recomputed=1.4304657400173253",
            "row-stochastic violation at (task=('bin', 1), config=alpha-default, split=0)",
            "row-stochastic violation at (task=('mc', 0), config=beta-default, split=1)",
            "non-finite prediction at (task=('mc', 1), config=alpha-default, split=0)",
            "row-stochastic violation at (task=('mc', 1), config=alpha-default, split=1)",
        ]
        with pytest.raises(StoreError) as err:
            write_repo(bad, tmp_path / "r")
        assert str(err.value) == "non-finite prediction at (task=('reg', 0), config=alpha-001, split=0)"
        assert not (tmp_path / "r").exists()

    def test_single_class_binary_labels(self):
        repo = make_handmade_repo()
        labels, preds, evals = repo_arrays(repo)
        labels[2][0][:] = 0  # task ('bin', 0): every val label is class 0
        preds[2][TEST][1][0, 0] = np.nan
        bad = rebuild_repo(repo, labels, preds, evals)
        single = "AUC undefined: labels contain a single class"
        assert validate_repo(bad) == [
            f"loss recomputation failed at (task=('bin', 0), config=alpha-default): {single}",
            "non-finite prediction at (task=('bin', 0), config=alpha-001, split=1)",
            f"loss recomputation failed at (task=('bin', 0), config=beta-default): {single}",
        ]
