from __future__ import annotations

import functools
import gc
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import textwrap
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
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
from predrepo import metrics, store
from predrepo.store import _INDEX_DTYPE, STORE_FILES, TEST, VAL

from conftest import (
    EDGE_SUMS,
    EDGE_SUMS_F32,
    at_sum,
    full_sum_off,
    make_handmade_repo,
    rebuild_repo,
    repo_arrays,
    small_spec,
    ulps_around,
)


def read_all(path):
    return {name: (path / name).read_bytes() for name in STORE_FILES}


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
        for name in STORE_FILES:
            assert (tmp_path / "r" / name).exists()
        # header + (n_val + n_test) * o * 4 bytes for the single config
        assert (tmp_path / "r" / "preds.blob").stat().st_size == 8 + (2 + 3) * 1 * 4

    def test_leaves_exactly_the_store_files(self, tmp_path, handmade_repo):
        (tmp_path / "r").mkdir()
        write_repo(handmade_repo, tmp_path / "r")
        assert sorted(p.name for p in (tmp_path / "r").iterdir()) == sorted(STORE_FILES)

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

    @pytest.mark.parametrize("name, itemsize", [("labels.bin", 8), ("evals.bin", 8),
                                                ("preds.idx", 4), ("preds.blob", 4)])
    @pytest.mark.parametrize("side", ["shorter", "longer"])
    def test_wrong_size_has_one_message_for_every_binary_file(self, tmp_path, handmade_repo,
                                                              name, itemsize, side):
        # shorter drops the last value; longer appends one byte
        write_repo(handmade_repo, tmp_path / "r")
        path = tmp_path / "r" / name
        size = path.stat().st_size
        data = path.read_bytes()
        path.write_bytes(data[:-itemsize] if side == "shorter" else data + b"\0")
        has = size - itemsize if side == "shorter" else size + 1
        with pytest.raises(StoreError) as err:
            open_repo(tmp_path / "r")
        assert str(err.value) == (f"{name} {side} than index extent: need {size} bytes, "
                                  f"{name} has {has}")

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

    @pytest.mark.parametrize("version", [True, 1.0, "1"])
    def test_version_must_be_a_json_integer(self, tmp_path, handmade_repo, version):
        # true and 1.0 compare equal to 1 in Python, but are not the integer 1
        write_repo(handmade_repo, tmp_path / "r")
        manifest = json.loads((tmp_path / "r" / "manifest.json").read_text())
        manifest["version"] = version
        (tmp_path / "r" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StoreError) as err:
            open_repo(tmp_path / "r")
        assert str(err.value) == f"unsupported version {version} in manifest.json"

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

    @pytest.mark.parametrize("name", STORE_FILES)
    def test_directory_in_place_of_a_file_is_named(self, tmp_path, handmade_repo, name):
        write_repo(handmade_repo, tmp_path / "r")
        (tmp_path / "r" / name).unlink()
        (tmp_path / "r" / name).mkdir()
        with pytest.raises(StoreError) as err:
            open_repo(tmp_path / "r")
        assert str(err.value) == f"{name} is a directory"

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
        assert sorted(p.name for p in (tmp_path / "r").iterdir()) == sorted(STORE_FILES)

    def test_views_keep_their_values_when_every_file_is_replaced(self, tmp_path):
        # the new store has the old one's shapes: a rewrite in place would
        # show the new values in the old views, not fault on a shorter file
        old, new = make_handmade_repo(seed=0), make_handmade_repo(seed=1)
        write_repo(old, tmp_path / "r")
        opened = open_repo(tmp_path / "r")
        views = [opened.predictions(5, 2, TEST), opened.task_predictions(1, VAL),
                 opened.labels(0, VAL), opened.eval_table]  # task 0 is regression: a view
        before = [v.tobytes() for v in views]
        write_repo(new, tmp_path / "r")
        assert [v.tobytes() for v in views] == before
        reopened = open_repo(tmp_path / "r")
        assert reopened.predictions(5, 2, TEST).tobytes() == new.predictions(5, 2, TEST).tobytes()
        assert reopened.eval_table.tobytes() == new.eval_table.tobytes() != before[3]

    def test_open_leaks_no_descriptor(self, tmp_path, handmade_repo):
        fds = Path("/proc/self/fd")
        if not fds.is_dir():
            pytest.skip("no /proc/self/fd on this system")
        write_repo(handmade_repo, tmp_path / "r")
        write_repo(handmade_repo, tmp_path / "bad")
        (tmp_path / "bad" / "labels.bin").write_bytes(b"TRLB")  # fails after three maps
        gc.collect()  # earlier tests' tracebacks may still hold open maps in reference cycles
        before = len(os.listdir(fds))
        for _ in range(50):
            repo = open_repo(tmp_path / "r")
            repo.predictions(5, 2, TEST)
            del repo
            with pytest.raises(StoreError, match="bad magic in labels.bin"):
                open_repo(tmp_path / "bad")
        assert len(os.listdir(fds)) == before


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

    @pytest.mark.parametrize("faults, error", [
        ({1: {"is_default": 1}, 2: None}, "manifest.json: config 1: invalid 'is_default' value 1"),
        ({2: {"config_id": 5, "family": ...}},
         "manifest.json is missing required field 'family' in config 2"),
        ({0: {"hyperparams": 3, "family": 4}}, "manifest.json: config 0: invalid 'family' value 4"),
        ({1: "x", 2: {"config_id": ...}}, "manifest.json: config 1 is not a JSON object"),
    ])
    def test_first_fault_is_named(self, tmp_path, handmade_repo, faults, error):
        # every config is checked at once; the message names the first config at fault,
        # a missing field before a mistyped one, and fields in manifest order
        write_repo(handmade_repo, tmp_path / "r")
        manifest = json.loads((tmp_path / "r" / "manifest.json").read_text())
        for j, fault in faults.items():
            if not isinstance(fault, dict):
                manifest["configs"][j] = fault
                continue
            for field, value in fault.items():
                if value is ...:
                    del manifest["configs"][j][field]
                else:
                    manifest["configs"][j][field] = value
        (tmp_path / "r" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StoreError) as err:
            open_repo(tmp_path / "r")
        assert str(err.value) == error

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


_text = st.text(st.sampled_from('"\\{},:[]\n\u2028\x00 aé€😀') | st.characters(), max_size=8)
_u4 = st.integers(0, 2**32 - 1)
_manifests = st.fixed_dictionaries({
    "format": _text,
    "version": _u4,
    "folds_per_dataset": _u4,
    "tasks": st.lists(st.fixed_dictionaries({
        "dataset_id": _text, "fold": _u4, "problem": _text, "n_val": _u4, "n_test": _u4,
        "o": _u4, "n_features": _u4}), max_size=3),
    "configs": st.lists(st.fixed_dictionaries({
        "config_id": _text, "family": _text, "is_default": st.booleans(),
        "hyperparams": _text}), max_size=3),
    "label_checksums": st.lists(_text, max_size=3),
})


def bench_workloads():
    """bench/workloads.py of this checkout, or None where it is absent."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    if not path.exists():
        return None
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass resolves annotations through it
    spec.loader.exec_module(module)
    return module.WORKLOADS


class TestManifestText:
    """manifest.json is ``json.dumps(manifest, indent=2)`` built from the C encoder."""

    # not shrunk: a failure is reported on the example found, not after
    # minutes of shrinking its strings
    @settings(max_examples=300, deadline=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
    @given(_manifests)
    @example({"format": "prediction-repository", "version": 1, "folds_per_dataset": 0,
              "tasks": [], "configs": [], "label_checksums": []})
    def test_equals_the_indent_2_dump(self, manifest):
        assert store._manifest_text(manifest) == json.dumps(manifest, indent=2)

    @pytest.mark.parametrize("store_name", ["fig2-800", "sim-fig2", "ablate-wide"])
    def test_written_manifest_is_the_indent_2_dump(self, tmp_path, store_name):
        if store_name == "fig2-800":
            from test_acceptance import fig2_spec
            spec = fig2_spec(800)
        else:
            workloads = bench_workloads()
            if workloads is None:
                pytest.skip("no bench/ in this checkout")
            spec = workloads[store_name].spec(predrepo, 1)
        write_repo(generate_repo(spec), tmp_path)
        written = (tmp_path / "manifest.json").read_bytes()
        manifest = json.loads(written)
        assert written == (json.dumps(manifest, indent=2) + "\n").encode("utf-8")
        assert len(manifest["configs"]) > 1 and len(manifest["tasks"]) > 1


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
    (2, [0] * 12, "labels of task ('bin', 0) hold one class in split 0"),  # every val label
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


def with_split_labels(repo, t, split, value):
    """``repo`` with every label of split ``split`` of task ``t`` set to ``value``."""
    labels, preds, evals = repo_arrays(repo)
    labels[t][split][:] = value
    return rebuild_repo(repo, labels, preds, evals)


class TestOneClassBinarySplits:
    """Each split of a binary task holds both classes, so its AUC is defined.

    BAD_LABELS has a one-class val split; here every test label of task
    ('bin', 1) is 1."""

    MESSAGE = "labels of task ('bin', 1) hold one class in split 1"

    def test_write_rejects_and_writes_nothing(self, tmp_path):
        with pytest.raises(StoreError) as err:
            write_repo(with_split_labels(make_handmade_repo(), 3, TEST, 1), tmp_path / "r")
        assert str(err.value) == self.MESSAGE
        assert not (tmp_path / "r").exists()

    def test_open_rejects(self, tmp_path):
        write_unchecked(with_split_labels(make_handmade_repo(), 3, TEST, 1), tmp_path / "r")
        with pytest.raises(StoreError) as err:
            open_repo(tmp_path / "r")
        assert str(err.value) == self.MESSAGE

    @pytest.mark.parametrize("command", ["validate", "simulate"])
    def test_cli_exits_2(self, tmp_path, capsys, command):
        from predrepo.cli import main

        write_unchecked(with_split_labels(make_handmade_repo(), 3, TEST, 1), tmp_path / "r")
        argv = [command, "--repo", str(tmp_path / "r")]
        if command == "simulate":
            argv += ["--budget-s", "100", "--out", str(tmp_path / "s.csv")]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {self.MESSAGE}\n"

    def test_validate_gives_one_label_line(self):
        repo = make_handmade_repo()
        labels, preds, evals = repo_arrays(repo)
        evals[3, 1, 0] += 1e-2  # a loss mismatch, not reported: no loss is recomputed
        bad = with_split_labels(rebuild_repo(repo, labels, preds, evals), 3, TEST, 1)
        assert validate_repo(bad) == [self.MESSAGE]

    @pytest.mark.parametrize("split, at", [(VAL, -1), (TEST, 0), (TEST, -1)])
    def test_one_label_of_the_other_class_is_enough(self, tmp_path, split, at):
        repo = make_handmade_repo()
        labels, preds, evals = repo_arrays(repo)
        labels[3][split][:] = 1
        labels[3][split][at] = 0  # at either end of the split's run
        write_repo(rebuild_repo(repo, labels, preds, evals), tmp_path / "r")
        assert open_repo(tmp_path / "r").labels(3, split).tolist() == labels[3][split].tolist()

    def test_class_index_message_comes_first(self, tmp_path):
        bad = with_split_labels(make_handmade_repo(), 2, TEST, 1)
        bad = with_val_labels(bad, 2, [0, 0.5])  # and a label that is no class index
        message = "labels of task ('bin', 0) are not class indices in [0, 2)"
        assert validate_repo(bad) == [message]
        with pytest.raises(StoreError) as err:
            write_repo(bad, tmp_path / "r")
        assert str(err.value) == message

    def test_first_split_and_first_task_named(self, tmp_path):
        bad = with_split_labels(with_split_labels(make_handmade_repo(), 3, TEST, 0), 3, VAL, 1)
        bad = with_split_labels(bad, 2, TEST, 0)
        assert validate_repo(bad) == ["labels of task ('bin', 0) hold one class in split 1",
                                      "labels of task ('bin', 1) hold one class in split 0"]
        with pytest.raises(StoreError) as err:
            write_repo(bad, tmp_path / "r")
        assert str(err.value) == "labels of task ('bin', 0) hold one class in split 1"


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
    @given(st.data())
    def test_flipped_manifest_bit_rejected_or_opened(self, data):
        manifest = bytearray(pristine_files()["manifest.json"])
        pos = data.draw(st.integers(0, len(manifest) - 1), label="byte")
        manifest[pos] ^= 1 << data.draw(st.integers(0, 7), label="bit")
        try:
            open_altered("manifest.json", bytes(manifest))
        except StoreError:
            pass

    @pytest.mark.parametrize("length", range(8))
    @pytest.mark.parametrize("name", ["preds.blob", "preds.idx", "evals.bin", "labels.bin"])
    def test_file_shorter_than_its_header_is_bad_magic(self, name, length):
        with pytest.raises(StoreError) as err:
            open_altered(name, pristine_files()[name][:length])
        assert str(err.value) == f"bad magic in {name}: expected {pristine_files()[name][:4]!r}"

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(STORE_FILES), st.data())
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
        # in-range plain ints are their own ordinals; they must agree with resolving each entry
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


def read_api_repo(kind: str, tmp_path) -> Repository:
    """A repository of the given kind: in memory, generated, opened, or bench-shaped."""
    if kind == "handmade":
        return make_handmade_repo()
    if kind == "opened":
        write_repo(make_handmade_repo(), tmp_path / "r")
        return open_repo(tmp_path / "r")
    if kind == "small_spec":
        return generate_repo(small_spec())
    workloads = bench_workloads()
    if workloads is None:
        pytest.skip("no bench/ in this checkout")
    return generate_repo(workloads[kind].spec(predrepo, 1))


# each split value that reads accept, with the split it names
SPLIT_KINDS = [(VAL, VAL), (TEST, TEST), (False, VAL), (True, TEST), (np.int64(1), TEST),
               (np.int32(0), VAL), (0.0, VAL), (1.0, TEST), (np.float64(1.0), TEST)]
SPLIT_ERROR = "split must be 0 (val) or 1 (test)"


class TestReadAPI:
    """What every kind of task, config and split reads, and what a bad one raises."""

    @staticmethod
    def task_kinds(repo, t):
        task = repo.tasks[t]
        kinds = [t, np.int64(t), np.int32(t), task, task.key, (task.dataset_id, np.int64(task.fold)),
                 [task.dataset_id, task.fold]]
        return kinds + [bool(t)] if t < 2 else kinds

    @staticmethod
    def config_kinds(repo, j):
        kinds = [j, np.int64(j), np.uint8(j), repo.configs[j].config_id, repo.configs[j]]
        return kinds + [bool(j)] if j < 2 else kinds

    @pytest.mark.parametrize("kind", ["handmade", "opened"])
    def test_every_task_and_config_kind_reads_its_cell(self, tmp_path, kind):
        repo = read_api_repo(kind, tmp_path)
        for t in range(repo.n_tasks):
            for s in (VAL, TEST):
                want_slab = repo.task_predictions(t, s)
                want_labels = repo.labels(t, s)
                for task in self.task_kinds(repo, t):
                    assert repo.task_index(task) == t and type(repo.task_index(task)) is int
                    assert np.shares_memory(repo.task_predictions(task, s), want_slab)
                    assert np.array_equal(repo.labels(task, s), want_labels)
                    for j in range(repo.n_configs):
                        for config in self.config_kinds(repo, j):
                            cell = repo.predictions(task, config, s)
                            assert cell.shape == want_slab[j].shape
                            assert np.shares_memory(cell, want_slab[j])
                            assert np.array_equal(cell, want_slab[j])
        for j in range(repo.n_configs):
            for config in self.config_kinds(repo, j):
                assert repo.config_index(config) == j and type(repo.config_index(config)) is int

    def test_predict_val_and_predict_test_take_every_task_form(self, handmade_repo):
        repo = handmade_repo
        for t, task in enumerate(repo.tasks):
            for j, config in enumerate(repo.configs):
                for read, s in ((repo.predict_val, VAL), (repo.predict_test, TEST)):
                    want = repo.predictions(t, j, s)
                    for got in (read(task.dataset_id, task.fold, config.config_id),
                                read(task.key, config=j), read(t, config=config),
                                read(task, config=np.int64(j))):
                        assert np.shares_memory(got, want) and np.array_equal(got, want)

    @pytest.mark.parametrize("split, named", SPLIT_KINDS)
    def test_every_split_kind_reads_its_split(self, handmade_repo, split, named):
        repo = handmade_repo
        for t, task in enumerate(repo.tasks):
            rows = task.n_val if named == VAL else task.n_test
            slab = repo.task_predictions(t, split)
            assert slab.shape == (repo.n_configs, rows, task.o)
            assert np.shares_memory(slab, repo.task_predictions(t, named))
            for j in range(repo.n_configs):
                cell = repo.predictions(t, j, split)
                assert cell.shape == (rows, task.o)
                assert np.shares_memory(cell, repo.predictions(t, j, named))

    @pytest.mark.parametrize("split, named", SPLIT_KINDS)
    def test_labels_take_every_split_kind(self, handmade_repo, split, named):
        # a float split once failed here alone, indexing a tuple of row counts
        repo = handmade_repo
        for t in range(repo.n_tasks):
            got, want = repo.labels(t, split), repo.labels(t, named)
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("task, config, error", [
        (6, 0, "task ordinal out of range: 6"),
        (-1, 0, "task ordinal out of range: -1"),
        (np.int64(6), 0, "task ordinal out of range: 6"),
        (("nope", 0), 0, "unknown task: ('nope', 0)"),
        (("reg", 2), 0, "unknown task: ('reg', 2)"),
        (("reg", np.int64(5)), 0, "unknown task: ('reg', 5)"),
        (0, 3, "config ordinal out of range: 3"),
        (0, -1, "config ordinal out of range: -1"),
        (0, np.int64(3), "config ordinal out of range: 3"),
        (0, "xyz", "unknown config: 'xyz'"),
        (0, ConfigMeta("xyz", "alpha"), "unknown config: 'xyz'"),
        (6, "xyz", "task ordinal out of range: 6"),  # the task is resolved first
    ])
    def test_bad_task_or_config_error_texts(self, handmade_repo, task, config, error):
        repo = handmade_repo
        calls = [lambda s: repo.predictions(task, config, s)]
        if config == 0:  # the reads that take no config
            calls += [lambda s: repo.task_predictions(task, s), lambda s: repo.labels(task, s)]
        for call in calls:
            for split in (VAL, TEST, 2):  # a bad task or config outranks a bad split
                with pytest.raises(KeyError) as got:
                    call(split)
                assert got.value.args == (error,)
        assert repo.prediction_bytes_read == 0

    @pytest.mark.parametrize("split", [2, -1, 1.5, "1", None, np.int64(2)])
    def test_bad_split_error_text(self, handmade_repo, split):
        repo = handmade_repo
        for call in (lambda: repo.predictions(0, 0, split), lambda: repo.task_predictions(0, split),
                     lambda: repo.labels(0, split),
                     lambda: repo.predictions(("mc", 1), "beta-default", split)):
            with pytest.raises(ValueError) as got:
                call()
            assert got.value.args == (SPLIT_ERROR,)
        assert repo.prediction_bytes_read == 0

    @pytest.mark.parametrize("kind", ["handmade", "opened"])
    def test_prediction_bytes_read_increments(self, tmp_path, kind):
        repo = read_api_repo(kind, tmp_path)
        total = 0
        assert repo.prediction_bytes_read == 0
        for t, task in enumerate(repo.tasks):
            for s, rows in ((VAL, task.n_val), (TEST, task.n_test)):
                repo.predictions(task.key, 1, s)
                total += rows * task.o * 4
                assert repo.prediction_bytes_read == total
                repo.task_predictions(t, s)
                total += repo.n_configs * rows * task.o * 4
                assert repo.prediction_bytes_read == total
                repo.labels(t, s)  # labels are not prediction bytes
                assert repo.prediction_bytes_read == total

    @pytest.mark.parametrize("kind", ["handmade", "opened", "small_spec", "sim-fig2",
                                      "ablate-wide"])
    def test_every_cell_is_the_offset_arithmetic_view(self, tmp_path, kind):
        repo = read_api_repo(kind, tmp_path)
        preds, labels, M = repo._preds, repo._labels, repo.n_configs
        pred_at = label_at = 0
        for t, task in enumerate(repo.tasks):
            rows_both = task.n_val + task.n_test
            for s, rows, skip in ((VAL, task.n_val, 0), (TEST, task.n_test, task.n_val)):
                y = labels[label_at + skip:label_at + skip + rows]
                got = repo.labels(t, s)
                if task.problem.is_classification:
                    assert got.dtype == np.int64 and np.array_equal(got, y)
                else:
                    assert got.dtype == np.float64 and np.shares_memory(got, labels)
                    assert np.array_equal(got, y)
                slab = repo.task_predictions(t, s)
                assert np.shares_memory(slab, preds)
                for j in range(M):
                    start = pred_at + (j * rows_both + skip) * task.o
                    oracle = preds[start:start + rows * task.o].reshape(rows, task.o)
                    cell = repo.predictions(t, j, s)
                    assert cell.shape == oracle.shape and cell.dtype == np.float32
                    assert np.shares_memory(cell, oracle)
                    assert np.array_equal(cell.view(np.uint32), oracle.view(np.uint32))
                    assert np.array_equal(slab[j].view(np.uint32), oracle.view(np.uint32))
            pred_at += M * rows_both * task.o
            label_at += rows_both
        assert pred_at == preds.size and label_at == labels.size

    def test_fold_must_be_an_integer(self):
        repo = generate_repo(small_spec(folds=3))
        assert ("d000", 2) in {t.key for t in repo.tasks}
        for fold in (2.7, "2", 2.0, np.float64(1.5), None):
            with pytest.raises(KeyError) as got:
                repo.task_index(("d000", fold))
            assert got.value.args == (f"unknown task: {('d000', fold)!r}",)
            with pytest.raises(KeyError):
                repo.predict_val("d000", fold, 0)
        t = repo.task_index(("d000", 2))
        for fold in (np.int64(2), np.int32(2), np.uint8(2)):
            assert repo.task_index(("d000", fold)) == t
            assert np.shares_memory(repo.predict_test("d000", fold, 0), repo.predictions(t, 0, TEST))

    @pytest.mark.parametrize("kind", ["handmade", "small_spec", "opened"])
    def test_reads_cannot_be_written(self, tmp_path, kind):
        repo = read_api_repo(kind, tmp_path)
        regression = [t for t, task in enumerate(repo.tasks)
                      if task.problem is ProblemType.REGRESSION]
        assert regression
        for t in range(repo.n_tasks):
            for s in (VAL, TEST):
                arrays = [repo.predictions(t, 0, s), repo.predictions(t, repo.n_configs - 1, s),
                          repo.task_predictions(t, s), repo.task_predictions(t, s)[0]]
                if t in regression:
                    arrays.append(repo.labels(t, s))
                for a in arrays:
                    assert not a.flags.writeable
                    with pytest.raises(ValueError, match="read-only"):
                        a[...] = 0
                    with pytest.raises(ValueError):
                        a.flags.writeable = True


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

    def test_tolerance_is_relative_to_the_recomputed_loss(self):
        # 1e-6 of the recomputed loss, and 1e-6 absolute below a loss of 1
        repo = make_handmade_repo()
        recomputed = {t: metrics.StackLoss(repo.tasks[t], repo.labels(t, VAL))(
            repo.task_predictions(t, VAL)) for t in (0, 2)}
        assert recomputed[0][1] > 1.0 > recomputed[2][1]
        for t, scale in ((0, recomputed[0][1]), (2, 1.0)):
            repo.eval_table[t, 1, 0] = recomputed[t][1] + 1e-6 * scale * (1 + 1e-7)
            repo.eval_table[t, 2, 0] = recomputed[t][2] - 1e-6 * max(recomputed[t][2], 1.0) * (1 - 1e-7)
        assert [line.split(":")[0] for line in validate_repo(repo)] == [
            "loss_val mismatch at (task=('reg', 0), config=alpha-001)",
            "loss_val mismatch at (task=('bin', 0), config=alpha-001)",
        ]

    def test_checked_cells_are_not_checked_again(self, monkeypatch, handmade_repo, synth_repo):
        # the cell pass has checked every cell whose loss is recomputed
        calls = []
        check = metrics.StackLoss.check
        monkeypatch.setattr(metrics.StackLoss, "check",
                            lambda self, stack: calls.append(stack.shape) or check(self, stack))
        problems = {task.problem for task in (*handmade_repo.tasks, *synth_repo.tasks)}
        assert problems == set(ProblemType)
        assert validate_repo(handmade_repo) == []
        assert validate_repo(synth_repo) == []
        assert calls == []

    def test_checked_labels_are_not_checked_again(self, monkeypatch, handmade_repo, synth_repo):
        # _label_violations has checked the labels of every task whose loss is
        # recomputed: no StackLoss label check runs, and no label is copied to int64
        checked, copied = [], []
        init, labels = metrics.StackLoss.__init__, Repository.labels
        monkeypatch.setattr(metrics.StackLoss, "__init__", lambda self, task, target: (
            checked.append(task.key) or init(self, task, target)))
        monkeypatch.setattr(Repository, "labels", lambda self, task, split: (
            copied.append(task) or labels(self, task, split)))
        problems = {task.problem for task in (*handmade_repo.tasks, *synth_repo.tasks)}
        assert problems == set(ProblemType)
        assert validate_repo(handmade_repo) == []
        assert validate_repo(synth_repo) == []
        assert checked == [] and copied == []
        # built directly, StackLoss keeps every check and its message
        binary, multiclass = handmade_repo.tasks[2], handmade_repo.tasks[4]
        for task, target, message in [
                (binary, [0, 1, 2, 1], "labels must be binary (0 or 1)"),
                (binary, [1, 1, 1, 1], "AUC undefined: labels contain a single class"),
                (binary, [0.0, -0.0], "AUC undefined: labels contain a single class"),
                (multiclass, [0, 3], "label out of range"),
                (multiclass, [-1, 2], "label out of range")]:
            with pytest.raises(ValueError) as err:
                metrics.StackLoss(task, target)
            assert str(err.value) == message
        assert len(checked) == 5


class TestCheckedLabelScorer:
    """``validate_repo``'s scorer, set up from a task's float64 label view with no
    label check, scores each validation slab as the checked construction does."""

    @given(st.integers(0, 2**16), st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_bits_of_the_checked_construction(self, seed, levels):
        repo = generate_repo(small_spec(seed=seed, n_datasets=3))
        labels, preds, evals = repo_arrays(repo)
        rng = np.random.default_rng(seed)
        for t, task in enumerate(repo.tasks):
            if task.problem is ProblemType.BINARY:  # ties, and -0.0 among +0.0
                some = preds[t][VAL][rng.random(repo.n_configs) < 0.5]
                some = np.floor(some * levels) / levels
                some[(some == 0) & (rng.random(some.shape) < 0.5)] = -0.0
                preds[t][VAL][:len(some)] = some
        repo = rebuild_repo(repo, labels, preds, evals)
        for t, task in enumerate(repo.tasks):
            slab = repo.task_predictions(t, VAL)
            want = metrics.StackLoss(task, repo.labels(t, VAL))(slab).view(np.uint64)
            loss_of = metrics.StackLoss.of_checked_labels(task, repo._label_views[VAL][t])
            assert np.array_equal(loss_of.score(loss_of.column(slab)).view(np.uint64), want)
            if task.problem is not ProblemType.MULTICLASS:  # the float32 column
                column = slab[:, :, 0]
                assert np.array_equal(loss_of.score(column).view(np.uint64), want)
                wide = loss_of.score(column.astype(np.float64)).view(np.uint64)
                assert np.array_equal(wide, want)


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
        assert validate_repo(bad) == [
            "labels of task ('bin', 0) hold one class in split 0",
            "non-finite prediction at (task=('bin', 0), config=alpha-001, split=1)",
        ]

    def test_loss_mismatches_in_several_tasks(self):
        repo = make_handmade_repo()
        labels, preds, evals = repo_arrays(repo)
        evals[0, 1, 0] += 1e-2  # ('reg', 0): a mismatch
        preds[0][TEST][2][4, 0] = np.nan  # and a cell line at a mismatching config
        evals[0, 2, 0] += 1e-2
        evals[1, 1, 3] = -1.0  # ('reg', 1): an evaluation line alone
        evals[3, 0, 0] += 0.25  # ('bin', 1): a mismatch
        evals[3, 2, 2] = np.inf  # and an evaluation line at a mismatching config
        evals[3, 2, 0] += 0.25
        labels[4] = (labels[4][0].astype(np.float64), labels[4][1])  # ('mc', 0): a label line
        labels[4][0][5] = 1.5
        evals[4, 0, 0] += 1.0  # and a loss never compared
        evals[5, 2, 0] *= 1.001  # ('mc', 1): a mismatch
        preds[5][VAL][0][2] *= np.float32(0.9)  # and a cell line, whose loss is off too
        bad = rebuild_repo(repo, labels, preds, evals)
        assert validate_repo(bad) == [
            "loss_val mismatch at (task=('reg', 0), config=alpha-001): "
            "stored=1.2570500552931816, recomputed=1.2470500552931816",
            "non-finite prediction at (task=('reg', 0), config=beta-default, split=1)",
            "invalid evaluation record at (task=('reg', 1), config=alpha-001)",
            "loss_val mismatch at (task=('bin', 1), config=alpha-default): "
            "stored=0.6388888888888888, recomputed=0.38888888888888884",
            "invalid evaluation record at (task=('bin', 1), config=beta-default)",
            "labels of task ('mc', 0) are not class indices in [0, 3)",
            "row-stochastic violation at (task=('mc', 1), config=alpha-default, split=0)",
            "loss_val mismatch at (task=('mc', 1), config=beta-default): "
            "stored=1.3125573107486466, recomputed=1.3112460646839628",
        ]


class _MaskRecorder(np.ndarray):
    """An array that records every boolean mask it is indexed with."""

    def __getitem__(self, key):
        if isinstance(key, np.ndarray) and key.dtype == bool and hasattr(self, "masks"):
            self.masks.append(np.array(key))
        return super().__getitem__(key)


class TestRowSums:
    """``_rows_off_one`` decides every row as ``np.abs(p.sum(axis=-1) - 1.0) >
    ROW_SUM_TOL`` does."""

    @pytest.mark.parametrize("o", range(2, 21))
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_rows_at_the_tolerance_match_the_full_sum(self, o, dtype):
        rng = np.random.default_rng(o)
        p = np.array([at_sum(rng.dirichlet(np.ones(o)).astype(dtype), target)
                      for target in EDGE_SUMS for _ in range(6)])
        want = full_sum_off(p)
        assert want.any() and not want.all()  # the rows straddle the tolerance
        np.testing.assert_array_equal(store._rows_off_one(p), want)
        np.testing.assert_array_equal(store._rows_off_one(p.reshape(6, -1, o)),
                                      want.reshape(6, -1))

    @pytest.mark.parametrize("o", range(2, 21))
    def test_large_negative_and_zero_rows(self, o):
        rng = np.random.default_rng(100 + o)
        big = rng.uniform(-2.0**25, 2.0**25, (40, o))
        p = np.concatenate([
            np.array([at_sum(row, target) for row in big for target in EDGE_SUMS[::3]]),
            np.zeros((3, o)), -rng.dirichlet(np.ones(o), 5), big,
            np.array([at_sum(rng.uniform(-1.0, 1.0, o), t) for t in EDGE_SUMS]),
        ])
        np.testing.assert_array_equal(store._rows_off_one(p), full_sum_off(p))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 20), st.data())
    def test_matches_the_full_sum(self, o, data):
        scale = data.draw(st.sampled_from([1.0, 2.0**-20, 2.0**10, 2.0**25]), label="scale")
        dtype = data.draw(st.sampled_from([np.float64, np.float32]), label="dtype")
        entries = st.lists(st.floats(-1.0, 1.0), min_size=o, max_size=o)
        rows = []
        for _ in range(data.draw(st.integers(1, 8), label="rows")):
            row = (np.array(data.draw(entries)) * scale).astype(dtype)
            kind = data.draw(st.sampled_from(["edge", "free", "zero"]), label="kind")
            if kind == "edge":
                row = at_sum(row, data.draw(st.sampled_from(EDGE_SUMS), label="sum"))
            elif kind == "zero":
                row[:] = 0.0
            rows.append(row)
        p = np.array(rows)
        np.testing.assert_array_equal(store._rows_off_one(p), full_sum_off(p))
        np.testing.assert_array_equal(store._rows_off_one(p[None]), full_sum_off(p[None]))

    @pytest.mark.parametrize("o", [2, 5, 9, 20])
    def test_rows_within_the_band_are_summed_by_numpy(self, o):
        # a row whose one nonzero entry is x has the same sum in every order; it is in
        # the band when its distance from the tolerance is below 2 * o * eps * x
        eps, tol = Fraction(np.finfo(np.float64).eps), Fraction(store.ROW_SUM_TOL)
        rows, ratios = [], []
        for edge in (1.0 + store.ROW_SUM_TOL, 1.0 - store.ROW_SUM_TOL):
            for x in ulps_around(edge, 6 * o):
                ratio = abs(abs(Fraction(x) - 1) - tol) / (o * eps * Fraction(x))
                if abs(ratio - 1) > 0.1 and abs(ratio - 2) > 0.1:  # clear of both widths
                    rows.append(np.zeros(o))
                    rows[-1][len(rows) % o] = x
                    ratios.append(ratio)
        inside = np.array([ratio < 2 for ratio in ratios])
        assert any(1 < ratio < 2 for ratio in ratios) and not inside.all()
        p = np.array(rows)
        recorder = p.view(_MaskRecorder)
        recorder.masks = []
        np.testing.assert_array_equal(np.asarray(store._rows_off_one(recorder)), full_sum_off(p))
        assert len(recorder.masks) == 1
        np.testing.assert_array_equal(recorder.masks[0], inside)

    @pytest.mark.parametrize("o", [2, 5, 9, 20])
    def test_rows_within_the_float32_band_are_summed_by_numpy(self, o):
        # a float32 row is screened by a float32 sum, so its band is 2 * o * eps * x with
        # float32's eps; a row whose one nonzero entry is x has the sum x in every order
        eps, tol = Fraction(float(np.finfo(np.float32).eps)), Fraction(store.ROW_SUM_TOL)
        rows, ratios = [], []
        for edge in (1.0 + store.ROW_SUM_TOL, 1.0 - store.ROW_SUM_TOL):
            for x in ulps_around(edge, 6 * o, np.float32):
                ratio = abs(abs(Fraction(x) - 1) - tol) / (o * eps * Fraction(x))
                if abs(ratio - 1) > 0.1 and abs(ratio - 2) > 0.1:  # clear of both widths
                    rows.append(np.zeros(o, dtype=np.float32))
                    rows[-1][len(rows) % o] = x
                    ratios.append(ratio)
        inside = np.array([ratio < 2 for ratio in ratios])
        assert any(1 < ratio < 2 for ratio in ratios) and not inside.all()
        p = np.array(rows)
        recorder = p.view(_MaskRecorder)
        recorder.masks = []
        np.testing.assert_array_equal(np.asarray(store._rows_off_one(recorder)), full_sum_off(p))
        assert len(recorder.masks) == 1
        np.testing.assert_array_equal(recorder.masks[0], inside)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 20), st.data())
    def test_clean_regions_and_one_edge_row_match_the_full_sum(self, o, data):
        # rows of probabilities normalized in float64 and stored in the dtype: a region of
        # them alone passes the whole-region check, and no row reaches numpy
        dtype = data.draw(st.sampled_from([np.float64, np.float32]), label="dtype")
        n = data.draw(st.integers(1, 40), label="rows")
        weights = np.array(data.draw(st.lists(st.floats(0.01, 1.0), min_size=n * o,
                                              max_size=n * o), label="weights"))
        p = (weights.reshape(n, o) / weights.reshape(n, o).sum(axis=1, keepdims=True)).astype(dtype)
        edge = data.draw(st.none() | st.sampled_from(EDGE_SUMS), label="edge sum")
        if edge is not None:
            row = data.draw(st.integers(0, n - 1), label="edge row")
            p[row] = at_sum(p[row], edge)
        recorder = p.view(_MaskRecorder)
        recorder.masks = []
        np.testing.assert_array_equal(np.asarray(store._rows_off_one(recorder)), full_sum_off(p))
        np.testing.assert_array_equal(store._rows_off_one(p.reshape(1, n, o)),
                                      full_sum_off(p)[None])
        if edge is None:
            assert recorder.masks == []

    @pytest.mark.parametrize("dtype,big", [(np.float64, 1e308), (np.float32, 3e38)])
    def test_overflowing_rows_are_off_without_warning(self, dtype, big):
        # the mat-vec in the dtype overflows to infinity, whose band sends the row to
        # numpy's float64 sum: infinite for float64, finite and far from one for float32
        p = np.full((2, 3, 3), big, dtype=dtype)
        p[1, 2] = (0.25, 0.5, 0.25)
        want = np.ones((2, 3), dtype=bool)
        want[1, 2] = False
        np.testing.assert_array_equal(store._rows_off_one(p), want)

    def test_infinite_and_nan_rows(self):
        p = np.array([[np.inf, 0.0], [np.inf, -np.inf], [np.nan, 1.0], [1e308, 1e308],
                      [0.25, 0.75]])
        with np.errstate(invalid="ignore", over="ignore"):
            np.testing.assert_array_equal(store._rows_off_one(p), full_sum_off(p))


# entries that tie, signed zeros, negatives, and magnitudes far enough apart
# that a sum's order changes its rounding
CLASS_SUM_ENTRIES = (st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, -0.1, 1e-8, 3.0, 2.0**24, -1e8])
                     | st.floats(-1e6, 1e6, width=32))


def spread_entries(rng, shape) -> np.ndarray:
    """Normal entries scaled over many binades: sums whose rounding depends on order."""
    return rng.standard_normal(shape) * np.exp(5.0 * rng.standard_normal(shape))


class TestClassSums:
    """``_class_sums(x)`` has the bits of ``x.sum(axis=-1)`` at every width."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 20), st.integers(1, 12), st.sampled_from([np.float64, np.float32]),
           st.lists(CLASS_SUM_ENTRIES, min_size=1, max_size=8), st.integers(0, 2**32 - 1))
    def test_bits_of_numpy_row_sums(self, o, n, dtype, values, seed):
        # a few values laid out at random: rows tie, and repeat signed zeros
        x = np.random.default_rng(seed).choice(np.array(values, dtype=dtype), (n, o))
        want = x.sum(axis=-1)
        got = store._class_sums(x)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("o", range(1, 21))
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bits_of_numpy_row_sums_of_spread_entries(self, o, dtype):
        # left to right differs from numpy's eight accumulators in some of these
        # rows from 8 classes on, so only numpy's own reduction passes there
        x = spread_entries(np.random.default_rng(o), (40, 50, o)).astype(dtype)
        for view in (x, x[::3, 1:], np.asfortranarray(x), x.transpose(1, 0, 2)):
            assert store._class_sums(view).tobytes() == view.sum(axis=-1).tobytes()

    @pytest.mark.parametrize("o", [1, 4, 7, 8, 20])
    def test_rows_of_negative_zeros_sum_to_positive_zero(self, o):
        x = np.full((3, o), -0.0)
        assert store._class_sums(x).tobytes() == x.sum(axis=-1).tobytes() == np.zeros(3).tobytes()

    def test_no_classes(self):
        x = np.empty((3, 4, 0), dtype=np.float32)
        assert store._class_sums(x).tobytes() == x.sum(axis=-1).tobytes()


def reference_cell_violations(repo, t):
    """The per-split check that the one-pass check replaced: (config, split, message)
    for every invalid cell of task ``t``, from a float64 copy of each split."""
    task = repo.tasks[t]
    found = []
    for s in (VAL, TEST):
        p = np.asarray(repo.task_predictions(t, s), dtype=np.float64)
        nonfinite = ~np.isfinite(p).all(axis=(1, 2))
        off = np.zeros_like(nonfinite)
        if task.problem.is_classification:
            with np.errstate(invalid="ignore"):
                off = ((p < 0.0) | (p > 1.0)).any(axis=(1, 2))
                if task.problem is ProblemType.MULTICLASS:
                    off |= (np.abs(p.sum(axis=2) - 1.0) > store.ROW_SUM_TOL).any(axis=1)
        found += [(j, s, f"non-finite prediction at {store._cell(repo, t, j, s)}")
                  for j in np.flatnonzero(nonfinite).tolist()]
        found += [(j, s, f"row-stochastic violation at {store._cell(repo, t, j, s)}")
                  for j in np.flatnonzero(off & ~nonfinite).tolist()]
    return sorted(found)


def reference_outputs(repo, path, monkeypatch):
    """``validate_repo``'s report and ``write_repo``'s error, with the cells checked
    by the reference."""
    with monkeypatch.context() as patch:
        patch.setattr(store, "_cell_violations", lambda repo: [
            (t, *found) for t in range(repo.n_tasks)
            for found in reference_cell_violations(repo, t)])
        return store_outputs(repo, path)


def store_outputs(repo, path):
    try:
        write_repo(repo, path)
    except StoreError as e:
        return validate_repo(repo), str(e)
    return validate_repo(repo), None


def corrupt(repo, rng, n_defects: int):
    """``repo`` with ``n_defects`` random cell defects: NaN, infinities, -0.5, 1.5, a
    row scaled off one by 2e-5, a cell of NaN, or a row 0-4 float32 ulp off a tolerance
    edge."""
    labels, preds, evals = repo_arrays(repo)
    for _ in range(n_defects):
        t = int(rng.integers(repo.n_tasks))
        cell = preds[t][int(rng.integers(2))][int(rng.integers(repo.n_configs))]
        i, k = int(rng.integers(cell.shape[0])), int(rng.integers(cell.shape[1]))
        kind = rng.integers(7)
        if kind < 4:
            cell[i, k] = (np.nan, rng.choice([np.inf, -np.inf]), -0.5, 1.5)[kind]
        elif kind == 4:
            cell[i] *= np.float32(1 + 2e-5 * rng.choice([-1, 1]))
        elif kind == 5:
            cell[:] = np.nan
        elif cell.shape[1] > 1:
            cell[i] = at_sum(cell[i], float(rng.choice(EDGE_SUMS_F32)))
    return rebuild_repo(repo, labels, preds, evals)


class TestOnePassCellChecks:
    """The one-pass cell check reports what the per-split check reported."""

    @pytest.mark.parametrize("seed", [1, 70, 150, 300, 5000, 2**20])
    def test_reports_and_errors_equal_the_reference(self, tmp_path, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        for case, source in enumerate([make_handmade_repo(), make_handmade_repo(1),
                                       generate_repo(small_spec(seed=5))] * 4):
            bad = corrupt(source, rng, int(rng.integers(0, 9)))
            want = reference_outputs(bad, tmp_path / f"want{case}", monkeypatch)
            assert store_outputs(bad, tmp_path / f"got{case}") == want

    def test_every_defect_kind_in_val_and_test(self, tmp_path, monkeypatch):
        repo = make_handmade_repo()
        labels, preds, evals = repo_arrays(repo)
        for s in (VAL, TEST):
            preds[1][s][0][2, 0] = np.nan
            preds[2][s][1][0, 0] = -np.inf
            preds[3][s][2][4, 0] = -0.5
            preds[3][s][0][1, 0] = 1.5
            preds[4][s][0][3] *= np.float32(1 + 2e-5)
            preds[5][s][2][0] *= np.float32(1 - 2e-5)
            preds[5][s][1][1] = [np.nan, 1.5, -0.5]  # several defects in one cell
        bad = rebuild_repo(repo, labels, preds, evals)
        want = reference_outputs(bad, tmp_path / "want", monkeypatch)
        assert len([r for r in want[0] if "prediction" in r or "row-stochastic" in r]) == 14
        assert store_outputs(bad, tmp_path / "got") == want

    def test_cells_in_repository_order(self):
        bad = corrupt(generate_repo(small_spec(seed=7)), np.random.default_rng(3), 30)
        want = [(t, *found) for t in range(bad.n_tasks)
                for found in reference_cell_violations(bad, t)]
        assert len(want) > 5
        assert store._cell_violations(bad) == want


def count_task_checks(monkeypatch) -> list:
    """Patch ``store._task_violations`` to record the task of every call; return the record."""
    calls, real = [], store._task_violations
    monkeypatch.setattr(store, "_task_violations",
                        lambda repo, t, *args: calls.append(t) or real(repo, t, *args))
    return calls


class TestCellScreens:
    """The whole-buffer screens pass clean values at the edges of the checks, send every
    bad cell on to the per-cell check, and spare a clean store that check."""

    @staticmethod
    def edge_arrays():
        """The handmade repository's arrays with valid values at the edges of the checks."""
        labels, preds, evals = repo_arrays(make_handmade_repo())
        big = np.finfo(np.float32).max
        preds[0][VAL][0][0, 0], preds[1][TEST][2][-1, 0] = big, -big  # regression
        preds[2][VAL][0][:3, 0] = (-0.0, 0.0, 1.0)  # binary
        preds[4][VAL][1][0] = (1.0, 0.0, -0.0)  # multiclass rows of exact sum 1
        preds[5][TEST][2][-1] = (0.0, 1.0, 0.0)
        return labels, preds, evals

    def test_valid_edge_values_pass_the_screens(self, tmp_path, monkeypatch):
        repo = rebuild_repo(make_handmade_repo(), *self.edge_arrays())
        assert all(reference_cell_violations(repo, t) == [] for t in range(repo.n_tasks))
        calls = count_task_checks(monkeypatch)
        assert store._cell_violations(repo) == []
        write_repo(repo, tmp_path / "r")
        assert calls == []

    def test_bad_edge_values_equal_the_reference(self, tmp_path, monkeypatch):
        labels, preds, evals = self.edge_arrays()
        above_one = np.nextafter(np.float32(1), np.float32(2))
        preds[3][TEST][1][4, 0] = above_one  # binary
        preds[4][TEST][0][2] = (above_one, 0.0, 0.0)  # multiclass
        for t in (1, 3, 5):  # the last value of a task's region
            preds[t][TEST][-1][-1, -1] = np.nan
        bad = rebuild_repo(make_handmade_repo(), labels, preds, evals)
        want_cells = [(t, *found) for t in range(bad.n_tasks)
                      for found in reference_cell_violations(bad, t)]
        assert len(want_cells) == 5
        want = reference_outputs(bad, tmp_path / "want", monkeypatch)
        calls = count_task_checks(monkeypatch)
        assert store._cell_violations(bad) == want_cells
        assert calls == [1, 3, 4, 5]
        assert store_outputs(bad, tmp_path / "got") == want

    def test_clean_store_takes_no_per_cell_pass(self, tmp_path, monkeypatch):
        repo = generate_repo(small_spec(seed=5))
        calls = count_task_checks(monkeypatch)
        assert validate_repo(repo) == []
        write_repo(repo, tmp_path / "r")
        assert validate_repo(open_repo(tmp_path / "r")) == []
        assert calls == []
        labels, preds, evals = repo_arrays(repo)  # the count sees a flagged task
        preds[-1][TEST][0][0, 0] = np.nan
        assert validate_repo(rebuild_repo(repo, labels, preds, evals)) and calls

    def test_only_the_flagged_task_is_diagnosed(self, monkeypatch):
        repo = generate_repo(small_spec(seed=5))
        labels, preds, evals = repo_arrays(repo)
        preds[-1][VAL][-1][-1, 0] = np.nan
        bad = rebuild_repo(repo, labels, preds, evals)
        calls = count_task_checks(monkeypatch)
        last = bad.n_tasks - 1
        assert store._cell_violations(bad) == [
            (last, bad.n_configs - 1, VAL,
             f"non-finite prediction at {store._cell(bad, last, bad.n_configs - 1, VAL)}")]
        assert calls == [last]

    def test_rows_of_a_task_flagged_by_its_rows_are_summed_once(self, monkeypatch):
        labels, preds, evals = repo_arrays(make_handmade_repo())
        preds[4][VAL][1][3] = (0.5, 0.25, 0.25 + 2e-5)  # in [0, 1], summing to 1 + 2e-5
        bad = rebuild_repo(make_handmade_repo(), labels, preds, evals)
        region = store._task_region(bad._preds, bad._pred_start[4], bad.n_configs, bad.tasks[4])
        summed, real = [], store._rows_off_one
        monkeypatch.setattr(store, "_rows_off_one", lambda p: summed.append(p) or real(p))
        assert store._cell_violations(bad) == [
            (4, 1, VAL, f"row-stochastic violation at {store._cell(bad, 4, 1, VAL)}")]
        assert sum(np.shares_memory(p, region) for p in summed) == 1
