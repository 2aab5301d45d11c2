from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import predrepo
from predrepo import (
    BudgetPolicy,
    FamilySpec,
    generate_repo,
    mean_normalized_error,
    open_repo,
    simulate_portfolio,
    simulate_single_family,
    write_repo,
)
from predrepo.cli import TASK_CSV_HEADER, main
from predrepo.ensemble import _select_and_score
from predrepo.simulate import SimResult, _loo_portfolios, _sum_in_order, anytime_filter
from predrepo.store import STORE_FILES

from conftest import rebuild_repo, repo_arrays, small_spec


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_spec(path: Path, **overrides) -> Path:
    spec = small_spec(**overrides)
    target = path / "spec.json"
    target.write_text(json.dumps(spec.to_dict(), indent=2))
    return target


def parse_csv(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def corrupt_evals(repo_path: Path) -> str:
    """Set three evals.bin entries to NaN, -5 and inf; returns how the first bad cell is named."""
    manifest = json.loads((repo_path / "manifest.json").read_text())
    n_configs = len(manifest["configs"])
    evals = repo_path / "evals.bin"
    data = bytearray(evals.read_bytes())
    for (t, j, field), value in (((1, 2, 0), np.nan), ((2, 0, 3), -5.0), ((3, 4, 1), np.inf)):
        at = 8 + ((t * n_configs + j) * 4 + field) * 8
        data[at:at + 8] = np.float64(value).tobytes()
    evals.write_bytes(bytes(data))
    task = manifest["tasks"][1]
    return f"(task={(task['dataset_id'], task['fold'])}, config={manifest['configs'][2]['config_id']})"


def one_pool_runs(repo, policy, portfolios, c_max) -> list[SimResult]:
    """``Portfolio (ensemble)`` on each task with one greedy run of one pool: the
    task's budget-filtered held-out portfolio, its ``caruana_select`` weights and
    the losses of that ensemble. The reference for the pooled simulations."""
    out = []
    for t, meta in enumerate(repo.tasks):
        included, fb = anytime_filter(portfolios[meta.dataset_id], t, policy, repo)
        w, val, test = _select_and_score(repo, t, included, c_max)
        members = [j for j, c in w.counts.items() if c > 0]
        out.append(SimResult(meta.dataset_id, meta.fold, included, fb, val, test,
                             _sum_in_order(repo.eval_table[t, included, 2].tolist()),
                             _sum_in_order(repo.eval_table[t, members, 3].tolist())))
    return out


FAMILY_LABELS = {"default": "default", "tuned": "tuned", "tuned+ensemble": "tuned + ensemble"}


def family_runs(repo, policy, c_max, order_seed=None) -> dict[str, list[SimResult]]:
    """Every family method by name, each from its own ``simulate_single_family`` call."""
    return {f"{family} ({label})": simulate_single_family(repo, family, mode, policy, c_max,
                                                          order_seed=order_seed)
            for family in repo.families for mode, label in FAMILY_LABELS.items()}


@pytest.fixture(scope="module")
def repo_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli-repo")
    spec_path = write_spec(base)
    assert main(["generate", "--spec", str(spec_path), "--out", str(base / "repo")]) == 0
    return base / "repo"


@pytest.fixture(scope="module")
def wider_repo_dir(tmp_path_factory):
    """Five datasets and 11 configs: enough that an ablation's normalized errors
    tell an ensemble from its first pick."""
    base = tmp_path_factory.mktemp("cli-wider-repo")
    spec_path = write_spec(base, n_datasets=5, families=(
        FamilySpec("gbm", 6, 0.85, 0.5, 0.3), FamilySpec("mlp", 5, 0.6, 0.8, 0.2)))
    assert main(["generate", "--spec", str(spec_path), "--out", str(base / "repo")]) == 0
    return base / "repo"


class TestGenerate:
    def test_creates_store_files_and_summary(self, tmp_path, capsys):
        spec_path = write_spec(tmp_path, seed=211)
        code, out, _ = run(capsys, "generate", "--spec", str(spec_path),
                           "--out", str(tmp_path / "repo"))
        assert code == 0
        for name in STORE_FILES:
            assert (tmp_path / "repo" / name).exists()
        assert out.startswith("D=4 S=2 M=7 bytes=")

    def test_same_spec_identical_checksums(self, tmp_path, capsys):
        spec_path = write_spec(tmp_path, seed=223)
        run(capsys, "generate", "--spec", str(spec_path), "--out", str(tmp_path / "a"))
        run(capsys, "generate", "--spec", str(spec_path), "--out", str(tmp_path / "b"))
        for name in STORE_FILES:
            ha = hashlib.sha256((tmp_path / "a" / name).read_bytes()).hexdigest()
            hb = hashlib.sha256((tmp_path / "b" / name).read_bytes()).hexdigest()
            assert ha == hb, name

    def test_malformed_spec_exits_2_with_line_info(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{\n  "seed": 1,\n  "oops"\n}\n')
        code, _, err = run(capsys, "generate", "--spec", str(bad),
                           "--out", str(tmp_path / "repo"))
        assert code == 2
        assert "line 4" in err  # json reports the delimiter expected on the next line

    def test_invalid_spec_values_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        data = small_spec().to_dict()
        data["folds"] = 0
        bad.write_text(json.dumps(data))
        code, _, err = run(capsys, "generate", "--spec", str(bad),
                           "--out", str(tmp_path / "repo"))
        assert code == 2
        assert "folds" in err

    def test_missing_spec_file_exits_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "generate", "--spec", str(tmp_path / "none.json"),
                           "--out", str(tmp_path / "repo"))
        assert code == 2

    @pytest.mark.parametrize("key,value", [
        ("seed", 1.5), ("folds", True), ("bag_folds", "2"), ("rows_val", "55"),
        ("problem_mix", {"binary": "x"})])
    def test_mistyped_spec_values_exit_2(self, tmp_path, capsys, key, value):
        bad = tmp_path / "bad.json"
        data = small_spec().to_dict()
        data[key] = value
        bad.write_text(json.dumps(data))
        code, _, err = run(capsys, "generate", "--spec", str(bad),
                           "--out", str(tmp_path / "repo"))
        assert code == 2
        assert err == f"error: generator spec: invalid {key!r} value {value!r}\n"
        assert not (tmp_path / "repo").exists()

    def test_out_is_an_existing_file_exits_2(self, tmp_path, capsys):
        spec_path = write_spec(tmp_path, seed=227)
        out = tmp_path / "taken"
        out.write_text("not a directory")
        code, _, err = run(capsys, "generate", "--spec", str(spec_path), "--out", str(out))
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(out) in err
        assert out.read_text() == "not a directory"

    @pytest.mark.parametrize("under_file", [False, True])
    def test_bad_out_fails_before_generating(self, tmp_path, capsys, monkeypatch, under_file):
        # a bad --out used to be found only after the whole repository was generated
        calls = [0]
        generate = predrepo.cli.generate_repo

        def counted(spec):
            calls[0] += 1
            return generate(spec)

        monkeypatch.setattr(predrepo.cli, "generate_repo", counted)
        spec_path = write_spec(tmp_path, seed=227)
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        out = taken / "repo" if under_file else taken
        code, stdout, err = run(capsys, "generate", "--spec", str(spec_path), "--out", str(out))
        assert code == 2
        assert calls[0] == 0
        assert stdout == "" and err.startswith("error: ") and err.count("\n") == 1
        assert taken.read_text() == "not a directory"

    def test_family_entry_not_an_object_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        data = small_spec().to_dict()
        data["families"] = ["a"]
        bad.write_text(json.dumps(data))
        code, _, err = run(capsys, "generate", "--spec", str(bad),
                           "--out", str(tmp_path / "repo"))
        assert code == 2
        assert err == "error: generator spec: family 0: expected a JSON object, got 'a'\n"
        assert not (tmp_path / "repo").exists()


class TestValidate:
    def test_valid_repo(self, repo_dir, capsys):
        code, out, _ = run(capsys, "validate", "--repo", str(repo_dir))
        assert code == 0
        assert "OK" in out

    def test_corrupt_format_exits_2(self, tmp_path, capsys):
        spec_path = write_spec(tmp_path, seed=227)
        run(capsys, "generate", "--spec", str(spec_path), "--out", str(tmp_path / "r"))
        blob = tmp_path / "r" / "preds.blob"
        blob.write_bytes(blob.read_bytes()[:-4])
        code, _, err = run(capsys, "validate", "--repo", str(tmp_path / "r"))
        assert code == 2
        assert "blob shorter than index extent" in err

    def test_blob_longer_than_index_extent_exits_2(self, tmp_path, capsys):
        spec_path = write_spec(tmp_path, seed=227)
        run(capsys, "generate", "--spec", str(spec_path), "--out", str(tmp_path / "r"))
        blob = tmp_path / "r" / "preds.blob"
        blob.write_bytes(blob.read_bytes() + bytes(1000))
        code, _, err = run(capsys, "validate", "--repo", str(tmp_path / "r"))
        assert code == 2
        assert "blob longer than index extent" in err

    def test_violations_exit_3(self, tmp_path, capsys):
        spec_path = write_spec(tmp_path, seed=229)
        run(capsys, "generate", "--spec", str(spec_path), "--out", str(tmp_path / "r"))
        evals = tmp_path / "r" / "evals.bin"
        data = bytearray(evals.read_bytes())
        data[8:16] = np.float64(99.0).tobytes()  # perturb first stored loss_val
        evals.write_bytes(bytes(data))
        code, out, err = run(capsys, "validate", "--repo", str(tmp_path / "r"))
        assert code == 3
        assert "loss_val mismatch" in out


    def test_missing_manifest_field_exits_2(self, tmp_path, capsys):
        spec_path = write_spec(tmp_path, seed=233)
        run(capsys, "generate", "--spec", str(spec_path), "--out", str(tmp_path / "r"))
        manifest_path = tmp_path / "r" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["configs"]
        manifest_path.write_text(json.dumps(manifest))
        code, _, err = run(capsys, "validate", "--repo", str(tmp_path / "r"))
        assert code == 2
        assert "missing required field 'configs'" in err

    @pytest.mark.parametrize("field, value", [("problem", "ordinal"), ("n_val", "x"), ("o", 0)])
    def test_malformed_manifest_value_exits_2(self, tmp_path, capsys, field, value):
        spec_path = write_spec(tmp_path, seed=241)
        run(capsys, "generate", "--spec", str(spec_path), "--out", str(tmp_path / "r"))
        manifest_path = tmp_path / "r" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        task = next(t for t in manifest["tasks"] if t["problem"] == "regression")
        task[field] = value
        manifest_path.write_text(json.dumps(manifest))
        code, _, err = run(capsys, "validate", "--repo", str(tmp_path / "r"))
        assert code == 2
        assert f"task {(task['dataset_id'], task['fold'])!r}" in err
        assert f"'{field}'" in err

    @pytest.mark.parametrize("field, value", [
        ("is_default", "false"), ("config_id", 5), ("folds_per_dataset", "x")])
    def test_malformed_config_or_fold_count_exits_2(self, tmp_path, capsys, field, value):
        spec_path = write_spec(tmp_path, seed=257)
        run(capsys, "generate", "--spec", str(spec_path), "--out", str(tmp_path / "r"))
        manifest_path = tmp_path / "r" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        if field == "folds_per_dataset":
            manifest[field] = value
        else:
            manifest["configs"][3][field] = value
        manifest_path.write_text(json.dumps(manifest))
        code, out, err = run(capsys, "validate", "--repo", str(tmp_path / "r"))
        assert code == 2
        assert "OK" not in out
        assert f"invalid '{field}' value" in err
        if field != "folds_per_dataset":
            assert "config 3:" in err

    @pytest.mark.parametrize("field, value", [("n_val", 2**63), ("n_val", 10**12),
                                              ("n_test", 2**32), ("folds_per_dataset", 2**64)])
    def test_task_integer_outside_u4_exits_2(self, tmp_path, capsys, field, value):
        spec_path = write_spec(tmp_path, seed=900)
        run(capsys, "generate", "--spec", str(spec_path), "--out", str(tmp_path / "r"))
        manifest_path = tmp_path / "r" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        task = manifest["tasks"][1]
        if field == "folds_per_dataset":
            manifest[field] = value
        else:
            task[field] = value
        manifest_path.write_text(json.dumps(manifest))
        code, out, err = run(capsys, "validate", "--repo", str(tmp_path / "r"))
        assert code == 2
        assert out == ""
        assert f"invalid '{field}' value {value}" in err
        if field != "folds_per_dataset":
            assert f"task {(task['dataset_id'], task['fold'])!r}" in err

    def test_corrupt_evals_entries_exit_2(self, tmp_path, capsys):
        spec_path = write_spec(tmp_path, seed=251)
        run(capsys, "generate", "--spec", str(spec_path), "--out", str(tmp_path / "r"))
        cell = corrupt_evals(tmp_path / "r")
        code, _, err = run(capsys, "validate", "--repo", str(tmp_path / "r"))
        assert code == 2
        assert f"invalid evaluation record at {cell}" in err

    def test_flipped_label_byte_exits_2(self, tmp_path, capsys):
        spec_path = write_spec(tmp_path, seed=239)
        run(capsys, "generate", "--spec", str(spec_path), "--out", str(tmp_path / "r"))
        labels = tmp_path / "r" / "labels.bin"
        data = bytearray(labels.read_bytes())
        data[-1] ^= 0x01
        labels.write_bytes(bytes(data))
        code, _, err = run(capsys, "validate", "--repo", str(tmp_path / "r"))
        assert code == 2
        assert "label checksum mismatch" in err


class TestEnsembleCommand:
    def test_csv_shape(self, repo_dir, capsys):
        code, out, _ = run(capsys, "ensemble", "--repo", str(repo_dir),
                           "--configs", "gbm-default,gbm-001,mlp-default",
                           "--ensemble-size", "6")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["dataset", "fold", "val_loss", "test_loss"]
        assert len(rows) == 8  # 4 datasets x 2 folds

    @pytest.mark.parametrize("flag", ["--datasets", "--folds", "--configs"])
    @pytest.mark.parametrize("value", [",", ""])
    def test_empty_list_exits_2(self, repo_dir, tmp_path, capsys, flag, value):
        out_csv = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main(["ensemble", "--repo", str(repo_dir), flag, value, "--out", str(out_csv)])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert f"argument {flag}:" in captured.err
        assert captured.out == "" and not out_csv.exists()

    def assert_repeat_exits_2(self, repo_dir, tmp_path, capsys, flag, value):
        # a repeat used to print its (dataset, fold) rows twice with exit 0
        out_csv = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main(["ensemble", "--repo", str(repo_dir), flag, value, "--out", str(out_csv)])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert f"argument {flag}: expected distinct" in captured.err
        assert captured.out == "" and not out_csv.exists()

    def test_repeated_fold_exits_2(self, repo_dir, tmp_path, capsys):
        self.assert_repeat_exits_2(repo_dir, tmp_path, capsys, "--folds", "0,1,0")

    def test_repeated_dataset_exits_2(self, repo_dir, tmp_path, capsys):
        self.assert_repeat_exits_2(repo_dir, tmp_path, capsys, "--datasets", "d000,d000")


class TestPortfolioCommand:
    def test_objective_non_increasing(self, repo_dir, capsys):
        code, out, _ = run(capsys, "portfolio", "--repo", str(repo_dir), "--n-max", "5")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["position", "config_id", "objective"]
        objectives = [float(r[2]) for r in rows]
        assert objectives == sorted(objectives, reverse=True) or all(
            objectives[i + 1] <= objectives[i] for i in range(len(objectives) - 1))

    def test_corrupt_evals_entries_exit_2(self, tmp_path, capsys):
        spec_path = write_spec(tmp_path, seed=257)
        run(capsys, "generate", "--spec", str(spec_path), "--out", str(tmp_path / "r"))
        cell = corrupt_evals(tmp_path / "r")
        code, _, err = run(capsys, "portfolio", "--repo", str(tmp_path / "r"),
                           "--aggregation", "raw")
        assert code == 2
        assert f"invalid evaluation record at {cell}" in err

    def test_hold_out_unknown_dataset_exits_3(self, repo_dir, capsys):
        code, _, err = run(capsys, "portfolio", "--repo", str(repo_dir),
                           "--hold-out", "missing")
        assert code == 3


class TestSimulateCommand:
    def test_row_count_and_schema(self, repo_dir, tmp_path, capsys):
        out_csv = tmp_path / "sim.csv"
        code, out, _ = run(capsys, "simulate", "--repo", str(repo_dir),
                           "--budget-s", "1e12", "--n-max", "5", "--c-max", "6",
                           "--out", str(out_csv))
        assert code == 0
        header, rows = parse_csv(out_csv.read_text())
        assert header == ["method", "dataset", "fold", "val_loss", "test_loss",
                          "time_fit_s", "time_infer_s", "used_fallback", "included_configs"]
        assert len(rows) == 8  # D * S
        assert all(r[0] == "Portfolio (ensemble)" for r in rows)
        summary_header, summary_rows = parse_csv(out)
        assert summary_header == ["method", "normalized-error", "rank",
                                  "time fit (s)", "time infer (s)"]
        methods = {r[0] for r in summary_rows}
        assert {"Portfolio (ensemble)", "Portfolio", "gbm (tuned)", "mlp (default)"} <= methods
        errors = [float(r[1]) for r in summary_rows]
        assert errors == sorted(errors)

    def test_matches_library_simulation(self, repo_dir, tmp_path, capsys):
        out_csv = tmp_path / "sim.csv"
        run(capsys, "simulate", "--repo", str(repo_dir), "--budget-s", "1e12",
            "--n-max", "5", "--c-max", "6", "--out", str(out_csv))
        repo = open_repo(repo_dir)
        want = simulate_portfolio(repo, BudgetPolicy(1e12, 0, repo), 5, 6)
        _, rows = parse_csv(out_csv.read_text())
        for row, w in zip(rows, want):
            assert (row[1], int(row[2])) == w.key
            assert float(row[3]) == pytest.approx(w.val_loss, rel=1e-5)
            assert float(row[4]) == pytest.approx(w.test_loss, rel=1e-5)

    def test_thread_count_byte_identical(self, repo_dir, tmp_path, capsys):
        outs = []
        for threads in (1, 8):
            out_csv = tmp_path / f"sim{threads}.csv"
            code, out, _ = run(capsys, "simulate", "--repo", str(repo_dir),
                               "--budget-s", "1e12", "--n-max", "5", "--c-max", "6",
                               "--threads", str(threads), "--out", str(out_csv))
            assert code == 0
            outs.append((out_csv.read_bytes(), out))
        assert outs[0] == outs[1]

    def test_single_dataset_exits_3(self, tmp_path, capsys):
        spec_path = write_spec(tmp_path, seed=233, n_datasets=1)
        run(capsys, "generate", "--spec", str(spec_path), "--out", str(tmp_path / "r"))
        code, _, err = run(capsys, "simulate", "--repo", str(tmp_path / "r"),
                           "--budget-s", "100", "--out", str(tmp_path / "s.csv"))
        assert code == 3
        assert "at least 2 datasets" in err

    def test_paper_default_flags(self):
        from predrepo.cli import _build_parser

        args = _build_parser().parse_args(
            ["simulate", "--repo", "x", "--out", "y"])
        assert args.c_max == 40
        assert args.n_max == 200

    def test_methods_out_covers_all_methods(self, repo_dir, tmp_path, capsys):
        out_csv = tmp_path / "sim.csv"
        all_csv = tmp_path / "all.csv"
        run(capsys, "simulate", "--repo", str(repo_dir), "--budget-s", "1e12",
            "--n-max", "5", "--c-max", "6", "--out", str(out_csv),
            "--methods-out", str(all_csv))
        _, rows = parse_csv(all_csv.read_text())
        methods = {r[0] for r in rows}
        assert len(methods) == 2 + 2 * 3  # two portfolio variants + families x modes
        assert len(rows) == len(methods) * 8

    def test_seed_orders_the_tuned_search(self, repo_dir, tmp_path, capsys):
        from predrepo.cli import _default_fallback, _sim_rows

        all_csv = tmp_path / "all.csv"
        code, _, _ = run(capsys, "simulate", "--repo", str(repo_dir), "--seed", "5",
                         "--budget-s", "600", "--n-max", "5", "--c-max", "6",
                         "--out", str(tmp_path / "sim.csv"), "--methods-out", str(all_csv))
        assert code == 0
        _, rows = parse_csv(all_csv.read_text())
        repo = open_repo(repo_dir)
        policy = BudgetPolicy(600, _default_fallback(repo), repo)

        def tuned_rows(order_seed):
            return [row for family in repo.families for row in _sim_rows(
                repo, f"{family} (tuned)", simulate_single_family(
                    repo, family, "tuned", policy, 6, order_seed=order_seed))]

        got = [r for r in rows if r[0].endswith(" (tuned)")]
        assert got == tuned_rows(5)
        assert got != tuned_rows(None)  # the seed reaches the search

    def test_negative_zero_fit_times_print_as_zero(self, tmp_path, capsys):
        # -0.0 is a valid fit time; a sum of trained fit times starts from 0.0, so a
        # walk that trains only -0.0 configs prints 0, not -0
        repo = generate_repo(small_spec(seed=21))  # two first picks, neither gbm's first
        labels, predictions, evals = repo_arrays(repo)
        zero = [repo.family_configs("gbm")[0]]
        zero += [pf.configs[0] for pf in _loo_portfolios(repo, 5, "normalized_loss").values()]
        evals[:, :, 2] = 1000.0  # above the budget: a walk trains no other config
        evals[:, zero, 2] = -0.0
        write_repo(rebuild_repo(repo, labels, predictions, evals), tmp_path / "r")
        all_csv = tmp_path / "all.csv"
        code, _, _ = run(capsys, "simulate", "--repo", str(tmp_path / "r"), "--budget-s", "600",
                         "--n-max", "5", "--c-max", "5", "--out", str(tmp_path / "s.csv"),
                         "--methods-out", str(all_csv))
        assert code == 0
        rows = parse_csv(all_csv.read_text())[1]
        for method in ("gbm (default)", "gbm (tuned)", "Portfolio"):
            assert [r[5] for r in rows if r[0] == method] == ["0"] * repo.n_tasks


class TestAblateCommand:
    def test_row_count_and_train_objective_monotone(self, repo_dir, tmp_path, capsys):
        out_csv = tmp_path / "abl.csv"
        code, out, _ = run(capsys, "ablate", "--repo", str(repo_dir),
                           "--axis", "portfolio-size", "--values", "1,2,4",
                           "--seeds", "0,1", "--budget-s", "1e12", "--c-max", "6",
                           "--out", str(out_csv))
        assert code == 0
        header, rows = parse_csv(out_csv.read_text())
        assert header == ["axis", "value", "seed", "mean_normalized_error",
                          "mean_train_objective"]
        assert len(rows) == 3 * 2
        for seed in ("0", "1"):
            objectives = [float(r[4]) for r in rows if r[2] == seed]
            assert all(objectives[i + 1] <= objectives[i]
                       for i in range(len(objectives) - 1))
        summary_header, summary_rows = parse_csv(out)
        assert summary_header == ["axis", "value", "mean", "stderr", "n_seeds"]
        assert len(summary_rows) == 3

    @pytest.mark.parametrize("axis, value, message", [
        ("n-train-datasets", "99", "n-train-datasets value 99 exceeds available count 3"),
        ("configs-per-family", "4", "configs-per-family value 4 exceeds family 'mlp' size 3"),
        ("portfolio-size", "8", "portfolio-size value 8 exceeds config count 7")],
        ids=["n-train-datasets", "configs-per-family", "portfolio-size"])
    def test_value_exceeding_count_exits_3(self, repo_dir, tmp_path, capsys, axis, value,
                                           message):
        out_csv = tmp_path / "x.csv"
        code, _, err = run(capsys, "ablate", "--repo", str(repo_dir),
                           "--axis", axis, "--values", value,
                           "--seeds", "0", "--budget-s", "1e12",
                           "--out", str(out_csv))
        assert code == 3
        assert err == f"error: {message}\n"
        assert not out_csv.exists()

    def test_ensemble_members_one_equals_best_single(self, repo_dir, tmp_path, capsys):
        out_csv = tmp_path / "abl.csv"
        run(capsys, "ablate", "--repo", str(repo_dir), "--axis", "ensemble-members",
            "--values", "1", "--seeds", "0", "--budget-s", "1e12", "--n-max", "5",
            "--c-max", "6", "--out", str(out_csv))
        _, rows = parse_csv(out_csv.read_text())
        repo = open_repo(repo_dir)
        policy = BudgetPolicy(1e12, 0, repo)
        from predrepo.cli import PORTFOLIO_ENSEMBLE, _method_results

        base = [_method_results(name, res) for name, res in family_runs(repo, policy, 6).items()]
        single = one_pool_runs(repo, policy, _loo_portfolios(repo, 5, "normalized_loss"), 1)
        tables = base + [_method_results(PORTFOLIO_ENSEMBLE, single)]
        want = mean_normalized_error(tables)[PORTFOLIO_ENSEMBLE]
        assert float(rows[0][3]) == pytest.approx(want, rel=1e-5)

    @pytest.mark.parametrize("flag, value", [
        ("--values", ","), ("--values", ""), ("--values", "2,2"),
        ("--seeds", ","), ("--seeds", "0,1,0")])
    def test_empty_or_repeated_list_exits_2(self, repo_dir, tmp_path, capsys, flag, value):
        lists = {"--values": "1,2", "--seeds": "0", flag: value}
        out_csv = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main(["ablate", "--repo", str(repo_dir), "--axis", "portfolio-size",
                  "--values", lists["--values"], "--seeds", lists["--seeds"],
                  "--budget-s", "1e12", "--out", str(out_csv)])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert f"argument {flag}:" in captured.err
        assert captured.out == "" and not out_csv.exists()


class TestFlags:
    def exits_2(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", [
        ["ensemble"], ["portfolio"],
        ["ablate", "--axis", "portfolio-size", "--values", "1", "--seeds", "0,1"]])
    def test_seed_only_on_simulate(self, repo_dir, tmp_path, capsys, command):
        # the other commands used to accept a --seed they never read
        argv = [command[0], "--repo", str(repo_dir), "--out", str(tmp_path / "x.csv"),
                *command[1:], "--seed", "0"]
        self.exits_2(capsys, argv, "unrecognized arguments: --seed 0")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command, flag", [
        (["simulate"], "--budget"), (["ablate", "--axis", "portfolio-size", "--values", "1",
                                      "--seeds", "0"], "--budget"),
        (["ensemble"], "--ensemble"), (["portfolio"], "--hold")])
    def test_abbreviated_flag_exits_2(self, repo_dir, tmp_path, capsys, command, flag):
        argv = [command[0], "--repo", str(repo_dir), "--out", str(tmp_path / "x.csv"),
                *command[1:], flag, "600"]
        self.exits_2(capsys, argv, f"unrecognized arguments: {flag} 600")
        assert not (tmp_path / "x.csv").exists()

    ABLATE = ["ablate", "--axis", "portfolio-size", "--values", "1", "--seeds", "0"]

    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize("command, flag", [
        (["portfolio"], "--n-max"), (["simulate"], "--n-max"), (["simulate"], "--c-max"),
        (ABLATE, "--n-max"), (ABLATE, "--c-max"), (["ensemble"], "--ensemble-size"),
        # --threads used to take any integer, 0 and negatives too
        (["ensemble"], "--threads"), (["portfolio"], "--threads"), (["simulate"], "--threads"),
        (ABLATE, "--threads")])
    def test_size_below_one_exits_2(self, tmp_path, capsys, command, flag, value):
        # rejected while parsing: the repository is never opened, so it need not exist
        argv = [command[0], "--repo", str(tmp_path / "missing"), "--out",
                str(tmp_path / "x.csv"), *command[1:], flag, value]
        self.exits_2(capsys, argv, f"argument {flag}: expected an integer >= 1, got '{value}'")

    def test_ablate_value_below_one_exits_2(self, repo_dir, tmp_path, capsys):
        # used to open the repository first, then exit 3 naming no flag
        argv = ["ablate", "--repo", str(repo_dir), "--out", str(tmp_path / "x.csv"),
                "--axis", "portfolio-size", "--values", "0,2", "--seeds", "0"]
        self.exits_2(capsys, argv, "argument --values: expected an integer >= 1, got '0'")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command, flag, value", [
        (["simulate"], "--seed", str(2**64)),
        (["simulate"], "--seed", str(-(2**63) - 1)),
        (["ablate", "--axis", "configs-per-family", "--values", "2"], "--seeds",
         f"0,{2**64},{-(2**64)}")])
    def test_seed_outside_64_bits_exits_2(self, repo_dir, tmp_path, capsys, command, flag,
                                          value):
        # the streams mask seeds to 64 bits: 0, 2**64 and -(2**64) used to give three
        # identical ablation rows and a stderr of 0
        argv = [command[0], "--repo", str(repo_dir), "--out", str(tmp_path / "x.csv"),
                *command[1:], flag, value]
        self.exits_2(capsys, argv, f"argument {flag}: expected a seed in [-(2**63), 2**64)")
        assert not (tmp_path / "x.csv").exists()

    def test_seed_range_ends_accepted(self, repo_dir, tmp_path, capsys):
        ends = [str(-(2**63)), str(2**64 - 1)]
        budget = ["--budget-s", "600", "--n-max", "5", "--c-max", "6"]
        for seed in ends:
            code, _, _ = run(capsys, "simulate", "--repo", str(repo_dir), "--seed", seed,
                             *budget, "--out", str(tmp_path / "sim.csv"))
            assert code == 0
        out_csv = tmp_path / "abl.csv"
        # "--seeds=": a list that starts with "-" would otherwise read as a flag
        code, _, _ = run(capsys, "ablate", "--repo", str(repo_dir), "--axis",
                         "configs-per-family", "--values", "2", "--seeds=" + ",".join(ends),
                         *budget, "--out", str(out_csv))
        assert code == 0
        assert [row[2] for row in parse_csv(out_csv.read_text())[1]] == ends


def count_learned(monkeypatch) -> list[int]:
    """Patch the learner every leave-one-out set goes through; returns a live call count."""
    calls = [0]
    learn = predrepo.simulate.learn_portfolio

    def counted(*args, **kwargs):
        calls[0] += 1
        return learn(*args, **kwargs)

    monkeypatch.setattr(predrepo.simulate, "learn_portfolio", counted)
    return calls


class TestLearnedOncePerCommand:
    ARGS = ("--budget-s", "1e12", "--n-max", "5", "--c-max", "6")

    def ablate(self, capsys, repo_dir, out_csv, axis, values, seeds):
        code, out, _ = run(capsys, "ablate", "--repo", str(repo_dir), "--axis", axis,
                           "--values", values, "--seeds", seeds, *self.ARGS,
                           "--out", str(out_csv))
        assert code == 0
        return parse_csv(out_csv.read_text())[1], parse_csv(out)[1]

    def test_simulate_learns_one_portfolio_per_dataset(self, repo_dir, tmp_path, capsys,
                                                      monkeypatch):
        calls = count_learned(monkeypatch)
        code, _, _ = run(capsys, "simulate", "--repo", str(repo_dir), *self.ARGS,
                         "--out", str(tmp_path / "s.csv"))
        assert code == 0
        assert calls[0] == len(open_repo(repo_dir).datasets)

    def test_portfolio_size_learns_once_and_matches_single_runs(self, repo_dir, tmp_path,
                                                               capsys, monkeypatch):
        calls = count_learned(monkeypatch)
        rows, summary = self.ablate(capsys, repo_dir, tmp_path / "all.csv", "portfolio-size",
                                    "1,2,4", "0,1,2")
        assert calls[0] == len(open_repo(repo_dir).datasets)
        single = []
        for value in ("1", "2", "4"):
            for seed in ("0", "1", "2"):
                single += self.ablate(capsys, repo_dir, tmp_path / "one.csv",
                                      "portfolio-size", value, seed)[0]
        assert rows == single
        assert [r[4] for r in summary] == ["3"] * 3

    def test_ensemble_members_learns_one_set(self, repo_dir, tmp_path, capsys, monkeypatch):
        calls = count_learned(monkeypatch)
        rows, _ = self.ablate(capsys, repo_dir, tmp_path / "a.csv", "ensemble-members",
                              "1,3", "0,1")
        assert calls[0] == len(open_repo(repo_dir).datasets)
        assert len(rows) == 4

    def test_seeded_axis_learns_per_value_and_seed(self, repo_dir, tmp_path, capsys,
                                                   monkeypatch):
        calls = count_learned(monkeypatch)
        rows, _ = self.ablate(capsys, repo_dir, tmp_path / "a.csv", "configs-per-family",
                              "1,2", "0,1,2")
        assert calls[0] == len(open_repo(repo_dir).datasets) * 2 * 3
        assert len(rows) == 6

    @pytest.mark.parametrize("axis", ["configs-per-family", "n-train-datasets"])
    def test_seeds_drawing_one_input_learn_one_set(self, tmp_path, capsys, monkeypatch, axis):
        # with equal families at their full size, or every other dataset training,
        # each seed draws the same learner input
        base = tmp_path / "equal"
        base.mkdir()
        spec_path = write_spec(base, families=(FamilySpec("gbm", 3, 0.85, 0.5, 0.3),
                                               FamilySpec("mlp", 3, 0.6, 0.8, 0.2)))
        code, _, _ = run(capsys, "generate", "--spec", str(spec_path), "--out", str(base / "repo"))
        assert code == 0
        n_datasets = len(open_repo(base / "repo").datasets)
        value = "3" if axis == "configs-per-family" else str(n_datasets - 1)
        calls = count_learned(monkeypatch)
        rows, summary = self.ablate(capsys, base / "repo", tmp_path / "all.csv", axis, value,
                                    "0,1,2")
        assert calls[0] == n_datasets
        single = []
        for seed in ("0", "1", "2"):
            single += self.ablate(capsys, base / "repo", tmp_path / "one.csv", axis, value,
                                  seed)[0]
        assert rows == single
        assert summary[0][4] == "3"

def count_greedy(monkeypatch) -> list[tuple[int, list[int]]]:
    """Patch the greedy loop at every name a simulation calls it by; returns a live
    list of (task, each pool's step count), one per call."""
    calls = []
    select = predrepo.ensemble._select_pools

    def counted(repo, task, pools, c_max):
        counts = list(c_max) if isinstance(c_max, list) else [c_max] * len(pools)
        calls.append((repo.task_index(task), counts))
        return select(repo, task, pools, c_max)

    for module in (predrepo.ensemble, predrepo.simulate):
        monkeypatch.setattr(module, "_select_pools", counted)
    return calls


class TestOneGreedyRunPerTask:
    ARGS = ("--budget-s", "5", "--n-max", "5", "--c-max", "6")

    def calls(self, capsys, monkeypatch, repo_dir, tmp_path, *command):
        """The greedy calls of one command, and the repository's family count."""
        calls = count_greedy(monkeypatch)
        code, _, _ = run(capsys, *command[:1], "--repo", str(repo_dir), *self.ARGS,
                         *command[1:], "--out", str(tmp_path / "out.csv"))
        assert code == 0
        repo = open_repo(repo_dir)
        assert [t for t, _ in calls] == list(range(repo.n_tasks))  # one call per task
        return [counts for _, counts in calls], len(repo.families)

    def test_simulate_makes_one_pooled_call_per_task(self, repo_dir, tmp_path, capsys,
                                                     monkeypatch):
        counts, f = self.calls(capsys, monkeypatch, repo_dir, tmp_path, "simulate")
        # one tuned+ensemble pool per family, then Portfolio (ensemble) and Portfolio
        assert counts == [[6] * f + [6, 1]] * len(counts)

    def test_ablate_base_table_makes_one_call_per_task(self, repo_dir, tmp_path, capsys,
                                                       monkeypatch):
        counts, f = self.calls(capsys, monkeypatch, repo_dir, tmp_path, "ablate", "--axis",
                               "portfolio-size", "--values", "1,3", "--seeds", "0,1")
        # every family pool and one Portfolio (ensemble) pool per value
        assert counts == [[6] * (f + 2)] * len(counts)

    def test_ablate_makes_one_call_per_task_for_each_c_max(self, repo_dir, tmp_path, capsys,
                                                           monkeypatch):
        counts, f = self.calls(capsys, monkeypatch, repo_dir, tmp_path, "ablate", "--axis",
                               "ensemble-members", "--values", "1,6", "--seeds", "0")
        # the family table at --c-max 6, then each value's run at its own count
        assert counts == [[6] * f + [1, 6]] * len(counts)

    def test_ensemble_members_below_c_max_make_one_call_per_task(self, repo_dir, tmp_path,
                                                                capsys, monkeypatch):
        counts, f = self.calls(capsys, monkeypatch, repo_dir, tmp_path, "ablate", "--axis",
                               "ensemble-members", "--values", "1,3", "--seeds", "0")
        # no value equals --c-max 6: still one call, each run at its own count
        assert counts == [[6] * f + [1, 3]] * len(counts)

    @pytest.mark.parametrize("axis", ["configs-per-family", "n-train-datasets"])
    def test_seeded_axes_make_one_call_per_task(self, repo_dir, tmp_path, capsys, monkeypatch,
                                                axis):
        counts, f = self.calls(capsys, monkeypatch, repo_dir, tmp_path, "ablate", "--axis",
                               axis, "--values", "1,2", "--seeds", "0,1")
        # every family pool and one pool per (value, seed) run, all at --c-max 6
        assert counts == [[6] * (f + 4)] * len(counts)

    @pytest.mark.parametrize("axis", ["configs-per-family", "n-train-datasets"])
    def test_seeds_drawing_one_input_make_one_pool(self, tmp_path, capsys, monkeypatch, axis):
        # with equal families at their full size, or every other dataset training,
        # each seed draws the same input: one run, so one pool beside the families'
        spec_path = write_spec(tmp_path, families=(FamilySpec("gbm", 3, 0.85, 0.5, 0.3),
                                                   FamilySpec("mlp", 3, 0.6, 0.8, 0.2)))
        code, _, _ = run(capsys, "generate", "--spec", str(spec_path), "--out",
                         str(tmp_path / "repo"))
        assert code == 0
        n_datasets = len(open_repo(tmp_path / "repo").datasets)
        value = "3" if axis == "configs-per-family" else str(n_datasets - 1)
        counts, f = self.calls(capsys, monkeypatch, tmp_path / "repo", tmp_path, "ablate",
                               "--axis", axis, "--values", value, "--seeds", "0,1,2")
        assert counts == [[6] * (f + 1)] * len(counts)

    @pytest.mark.parametrize("budget", ["4", "20"])
    @pytest.mark.parametrize("axis, values", [
        ("configs-per-family", "1,3"), ("n-train-datasets", "1,3"),
        ("portfolio-size", "1,4"), ("ensemble-members", "1,6"),
        ("n-train-datasets", "4")])
    def test_ablate_rows_equal_one_pool_runs(self, wider_repo_dir, tmp_path, capsys, axis,
                                             values, budget):
        from predrepo.cli import (
            PORTFOLIO_ENSEMBLE,
            _ablation_candidates,
            _ablation_train_datasets,
            _default_fallback,
            _fmt,
            _method_results,
        )

        out_csv = tmp_path / "a.csv"
        code, _, _ = run(capsys, "ablate", "--repo", str(wider_repo_dir), "--axis", axis,
                         "--values", values, "--seeds", "0,1", "--budget-s", budget, "--n-max", "5",
                         "--c-max", "6", "--out", str(out_csv))
        assert code == 0
        repo = open_repo(wider_repo_dir)
        policy = BudgetPolicy(float(budget), _default_fallback(repo), repo)
        base = [_method_results(name, res) for name, res in family_runs(repo, policy, 6).items()]
        want, fell_back, ensembled = [], False, False
        for value in map(int, values.split(",")):
            for seed in (0, 1):
                # each (value, seed) run learned and simulated on its own
                n_max, c_max, restrict = 5, 6, {}
                if axis == "configs-per-family":
                    restrict = {"candidates": _ablation_candidates(repo, value, seed)}
                elif axis == "n-train-datasets":
                    restrict = {"train_datasets": _ablation_train_datasets(repo, value, seed)}
                elif axis == "portfolio-size":
                    n_max = value
                else:
                    c_max = value
                portfolios = _loo_portfolios(repo, n_max, "normalized_loss", **restrict)
                results = one_pool_runs(repo, policy, portfolios, c_max)
                fell_back |= any(r.used_fallback for r in results)
                firsts = one_pool_runs(repo, policy, portfolios, 1)
                ensembled |= any(r.test_loss != f.test_loss for r, f in zip(results, firsts))
                tables = base + [_method_results(PORTFOLIO_ENSEMBLE, results)]
                err = mean_normalized_error(tables)[PORTFOLIO_ENSEMBLE]
                train = np.mean([p.objective_trajectory[-1] for p in portfolios.values()])
                want.append([axis, str(value), str(seed), _fmt(err), _fmt(train)])
        assert parse_csv(out_csv.read_text())[1] == want
        # at 4 s some tasks fall back; at 20 s some ensembles outgrow their first pick
        assert fell_back if budget == "4" else ensembled

    @pytest.mark.parametrize("budget", ["5", "1e12"])
    def test_every_method_equals_its_own_simulation(self, repo_dir, tmp_path, capsys, budget):
        from predrepo.cli import _default_fallback, _sim_rows

        all_csv = tmp_path / "all.csv"
        code, _, _ = run(capsys, "simulate", "--repo", str(repo_dir), "--seed", "3",
                         "--budget-s", budget, "--n-max", "5", "--c-max", "5",
                         "--out", str(tmp_path / "s.csv"), "--methods-out", str(all_csv))
        assert code == 0
        repo = open_repo(repo_dir)
        policy = BudgetPolicy(float(budget), _default_fallback(repo), repo)
        portfolios = _loo_portfolios(repo, 5, "normalized_loss")
        want = _sim_rows(repo, "Portfolio (ensemble)", one_pool_runs(repo, policy, portfolios, 5))
        # Portfolio is the first step of each Portfolio (ensemble) run
        want += _sim_rows(repo, "Portfolio", one_pool_runs(repo, policy, portfolios, 1))
        for name, results in family_runs(repo, policy, 5, order_seed=3).items():
            want += _sim_rows(repo, name, results)
        rows = parse_csv(all_csv.read_text())[1]
        assert rows == want
        # with a budget of 5 some tasks fall back; without one each portfolio pool has 5 configs
        assert any(r[7] == "true" for r in rows) == (budget == "5")


class TestReportCommand:
    def test_table2_columns_and_sorting(self, repo_dir, tmp_path, capsys):
        all_csv = tmp_path / "all.csv"
        run(capsys, "simulate", "--repo", str(repo_dir), "--budget-s", "1e12",
            "--n-max", "5", "--c-max", "6", "--out", str(tmp_path / "s.csv"),
            "--methods-out", str(all_csv))
        code, out, _ = run(capsys, "report", "--results", str(all_csv),
                           "--mode", "table2")
        assert code == 0
        assert out.splitlines()[0] == "method,normalized-error,rank,time fit (s),time infer (s)"
        _, rows = parse_csv(out)
        errors = [float(r[1]) for r in rows]
        assert errors == sorted(errors)

    def test_winrate_self_row(self, repo_dir, tmp_path, capsys):
        sim_csv = tmp_path / "s.csv"
        run(capsys, "simulate", "--repo", str(repo_dir), "--budget-s", "1e12",
            "--n-max", "5", "--c-max", "6", "--out", str(sim_csv))
        code, out, _ = run(capsys, "report", "--results", str(sim_csv),
                           "--mode", "winrate")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["method", "winrate", ">", "<", "=", "time fit (s)",
                          "time infer (s)", "loss (rescaled)", "rank"]
        assert rows[0][0] == "Portfolio (ensemble)"
        assert rows[0][1] == "0.500"
        assert rows[0][2:5] == ["0", "0", "4"]

    def test_two_identical_files_tie_ranks(self, repo_dir, tmp_path, capsys):
        sim_csv = tmp_path / "s.csv"
        run(capsys, "simulate", "--repo", str(repo_dir), "--budget-s", "1e12",
            "--n-max", "5", "--c-max", "6", "--out", str(sim_csv))
        code, out, _ = run(capsys, "report", "--results", str(sim_csv), str(sim_csv),
                           "--mode", "table2")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 2
        assert [r[2] for r in rows] == ["1.5", "1.5"]

    def test_task_set_mismatch_exits_3(self, repo_dir, tmp_path, capsys):
        sim_csv = tmp_path / "s.csv"
        run(capsys, "simulate", "--repo", str(repo_dir), "--budget-s", "1e12",
            "--n-max", "5", "--c-max", "6", "--out", str(sim_csv))
        lines = sim_csv.read_text().splitlines()
        trimmed = tmp_path / "t.csv"
        trimmed.write_text("\n".join(lines[:-1]) + "\n")
        renamed = []
        for line in lines:
            renamed.append(line.replace("Portfolio (ensemble)", "Other"))
        other = tmp_path / "o.csv"
        other.write_text("\n".join(renamed) + "\n")
        code, _, err = run(capsys, "report", "--results", str(trimmed), str(other),
                           "--mode", "table2")
        assert code == 3
        assert "mismatched cells" in err

    def test_duplicate_row_exits_2(self, repo_dir, tmp_path, capsys):
        sim_csv = tmp_path / "s.csv"
        run(capsys, "simulate", "--repo", str(repo_dir), "--budget-s", "1e12",
            "--n-max", "5", "--c-max", "6", "--out", str(sim_csv))
        lines = sim_csv.read_text().splitlines()
        duplicated = tmp_path / "d.csv"
        duplicated.write_text("\n".join(lines + [lines[1]]) + "\n")
        code, out, err = run(capsys, "report", "--results", str(duplicated),
                             "--mode", "table2")
        assert code == 2
        assert out == ""
        dataset, fold = lines[1].split(",")[1:3]
        assert f"{duplicated}: duplicate row for method 'Portfolio (ensemble)', " \
               f"dataset '{dataset}', fold {fold}" in err

    @pytest.mark.parametrize("column, value", [
        ("fold", "x"), ("fold", "1.0"), ("fold", ""),
        ("test_loss", "nan"), ("test_loss", "inf"), ("test_loss", "-inf"),
        ("test_loss", "abc"), ("test_loss", ""),
        ("time_fit_s", "nan"), ("time_fit_s", "inf"), ("time_fit_s", "-1"),
        ("time_fit_s", "x"), ("time_infer_s", "-0.5"), ("time_infer_s", "inf")])
    @pytest.mark.parametrize("mode", ["table2", "winrate"])
    def test_bad_value_exits_2_naming_the_cell(self, tmp_path, capsys, column, value, mode):
        rows = [["A", "d0", "0", "0.5", "0.5", "1", "0.1", "false", ""],
                ["A", "d0", "1", "0.5", "0.4", "1", "0.1", "false", ""],
                ["B", "d0", "0", "0.5", "0.3", "2", "0.2", "false", ""],
                ["B", "d0", "1", "0.5", "0.2", "2", "0.2", "false", ""]]
        rows[3][TASK_CSV_HEADER.index(column)] = value
        path = tmp_path / "r.csv"
        path.write_text("\n".join(",".join(r) for r in [TASK_CSV_HEADER] + rows) + "\n")
        code, out, err = run(capsys, "report", "--results", str(path), "--mode", mode)
        assert code == 2
        assert out == ""
        fold = "1" if column != "fold" else value
        assert err == (f"error: {path}: method 'B', dataset 'd0', fold {fold!r}: "
                       f"invalid {column!r} value {value!r}\n")

    def test_missing_results_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        code, out, err = run(capsys, "report", "--results", str(missing))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(missing) in err

    def test_empty_time_columns_are_skipped(self, tmp_path, capsys):
        rows = [["A", "d0", "0", "0.5", "0.5", "", "", "false", ""],
                ["B", "d0", "0", "0.5", "0.3", "", "", "false", ""]]
        path = tmp_path / "r.csv"
        path.write_text("\n".join(",".join(r) for r in [TASK_CSV_HEADER] + rows) + "\n")
        code, out, _ = run(capsys, "report", "--results", str(path))
        assert code == 0
        assert out.splitlines()[1:] == ["B,0,1,nan,nan", "A,1,2,nan,nan"]


def undecodable_json(kind: str, text: bytes) -> bytes:
    """``text``, a JSON object, made undecodable in the way ``kind`` names."""
    if kind == "invalid-utf8":
        return text.replace(b"{", b'{"\xff": 0,', 1)
    if kind == "long-integer":
        return text.replace(b"{", b'{"n": 1' + b"0" * 4300 + b",", 1)
    return b"[" * 1100 + b"]" * 1100  # deep-nesting


DECODE_FAILURES = ("invalid-utf8", "long-integer", "deep-nesting")


class TestUndecodableInput:
    """Input a reader cannot decode is exit 2 with one error line naming the file."""

    @pytest.mark.parametrize("kind", DECODE_FAILURES)
    def test_spec_exits_2(self, tmp_path, capsys, kind):
        spec = write_spec(tmp_path)
        spec.write_bytes(undecodable_json(kind, spec.read_bytes()))
        code, out, err = run(capsys, "generate", "--spec", str(spec),
                             "--out", str(tmp_path / "repo"))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: spec parse failure in {spec}: ") and err.count("\n") == 1
        assert not (tmp_path / "repo").exists()

    @pytest.mark.parametrize("kind", DECODE_FAILURES)
    def test_manifest_exits_2(self, repo_dir, tmp_path, capsys, kind):
        manifest = tmp_path / "r" / "manifest.json"
        manifest.parent.mkdir()
        manifest.write_bytes(undecodable_json(kind, (repo_dir / "manifest.json").read_bytes()))
        code, out, err = run(capsys, "validate", "--repo", str(manifest.parent))
        assert (code, out) == (2, "")
        assert err.startswith("error: manifest.json is not valid JSON: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("row, reason", [
        (b"A,d\xff,0,0.5", "'utf-8' codec can't decode byte 0xff"),
        (b"A," + b"x" * 200_000 + b",0,0.5", "field larger than field limit (131072)"),
    ], ids=["invalid-utf8", "oversized-field"])
    def test_report_csv_exits_2(self, tmp_path, capsys, row, reason):
        path = tmp_path / "r.csv"
        path.write_bytes(b"method,dataset,fold,test_loss\n" + row + b"\n")
        code, out, err = run(capsys, "report", "--results", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: cannot read results CSV: {reason}")
        assert err.count("\n") == 1

    def test_no_traceback_from_a_fresh_process(self, tmp_path):
        """A fresh interpreter has its full recursion budget, as a user's run has."""
        (tmp_path / "r").mkdir()
        (tmp_path / "r" / "manifest.json").write_bytes(undecodable_json("deep-nesting", b""))
        (tmp_path / "spec.json").write_bytes(undecodable_json("deep-nesting", b""))
        (tmp_path / "r.csv").write_text("method,dataset,fold,test_loss\nA,"
                                        + "x" * 200_000 + ",0,0.5\n")
        env = dict(os.environ, PYTHONPATH=str(Path(predrepo.__file__).parents[1]))
        for argv, named in ((["validate", "--repo", str(tmp_path / "r")], "manifest.json"),
                            (["generate", "--spec", str(tmp_path / "spec.json"),
                              "--out", str(tmp_path / "g")], str(tmp_path / "spec.json")),
                            (["report", "--results", str(tmp_path / "r.csv")],
                             str(tmp_path / "r.csv"))):
            proc = subprocess.run([sys.executable, "-m", "predrepo.cli", *argv], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 2, proc.stderr
            assert "Traceback" not in proc.stderr
            assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
            assert named in proc.stderr and proc.stdout == ""


def test_import_loads_no_scipy():
    script = ("import sys, predrepo, predrepo.cli; "
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(Path(predrepo.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
