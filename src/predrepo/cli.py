"""Command-line surface: generate, validate, ensemble, portfolio, simulate,
ablate, report.

All tabular output is CSV with floats at 6 significant digits. Data goes to
stdout or the file named by --out; each failure is one ``error: ...`` line on
stderr. All work runs serially; --threads is accepted and ignored.

Exit codes: 0 success; 2 an input that cannot be read or parsed: bad
arguments, any ``StoreError`` of a repository, a bad generator spec, or a
``report`` CSV with a missing column, a repeated row, an unparsable ``fold``
or ``test_loss``, a non-finite ``test_loss`` or a non-finite or negative
``time_fit_s`` / ``time_infer_s`` (named by file, method, dataset, fold and
column); 3 a semantic error: ``validate`` violations, methods in ``report``
covering different tasks, an unknown name, or an out-of-range value.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .aggregate import MethodResults, average_rank, mean_normalized_error, rescaled_loss, winrate
from .ensemble import DEFAULT_STEPS, evaluate_ensemble
from .portfolio import (
    DEFAULT_SIZE,
    NORMALIZED_LOSS,
    RAW_LOSS,
    Portfolio,
    learn_portfolio,
    loo_train_tasks,
)
from .simulate import (
    MODE_DEFAULT,
    MODE_TUNED,
    MODE_TUNED_ENSEMBLE,
    BudgetPolicy,
    SimResult,
    _loo_portfolios,
    _simulate_methods,
)
from .store import STORE_FILES, Repository, StoreError, open_repo, validate_repo, write_repo
from .synth import GeneratorSpec, SpecError, generate_repo, subsample_rng

PORTFOLIO_ENSEMBLE = "Portfolio (ensemble)"
PORTFOLIO_SINGLE = "Portfolio"

AGG_FLAGS = {"raw": RAW_LOSS, "normalized": NORMALIZED_LOSS}

TASK_CSV_HEADER = [
    "method", "dataset", "fold", "val_loss", "test_loss",
    "time_fit_s", "time_infer_s", "used_fallback", "included_configs",
]
TABLE2_HEADER = ["method", "normalized-error", "rank", "time fit (s)", "time infer (s)"]
WINRATE_HEADER = ["method", "winrate", ">", "<", "=", "time fit (s)", "time infer (s)",
                  "loss (rescaled)", "rank"]

DEFAULT_BUDGET_S = 14400.0

AXES = ("configs-per-family", "n-train-datasets", "portfolio-size", "ensemble-members")
SEEDED_AXES = ("configs-per-family", "n-train-datasets")


def _fmt(x: float) -> str:
    return f"{float(x):.6g}"


def _write_csv(path: str | None, header: list[str], rows: list[list[str]]) -> None:
    """Write ``header`` and ``rows`` to the file ``path``, or to stdout when it is None."""
    # sys.stdout is looked up per call: redirect_stdout and capsys replace it
    with (open(path, "w", encoding="utf-8", newline="") if path is not None
          else contextlib.nullcontext(sys.stdout)) as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _csv_list(convert, kind: str, distinct: bool = True):
    """Argparse type for a non-empty comma-separated list of ``kind`` values."""
    def parse(text: str) -> list:
        try:
            values = [convert(v) for v in text.split(",") if v != ""]
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {kind}s, got {text!r}")
        if not values:
            raise argparse.ArgumentTypeError(f"expected at least one {kind}, got {text!r}")
        if distinct and len(set(values)) < len(values):
            raise argparse.ArgumentTypeError(f"expected distinct {kind}s, got {text!r}")
        return values
    return parse


def _int_type(valid, expected: str):
    """Argparse type for an integer for which ``valid`` holds."""
    def parse(text: str) -> int:
        value = int(text)  # a ValueError is reported by argparse or by _csv_list
        if not valid(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value: ..."
    return parse


# the seed range GeneratorSpec.validate takes: the streams mask a seed to 64 bits,
# so seeds outside it would silently draw another seed's streams
SEED = _int_type(lambda v: -(2**63) <= v < 2**64, "a seed in [-(2**63), 2**64)")
POSITIVE = _int_type(lambda v: v >= 1, "an integer >= 1")


def _default_fallback(repo: Repository) -> int:
    """Config whose worst-case fit time is smallest (a fast, safe baseline)."""
    worst = np.asarray(repo.eval_table[:, :, 2]).max(axis=0)
    return int(np.argmin(worst))


def _policy(repo: Repository, args) -> BudgetPolicy:
    fallback = args.fallback if args.fallback is not None else _default_fallback(repo)
    return BudgetPolicy(args.budget_s, fallback, repo)


def _sim_rows(repo: Repository, method: str, results: list[SimResult]) -> list[list[str]]:
    config_ids = repo.config_ids
    rows = []
    for r in results:
        ids = "|".join([config_ids[j] for j in r.included_configs])
        rows.append([
            method, r.dataset_id, str(r.fold), _fmt(r.val_loss), _fmt(r.test_loss),
            _fmt(r.sim_fit_time_s), _fmt(r.sim_infer_time_s),
            "true" if r.used_fallback else "false", ids,
        ])
    return rows


def _method_results(name: str, results: list[SimResult]) -> MethodResults:
    return MethodResults(
        method=name,
        losses={r.key: r.test_loss for r in results},
        time_fit={r.key: r.sim_fit_time_s for r in results},
        time_infer={r.key: r.sim_infer_time_s for r in results},
    )


def _family_methods(by_family: dict[tuple[str, str], list[SimResult]]
                    ) -> dict[str, list[SimResult]]:
    """``_simulate_methods``' family results by method name, in the same order."""
    labels = {MODE_DEFAULT: "default", MODE_TUNED: "tuned", MODE_TUNED_ENSEMBLE: "tuned + ensemble"}
    return {f"{family} ({labels[mode]})": results for (family, mode), results in by_family.items()}


def _mean_or_nan(d: dict) -> float:
    return float(np.mean(list(d.values()))) if d else float("nan")


def _table2_rows(tables: list[MethodResults]) -> list[list[str]]:
    """Table 2 rows (TABLE2_HEADER), sorted by normalized error, then method."""
    errors = mean_normalized_error(tables)
    ranks = average_rank(tables)
    return [[m.method, _fmt(errors[m.method]), _fmt(ranks[m.method]),
             _fmt(_mean_or_nan(m.time_fit)), _fmt(_mean_or_nan(m.time_infer))]
            for m in sorted(tables, key=lambda m: (errors[m.method], m.method))]


# -- subcommands ----------------------------------------------------------


def cmd_generate(args) -> int:
    try:
        spec = GeneratorSpec.from_file(args.spec)
    except FileNotFoundError:
        print(f"error: spec file not found: {args.spec}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as e:
        print(f"error: spec parse failure at line {e.lineno}, column {e.colno}: {e.msg}",
              file=sys.stderr)
        return 2
    # write_repo's mkdir, made first so that a bad --out costs no generation
    Path(args.out).mkdir(parents=True, exist_ok=True)
    repo = generate_repo(spec)
    write_repo(repo, args.out)
    total = sum(os.path.getsize(Path(args.out) / n) for n in STORE_FILES)
    print(f"D={spec.n_datasets} S={spec.folds} M={repo.n_configs} bytes={total}")
    return 0


def cmd_validate(args) -> int:
    repo = open_repo(args.repo)
    report = validate_repo(repo)
    for entry in report:
        print(entry)
    if report:
        print(f"error: {len(report)} violation(s) found", file=sys.stderr)
        return 3
    print("OK: repository is valid")
    return 0


def cmd_ensemble(args) -> int:
    repo = open_repo(args.repo)
    datasets = args.datasets if args.datasets is not None else repo.datasets
    folds = args.folds if args.folds is not None else list(range(repo.folds_per_dataset))
    configs = args.configs if args.configs is not None else list(range(repo.n_configs))
    tensor = evaluate_ensemble(datasets, folds, configs, args.ensemble_size, repo)
    rows = [[d, str(f), _fmt(tensor[i, k, 0]), _fmt(tensor[i, k, 1])]
            for i, d in enumerate(datasets) for k, f in enumerate(folds)]
    _write_csv(args.out, ["dataset", "fold", "val_loss", "test_loss"], rows)
    return 0


def cmd_portfolio(args) -> int:
    repo = open_repo(args.repo)
    train = repo.tasks if args.hold_out is None else loo_train_tasks(repo, args.hold_out)
    pf = learn_portfolio(train, list(range(repo.n_configs)), args.n_max,
                         AGG_FLAGS[args.aggregation], repo)
    rows = [
        [str(i), repo.configs[j].config_id, _fmt(pf.objective_trajectory[i])]
        for i, j in enumerate(pf.configs)
    ]
    _write_csv(args.out, ["position", "config_id", "objective"], rows)
    return 0


def cmd_simulate(args) -> int:
    repo = open_repo(args.repo)
    policy = _policy(repo, args)
    agg = AGG_FLAGS[args.aggregation]

    # both portfolio methods run on one learned set; Portfolio is its run of
    # one step, the first step of the same greedy run
    portfolios = _loo_portfolios(repo, args.n_max, agg)
    by_family, [ensemble, single] = _simulate_methods(
        repo, policy, args.c_max, repo.families, [(portfolios, args.c_max), (portfolios, 1)],
        args.seed)
    methods = {PORTFOLIO_ENSEMBLE: ensemble, PORTFOLIO_SINGLE: single,
               **_family_methods(by_family)}

    _write_csv(args.out, TASK_CSV_HEADER, _sim_rows(repo, PORTFOLIO_ENSEMBLE,
                                                    methods[PORTFOLIO_ENSEMBLE]))
    if args.methods_out:
        rows = []
        for name, results in methods.items():
            rows.extend(_sim_rows(repo, name, results))
        _write_csv(args.methods_out, TASK_CSV_HEADER, rows)

    _write_csv(None, TABLE2_HEADER,
               _table2_rows([_method_results(name, results) for name, results in methods.items()]))
    return 0


def _subsample(pool: list, value: int, seed: int, i: int) -> list:
    """``value`` entries of ``pool`` in pool order, drawn by the stream ``(seed, i, value)``."""
    take = subsample_rng(seed, a=i, b=value).choice(len(pool), size=value, replace=False)
    return [pool[k] for k in sorted(take)]


def _ablation_candidates(repo: Repository, value: int, seed: int) -> list[int]:
    chosen: list[int] = []
    for fi, family in enumerate(repo.families):
        members = repo.family_configs(family)
        if value > len(members):
            raise ValueError(
                f"configs-per-family value {value} exceeds family {family!r} size {len(members)}")
        chosen.extend(_subsample(members, value, seed, fi))
    return sorted(chosen)


def _ablation_train_datasets(repo: Repository, value: int, seed: int) -> dict[str, list[str]]:
    datasets = repo.datasets
    if value > len(datasets) - 1:
        raise ValueError(
            f"n-train-datasets value {value} exceeds available count {len(datasets) - 1}")
    return {dataset: _subsample([d for d in datasets if d != dataset], value, seed, di)
            for di, dataset in enumerate(datasets)}


def cmd_ablate(args) -> int:
    repo = open_repo(args.repo)
    policy = _policy(repo, args)
    agg = AGG_FLAGS[args.aggregation]
    if args.axis == "portfolio-size" and max(args.values) > repo.n_configs:
        raise ValueError(
            f"portfolio-size value {max(args.values)} exceeds config count {repo.n_configs}")

    # each run's leave-one-out set and c_max, keyed by (value, seed); portfolio-size
    # and ensemble-members do not depend on the seed: one set is learned per command
    # (a size-k portfolio is the first k picks of a larger one), and each value is
    # one run on it
    seeds = args.seeds if args.axis in SEEDED_AXES else [None]
    if args.axis in ("portfolio-size", "ensemble-members"):
        n_max = max(args.values) if args.axis == "portfolio-size" else args.n_max
        learned = _loo_portfolios(repo, n_max, agg)
    runs = {}
    for value in args.values:
        for seed in seeds:
            if args.axis == "portfolio-size":
                portfolios = {d: Portfolio(p.configs[:value], p.objective_trajectory[:value], agg)
                              for d, p in learned.items()}
            elif args.axis == "ensemble-members":
                portfolios = learned
            elif args.axis == "configs-per-family":
                candidates = _ablation_candidates(repo, value, seed)
                portfolios = _loo_portfolios(repo, args.n_max, agg, candidates=candidates)
            else:
                train_datasets = _ablation_train_datasets(repo, value, seed)
                portfolios = _loo_portfolios(repo, args.n_max, agg, train_datasets=train_datasets)
            c_max = value if args.axis == "ensemble-members" else args.c_max
            runs[value, seed] = portfolios, c_max

    # one simulation: the fixed single-family table at --c-max, which anchors the
    # normalization across all runs, and every run at its own c_max
    by_family, ensembles = _simulate_methods(repo, policy, args.c_max, repo.families,
                                             list(runs.values()))
    base = [_method_results(name, res) for name, res in _family_methods(by_family).items()]
    scores = {}
    for (key, (portfolios, _)), results in zip(runs.items(), ensembles):
        tables = base + [_method_results(PORTFOLIO_ENSEMBLE, results)]
        scores[key] = (mean_normalized_error(tables)[PORTFOLIO_ENSEMBLE],
                       float(np.mean([p.objective_trajectory[-1] for p in portfolios.values()])))

    rows, summary = [], []
    for value in args.values:
        per_seed = [scores[value, seed if args.axis in SEEDED_AXES else None]
                    for seed in args.seeds]
        for seed, (err, train_obj) in zip(args.seeds, per_seed):
            rows.append([args.axis, str(value), str(seed), _fmt(err), _fmt(train_obj)])
        errs = np.array([err for err, _ in per_seed])
        se = float(errs.std(ddof=1) / np.sqrt(errs.size)) if errs.size > 1 else 0.0
        summary.append([args.axis, str(value), _fmt(float(errs.mean())), _fmt(se),
                        str(errs.size)])

    _write_csv(args.out, ["axis", "value", "seed", "mean_normalized_error",
                          "mean_train_objective"], rows)
    _write_csv(None, ["axis", "value", "mean", "stderr", "n_seeds"], summary)
    return 0


def _cell_value(path: str, row: dict, column: str, convert, valid=lambda v: True):
    """``convert(row[column])``; an unparsable or invalid value is a StoreError naming the cell."""
    try:
        value = convert(row[column])
    except (TypeError, ValueError):
        pass
    else:
        if valid(value):
            return value
    raise StoreError(f"{path}: method {row['method']!r}, dataset {row['dataset']!r}, "
                     f"fold {row['fold']!r}: invalid {column!r} value {row[column]!r}")


def _read_method_tables(paths: list[str]) -> list[MethodResults]:
    tables: list[MethodResults] = []
    names: set[str] = set()
    for path in paths:
        per_method: dict[str, MethodResults] = {}
        with open(path, "r", encoding="utf-8", newline="") as f:
            reader = csv.DictReader(f)
            required = {"method", "dataset", "fold", "test_loss"}
            if reader.fieldnames is None or not required.issubset(reader.fieldnames):
                raise StoreError(
                    f"{path}: results CSV must have columns {sorted(required)}")
            for row in reader:
                name = row["method"]
                if name not in per_method:
                    final = name
                    k = 2
                    while final in names:
                        final = f"{name}#{k}"
                        k += 1
                    names.add(final)
                    per_method[name] = MethodResults(final, {}, {}, {})
                m = per_method[name]
                key = (row["dataset"], _cell_value(path, row, "fold", int))
                if key in m.losses:
                    raise StoreError(f"{path}: duplicate row for method {name!r}, "
                                     f"dataset {key[0]!r}, fold {key[1]}")
                m.losses[key] = _cell_value(path, row, "test_loss", float, math.isfinite)
                for column, times in (("time_fit_s", m.time_fit), ("time_infer_s", m.time_infer)):
                    if row.get(column):
                        times[key] = _cell_value(path, row, column, float,
                                                 lambda v: math.isfinite(v) and v >= 0)
        tables.extend(per_method.values())
    if not tables:
        raise StoreError("no methods found in the given results files")
    return tables


def cmd_report(args) -> int:
    tables = _read_method_tables(args.results)
    if args.mode == "table2":
        _write_csv(args.out, TABLE2_HEADER, _table2_rows(tables))
        return 0

    by_name = {m.method: m for m in tables}
    reference = args.reference if args.reference is not None else tables[0].method
    if reference not in by_name:
        raise KeyError(f"unknown reference method: {reference!r}")
    if len(tables) > 1:
        rescaled = rescaled_loss(tables)
        ranks = average_rank(tables)
    else:
        rescaled = {tables[0].method: 0.0}
        ranks = {tables[0].method: 1.0}
    rows = []
    for m in sorted(tables, key=lambda m: (rescaled[m.method], m.method)):
        wr = winrate(m, by_name[reference], fold_count=None)
        rows.append([m.method, f"{wr.winrate:.3f}", str(wr.n_better), str(wr.n_worse),
                     str(wr.n_equal), _fmt(_mean_or_nan(m.time_fit)),
                     _fmt(_mean_or_nan(m.time_infer)), _fmt(rescaled[m.method]),
                     _fmt(ranks[m.method])])
    _write_csv(args.out, WINRATE_HEADER, rows)
    return 0


# -- parser ---------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, out_required: bool = False):
    p.add_argument("--repo", required=True, help="repository directory")
    p.add_argument("--out", required=out_required, default=None, help="output CSV path")
    p.add_argument("--threads", type=int, default=1,
                   help="ignored: all work runs serially (kept so existing scripts still parse)")


def _add_budget(p: argparse.ArgumentParser):
    p.add_argument("--budget-s", type=float, default=DEFAULT_BUDGET_S,
                   help="training-time budget in seconds")
    p.add_argument("--n-max", type=POSITIVE, default=DEFAULT_SIZE, help="max portfolio size")
    p.add_argument("--c-max", type=POSITIVE, default=DEFAULT_STEPS, help="greedy ensemble steps")
    p.add_argument("--aggregation", choices=sorted(AGG_FLAGS), default="normalized")
    p.add_argument("--fallback", default=None,
                   help="fallback config id (default: config with smallest worst-case fit time)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="predrepo",
        description="Prediction-repository simulation engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # allow_abbrev=False on every subcommand: each flag has one spelling, so a
    # prefix such as --seed can never silently mean --seeds

    p = sub.add_parser("generate", help="generate a synthetic repository from a spec file",
                       allow_abbrev=False)
    p.add_argument("--spec", required=True, help="generator spec (JSON)")
    p.add_argument("--out", required=True, help="output repository directory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("validate", help="check repository invariants", allow_abbrev=False)
    p.add_argument("--repo", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("ensemble", help="evaluate greedy ensembles over given configs",
                       allow_abbrev=False)
    _add_common(p)
    p.add_argument("--datasets", type=_csv_list(str, "id"), default=None,
                   help="comma-separated distinct dataset ids (default all)")
    p.add_argument("--folds", type=_csv_list(int, "integer"), default=None,
                   help="comma-separated distinct folds (default all)")
    p.add_argument("--configs", type=_csv_list(str, "id", distinct=False), default=None,
                   help="comma-separated config ids (default all)")
    p.add_argument("--ensemble-size", type=POSITIVE, default=DEFAULT_STEPS)
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("portfolio", help="learn a greedy portfolio from stored losses",
                       allow_abbrev=False)
    _add_common(p)
    p.add_argument("--n-max", type=POSITIVE, default=DEFAULT_SIZE)
    p.add_argument("--aggregation", choices=sorted(AGG_FLAGS), default="normalized")
    p.add_argument("--hold-out", default=None, help="dataset to exclude from training tasks")
    p.set_defaults(func=cmd_portfolio)

    p = sub.add_parser("simulate", help="anytime LOO portfolio simulation plus family baselines",
                       allow_abbrev=False)
    _add_common(p, out_required=True)
    _add_budget(p)
    p.add_argument("--methods-out", default=None,
                   help="optional CSV with per-task rows for every compared method")
    p.add_argument("--seed", type=SEED, default=None,
                   help="seed of the order in which each family's tuned search tries its "
                        "configs (default: repository order)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("ablate", help="axis ablations over repeated seeded LOO simulations",
                       allow_abbrev=False)
    _add_common(p, out_required=True)
    _add_budget(p)
    p.add_argument("--axis", choices=AXES, required=True)
    p.add_argument("--values", type=_csv_list(POSITIVE, "integer"), required=True)
    p.add_argument("--seeds", type=_csv_list(SEED, "integer"), required=True)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("report", help="aggregate per-task result CSVs into comparison tables",
                       allow_abbrev=False)
    p.add_argument("--results", nargs="+", required=True, help="per-task result CSV files")
    p.add_argument("--out", default=None)
    p.add_argument("--mode", choices=("table2", "winrate"), default="table2")
    p.add_argument("--reference", default=None,
                   help="winrate reference method (default: first method)")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    # before ValueError, as a SpecError is one; an OSError is an input path that
    # cannot be read or an output that cannot be written
    except (StoreError, SpecError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except KeyError as e:
        print(f"error: {e.args[0] if e.args else e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
