"""Workload definitions and the output checks that gate them.

Every workload runs the same session against its own generated repository
(write, open, validate, uniform-random single-cell reads, one CLI command),
so every layer shows up in every trace; the shapes decide which layer
dominates:

- ``sim-fig2``: ``predrepo simulate`` on a repository shaped like the
  acceptance suite's fig2 spec (three equal families of 20 configs, rows
  100-160, two bag folds), with fewer datasets so that one invocation takes a
  few seconds. Greedy ensemble selection and the loss kernels dominate.
- ``ablate-wide``: ``predrepo ablate --axis portfolio-size`` on a wide,
  shallow repository (four families, short prediction matrices). Greedy
  portfolio learning dominates and the ensemble path is small. Every config
  fits its budget and ensembles take one step: under a binding budget the
  ensemble work would follow the fit times each seed draws, and the run time
  would vary with the seed. Its store has many small cells, so open and
  validate cost more per byte than on ``sim-fig2``.

The checks here never call the code under test for a reference value: they
recompute what they can from the generator's evaluation table with plain
numpy, and otherwise check the invariants the outputs must satisfy.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

CLI_THREADS = "1"
READS_PER_PASS = 2000  # at least 20 samples beyond the 99th percentile


@dataclass(frozen=True)
class Workload:
    name: str
    n_datasets: int
    folds: int
    families: tuple[str, ...]
    configs_per_family: int
    rows: tuple[int, int]
    command: tuple[str, ...]  # CLI arguments after the repository and output paths

    def spec(self, predrepo, seed: int):
        fam = predrepo.FamilySpec
        return predrepo.GeneratorSpec(
            seed=seed,
            n_datasets=self.n_datasets,
            folds=self.folds,
            families=tuple(fam(f, self.configs_per_family, 0.75, 0.55, 0.3)
                           for f in self.families),
            rows_val=self.rows,
            rows_test=self.rows,
            problem_mix={"binary": 0.3, "multiclass": 0.3, "regression": 0.4},
            bag_folds=2,
        )

    @property
    def subcommand(self) -> str:
        return self.command[0]

    def option(self, flag: str) -> str:
        return self.command[self.command.index(flag) + 1]

    def argv(self, repo_dir, out_dir) -> list[str]:
        argv = [self.subcommand, "--repo", str(repo_dir), "--out", str(out_dir / "out.csv"),
                "--threads", CLI_THREADS, *self.command[1:]]
        if self.subcommand == "simulate":
            argv += ["--methods-out", str(out_dir / "methods.csv")]
        return argv

    def n_results(self, n_tasks: int) -> int:
        """SimResult rows one invocation produces (one per method and task)."""
        family_rows = n_tasks * 3 * len(self.families)
        if self.subcommand == "simulate":
            return family_rows + 2 * n_tasks
        runs = len(self.option("--values").split(",")) * len(self.option("--seeds").split(","))
        return family_rows + runs * n_tasks


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sim-fig2",
            n_datasets=4, folds=3, families=("gbm", "mlp", "knn"), configs_per_family=20,
            rows=(100, 160),
            command=("simulate", "--budget-s", "3600", "--n-max", "10", "--c-max", "40"),
        ),
        Workload(
            name="ablate-wide",
            n_datasets=6, folds=2, families=("gbm", "mlp", "knn", "rf"), configs_per_family=50,
            rows=(20, 30),
            command=("ablate", "--axis", "portfolio-size", "--values", "40,160",
                     "--seeds", "0", "--budget-s", "1e12", "--n-max", "160", "--c-max", "1"),
        ),
    )
}


# -- output checks ------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{float(x):.6g}"


def _rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def check_outputs(workload: Workload, repo, outputs: dict[str, str]) -> list[str]:
    """Problems found in one invocation's outputs; empty when they are right.

    ``repo`` is the generator's in-memory repository.
    """
    if workload.subcommand == "simulate":
        return _check_simulate(workload, repo, outputs)
    return _check_ablate(workload, repo, outputs)


def _check_simulate(workload: Workload, repo, outputs: dict[str, str]) -> list[str]:
    evals = np.asarray(repo.eval_table, dtype=np.float64)
    budget = float(workload.option("--budget-s"))
    ids = {c.config_id: j for j, c in enumerate(repo.configs)}
    fallback = int(np.argmin(evals[:, :, 2].max(axis=0)))
    methods = ["Portfolio (ensemble)", "Portfolio"] + [
        f"{fam} ({mode})" for fam in repo.families
        for mode in ("default", "tuned", "tuned + ensemble")]
    keys = [[t.dataset_id, str(t.fold)] for t in repo.tasks]
    problems: list[str] = []

    rows = _rows(outputs["methods.csv"])
    if rows[0][:3] != ["method", "dataset", "fold"]:
        return ["methods.csv: bad header"]
    body = rows[1:]
    if [r[0] for r in body] != [m for m in methods for _ in keys]:
        return ["methods.csv: methods or row counts differ from the expected table"]
    if _rows(outputs["out.csv"]) != [rows[0]] + body[: len(keys)]:
        problems.append("out.csv differs from the Portfolio (ensemble) rows of methods.csv")
    table = _rows(outputs["stdout"])
    if sorted(r[0] for r in table[1:]) != sorted(methods):
        problems.append("stdout summary does not list every method once")

    for i, row in enumerate(body):
        method, val, test, fit, used_fb, included = row[0], row[3], row[4], row[5], row[7], row[8]
        t = i % len(keys)
        if row[1:3] != keys[t]:
            problems.append(f"{method}: row {i} has task {row[1:3]}, expected {keys[t]}")
            continue
        inc = [ids[c] for c in included.split("|")]
        where = f"{method} task {keys[t]}"
        if abs(float(fit) - evals[t, inc, 2].sum()) > 1e-5 * max(1.0, float(fit)):
            problems.append(f"{where}: fit time {fit} is not the sum over included configs")
        if method.endswith("(default)"):
            family = method[: -len(" (default)")]
            default = next(j for j, c in enumerate(repo.configs)
                           if c.family == family and c.is_default)
            if inc != [default] or (val, test) != (_fmt(evals[t, default, 0]),
                                                  _fmt(evals[t, default, 1])):
                problems.append(f"{where}: not the stored default record")
            continue
        if used_fb == "true":
            if inc != [fallback]:
                problems.append(f"{where}: fallback row includes {inc}")
        elif evals[t, inc, 2].sum() > budget:
            problems.append(f"{where}: included configs exceed the budget")
        if not method.startswith("Portfolio"):
            # family configs are walked in repository order; the walk stops
            # at the first config that no longer fits
            members = repo.family_configs(method.rsplit(" (", 1)[0])
            fits = int(np.searchsorted(np.cumsum(evals[t, members, 2]), budget, side="right"))
            if inc != (members[:fits] if fits else [fallback]):
                problems.append(f"{where}: included configs are not the budget prefix")
        best = min(inc, key=lambda j: (evals[t, j, 0], j))
        if method.endswith("(tuned)") or method == "Portfolio":
            if (val, test) != (_fmt(evals[t, best, 0]), _fmt(evals[t, best, 1])):
                problems.append(f"{where}: not the best included config's stored losses")
        elif float(val) > float(_fmt(evals[t, best, 0])) * (1 + 1e-6) + 1e-12:
            problems.append(f"{where}: ensemble val loss {val} above its best member's")
    return problems


def reference_objective(repo, n_max: int) -> float:
    """Mean final training objective of leave-one-dataset-out portfolios.

    A vectorized restatement of greedy portfolio learning on min-max
    normalized validation losses, ties to the lowest config ordinal.
    """
    val = np.asarray(repo.eval_table[:, :, 0], dtype=np.float64)
    datasets = [t.dataset_id for t in repo.tasks]
    finals = []
    for held_out in dict.fromkeys(datasets):
        losses = val[[d != held_out for d in datasets]]
        lo = losses.min(axis=1, keepdims=True)
        span = losses.max(axis=1, keepdims=True) - lo
        losses = np.divide(losses - lo, span, out=np.zeros_like(losses), where=span > 0)
        current = np.full(losses.shape[0], np.inf)
        picked = np.zeros(losses.shape[1], dtype=bool)
        for _ in range(min(n_max, losses.shape[1])):
            objective = np.minimum(current[:, None], losses).mean(axis=0)
            objective[picked] = np.inf
            col = int(np.argmin(objective))
            picked[col] = True
            current = np.minimum(current, losses[:, col])
            final = objective[col]
        finals.append(final)
    return float(np.mean(finals))


def _check_ablate(workload: Workload, repo, outputs: dict[str, str]) -> list[str]:
    values = [int(v) for v in workload.option("--values").split(",")]
    seeds = workload.option("--seeds").split(",")
    axis = workload.option("--axis")
    rows = _rows(outputs["out.csv"])
    expected = [[axis, str(v), s] for v in values for s in seeds]
    if [r[:3] for r in rows[1:]] != expected:
        return ["out.csv: rows differ from the expected (axis, value, seed) grid"]
    problems = []
    objectives = []
    for row in rows[1:]:
        error, objective = float(row[3]), float(row[4])
        objectives.append(objective)
        if not 0.0 <= error <= 1.0:
            problems.append(f"value {row[1]}: normalized error {error} outside [0, 1]")
        reference = reference_objective(repo, int(row[1]))
        if abs(objective - reference) > 1e-5 * max(1.0, abs(reference)):
            problems.append(f"value {row[1]}: training objective {objective}, "
                            f"reference {reference:.6g}")
    if any(b > a for a, b in zip(objectives, objectives[1:])):
        problems.append("training objective grows with portfolio size")
    if len(_rows(outputs["stdout"])) != 1 + len(values):
        problems.append("stdout summary does not have one row per value")
    return problems
