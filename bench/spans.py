"""Span tracer for the benchmark, installed from outside the package.

Each public entry point is wrapped at every name its callers look it up by
(``cli`` and ``simulate`` import functions by name, so wrapping the defining
module alone would miss their calls). A span records its name, start, end,
the id of the span that was open when it began, and the benchmark iteration
it belongs to. Self time is span time minus the time covered by child spans.

The tracer also keeps exact counters taken from the arguments and return
values of the wrapped calls. With ``--threads 1`` they repeat exactly from
run to run, so they are reported as counts.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute) -> span name. Every name a caller resolves at call time.
FUNCTION_SITES = {
    ("metrics", "task_loss"): "metrics.task_loss",
    ("metrics", "auc_loss"): "metrics.auc_loss",
    ("metrics", "log_loss"): "metrics.log_loss",
    ("metrics", "rmse"): "metrics.rmse",
    ("ensemble", "caruana_select"): "ensemble.caruana_select",
    ("ensemble", "ensemble_predict"): "ensemble.ensemble_predict",
    ("simulate", "caruana_select"): "ensemble.caruana_select",
    ("simulate", "ensemble_predict"): "ensemble.ensemble_predict",
    ("simulate", "learn_portfolio"): "portfolio.learn_portfolio",
    ("cli", "learn_portfolio"): "portfolio.learn_portfolio",
    ("cli", "simulate_portfolio"): "simulate.simulate_portfolio",
    ("cli", "_simulate_loo"): "simulate.simulate_loo",
    ("cli", "simulate_single_family"): "simulate.simulate_single_family",
    ("cli", "mean_normalized_error"): "aggregate.mean_normalized_error",
    ("cli", "average_rank"): "aggregate.average_rank",
    ("cli", "open_repo"): "store.open_repo",
    ("store", "open_repo"): "store.open_repo",
    ("store", "write_repo"): "store.write_repo",
    ("store", "validate_repo"): "store.validate_repo",
}
METHOD_SITES = {
    ("Repository", "predictions"): "store.predictions",
    ("Repository", "labels"): "store.labels",
}

MODULES = ("cli", "simulate", "portfolio", "ensemble", "metrics", "aggregate", "store")


class Tracer:
    """Collects spans and counters while installed; inert otherwise."""

    def __init__(self):
        self.active = False
        self.iteration = 0
        self._next_id = 1
        self._stack: list[list] = []  # [span id, child time] of open spans
        self.spans: list[tuple] = []  # (id, parent, iteration, name, start, end, self)
        self.counts: dict[str, int] = defaultdict(int)
        self.cells: set = set()
        self.included: list[int] = []
        self._restore: list[tuple] = []

    # -- spans --------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        frame = [span_id, 0]
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            self.spans.append((span_id, parent, self.iteration, name, start, end,
                               duration - frame[1]))

    @contextmanager
    def paused(self):
        """Suspend recording, for the benchmark's own checks inside a pass."""
        active, self.active = self.active, False
        try:
            yield
        finally:
            self.active = active

    def start_iteration(self, iteration: int) -> None:
        self.iteration = iteration
        self.spans = []
        self.counts = defaultdict(int)
        self.cells = set()
        self.included = []

    # -- installation -------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every site in FUNCTION_SITES and METHOD_SITES of ``package``.

        A site the package no longer has is reported and skipped; its time
        then counts toward the enclosing span.
        """
        wrappers = {}
        for (mod_name, attr), span_name in FUNCTION_SITES.items():
            module = getattr(package, mod_name)
            original = getattr(module, attr, None)
            if original is None:
                print(f"trace: predrepo.{mod_name}.{attr} not found, not traced",
                      file=sys.stderr)
                continue
            if original not in wrappers:
                wrappers[original] = self._wrap(original, span_name)
            self._restore.append((module, attr, original))
            setattr(module, attr, wrappers[original])
        for (cls_name, attr), span_name in METHOD_SITES.items():
            cls = getattr(package.store, cls_name)
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, span_name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def _wrap(self, fn, name: str):
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            with tracer.span(name):
                result = fn(*args, **kwargs)
            tracer.counts[name + ".calls"] += 1
            if observe is not None:
                observe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- counters taken from arguments and results --------------------------

    def _observe_store_predictions(self, args, kwargs, result) -> None:
        repo, task, config = args[:3]
        split = args[3] if len(args) > 3 else kwargs["split"]
        self.cells.add((repo.task_index(task), repo.config_index(config), int(split)))
        self.counts["store.bytes_read"] += result.nbytes

    def _observe_ensemble_caruana_select(self, args, kwargs, result) -> None:
        # caruana_select(task, candidate_configs, c_max, repo)
        n_candidates = len(set(args[1]))
        steps = len(result.trajectory)
        self.counts["ensemble.greedy_steps"] += steps
        self.counts["ensemble.candidates_scored"] += n_candidates * steps
        self.counts["ensemble.useful_picks"] += result.steps

    def _observe_portfolio_learn_portfolio(self, args, kwargs, result) -> None:
        self.counts["portfolio.picks"] += len(result.configs)

    def _observe_sim_results(self, results) -> None:
        self.counts["simulate.results"] += len(results)
        for r in results:
            self.counts["simulate.fallback_count"] += int(r.used_fallback)
            self.included.append(len(r.included_configs))

    def _observe_simulate_simulate_portfolio(self, args, kwargs, result) -> None:
        self._observe_sim_results(result)

    def _observe_simulate_simulate_single_family(self, args, kwargs, result) -> None:
        self._observe_sim_results(result)

    def _observe_simulate_simulate_loo(self, args, kwargs, result) -> None:
        self._observe_sim_results(result[0])

    # -- per-iteration summary ----------------------------------------------

    def summary(self) -> dict[str, float]:
        """Self times, inclusive times and counters of the current iteration."""
        out: dict[str, float] = defaultdict(float)
        for _, _, _, name, start, end, self_ns in self.spans:
            module = name.split(".", 1)[0]
            out[name + ".self_s"] += self_ns / 1e9
            out[module + ".self_s"] += self_ns / 1e9
            out[name + ".s"] += (end - start) / 1e9
        out.update(self.counts)
        cells = len(self.cells)
        out["store.cells_distinct"] = cells
        out["store.reread_ratio"] = self.counts["store.predictions.calls"] / cells if cells else 0.0
        useful = self.counts["ensemble.useful_picks"]
        out["ensemble.loss_evals_per_step"] = (
            self.counts["ensemble.candidates_scored"] / useful if useful else 0.0)
        out["simulate.included_mean"] = (
            sum(self.included) / len(self.included) if self.included else 0.0)
        return dict(out)
