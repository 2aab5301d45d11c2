"""predrepo benchmark: one workload, one seed, a fixed measuring time.

Run from the root of a source checkout::

    python3 bench/run.py --workload sim-fig2 --seed 1 --seconds 50 --trace 0

The program is imported from ``src/`` of the current directory and driven
in-process from this single process, with ``--threads 1`` passed to every
command. Inputs are generated from ``--seed``. A run makes one untimed
warm-up pass, then repeats the workload's pass until ``--seconds`` have
elapsed. A pass writes the store, opens, validates and reads it, and runs
one CLI command; every ``SETUP_EVERY``-th pass first generates the
repository again. A fixed reference kernel is timed between the timed
sections, and each sample is scaled to the host speed at which that kernel
takes ``REF_NOMINAL_S``; every end-to-end time is the median of its scaled
samples (``setup_s`` over the passes that set up).
Every pass is checked; the last line of standard output is the JSON result.

``--trace 0`` reports the end-to-end metrics of untraced passes.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

# one BLAS thread in this process, as every command gets --threads 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from spans import MODULES, Tracer
from workloads import READS_PER_PASS, WORKLOADS, check_outputs

BENCH_DIR = Path(__file__).resolve().parent
MIN_PASSES = 3
SETUP_EVERY = 3  # passes per set-up; generation is the costly part of a pass
# Reference kernel time that timings are scaled to: its time in this host's
# fast spells (2-core Xeon VM, Python 3.11, numpy 2.4).
REF_NOMINAL_S = 0.002
STORE_FILES = ("manifest.json", "labels.bin", "evals.bin", "preds.idx", "preds.blob")

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_results_per_s": "1/s",
    "write_mb_per_s": "MB/s",
    "open_ms": "ms",
    "validate_cells_per_s": "1/s",
    "read_p50_us": "us",
    "read_p99_us": "us",
}
# span-derived times reported per pass (self) or per call (inclusive ".s")
PER_LAYER_TIMES = (
    "cli.self_s", "simulate.self_s", "aggregate.self_s", "portfolio.self_s",
    "ensemble.self_s", "metrics.self_s", "store.self_s",
    "ensemble.caruana_select.self_s", "ensemble.ensemble_predict.self_s",
    "metrics.task_loss.self_s", "metrics.auc_loss.self_s", "metrics.log_loss.self_s",
    "metrics.rmse.self_s", "portfolio.learn_portfolio.self_s", "store.predictions.self_s",
)
PER_CALL_TIMES = ("store.open_repo.s", "store.validate_repo.s")
PER_LAYER_COUNTS = {
    "metrics.task_loss.calls": "count",
    "ensemble.greedy_steps": "count",
    "ensemble.loss_evals_per_step": "ratio",
    "portfolio.learn_portfolio.calls": "count",
    "portfolio.picks": "count",
    "store.predictions.calls": "count",
    "store.bytes_read": "bytes",
    "store.cells_distinct": "count",
    "store.reread_ratio": "ratio",
    "simulate.results": "count",
    "simulate.fallback_count": "count",
    "simulate.included_mean": "count",
}


_REF_X = np.random.default_rng(0).standard_normal(150)


def reference_s() -> float:
    """Time of a fixed pure-Python and small-array numpy kernel.

    It is independent of predrepo and is timed next to every sample, so that
    each sample can be set against the host's speed at that moment.
    """
    start = time.perf_counter()
    acc = 0.0
    for k in range(150):
        order = np.argsort(_REF_X + k)
        acc += float(np.cumsum(_REF_X[order]).sum())
        acc += sum(i * 0.5 for i in range(40))
    return time.perf_counter() - start


def import_program(root: Path):
    """Import predrepo from ``root/src``; exit 2 if the checkout lacks it."""
    src = root / "src"
    if not (src / "predrepo" / "__init__.py").is_file():
        print(f"error: no predrepo package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    package = importlib.import_module("predrepo")
    if Path(package.__file__).resolve().parent != (src / "predrepo").resolve():
        print(f"error: imported predrepo from {package.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    for name in ("cli", "metrics", "ensemble", "portfolio", "simulate", "store", "synth"):
        importlib.import_module("predrepo." + name)
    return package


def calibration_s() -> float:
    """Median time of a fixed numpy kernel; shows a slowed host, never gated."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((200, 200))
    x = rng.standard_normal(200_000)
    times = []
    for _ in range(5):
        start = time.perf_counter()
        float((a @ a).sum())
        np.sort(x)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def environment() -> dict:
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": 1,
        "loadavg": [round(v, 2) for v in os.getloadavg()],
        "calibration_s": calibration_s(),
        "page_cache": "store reads are served from the page cache; caches are not dropped",
    }


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def pinned_digests(workload: str, seed: int) -> dict | None:
    path = BENCH_DIR / "pinned.json"
    if not path.is_file():
        return None
    with open(path, encoding="utf-8") as f:
        return json.load(f)["sha256"].get(workload, {}).get(str(seed))


class Session:
    """One workload at one seed: set-up, passes, checks and metrics."""

    def __init__(self, predrepo, workload, seed: int, work_dir: Path, pinned: dict | None):
        self.pr = predrepo
        self.w = workload
        self.seed = seed
        self.work = work_dir
        self.repo_dir = work_dir / "repo"
        self.spec = workload.spec(predrepo, seed)
        self.tracer = Tracer()
        self.attempted = 0
        self.failed = 0
        self.digests = None
        self.pinned = pinned
        self.store_digest = None
        self.passes: list[dict] = []

    def _fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        print(f"FAILED {self.w.name} seed {self.seed}: {what}", file=sys.stderr)

    # -- one pass -------------------------------------------------------------

    def run_pass(self, index: int, traced: bool) -> None:
        """Write the store and run the workload's session once.

        Every ``SETUP_EVERY``-th pass (and the warm-up) first generates the
        repository again, so that set-up samples spread over the whole run
        like those of the other metrics; set-up is never traced.
        """
        gc.collect()
        tracer = self.tracer
        tracer.start_iteration(index)
        rec: dict = {"traced": traced, "ref": {}}
        self._last_ref = reference_s()
        try:
            if index % SETUP_EVERY == 0:
                self._generate(rec)
            self._write(rec)
            tracer.active = traced
            self._store(rec)
            self._command(rec)
        except Exception:  # a crash in the program under test is a failed operation
            self._fail("pass raised\n" + traceback.format_exc())
        finally:
            tracer.active = False
        if traced:
            rec["layers"] = tracer.summary()
        self.passes.append(rec)

    def _probe(self, rec: dict, key: str) -> None:
        """Time the reference kernel right after the sample ``key``.

        The sample is set against the mean of the probes on either side of it.
        """
        now = reference_s()
        rec["ref"][key] = (self._last_ref + now) / 2
        self._last_ref = now

    def _generate(self, rec: dict) -> None:
        start = time.perf_counter()
        self.mem = self.pr.synth.generate_repo(self.spec)
        rec["generate_s"] = time.perf_counter() - start
        self._probe(rec, "generate_s")

    def _write(self, rec: dict) -> None:
        shutil.rmtree(self.repo_dir, ignore_errors=True)
        self.attempted += 1
        start = time.perf_counter()
        self.pr.store.write_repo(self.mem, self.repo_dir)
        rec["write_s"] = time.perf_counter() - start
        self._probe(rec, "write_s")
        if "generate_s" in rec:
            rec["setup_s"] = rec["generate_s"] + rec["write_s"]
        digest = {n: hashlib.sha256((self.repo_dir / n).read_bytes()).hexdigest()
                  for n in STORE_FILES}
        if self.store_digest is None:
            self.store_digest = digest
            # one uniform sample, read in every pass, so the counters repeat exactly
            rng = np.random.default_rng(self.seed)
            self.read_cells = rng.integers([self.mem.n_tasks, self.mem.n_configs, 2],
                                           size=(READS_PER_PASS, 3)).tolist()
        elif digest != self.store_digest:
            self._fail("write_repo output is not byte-identical to the first write")

    def _store(self, rec: dict) -> None:
        self.attempted += 2
        start = time.perf_counter()
        repo = self.pr.store.open_repo(self.repo_dir)
        rec["open_s"] = time.perf_counter() - start
        self._probe(rec, "open_s")
        start = time.perf_counter()
        report = self.pr.store.validate_repo(repo)
        rec["validate_s"] = time.perf_counter() - start
        self._probe(rec, "validate_s")
        if report:
            self._fail(f"validate_repo reported {len(report)} violations: {report[:3]}")

        n = READS_PER_PASS
        cells = self.read_cells
        latency = np.empty(n, dtype=np.int64)
        arrays = []
        for k, (t, j, s) in enumerate(cells):
            start = time.perf_counter_ns()
            arrays.append(repo.predictions(t, j, s))
            latency[k] = time.perf_counter_ns() - start
        rec["read_ns"] = latency
        self._probe(rec, "read_ns")
        self.attempted += n
        with self.tracer.paused():
            wrong = sum(
                not np.array_equal(a.view(np.uint32),
                                   np.asarray(self.mem.predictions(t, j, s)).view(np.uint32))
                for a, (t, j, s) in zip(arrays, cells))
        if wrong:
            self._fail(f"{wrong} of {n} reads differ from the generated predictions", wrong)

    def _command(self, rec: dict) -> None:
        out_dir = self.work / "out"
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir()
        argv = self.w.argv(self.repo_dir, out_dir)
        stdout, stderr = io.StringIO(), io.StringIO()
        self.attempted += 1
        start = time.perf_counter()
        with self.tracer.span("cli.main"), contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = self.pr.cli.main(argv)
        rec["cli_s"] = time.perf_counter() - start
        self._probe(rec, "cli_s")
        if code != 0:
            self._fail(f"predrepo {' '.join(argv)} exited {code}: {stderr.getvalue()}")
            return
        outputs = {p.name: p.read_text(encoding="utf-8") for p in sorted(out_dir.iterdir())}
        outputs["stdout"] = stdout.getvalue()
        digests = {name: sha256(text) for name, text in outputs.items()}
        if self.digests is None:
            self.digests = digests
            with self.tracer.paused():
                problems = check_outputs(self.w, self.mem, outputs)
            if self.pinned is not None and digests != self.pinned:
                problems.append(f"output digests differ from the pinned ones: {digests}")
            if problems:
                self._fail("; ".join(problems[:5]))
        elif digests != self.digests:
            self._fail("outputs are not byte-identical to the first pass")

    # -- metrics --------------------------------------------------------------

    def scaled(self, passes: list[dict], key: str, q: float | None = None) -> list[float]:
        """Each pass's sample of ``key`` at the reference host speed.

        A sample is multiplied by ``REF_NOMINAL_S`` over the reference kernel's
        time around it. For ``read_ns`` the sample is the pass's ``q``-th
        percentile read, in microseconds. Set-up adds generation and write.
        """
        if key == "setup_s":
            return [a + b for a, b in zip(self.scaled(passes, "generate_s"),
                                          self.scaled(passes, "write_s"))]
        if key == "read_ns":
            raw = [float(np.percentile(p[key], q)) / 1e3 for p in passes]
        else:
            raw = [p[key] for p in passes]
        return [x * REF_NOMINAL_S / p["ref"][key] for x, p in zip(raw, passes)]

    def end_to_end(self) -> dict[str, float]:
        # On a shared host the speed swings by up to 2x between spells of
        # seconds, and a run's median wall time moves with the share of slow
        # spells in it. Scaled by the reference kernel timed around each
        # sample, the samples of different runs agree within a few percent.
        passes = [p for p in self.passes if "cli_s" in p]
        setups = [p for p in passes if "setup_s" in p]
        med = lambda key, q=None, ps=passes: statistics.median(  # noqa: E731
            self.scaled(ps, key, q))
        return {
            "setup_s": med("setup_s", ps=setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "sim_results_per_s": self.w.n_results(self.mem.n_tasks) / med("cli_s"),
            "write_mb_per_s": self.store_bytes()[0] / 1e6 / med("write_s"),
            "open_ms": med("open_s") * 1e3,
            "validate_cells_per_s": self.mem.n_tasks * self.mem.n_configs / med("validate_s"),
            "read_p50_us": med("read_ns", 50),
            "read_p99_us": med("read_ns", 99),
        }

    def wall_medians(self) -> dict[str, float]:
        """Unscaled median wall times, for the record; never gated."""
        passes = [p for p in self.passes if "cli_s" in p]
        out = {k: statistics.median(p[k] for p in passes if k in p)
               for k in ("setup_s", "write_s", "open_s", "validate_s", "cli_s")}
        out["reference_s"] = statistics.median(r for p in passes for r in p["ref"].values())
        return out

    def per_layer(self) -> dict[str, float]:
        traced = [p for p in self.passes if p["traced"] and "cli_s" in p]
        plain = [p for p in self.passes if not p["traced"] and "cli_s" in p]
        layers = [p["layers"] for p in traced]
        out = {name: statistics.median(lay.get(name, 0.0) for lay in layers)
               for name in PER_LAYER_TIMES}
        for name in PER_CALL_TIMES:
            calls = name[: -len(".s")] + ".calls"
            out[name] = statistics.median(lay[name] / lay[calls] for lay in layers)
        out["store.write_repo.s"] = statistics.median(p["write_s"] for p in traced)
        out["synth.generate_repo.s"] = statistics.median(
            p["generate_s"] for p in traced if "generate_s" in p)
        counts = [{name: lay.get(name, 0) for name in PER_LAYER_COUNTS} for lay in layers]
        if any(c != counts[0] for c in counts):
            self._fail(f"exact counters differ between traced passes: {counts}")
        out.update(counts[0])
        out["trace.overhead_ratio"] = (statistics.median(self.scaled(traced, "cli_s"))
                                       / statistics.median(self.scaled(plain, "cli_s")))
        return out

    def per_pass(self) -> dict[str, list[float]]:
        """Every timed pass's own figures, in the order they ran."""
        keys = ("setup_s", "write_s", "open_s", "validate_s", "cli_s")
        out = {k: [round(p[k], 6) for p in self.passes if k in p] for k in keys}
        out["reference_s"] = [{k: round(r, 7) for k, r in p["ref"].items()}
                              for p in self.passes]
        for q in (50, 99):
            out[f"read_p{q}_us"] = [round(float(np.percentile(p["read_ns"], q)) / 1e3, 3)
                                    for p in self.passes if "read_ns" in p]
        return out

    def store_bytes(self) -> tuple[int, int]:
        """Sizes of the written store: all files, and the prediction blob."""
        sizes = {n: (self.repo_dir / n).stat().st_size for n in STORE_FILES}
        return sum(sizes.values()), sizes["preds.blob"]

    def module_self_times(self) -> dict[str, float]:
        layers = [p["layers"] for p in self.passes if p["traced"] and "layers" in p]
        return {m: statistics.median(lay.get(m + ".self_s", 0.0) for lay in layers)
                for m in MODULES}


def per_layer_units() -> dict[str, str]:
    units = {name: "s" for name in PER_LAYER_TIMES + PER_CALL_TIMES}
    units["store.write_repo.s"] = "s"
    units["synth.generate_repo.s"] = "s"
    units.update(PER_LAYER_COUNTS)
    units["trace.overhead_ratio"] = "ratio"
    return units


def run(args) -> dict:
    root = Path.cwd()
    predrepo = import_program(root)
    workload = WORKLOADS[args.workload]
    env = environment()
    scratch = root / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch))
    session = Session(predrepo, workload, args.seed, work,
                      pinned_digests(workload.name, args.seed))
    try:
        if args.trace:
            session.tracer.install(predrepo)
        session.run_pass(0, traced=False)  # warm-up: checked, not timed
        session.passes.clear()
        deadline = time.perf_counter() + args.seconds
        index = 1
        minimum = 2 * MIN_PASSES if args.trace else MIN_PASSES
        while time.perf_counter() < deadline or index <= minimum:
            session.run_pass(index, traced=bool(args.trace) and index % 2 == 1)
            index += 1
        if args.trace:
            metrics = session.per_layer()
            units = per_layer_units()
        else:
            metrics = session.end_to_end()
            units = END_TO_END_UNITS
        repo_bytes, blob_bytes = session.store_bytes()
    finally:
        session.tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()

    info = {
        "workload": workload.name,
        "seed": args.seed,
        "passes": len(session.passes),
        "repo_bytes": repo_bytes,
        "blob_bytes": blob_bytes,
        "pinned_outputs": session.pinned is not None,
        "environment": env,
    }
    info["wall_median_s"] = session.wall_medians()
    info["per_pass"] = session.per_pass()
    if args.trace:
        info["module_self_s"] = session.module_self_times()
    print(json.dumps(info))
    return {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    result = run(parser.parse_args(argv))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
