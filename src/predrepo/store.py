"""Domain types and the on-disk prediction repository format.

A repository stores, for every (task, config) pair, the validation and test
prediction matrices plus a scalar evaluation record (validation loss, test
loss, fit time, inference time per row). Prediction matrices live in a dense
binary blob addressed through a fixed-width index so a single matrix can be
read without touching the rest of the file.

Directory layout::

    <repo>/
        manifest.json   # schema version, fold count, tasks, configs, label checksums
        labels.bin      # magic "TRLB", version u32 LE, then per task: n_val + n_test f64 LE
        evals.bin       # magic "TREV", version u32 LE, then per (task, config):
                        #   loss_val, loss_test, time_fit, time_infer as f64 LE
        preds.idx       # magic "TRPI", version u32 LE, then one 28-byte record per
                        #   (task, config, split): task u32, config u32, split u8,
                        #   pad 3 bytes, offset u64, rows u32, cols u32,
                        #   sorted by (task, config, split)
        preds.blob      # magic "TRPB", version u32 LE, then raw f32 LE row-major
                        #   matrices back to back

Index offsets are absolute byte positions in preds.blob. Splits are numbered
val=0, test=1. Classification labels are stored as f64 and converted back to
integer class indices on read; the conversion is exact for any realistic class
count. Repository handles are immutable after open and safe for concurrent
readers; all writes go through :func:`write_repo`, which produces a complete
new directory.
"""

from __future__ import annotations

import enum
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

MAGIC_BLOB = b"TRPB"
MAGIC_INDEX = b"TRPI"
MAGIC_EVALS = b"TREV"
MAGIC_LABELS = b"TRLB"
FORMAT_VERSION = 1

VAL = 0
TEST = 1

ROW_SUM_TOL = 1e-5
LOSS_RECOMPUTE_TOL = 1e-6

_INDEX_DTYPE = np.dtype(
    [
        ("task", "<u4"),
        ("config", "<u4"),
        ("split", "u1"),
        ("pad", "V3"),
        ("offset", "<u8"),
        ("rows", "<u4"),
        ("cols", "<u4"),
    ]
)
assert _INDEX_DTYPE.itemsize == 28

_EVAL_FIELDS = 4  # loss_val, loss_test, time_fit, time_infer


class StoreError(Exception):
    """Malformed, inconsistent, or invariant-violating repository data."""


class ProblemType(str, enum.Enum):
    BINARY = "binary"
    MULTICLASS = "multiclass"
    REGRESSION = "regression"

    @property
    def is_classification(self) -> bool:
        return self is not ProblemType.REGRESSION


@dataclass(frozen=True)
class TaskMeta:
    """Identity and shape of one (dataset, fold) task."""

    dataset_id: str
    fold: int
    problem: ProblemType
    n_val: int
    n_test: int
    o: int
    n_features: int = 0

    def __post_init__(self) -> None:
        if self.fold < 0:
            raise ValueError(f"fold must be nonnegative, got {self.fold}")
        if self.n_val <= 0 or self.n_test <= 0:
            raise ValueError(f"row counts must be positive for {self.key}")
        if self.n_features < 0:
            raise ValueError("n_features must be nonnegative")
        if self.problem is ProblemType.MULTICLASS:
            if self.o < 2:
                raise ValueError(f"multiclass task {self.key} needs o >= 2, got {self.o}")
        elif self.o != 1:
            raise ValueError(f"{self.problem.value} task {self.key} needs o = 1, got {self.o}")

    @property
    def key(self) -> tuple[str, int]:
        return (self.dataset_id, self.fold)


@dataclass(frozen=True)
class ConfigMeta:
    """One model configuration; the list position in the repository is its ordinal."""

    config_id: str
    family: str
    is_default: bool = False
    hyperparams: str = ""


@dataclass(frozen=True)
class EvaluationRecord:
    loss_val: float
    loss_test: float
    time_fit: float
    time_infer: float

    def __post_init__(self) -> None:
        vals = (self.loss_val, self.loss_test, self.time_fit, self.time_infer)
        if any(not np.isfinite(v) or v < 0 for v in vals):
            raise ValueError(f"evaluation record fields must be finite and >= 0, got {vals}")


class _ArrayPredictions:
    """In-memory prediction backing: dense dict keyed by (task, config, split)."""

    def __init__(self, data: Mapping[tuple[int, int, int], np.ndarray]):
        self._data = data
        self.bytes_read = 0

    def get(self, task: int, config: int, split: int) -> np.ndarray:
        arr = self._data[(task, config, split)]
        self.bytes_read += arr.nbytes
        return arr


class _MmapPredictions:
    """Memory-mapped prediction backing; reads touch only the requested extent."""

    def __init__(self, blob_path: Path, offsets: np.ndarray, shapes: np.ndarray):
        # offsets/shapes indexed [task, config, split]; shapes holds (rows, cols)
        self._mm = np.memmap(blob_path, dtype=np.uint8, mode="r")
        self._offsets = offsets
        self._shapes = shapes
        self.bytes_read = 0

    def get(self, task: int, config: int, split: int) -> np.ndarray:
        offset = int(self._offsets[task, config, split])
        rows = int(self._shapes[task, config, split, 0])
        cols = int(self._shapes[task, config, split, 1])
        nbytes = rows * cols * 4
        raw = np.array(self._mm[offset : offset + nbytes])  # copies exactly this extent
        self.bytes_read += nbytes
        return raw.view("<f4").reshape(rows, cols)


class _ArrayLabels:
    def __init__(self, labels: Sequence[tuple[np.ndarray, np.ndarray]]):
        self._labels = labels

    def get(self, task: int, split: int) -> np.ndarray:
        return self._labels[task][split]


class _MmapLabels:
    def __init__(self, path: Path, tasks: Sequence[TaskMeta]):
        self._mm = np.memmap(path, dtype="<f8", mode="r", offset=8)
        starts = []
        pos = 0
        for t in tasks:
            starts.append((pos, pos + t.n_val, pos + t.n_val + t.n_test))
            pos += t.n_val + t.n_test
        self._starts = starts
        self._tasks = tasks

    def get(self, task: int, split: int) -> np.ndarray:
        a, b, c = self._starts[task]
        raw = np.array(self._mm[a:b] if split == VAL else self._mm[b:c])
        if self._tasks[task].problem.is_classification:
            return raw.astype(np.int64)
        return raw


class Repository:
    """Dense store of predictions and evaluations for tasks x configs.

    Immutable after construction. Prediction access is lazy for opened
    repositories: only the requested matrix extent is read from the blob.
    """

    def __init__(
        self,
        tasks: Sequence[TaskMeta],
        configs: Sequence[ConfigMeta],
        folds_per_dataset: int,
        labels,
        predictions,
        evals: np.ndarray,
    ):
        self.tasks = list(tasks)
        self.configs = list(configs)
        self.folds_per_dataset = int(folds_per_dataset)
        self._labels = labels
        self._predictions = predictions
        self._evals = evals

        keys = [t.key for t in self.tasks]
        if len(set(keys)) != len(keys):
            raise StoreError("duplicate (dataset_id, fold) in task list")
        for t in self.tasks:
            if t.fold >= self.folds_per_dataset:
                raise StoreError(f"task {t.key} has fold >= folds_per_dataset ({self.folds_per_dataset})")
        ids = [c.config_id for c in self.configs]
        if len(set(ids)) != len(ids):
            raise StoreError("duplicate config_id in config list")
        if evals.shape != (len(self.tasks), len(self.configs), _EVAL_FIELDS):
            raise StoreError(f"evals table has shape {evals.shape}, expected "
                             f"{(len(self.tasks), len(self.configs), _EVAL_FIELDS)}")

        self._task_index = {k: i for i, k in enumerate(keys)}
        self._config_index = {c: i for i, c in enumerate(ids)}
        self._datasets: list[str] = []
        for t in self.tasks:
            if t.dataset_id not in self._datasets:
                self._datasets.append(t.dataset_id)

    # -- construction -----------------------------------------------------

    @classmethod
    def in_memory(
        cls,
        tasks: Sequence[TaskMeta],
        configs: Sequence[ConfigMeta],
        folds_per_dataset: int,
        labels: Sequence[tuple[np.ndarray, np.ndarray]],
        predictions: Mapping[tuple[int, int, int], np.ndarray],
        evals: np.ndarray,
    ) -> "Repository":
        """Build a repository from in-memory arrays (as the generator does).

        ``predictions`` maps (task_ordinal, config_ordinal, split) to float32
        matrices; ``labels`` holds one (val, test) array pair per task.
        """
        preds = {}
        for t in range(len(tasks)):
            for j in range(len(configs)):
                for s in (VAL, TEST):
                    try:
                        arr = predictions[(t, j, s)]
                    except KeyError:
                        raise StoreError(
                            f"missing predictions for task={tasks[t].key} "
                            f"config={configs[j].config_id} split={s}"
                        ) from None
                    preds[(t, j, s)] = np.ascontiguousarray(arr, dtype="<f4")
        labs = []
        for t, meta in enumerate(tasks):
            yv, yt = labels[t]
            if len(yv) != meta.n_val or len(yt) != meta.n_test:
                raise StoreError(f"label lengths for task {meta.key} do not match task meta")
            labs.append((np.asarray(yv), np.asarray(yt)))
        return cls(tasks, configs, folds_per_dataset,
                   _ArrayLabels(labs), _ArrayPredictions(preds),
                   np.asarray(evals, dtype=np.float64))

    # -- lookups ----------------------------------------------------------

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    @property
    def n_configs(self) -> int:
        return len(self.configs)

    @property
    def datasets(self) -> list[str]:
        """Dataset ids in first-appearance order."""
        return list(self._datasets)

    @property
    def families(self) -> list[str]:
        seen: list[str] = []
        for c in self.configs:
            if c.family not in seen:
                seen.append(c.family)
        return seen

    def family_configs(self, family: str) -> list[int]:
        out = [j for j, c in enumerate(self.configs) if c.family == family]
        if not out:
            raise KeyError(f"unknown family: {family!r}")
        return out

    def task_index(self, task) -> int:
        """Resolve a TaskMeta, (dataset_id, fold) pair, or ordinal to an ordinal."""
        if isinstance(task, TaskMeta):
            task = task.key
        if isinstance(task, (int, np.integer)):
            if not 0 <= task < self.n_tasks:
                raise KeyError(f"task ordinal out of range: {task}")
            return int(task)
        key = (task[0], int(task[1]))
        try:
            return self._task_index[key]
        except KeyError:
            raise KeyError(f"unknown task: {key!r}") from None

    def config_index(self, config) -> int:
        """Resolve a config id string, ConfigMeta, or ordinal to an ordinal."""
        if isinstance(config, ConfigMeta):
            config = config.config_id
        if isinstance(config, (int, np.integer)):
            if not 0 <= config < self.n_configs:
                raise KeyError(f"config ordinal out of range: {config}")
            return int(config)
        try:
            return self._config_index[config]
        except KeyError:
            raise KeyError(f"unknown config: {config!r}") from None

    def dataset_tasks(self, dataset_id: str) -> list[int]:
        out = [i for i, t in enumerate(self.tasks) if t.dataset_id == dataset_id]
        if not out:
            raise KeyError(f"unknown dataset: {dataset_id!r}")
        return out

    # -- data access ------------------------------------------------------

    def predictions(self, task, config, split: int) -> np.ndarray:
        """Stored prediction matrix for one cell; float32, read-only."""
        t = self.task_index(task)
        j = self.config_index(config)
        if split not in (VAL, TEST):
            raise ValueError(f"split must be {VAL} (val) or {TEST} (test)")
        arr = np.array(self._predictions.get(t, j, split), dtype=np.float32)
        arr.flags.writeable = False
        return arr

    def predict_val(self, dataset, fold: int | None = None, config=None) -> np.ndarray:
        """Validation (out-of-fold) predictions for (dataset, fold, config)."""
        task = dataset if fold is None else (dataset, fold)
        return self.predictions(task, config, VAL)

    def predict_test(self, dataset, fold: int | None = None, config=None) -> np.ndarray:
        """Test predictions for (dataset, fold, config)."""
        task = dataset if fold is None else (dataset, fold)
        return self.predictions(task, config, TEST)

    def labels(self, task, split: int) -> np.ndarray:
        t = self.task_index(task)
        return self._labels.get(t, split)

    def eval_record(self, task, config) -> EvaluationRecord:
        t = self.task_index(task)
        j = self.config_index(config)
        row = self._evals[t, j]
        return EvaluationRecord(*(float(v) for v in row))

    @property
    def eval_table(self) -> np.ndarray:
        """Dense (n_tasks, n_configs, 4) float64 view: loss_val, loss_test, time_fit, time_infer."""
        return self._evals

    def loss_val(self, task, config) -> float:
        return float(self._evals[self.task_index(task), self.config_index(config), 0])

    def time_fit(self, task, config) -> float:
        return float(self._evals[self.task_index(task), self.config_index(config), 2])

    def time_infer(self, task, config) -> float:
        return float(self._evals[self.task_index(task), self.config_index(config), 3])

    @property
    def prediction_bytes_read(self) -> int:
        """Total prediction-blob bytes requested so far (instrumentation)."""
        return self._predictions.bytes_read

    # -- paper-style convenience API ---------------------------------------

    def evaluate_ensemble(self, datasets, folds, configs, ensemble_size: int = 40) -> np.ndarray:
        from . import ensemble  # local import to avoid a cycle

        return ensemble.evaluate_ensemble(datasets, folds, configs, ensemble_size, self)


def _check_matrix(task: TaskMeta, config: ConfigMeta, split: int, arr: np.ndarray) -> None:
    rows = task.n_val if split == VAL else task.n_test
    if arr.shape != (rows, task.o):
        raise StoreError(
            f"prediction shape {arr.shape} != {(rows, task.o)} at "
            f"(task={task.key}, config={config.config_id}, split={split})"
        )
    if not np.all(np.isfinite(arr)):
        raise StoreError(
            f"non-finite prediction at (task={task.key}, config={config.config_id}, split={split})"
        )
    if task.problem is ProblemType.MULTICLASS:
        sums = arr.sum(axis=1, dtype=np.float64)
        if np.any(np.abs(sums - 1.0) > ROW_SUM_TOL) or arr.min() < 0.0 or arr.max() > 1.0:
            raise StoreError(
                f"row-stochastic violation at (task={task.key}, config={config.config_id}, split={split})"
            )
    elif task.problem is ProblemType.BINARY:
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise StoreError(
                f"row-stochastic violation at (task={task.key}, config={config.config_id}, split={split})"
            )


def _header(magic: bytes) -> bytes:
    return magic + np.uint32(FORMAT_VERSION).tobytes()


def _check_header(path: Path, magic: bytes) -> None:
    try:
        with open(path, "rb") as f:
            head = f.read(8)
    except FileNotFoundError:
        raise StoreError(f"missing file: {path.name}") from None
    if len(head) < 8 or head[:4] != magic:
        raise StoreError(f"bad magic in {path.name}: expected {magic!r}")
    version = int(np.frombuffer(head[4:8], dtype="<u4")[0])
    if version != FORMAT_VERSION:
        raise StoreError(f"unsupported version {version} in {path.name}")


def write_repo(repo: Repository, path: str | Path) -> None:
    """Write a repository to ``path``, creating the directory if needed.

    The output is canonical: writing the same repository twice, or writing a
    freshly opened copy, produces byte-identical files. Type invariants are
    checked while streaming; a violation aborts with a diagnostic naming the
    offending cell.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)

    tasks, configs = repo.tasks, repo.configs
    n_records = len(tasks) * len(configs) * 2
    index = np.zeros(n_records, dtype=_INDEX_DTYPE)

    rec = 0
    offset = 8  # blob header
    with open(path / "preds.blob", "wb") as blob:
        blob.write(_header(MAGIC_BLOB))
        for t, task in enumerate(tasks):
            for j, config in enumerate(configs):
                for split in (VAL, TEST):
                    arr = np.ascontiguousarray(repo.predictions(t, j, split), dtype="<f4")
                    _check_matrix(task, config, split, arr)
                    blob.write(arr.tobytes())
                    index[rec] = (t, j, split, b"", offset, arr.shape[0], arr.shape[1])
                    offset += arr.nbytes
                    rec += 1

    with open(path / "preds.idx", "wb") as f:
        f.write(_header(MAGIC_INDEX))
        f.write(index.tobytes())

    evals = np.ascontiguousarray(repo.eval_table, dtype="<f8")
    for t, task in enumerate(tasks):
        for j, config in enumerate(configs):
            if not np.all(np.isfinite(evals[t, j])) or np.any(evals[t, j] < 0):
                raise StoreError(
                    f"invalid evaluation record at (task={task.key}, config={config.config_id})"
                )
    with open(path / "evals.bin", "wb") as f:
        f.write(_header(MAGIC_EVALS))
        f.write(evals.tobytes())

    checksums = []
    with open(path / "labels.bin", "wb") as f:
        f.write(_header(MAGIC_LABELS))
        for t, task in enumerate(tasks):
            chunk = b""
            for split in (VAL, TEST):
                y = np.ascontiguousarray(repo.labels(t, split), dtype="<f8")
                if not np.all(np.isfinite(y)):
                    raise StoreError(f"non-finite label for task {task.key}")
                chunk += y.tobytes()
            f.write(chunk)
            checksums.append(hashlib.sha256(chunk).hexdigest())

    manifest = {
        "format": "prediction-repository",
        "version": FORMAT_VERSION,
        "folds_per_dataset": repo.folds_per_dataset,
        "tasks": [
            {
                "dataset_id": t.dataset_id,
                "fold": t.fold,
                "problem": t.problem.value,
                "n_val": t.n_val,
                "n_test": t.n_test,
                "o": t.o,
                "n_features": t.n_features,
            }
            for t in tasks
        ],
        "configs": [
            {
                "config_id": c.config_id,
                "family": c.family,
                "is_default": c.is_default,
                "hyperparams": c.hyperparams,
            }
            for c in configs
        ],
        "label_checksums": checksums,
    }
    with open(path / "manifest.json", "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2)
        f.write("\n")


def _check_label_checksums(path: Path, tasks: Sequence[TaskMeta], checksums: list) -> None:
    """Compare each task's labels.bin chunk with its sha256 in the manifest."""
    if len(checksums) != len(tasks):
        raise StoreError(
            f"manifest.json has {len(checksums)} label checksums for {len(tasks)} tasks")
    with open(path, "rb") as f:
        f.seek(8)
        for task, checksum in zip(tasks, checksums):
            chunk = f.read((task.n_val + task.n_test) * 8)
            if hashlib.sha256(chunk).hexdigest() != checksum:
                raise StoreError(f"label checksum mismatch in labels.bin for task {task.key}")


def open_repo(path: str | Path) -> Repository:
    """Open an on-disk repository for reading.

    Metadata is parsed fully and each task's labels are checked against
    their manifest checksum; the prediction blob is memory-mapped and never
    read in full at open time. The returned handle is immutable and safe for
    concurrent readers.
    """
    path = Path(path)
    manifest_path = path / "manifest.json"
    if not manifest_path.exists():
        raise StoreError(f"missing file: manifest.json in {path}")
    with open(manifest_path, "r", encoding="utf-8") as f:
        try:
            manifest = json.load(f)
        except json.JSONDecodeError as e:
            raise StoreError(f"manifest.json is not valid JSON: {e}") from None

    if manifest.get("format") != "prediction-repository":
        raise StoreError("bad magic in manifest.json: not a prediction repository")
    if manifest.get("version") != FORMAT_VERSION:
        raise StoreError(f"unsupported version {manifest.get('version')} in manifest.json")

    try:
        tasks = [
            TaskMeta(
                dataset_id=t["dataset_id"],
                fold=int(t["fold"]),
                problem=ProblemType(t["problem"]),
                n_val=int(t["n_val"]),
                n_test=int(t["n_test"]),
                o=int(t["o"]),
                n_features=int(t.get("n_features", 0)),
            )
            for t in manifest["tasks"]
        ]
        configs = [
            ConfigMeta(
                config_id=c["config_id"],
                family=c["family"],
                is_default=bool(c["is_default"]),
                hyperparams=c.get("hyperparams", ""),
            )
            for c in manifest["configs"]
        ]
        folds = int(manifest["folds_per_dataset"])
        label_checksums = list(manifest["label_checksums"])
    except KeyError as e:
        raise StoreError(f"manifest.json is missing required field {e.args[0]!r}") from None
    T, M = len(tasks), len(configs)

    for name, magic in (("preds.blob", MAGIC_BLOB), ("preds.idx", MAGIC_INDEX),
                        ("evals.bin", MAGIC_EVALS), ("labels.bin", MAGIC_LABELS)):
        _check_header(path / name, magic)

    raw_index = np.fromfile(path / "preds.idx", dtype=np.uint8, offset=8)
    if raw_index.nbytes != T * M * 2 * _INDEX_DTYPE.itemsize:
        raise StoreError(
            f"preds.idx holds {raw_index.nbytes} record bytes, expected {T * M * 2 * _INDEX_DTYPE.itemsize}"
        )
    records = raw_index.view(_INDEX_DTYPE)

    offsets = np.zeros((T, M, 2), dtype=np.uint64)
    shapes = np.zeros((T, M, 2, 2), dtype=np.uint32)
    blob_size = os.path.getsize(path / "preds.blob")
    expected = 0
    for rec in records:
        t, j, s = int(rec["task"]), int(rec["config"]), int(rec["split"])
        if (t, j, s) != (expected // 2 // M, (expected // 2) % M, expected % 2):
            raise StoreError("preds.idx records are not sorted by (task, config, split)")
        expected += 1
        task = tasks[t]
        rows = task.n_val if s == VAL else task.n_test
        if int(rec["rows"]) != rows or int(rec["cols"]) != task.o:
            raise StoreError(
                f"index shape ({int(rec['rows'])}, {int(rec['cols'])}) does not match task "
                f"{task.key} meta ({rows}, {task.o})"
            )
        end = int(rec["offset"]) + rows * task.o * 4
        if end > blob_size:
            raise StoreError(
                f"blob shorter than index extent: need {end} bytes, preds.blob has {blob_size}"
            )
        offsets[t, j, s] = rec["offset"]
        shapes[t, j, s] = (rec["rows"], rec["cols"])

    evals_size = os.path.getsize(path / "evals.bin")
    if evals_size != 8 + T * M * _EVAL_FIELDS * 8:
        raise StoreError(
            f"evals.bin has {evals_size} bytes, expected {8 + T * M * _EVAL_FIELDS * 8}"
        )
    evals = np.memmap(path / "evals.bin", dtype="<f8", mode="r", offset=8).reshape(T, M, _EVAL_FIELDS)

    labels_size = os.path.getsize(path / "labels.bin")
    expected_labels = 8 + sum(t.n_val + t.n_test for t in tasks) * 8
    if labels_size != expected_labels:
        raise StoreError(f"labels.bin has {labels_size} bytes, expected {expected_labels}")
    _check_label_checksums(path / "labels.bin", tasks, label_checksums)

    return Repository(
        tasks,
        configs,
        folds,
        _MmapLabels(path / "labels.bin", tasks),
        _MmapPredictions(path / "preds.blob", offsets, shapes),
        evals,
    )


def validate_repo(repo: Repository) -> list[str]:
    """Check repository invariants; returns a list of violations (empty = valid).

    Covers density (every cell readable with the right shape), row
    stochasticity, NaN freedom, and recomputation of the stored validation
    loss from stored predictions within ``LOSS_RECOMPUTE_TOL`` relative.
    """
    from . import metrics  # local import to avoid a cycle

    report: list[str] = []
    for t, task in enumerate(repo.tasks):
        y_val = repo.labels(t, VAL)
        for j, config in enumerate(repo.configs):
            cell = f"(task={task.key}, config={config.config_id})"
            ok = True
            for split in (VAL, TEST):
                try:
                    arr = repo.predictions(t, j, split)
                except Exception as e:  # density or format failure
                    report.append(f"unreadable predictions at {cell} split={split}: {e}")
                    ok = False
                    continue
                try:
                    _check_matrix(task, config, split, arr)
                except StoreError as e:
                    report.append(str(e))
                    ok = False
            if not ok:
                continue
            stored = repo.eval_record(t, j)
            try:
                recomputed = metrics.task_loss(task, repo.predictions(t, j, VAL), y_val)
            except ValueError as e:
                report.append(f"loss recomputation failed at {cell}: {e}")
                continue
            tol = LOSS_RECOMPUTE_TOL * max(1.0, abs(recomputed))
            if abs(stored.loss_val - recomputed) > tol:
                report.append(
                    f"loss_val mismatch at {cell}: stored={stored.loss_val!r}, "
                    f"recomputed={recomputed!r}"
                )
    return report
