"""Domain types and the prediction repository format.

A repository stores, for every (task, config) pair, the validation and test
prediction matrices plus a scalar evaluation record (validation loss, test
loss, fit time, inference time per row).

Memory and disk share one layout. All prediction matrices sit back to back
in one float32 buffer, row-major, in (task, config, split) order, so a cell's
position and shape follow from the task shapes alone. An in-memory
repository packs its cells into such a buffer; an opened one memory-maps
preds.blob past its header. The labels sit likewise in one float64 buffer in
labels.bin order. Reads return read-only views into these buffers and copy
nothing, except that classification labels are converted to int64 class
indices; :func:`write_repo` and :func:`open_repo` admit only labels that are
class indices, so the conversion is exact. :meth:`Repository.task_predictions`
views a task split's adjacent cells as one (configs, rows, o) slab, and
:func:`write_repo` and :func:`validate_repo` check each task split as one slab.

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
val=0, test=1. The index is redundant with the manifest: :func:`open_repo`
rejects any record that differs from the one the task shapes imply, and any
evaluation record with a negative or non-finite field. Repository handles
are immutable after open and safe for concurrent readers. All writes go
through :func:`write_repo`, which checks every cell first and then replaces
each file whole, so rewriting a repository onto the directory it was opened
from leaves earlier views reading their old values.
"""

from __future__ import annotations

import enum
import hashlib
import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

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
_PAD_BYTES = slice(9, 12)  # the pad field's bytes within a record; never checked

STORE_FILES = ("manifest.json", "labels.bin", "evals.bin", "preds.idx", "preds.blob")

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
            raise ValueError(f"task {self.key}: 'fold' must be nonnegative, got {self.fold}")
        if self.n_val <= 0 or self.n_test <= 0:
            raise ValueError(f"task {self.key}: 'n_val' and 'n_test' must be positive, "
                             f"got {self.n_val} and {self.n_test}")
        if self.n_features < 0:
            raise ValueError(f"task {self.key}: 'n_features' must be nonnegative, "
                             f"got {self.n_features}")
        if self.problem is ProblemType.MULTICLASS:
            if self.o < 2:
                raise ValueError(f"task {self.key}: multiclass needs 'o' >= 2, got {self.o}")
        elif self.o != 1:
            raise ValueError(f"task {self.key}: {self.problem.value} needs 'o' = 1, got {self.o}")

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


def _canonical_index(tasks: Sequence[TaskMeta], n_configs: int) -> np.ndarray:
    """The preds.idx records of a repository, shape (tasks, configs, 2).

    Records run in (task, config, split) order, rows and cols come from the
    task meta, and each offset is the blob header size plus the bytes of all
    earlier cells.
    """
    shapes = np.array([[(t.n_val, t.o), (t.n_test, t.o)] for t in tasks],
                      dtype=np.int64).reshape(len(tasks), 1, 2, 2)
    index = np.zeros((len(tasks), n_configs, 2), dtype=_INDEX_DTYPE)
    index["task"] = np.arange(len(tasks))[:, None, None]
    index["config"] = np.arange(n_configs)[:, None]
    index["split"] = (VAL, TEST)
    index["rows"] = shapes[..., 0]
    index["cols"] = shapes[..., 1]
    nbytes = np.broadcast_to(shapes[..., 0] * shapes[..., 1] * 4, index.shape)
    index["offset"] = 8 + np.cumsum(nbytes).reshape(index.shape) - nbytes
    return index


def _label_starts(tasks: Sequence[TaskMeta]) -> list[int]:
    """Start of each task's labels in the label buffer, plus the total length."""
    return np.cumsum([0] + [t.n_val + t.n_test for t in tasks]).tolist()


def _pred_starts(tasks: Sequence[TaskMeta], n_configs: int) -> list[int]:
    """Start of each task's cells in the prediction buffer, plus the total length."""
    return np.cumsum([0] + [n_configs * (t.n_val + t.n_test) * t.o for t in tasks]).tolist()


def _task_region(buf: np.ndarray, start: int, n_configs: int, task: TaskMeta) -> np.ndarray:
    """A task's cells in ``buf`` as one (n_configs, n_val + n_test, o) view, val rows first.

    Cells sit in (config, split) order, so slicing the rows of this view
    gives either split of every config.
    """
    rows = task.n_val + task.n_test
    return buf[start:start + n_configs * rows * task.o].reshape(n_configs, rows, task.o)


class Repository:
    """Dense store of predictions and evaluations for tasks x configs.

    ``predictions`` is the float32 buffer of every cell in the layout of
    preds.blob past its header, and ``labels`` the float64 buffer of every
    label in the layout of labels.bin past its header (see the module
    docstring). Reads return read-only views into these buffers. Immutable
    after construction, except that an in-memory repository's ``eval_table``
    is the caller's array.
    """

    def __init__(
        self,
        tasks: Sequence[TaskMeta],
        configs: Sequence[ConfigMeta],
        folds_per_dataset: int,
        labels: np.ndarray,
        predictions: np.ndarray,
        evals: np.ndarray,
    ):
        self.tasks = list(tasks)
        self.configs = list(configs)
        self.folds_per_dataset = int(folds_per_dataset)
        self._evals = evals

        keys = [t.key for t in self.tasks]
        if len(set(keys)) != len(keys):
            raise StoreError("duplicate (dataset_id, fold) in task list")
        for t in self.tasks:
            if t.fold >= self.folds_per_dataset:
                raise StoreError(f"task {t.key} has fold >= folds_per_dataset ({self.folds_per_dataset})")
        self.config_ids = ids = tuple(c.config_id for c in self.configs)  # by ordinal
        self._config_index = {c: i for i, c in enumerate(ids)}  # the last ordinal of an id
        if len(self._config_index) != len(ids):
            repeated = next(c for i, c in enumerate(ids) if self._config_index[c] != i)
            raise StoreError(f"duplicate config_id {repeated!r} in config list")
        if evals.shape != (len(self.tasks), len(self.configs), _EVAL_FIELDS):
            raise StoreError(f"evals table has shape {evals.shape}, expected "
                             f"{(len(self.tasks), len(self.configs), _EVAL_FIELDS)}")

        self._shape = [(t.n_val, t.n_test, t.o) for t in self.tasks]
        self._pred_start = _pred_starts(self.tasks, len(self.configs))
        self._label_start = _label_starts(self.tasks)
        self._preds = np.asarray(predictions)
        self._labels = np.asarray(labels)
        self._bytes_read = 0
        if (self._preds.shape != (self._pred_start[-1],)
                or self._labels.shape != (self._label_start[-1],)):
            raise StoreError("prediction or label buffer does not match the task shapes")

        self._task_index = {k: i for i, k in enumerate(keys)}
        self._datasets = list(dict.fromkeys(t.dataset_id for t in self.tasks))

    # -- construction -----------------------------------------------------

    @classmethod
    def in_memory(
        cls,
        tasks: Sequence[TaskMeta],
        configs: Sequence[ConfigMeta],
        folds_per_dataset: int,
        labels: Sequence[tuple[np.ndarray, np.ndarray]],
        predictions: Sequence[tuple[np.ndarray, np.ndarray]],
        evals: np.ndarray,
    ) -> "Repository":
        """Build a repository from in-memory arrays, such as another one's slabs.

        ``predictions`` holds one (val, test) pair of (n_configs, rows, o)
        slabs per task, the shape :meth:`task_predictions` returns, and
        ``labels`` one (val, test) array pair per task. Each task's labels
        and slabs are copied into its regions of the packed buffers (the
        generator skips this copy and fills such buffers itself). A wrong
        number of pairs, a slab of the wrong shape or labels of the wrong
        length is a :class:`StoreError`; values are not checked here, so
        that :func:`validate_repo` can report them.
        """
        tasks = list(tasks)
        if not len(labels) == len(predictions) == len(tasks):
            raise StoreError(f"{len(labels)} label pairs and {len(predictions)} prediction "
                             f"slab pairs for {len(tasks)} tasks")
        label_start = _label_starts(tasks)
        pred_start = _pred_starts(tasks, len(configs))
        labs = np.empty(label_start[-1], dtype="<f8")
        buf = np.empty(pred_start[-1], dtype="<f4")
        for t, (task, (yv, yt), (val, test)) in enumerate(zip(tasks, labels, predictions)):
            if len(yv) != task.n_val or len(yt) != task.n_test:
                raise StoreError(f"label lengths for task {task.key} do not match task meta")
            labs[label_start[t]:label_start[t + 1]] = np.concatenate([yv, yt])
            region = _task_region(buf, pred_start[t], len(configs), task)
            for s, part, slab in ((VAL, region[:, :task.n_val], val),
                                  (TEST, region[:, task.n_val:], test)):
                slab = np.asarray(slab)
                if slab.shape != part.shape:
                    raise StoreError(f"prediction slab shape {slab.shape} != {part.shape} "
                                     f"at (task={task.key}, split={s})")
                part[...] = slab
        buf.flags.writeable = False
        labs.flags.writeable = False
        return cls(tasks, configs, folds_per_dataset, labs, buf,
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
        """Family names in first-appearance order."""
        return list(dict.fromkeys(c.family for c in self.configs))

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

    def config_ordinals(self, configs) -> list[int]:
        """Sorted distinct ordinals of ``configs``; no list or an empty one is a ValueError."""
        if configs is None:
            raise ValueError("candidate list must not be None")
        configs = list(configs)
        # callers mostly pass in-range plain ints: skip the walk through config_index
        if all(type(c) is int for c in configs):
            ordinals = sorted(set(configs))
            if ordinals and 0 <= ordinals[0] and ordinals[-1] < self.n_configs:
                return ordinals
        ordinals = sorted({self.config_index(c) for c in configs})
        if not ordinals:
            raise ValueError("candidate list is empty")
        return ordinals

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
        n_val, n_test, o = self._shape[t]
        rows, skip = (n_val, 0) if split == VAL else (n_test, n_val)
        start = self._pred_start[t] + (j * (n_val + n_test) + skip) * o
        self._bytes_read += rows * o * 4
        return self._preds[start:start + rows * o].reshape(rows, o)

    def task_predictions(self, task, split: int) -> np.ndarray:
        """Every config's cell of one task split: an (n_configs, rows, o) float32 read-only view.

        Slices the split's rows out of the task's region without copying.
        """
        t = self.task_index(task)
        if split not in (VAL, TEST):
            raise ValueError(f"split must be {VAL} (val) or {TEST} (test)")
        meta = self.tasks[t]
        region = _task_region(self._preds, self._pred_start[t], self.n_configs, meta)
        slab = region[:, :meta.n_val] if split == VAL else region[:, meta.n_val:]
        self._bytes_read += slab.nbytes
        return slab

    def predict_val(self, dataset, fold: int | None = None, config=None) -> np.ndarray:
        """Validation (out-of-fold) predictions for (dataset, fold, config)."""
        task = dataset if fold is None else (dataset, fold)
        return self.predictions(task, config, VAL)

    def predict_test(self, dataset, fold: int | None = None, config=None) -> np.ndarray:
        """Test predictions for (dataset, fold, config)."""
        task = dataset if fold is None else (dataset, fold)
        return self.predictions(task, config, TEST)

    def labels(self, task, split: int) -> np.ndarray:
        """Labels of one task split: int64 class indices, or read-only float64 targets."""
        t = self.task_index(task)
        if split not in (VAL, TEST):
            raise ValueError(f"split must be {VAL} (val) or {TEST} (test)")
        start = self._label_start[t] + (self.tasks[t].n_val if split == TEST else 0)
        rows = self._shape[t][split]
        y = self._labels[start:start + rows]
        return y.astype(np.int64) if self.tasks[t].problem.is_classification else y

    @property
    def eval_table(self) -> np.ndarray:
        """Dense (n_tasks, n_configs, 4) float64 view: loss_val, loss_test, time_fit, time_infer."""
        return self._evals

    def loss_val(self, task, config) -> float:
        return float(self._evals[self.task_index(task), self.config_index(config), 0])

    @property
    def prediction_bytes_read(self) -> int:
        """Total prediction-blob bytes requested so far (instrumentation)."""
        return self._bytes_read

    # -- paper-style convenience API ---------------------------------------

    def evaluate_ensemble(self, datasets, folds, configs, ensemble_size: int = 40) -> np.ndarray:
        from . import ensemble  # local import to avoid a cycle

        return ensemble.evaluate_ensemble(datasets, folds, configs, ensemble_size, self)


def _cell(repo: Repository, t: int, j: int, split: int | None = None) -> str:
    """How messages name a (task, config) pair, or one of its cells."""
    where = f"task={repo.tasks[t].key}, config={repo.configs[j].config_id}"
    return f"({where})" if split is None else f"({where}, split={split})"


def _cell_violations(repo: Repository, t: int) -> list[tuple[int, int, str]]:
    """(config, split, message) for every invalid cell of task ``t``, in (config, split) order.

    Each split is checked as one slab. A non-finite value outranks the
    classification checks: every value in [0, 1] and, for multiclass tasks,
    every row summing to one within ``ROW_SUM_TOL``.
    """
    task = repo.tasks[t]
    found = []
    for s in (VAL, TEST):
        p = np.asarray(repo.task_predictions(t, s), dtype=np.float64)
        nonfinite = ~np.isfinite(p).all(axis=(1, 2))
        off = np.zeros_like(nonfinite)
        if task.problem.is_classification:
            with np.errstate(invalid="ignore"):  # inf - inf in the row sums of non-finite cells
                off = ((p < 0.0) | (p > 1.0)).any(axis=(1, 2))
                if task.problem is ProblemType.MULTICLASS:
                    off |= (np.abs(p.sum(axis=2) - 1.0) > ROW_SUM_TOL).any(axis=1)
        found += [(j, s, f"non-finite prediction at {_cell(repo, t, j, s)}")
                  for j in np.flatnonzero(nonfinite).tolist()]
        found += [(j, s, f"row-stochastic violation at {_cell(repo, t, j, s)}")
                  for j in np.flatnonzero(off & ~nonfinite).tolist()]
    return sorted(found)


def _label_violations(tasks: Sequence[TaskMeta], labels: np.ndarray) -> dict[int, str]:
    """A message per task, by ordinal, with a non-finite label or, in a
    classification task, a label that is not a class index: an integer in
    ``[0, o)``, or 0 or 1 for a binary task. A non-finite label is named first.

    ``labels`` is a buffer in the layout of labels.bin past its header; it is
    checked in one pass.
    """
    sizes = [task.n_val + task.n_test for task in tasks]
    classes = [max(task.o, 2) if task.problem.is_classification else 0 for task in tasks]
    owner, bound = np.repeat(np.arange(len(tasks)), sizes), np.repeat(classes, sizes)
    nonfinite = set(owner[~np.isfinite(labels)].tolist())
    bad = (bound > 0) & ~((labels >= 0) & (labels < bound) & (np.floor(labels) == labels))
    return {t: f"non-finite label for task {tasks[t].key}" if t in nonfinite else
            f"labels of task {tasks[t].key} are not class indices in [0, {classes[t]})"
            for t in sorted(nonfinite.union(owner[bad].tolist()))}


def _invalid_evals(evals: np.ndarray) -> np.ndarray:
    """(tasks, configs) mask of the evaluation records with a negative or non-finite field."""
    return ~np.all(np.isfinite(evals) & (evals >= 0), axis=2)


def _check_evals(repo: Repository) -> None:
    bad = np.argwhere(_invalid_evals(repo.eval_table)).tolist()
    if bad:
        raise StoreError(f"invalid evaluation record at {_cell(repo, *bad[0])}")


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


def _replace_file(path: Path, name: str, *parts) -> None:
    """Write ``parts`` (bytes or arrays) to a temporary file, then rename it to ``name``.

    Replacing rather than truncating keeps every memory map of the old file,
    and every view into one, valid.
    """
    tmp = path / f".{name}.tmp"
    try:
        with open(tmp, "wb") as f:
            for part in parts:
                f.write(part if isinstance(part, bytes)
                        else np.ascontiguousarray(part).reshape(-1).view(np.uint8).data)
        os.replace(tmp, path / name)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_repo(repo: Repository, path: str | Path) -> None:
    """Write a repository to ``path``, creating the directory if needed.

    The output is canonical: writing the same repository twice, or writing a
    freshly opened copy, produces byte-identical files. Every cell, evaluation
    record and label is checked before anything is written (labels finite,
    and class indices for classification tasks); a violation aborts with a
    diagnostic naming the offending cell or task. Each file is then
    written under a temporary name and renamed into place, manifest.json
    last, so ``path`` may be the directory ``repo`` was opened from.
    """
    path = Path(path)
    tasks, configs = repo.tasks, repo.configs
    for t in range(repo.n_tasks):
        bad = _cell_violations(repo, t)
        if bad:
            raise StoreError(bad[0][2])
    _check_evals(repo)
    evals = np.ascontiguousarray(repo.eval_table, dtype="<f8")

    if bad_labels := _label_violations(tasks, repo._labels):
        raise StoreError(next(iter(bad_labels.values())))
    starts = repo._label_start
    checksums = [hashlib.sha256(repo._labels[a:b]).hexdigest() for a, b in zip(starts, starts[1:])]

    manifest = {
        "format": "prediction-repository",
        "version": FORMAT_VERSION,
        "folds_per_dataset": repo.folds_per_dataset,
        "tasks": [{**asdict(t), "problem": t.problem.value} for t in tasks],
        "configs": [asdict(c) for c in configs],
        "label_checksums": checksums,
    }

    path.mkdir(parents=True, exist_ok=True)
    _replace_file(path, "preds.blob", _header(MAGIC_BLOB), repo._preds)
    _replace_file(path, "preds.idx", _header(MAGIC_INDEX), _canonical_index(tasks, len(configs)))
    _replace_file(path, "evals.bin", _header(MAGIC_EVALS), evals)
    _replace_file(path, "labels.bin", _header(MAGIC_LABELS), repo._labels)
    _replace_file(path, "manifest.json",
                  (json.dumps(manifest, indent=2) + "\n").encode("utf-8"))


def _typed(kind: type):
    """Converter that passes only JSON values of exactly ``kind`` (so a bool is no int)."""
    def check(value):
        if type(value) is not kind:
            raise TypeError
        return value
    return check


def _u4(value) -> int:
    """A JSON integer within ``<u4``, the width of the preds.idx shape fields."""
    if type(value) is not int:
        raise TypeError
    if not 0 <= value <= 0xFFFF_FFFF:
        raise ValueError
    return value


def _field(entry, key: str, convert, where: str | None = None):
    """``convert(entry[key])``; a missing or bad value is a StoreError naming the field."""
    if key not in entry:
        at = f" in {where}" if where else ""
        raise StoreError(f"manifest.json is missing required field {key!r}{at}")
    try:
        return convert(entry[key])
    except (TypeError, ValueError):
        at = f" {where}:" if where else ""
        raise StoreError(f"manifest.json:{at} invalid {key!r} value {entry[key]!r}") from None


def _manifest_tasks(entries: list) -> list[TaskMeta]:
    """Parse the manifest's tasks; a bad entry is a StoreError naming the task and the field."""
    tasks = []
    for i, entry in enumerate(entries):
        if type(entry) is not dict:
            raise StoreError(f"manifest.json: task {i} is not a JSON object")
        dataset_id = _field(entry, "dataset_id", _typed(str), f"task {i}")
        fold = _field(entry, "fold", _u4, f"task {i}")
        name = f"task {(dataset_id, fold)}"
        try:
            tasks.append(TaskMeta(
                dataset_id, fold,
                problem=_field(entry, "problem", ProblemType, name),
                n_val=_field(entry, "n_val", _u4, name),
                n_test=_field(entry, "n_test", _u4, name),
                o=_field(entry, "o", _u4, name),
                n_features=_field(entry, "n_features", _u4, name) if "n_features" in entry else 0,
            ))
        except ValueError as e:
            raise StoreError(f"manifest.json: {e}") from None
    return tasks


_CONFIG_TYPES = (("config_id", str), ("family", str), ("is_default", bool), ("hyperparams", str))


def _manifest_configs(entries: list) -> list[ConfigMeta]:
    """Parse the manifest's configs; a mistyped value is a StoreError naming ordinal and field."""
    configs = []  # many more than tasks: checked once built, not through _field per value
    try:
        for j, c in enumerate(entries):
            if type(c) is not dict:
                raise StoreError(f"manifest.json: config {j} is not a JSON object")
            config = ConfigMeta(c["config_id"], c["family"], c["is_default"],
                                c.get("hyperparams", ""))
            for key, kind in _CONFIG_TYPES:
                if type(getattr(config, key)) is not kind:
                    raise StoreError(f"manifest.json: config {j}: invalid {key!r} value "
                                     f"{getattr(config, key)!r}")
            configs.append(config)
    except KeyError as e:
        raise StoreError(f"manifest.json is missing required field {e.args[0]!r} "
                         f"in config {j}") from None
    return configs


def _map(path: Path, dtype: str, count: int) -> np.ndarray:
    """Read-only map of ``count`` items of ``path`` past its 8-byte header."""
    if count == 0:
        return np.empty(0, dtype=dtype)
    return np.asarray(np.memmap(path, dtype=dtype, mode="r", offset=8, shape=(count,)))


def _check_index(path: Path, tasks: Sequence[TaskMeta], configs: Sequence[ConfigMeta]) -> None:
    """Compare the records of preds.idx with the canonical ones, pad bytes excepted."""
    want = _canonical_index(tasks, len(configs)).reshape(-1)
    raw = np.fromfile(path, dtype=np.uint8, offset=8)
    if raw.nbytes != want.nbytes:
        raise StoreError(f"preds.idx holds {raw.nbytes} record bytes, expected {want.nbytes}")
    width = _INDEX_DTYPE.itemsize
    differs = raw.reshape(-1, width) != want.view(np.uint8).reshape(-1, width)
    differs[:, _PAD_BYTES] = False
    bad = np.flatnonzero(differs.any(axis=1))
    if not bad.size:
        return
    got, exp = raw.view(_INDEX_DTYPE)[bad[0]], want[bad[0]]
    if any(got[f] != exp[f] for f in ("task", "config", "split")):
        raise StoreError("preds.idx records are not sorted by (task, config, split)")
    task = tasks[int(exp["task"])]
    if got["rows"] != exp["rows"] or got["cols"] != exp["cols"]:
        raise StoreError(
            f"index shape ({int(got['rows'])}, {int(got['cols'])}) does not match task "
            f"{task.key} meta ({int(exp['rows'])}, {int(exp['cols'])})"
        )
    raise StoreError(
        f"preds.idx offset {int(got['offset'])} at (task={task.key}, "
        f"config={configs[int(exp['config'])].config_id}, split={int(exp['split'])}) "
        f"is not the canonical {int(exp['offset'])}"
    )


def open_repo(path: str | Path) -> Repository:
    """Open an on-disk repository for reading.

    Metadata is parsed fully, the index is checked against the records the
    task shapes imply, and each task's labels are checked against their
    manifest checksum and checked to be finite and, for classification tasks,
    class indices, in one pass over all labels. The prediction blob is
    memory-mapped and never read in full at open time. The returned handle is
    immutable and safe for concurrent readers.
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

    if type(manifest) is not dict or manifest.get("format") != "prediction-repository":
        raise StoreError("bad magic in manifest.json: not a prediction repository")
    if manifest.get("version") != FORMAT_VERSION:
        raise StoreError(f"unsupported version {manifest.get('version')} in manifest.json")

    array = _typed(list)
    tasks = _manifest_tasks(_field(manifest, "tasks", array))
    configs = _manifest_configs(_field(manifest, "configs", array))
    folds = _field(manifest, "folds_per_dataset", _u4)
    label_checksums = _field(manifest, "label_checksums", array)
    T, M = len(tasks), len(configs)

    for name, magic in (("preds.blob", MAGIC_BLOB), ("preds.idx", MAGIC_INDEX),
                        ("evals.bin", MAGIC_EVALS), ("labels.bin", MAGIC_LABELS)):
        _check_header(path / name, magic)

    _check_index(path / "preds.idx", tasks, configs)
    end = 8 + 4 * _pred_starts(tasks, M)[-1]
    blob_size = os.path.getsize(path / "preds.blob")
    if blob_size != end:
        side = "shorter" if blob_size < end else "longer"
        raise StoreError(
            f"blob {side} than index extent: need {end} bytes, preds.blob has {blob_size}"
        )

    evals_size = os.path.getsize(path / "evals.bin")
    if evals_size != 8 + T * M * _EVAL_FIELDS * 8:
        raise StoreError(
            f"evals.bin has {evals_size} bytes, expected {8 + T * M * _EVAL_FIELDS * 8}"
        )

    label_start = _label_starts(tasks)
    labels_size = os.path.getsize(path / "labels.bin")
    if labels_size != 8 + label_start[-1] * 8:
        raise StoreError(f"labels.bin has {labels_size} bytes, expected {8 + label_start[-1] * 8}")
    labels = _map(path / "labels.bin", "<f8", label_start[-1])
    if len(label_checksums) != T:
        raise StoreError(
            f"manifest.json has {len(label_checksums)} label checksums for {T} tasks")
    for t, task in enumerate(tasks):
        if type(label_checksums[t]) is not str:
            raise StoreError(f"manifest.json: task {task.key}: invalid label checksum "
                             f"{label_checksums[t]!r}")
        chunk = labels[label_start[t]:label_start[t + 1]]
        if hashlib.sha256(chunk).hexdigest() != label_checksums[t]:
            raise StoreError(f"label checksum mismatch in labels.bin for task {task.key}")
    if bad_labels := _label_violations(tasks, labels):
        raise StoreError(next(iter(bad_labels.values())))

    evals = _map(path / "evals.bin", "<f8", T * M * _EVAL_FIELDS).reshape(T, M, _EVAL_FIELDS)
    repo = Repository(tasks, configs, folds, labels,
                      _map(path / "preds.blob", "<f4", (end - 8) // 4), evals)
    _check_evals(repo)
    return repo


def validate_repo(repo: Repository) -> list[str]:
    """Check repository invariants; returns a list of violations (empty = valid).

    Covers labels that are not finite or, in classification tasks, not class
    indices (reported first for their task, whose losses are then not
    recomputed), NaN freedom and row stochasticity of every cell, valid
    evaluation records, and recomputation of the stored validation loss from
    the stored predictions within ``LOSS_RECOMPUTE_TOL`` relative, in one
    :class:`metrics.StackLoss` call per task. Violations come in (task,
    config) order. Density and cell shapes hold by construction.
    """
    from . import metrics  # local import to avoid a cycle

    report: list[str] = []
    bad_evals = _invalid_evals(repo.eval_table)
    bad_labels = _label_violations(repo.tasks, repo._labels)
    for t, task in enumerate(repo.tasks):
        found = [(j, message) for j, _, message in _cell_violations(repo, t)]
        found += [(j, f"invalid evaluation record at {_cell(repo, t, j)}")
                  for j in np.flatnonzero(bad_evals[t]).tolist()]
        check = np.flatnonzero(~np.isin(np.arange(repo.n_configs), [j for j, _ in found]))
        if t in bad_labels:  # first for the task; no loss is recomputed against such labels
            found.append((-1, bad_labels[t]))
        else:
            try:
                loss_of = metrics.StackLoss(task, repo.labels(t, VAL))
            except ValueError as e:
                found += [(j, f"loss recomputation failed at {_cell(repo, t, j)}: {e}")
                          for j in check.tolist()]
            else:
                recomputed = loss_of(repo.task_predictions(t, VAL)[check])
                stored = repo.eval_table[t, check, 0]
                tol = LOSS_RECOMPUTE_TOL * np.maximum(1.0, np.abs(recomputed))
                off = np.abs(stored - recomputed) > tol
                found += [(j, f"loss_val mismatch at {_cell(repo, t, j)}: "
                              f"stored={float(a)!r}, recomputed={float(b)!r}")
                          for j, a, b in zip(check[off].tolist(), stored[off], recomputed[off])]
        report.extend(message for _, message in sorted(found, key=lambda entry: entry[0]))
    return report
