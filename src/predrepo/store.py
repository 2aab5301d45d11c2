"""Domain types and the prediction repository format.

A repository stores, for every (task, config) pair, the validation and test
prediction matrices plus a scalar evaluation record (validation loss, test
loss, fit time, inference time per row).

Memory and disk share one layout. All prediction matrices sit back to back
in one float32 buffer, row-major, in (task, config, split) order, so a cell's
position and shape follow from the task shapes alone. An in-memory
repository, built or generated, fills such a buffer that
:func:`_packed_buffers` allocates; an opened one is a view past
the header of preds.blob, mapped once, whole and read-only, as is each other
binary file. The labels sit likewise in one float64 buffer in labels.bin
order. A :class:`Repository` takes each task split's views of these
buffers once, when it is made (:func:`_split_views`); reads index those
views and copy nothing, except that classification labels are converted to
int64 class indices; :func:`write_repo` and :func:`open_repo` admit only
labels that are class indices, so the conversion is exact.
:meth:`Repository.task_predictions` views a task split's adjacent cells as
one (configs, rows, o) slab, and a cell is one config of that slab.
:func:`write_repo` and :func:`validate_repo` check the cells over the
packed buffer with no float64 copy. Whole-buffer screens (each task's least
and greatest value, and a row-sum mat-vec per multiclass task) prove a clean
store clean, and only a task they flag is checked cell by cell, on its own
region, to name its bad cells (:func:`_cell_violations`). The row sums
are screened with a rounding bound in the input's dtype that decides every
row as numpy's row sum does (:func:`_rows_off_one`, which
:class:`metrics.StackLoss` shares).

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

One table, :data:`_BINARY_FILES`, gives each binary file's magic and the
type of its values past the header; :func:`write_repo` writes the four in
one loop, and :func:`open_repo` reads each through one helper,
:func:`_map_array`, which checks the header and the exact size and returns
a typed view. A file of the wrong size is named in one message shape,
"<file> shorter|longer than index extent: need N bytes, <file> has M".

Index offsets are absolute byte positions in preds.blob. Splits are numbered
val=0, test=1. The index is redundant with the manifest: :func:`open_repo`
reads it first and rejects any record that differs from the one the task
shapes imply before it maps preds.blob, and it rejects any evaluation
record with a negative or non-finite field. A canonical index is accepted
by one compare; only a mismatch is diagnosed record by record.
manifest.json is ``json.dumps(manifest, indent=2)`` plus a newline, produced
from the C JSON encoder (:func:`_manifest_text`). Repository handles
are immutable after open and safe for concurrent readers. All writes go
through :func:`write_repo`, which checks every cell first and then replaces
each file whole, so rewriting a repository onto the directory it was opened
from leaves earlier views reading their old values.
"""

from __future__ import annotations

import enum
import hashlib
import json
import mmap
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

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

# each binary file: its magic and the type of the values past its 8-byte header
_BINARY_FILES = {
    "labels.bin": (b"TRLB", np.dtype("<f8")),
    "evals.bin": (b"TREV", np.dtype("<f8")),
    "preds.idx": (b"TRPI", np.dtype("<u4")),  # 7 words per 28-byte record
    "preds.blob": (b"TRPB", np.dtype("<f4")),
}

STORE_FILES = ("manifest.json", *_BINARY_FILES)

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


SplitViews = dict[int, list[np.ndarray]]  # split -> one view per task


def _split_views(tasks: Sequence[TaskMeta], n_configs: int,
                 labels: np.ndarray, label_start: Sequence[int],
                 preds: np.ndarray, pred_start: Sequence[int]) -> tuple[SplitViews, SplitViews]:
    """Each task split's labels and cells as views of packed buffers, by ``[split][task]``.

    ``label_start`` and ``pred_start`` are :func:`_label_starts` and
    :func:`_pred_starts` of ``tasks``. The labels of a split are a run of
    the task's labels, val rows first; its cells are one (n_configs, rows,
    o) view, the split's rows of the task's region. The views are as
    writable as the buffers.
    """
    label_views: SplitViews = {VAL: [], TEST: []}
    cell_views: SplitViews = {VAL: [], TEST: []}
    for t, task in enumerate(tasks):
        n_val, at = task.n_val, label_start[t]
        region = _task_region(preds, pred_start[t], n_configs, task)
        label_views[VAL].append(labels[at:at + n_val])
        label_views[TEST].append(labels[at + n_val:label_start[t + 1]])
        cell_views[VAL].append(region[:, :n_val])
        cell_views[TEST].append(region[:, n_val:])
    return label_views, cell_views


def _packed_buffers(tasks: Sequence[TaskMeta], n_configs: int) -> tuple[
        np.ndarray, np.ndarray, SplitViews, SplitViews]:
    """Fresh packed label and prediction buffers for ``tasks`` and ``n_configs`` configs.

    Returns the float64 label buffer, the float32 prediction buffer and
    their writable :func:`_split_views` for filling them, the views a
    :class:`Repository` reads. :meth:`Repository.in_memory` and
    :func:`synth.generate_repo` fill through these views; the
    :class:`Repository` made from the buffers freezes them.
    """
    label_start = _label_starts(tasks)
    pred_start = _pred_starts(tasks, n_configs)
    labels = np.empty(label_start[-1], dtype="<f8")
    preds = np.empty(pred_start[-1], dtype="<f4")
    return (labels, preds,
            *_split_views(tasks, n_configs, labels, label_start, preds, pred_start))


def _split(split) -> int:
    """VAL or TEST for a split that equals one of them; anything else is a ValueError."""
    if split not in (VAL, TEST):
        raise ValueError(f"split must be {VAL} (val) or {TEST} (test)")
    return TEST if split == TEST else VAL


class Repository:
    """Dense store of predictions and evaluations for tasks x configs.

    ``predictions`` is the float32 buffer of every cell in the layout of
    preds.blob past its header, and ``labels`` the float64 buffer of every
    label in the layout of labels.bin past its header (see the module
    docstring). The constructor makes both buffers read-only and then takes
    each task split's label and cell views (:func:`_split_views`) once, so
    reads index them and return read-only views. Immutable after
    construction, except that an in-memory repository's ``eval_table`` is
    the caller's array.
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

        self._pred_start = _pred_starts(self.tasks, len(self.configs))
        self._label_start = _label_starts(self.tasks)
        self._preds = np.asarray(predictions)
        self._labels = np.asarray(labels)
        # frozen before the views are taken: a view of a writable buffer stays writable
        self._preds.flags.writeable = self._labels.flags.writeable = False
        self._bytes_read = 0
        if (self._preds.shape != (self._pred_start[-1],)
                or self._labels.shape != (self._label_start[-1],)):
            raise StoreError("prediction or label buffer does not match the task shapes")
        self._label_views, self._cells = _split_views(
            self.tasks, len(self.configs), self._labels, self._label_start,
            self._preds, self._pred_start)

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
        and slabs are copied into its views of fresh packed buffers
        (:func:`_packed_buffers`, which the generator fills too). A wrong
        number of pairs, a slab of the wrong shape or labels of the wrong
        length is a :class:`StoreError`; values are not checked here, so
        that :func:`validate_repo` can report them.
        """
        tasks = list(tasks)
        if not len(labels) == len(predictions) == len(tasks):
            raise StoreError(f"{len(labels)} label pairs and {len(predictions)} prediction "
                             f"slab pairs for {len(tasks)} tasks")
        labs, buf, label_views, cell_views = _packed_buffers(tasks, len(configs))
        for t, (task, (yv, yt), slabs) in enumerate(zip(tasks, labels, predictions)):
            if len(yv) != task.n_val or len(yt) != task.n_test:
                raise StoreError(f"label lengths for task {task.key} do not match task meta")
            label_views[VAL][t][...] = yv
            label_views[TEST][t][...] = yt
            for s, slab in zip((VAL, TEST), slabs):
                part = cell_views[s][t]
                slab = np.asarray(slab)
                if slab.shape != part.shape:
                    raise StoreError(f"prediction slab shape {slab.shape} != {part.shape} "
                                     f"at (task={task.key}, split={s})")
                part[...] = slab
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
        """Resolve a TaskMeta, (dataset_id, fold) pair, or ordinal to an ordinal.

        A fold that is not an ``int`` or an ``np.integer`` names no task.
        """
        if isinstance(task, TaskMeta):
            task = task.key
        if isinstance(task, (int, np.integer)):
            if not 0 <= task < self.n_tasks:
                raise KeyError(f"task ordinal out of range: {task}")
            return int(task)
        if not isinstance(task[1], (int, np.integer)):
            raise KeyError(f"unknown task: {task!r}")
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
        """Sorted distinct ordinals of ``configs``; no list or an empty one is a ValueError.

        An in-range plain ``int`` is its own ordinal. Any other entry, a ``bool``
        or an ``np.integer`` too, is resolved by :meth:`config_index`, in the
        order given, so the first bad entry raises its ``KeyError``.
        """
        if configs is None:
            raise ValueError("candidate list must not be None")
        n = self.n_configs
        ordinals = sorted({c if type(c) is int and 0 <= c < n else self.config_index(c)
                           for c in configs})
        if not ordinals:
            raise ValueError("candidate list is empty")
        return ordinals

    def dataset_tasks(self, dataset_id: str) -> list[int]:
        out = [i for i, t in enumerate(self.tasks) if t.dataset_id == dataset_id]
        if not out:
            raise KeyError(f"unknown dataset: {dataset_id!r}")
        return out

    # -- data access ------------------------------------------------------

    # An in-range plain int is its own task or config ordinal, as in
    # config_ordinals; every other kind is resolved by task_index or
    # config_index. A split is looked up as given, and converted by _split
    # only when that lookup misses.

    def predictions(self, task, config, split: int) -> np.ndarray:
        """Stored prediction matrix for one cell; float32, read-only."""
        t = task if type(task) is int and 0 <= task < len(self.tasks) else self.task_index(task)
        j = (config if type(config) is int and 0 <= config < len(self.configs)
             else self.config_index(config))
        try:
            slabs = self._cells[split]
        except (KeyError, TypeError):
            slabs = self._cells[_split(split)]
        cell = slabs[t][j]
        self._bytes_read += cell.nbytes
        return cell

    def task_predictions(self, task, split: int) -> np.ndarray:
        """Every config's cell of one task split: an (n_configs, rows, o) float32 read-only view.

        The same view on every call, taken once at construction.
        """
        t = task if type(task) is int and 0 <= task < len(self.tasks) else self.task_index(task)
        try:
            slabs = self._cells[split]
        except (KeyError, TypeError):
            slabs = self._cells[_split(split)]
        slab = slabs[t]
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
        """Labels of one task split: an int64 copy of class indices, or read-only float64 targets."""
        t = task if type(task) is int and 0 <= task < len(self.tasks) else self.task_index(task)
        try:
            runs = self._label_views[split]
        except (KeyError, TypeError):
            runs = self._label_views[_split(split)]
        y = runs[t]
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


def _class_sums(x: np.ndarray) -> np.ndarray:
    """``x.sum(axis=-1)`` of a float array, bit for bit.

    numpy reduces a short last axis one row at a time, a loop per row of a
    few values. Under numpy 2.4 a row of fewer than 8 values is added left
    to right onto 0.0 (so a row of ``-0.0`` sums to ``0.0``), and so are the
    class columns here, each in one whole-array add. A longer row is added
    through eight accumulators, an order only numpy's own reduction gives,
    so such an ``x`` goes to it.
    """
    o = x.shape[-1]
    if not 0 < o < 8:
        return x.sum(axis=-1)
    total = x[..., 0] + 0.0
    for i in range(1, o):
        total += x[..., i]
    return total


def _rows_off_one(p: np.ndarray) -> np.ndarray:
    """``np.abs(p.sum(axis=-1) - 1.0) > ROW_SUM_TOL`` of a float32 or float64
    array, with the sums taken in float64 as ``p.astype(np.float64)`` takes them.

    numpy reduces a short last axis one row at a time, so the rows are
    screened by a sum whose error is bounded instead (a floating-point
    filter, as in Shewchuk's robust predicates), and numpy sums only the
    rows near the tolerance. The screen takes each row's sum ``s`` and mass
    ``m``, the sum of its absolute values, as one mat-vec with a vector of
    ones in the dtype of ``p``; with no negative entry in ``p``, ``m`` is
    ``s``. With ``eps`` that dtype's machine epsilon, it decides as numpy's
    float64 sum ``r`` does:

    - For a float64 ``x``, ``abs(x - 1.0) > ROW_SUM_TOL`` is the exact test
      ``|x - 1| > ROW_SUM_TOL``: the subtraction is exact for ``x`` in
      ``[0.5, 2]`` (Sterbenz), and outside that range both sides exceed 0.5.
      ``s`` is widened to float64 before it is subtracted.
    - ``s`` and ``r`` add the same ``o`` terms, each in some order. An
      order in a dtype of unit roundoff ``u`` is within ``g * A`` of the
      exact sum, where ``A`` is the exact mass and ``g = (o - 1) u / (1 - (o
      - 1) u)`` (Higham, *Accuracy and Stability of Numerical Algorithms*,
      section 4.2). With ``u = eps / 2`` this bounds ``s``, and ``r`` too,
      whose float64 sum is at least as close. The computed mass is at least
      ``(1 - g) A``, so ``|s - r| <= 2 g A / (1 - g) <= 2 g m / (1 - g)**2``,
      which for any ``o`` below 10**6 stays below the band ``2 * o * eps *
      m`` less the relative roundings of the band's own arithmetic.
    - ``|x - 1| - ROW_SUM_TOL`` moves by at most ``|s - r|`` between ``x =
      s`` and ``x = r``. A row whose computed ``| |s - 1| - ROW_SUM_TOL |``
      exceeds its band is therefore decided alike by ``s`` and by ``r``. A
      row whose sum is NaN or whose band is infinite (from a NaN or an
      infinity in the row, or from an overflow) is in the band. The sums
      that overflow or meet ``inf - inf`` raise no floating-point warning.
    - Whole-region check: when the largest ``|s - 1|`` plus the band at the
      largest ``m`` is at most ``ROW_SUM_TOL``, every row's ``|s - 1|`` is
      below the tolerance by more than its band, so no row is off and none
      is in the band, and the kernel returns with no per-row pass. Rows of
      probabilities stored in float32 sum within a few ulp of one, so a
      clean float32 region passes it while its band, ``2 * o * eps``, is
      well below the tolerance: up to about 40 classes.

    Rows inside the band take their test from ``p[near].sum(axis=-1)``:
    numpy sums each row of that gather in the order it sums the row in
    ``p``. That order is left to right only for short rows (up to 7 values
    under numpy 2.4), and the mat-vec's order is the BLAS library's, which
    is why the screen needs its band.
    """
    o = p.shape[-1]
    ones = np.ones(o, dtype=p.dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        total = (p.reshape(-1, o) @ ones).reshape(p.shape[:-1])
        mass = total if p.min(initial=0.0) >= 0.0 else np.abs(p) @ ones  # a negative, or a NaN
    band = 2 * o * float(np.finfo(p.dtype).eps)
    if total.size:
        lo, hi = float(total.min()), float(total.max())
        heaviest = hi if mass is total else float(mass.max())
        if max(hi - 1.0, 1.0 - lo) + band * heaviest <= ROW_SUM_TOL:
            return np.zeros(total.shape, dtype=bool)
    distance = np.abs(np.subtract(total, 1.0, dtype=np.float64))
    off = distance > ROW_SUM_TOL
    near = ~(np.abs(distance - ROW_SUM_TOL) > band * mass)  # true for a NaN
    if near.any():
        with np.errstate(over="ignore", invalid="ignore"):
            full = np.asarray(p[near], dtype=np.float64).sum(axis=-1)
        off[near] = np.abs(full - 1.0) > ROW_SUM_TOL
    return off


def _cell_violations(repo: Repository) -> list[tuple[int, int, int, str]]:
    """(task, config, split, message) for every invalid cell, in (task, config, split) order.

    A non-finite value outranks the classification checks: every value in
    [0, 1] and, for multiclass tasks, every row summing to one within
    ``ROW_SUM_TOL``. Screens over the whole packed buffer first prove tasks
    clean:

    - ``np.minimum.reduceat`` and ``np.maximum.reduceat`` at the task
      starts give each task's least and greatest value. NaN propagates
      through both and an infinity is an extreme, so a task's values are
      all finite exactly when these two are; a classification task's
      values all lie in [0, 1] exactly when the least is at least 0 and the
      greatest at most 1.
    - A multiclass task that passes has its rows tested by
      :func:`_rows_off_one` on its region.

    Only a task the screens flag is checked cell by cell, on its own region,
    by :func:`_task_violations`; a task flagged by its rows hands them on.
    """
    preds, starts = repo._preds, repo._pred_start
    if not preds.size:
        return []
    repo._bytes_read += preds.nbytes
    lo, hi = np.minimum.reduceat(preds, starts[:-1]), np.maximum.reduceat(preds, starts[:-1])
    classification = np.array([t.problem.is_classification for t in repo.tasks])
    clean = np.where(classification, (lo >= 0.0) & (hi <= 1.0), np.isfinite(lo) & np.isfinite(hi))
    found = []
    for t, task in enumerate(repo.tasks):
        if clean[t] and task.problem is not ProblemType.MULTICLASS:
            continue
        region = _task_region(preds, starts[t], repo.n_configs, task)
        rows_off = _rows_off_one(region) if clean[t] else None  # a multiclass task's screen
        if rows_off is None or rows_off.any():
            found += _task_violations(repo, t, region, rows_off)
    return found


def _task_violations(repo: Repository, t: int, region: np.ndarray,
                     rows_off: np.ndarray | None) -> list[tuple[int, int, int, str]]:
    """:func:`_cell_violations` of task ``t``, whose :func:`_task_region` is ``region``.

    Each value of the region is flagged non-finite, or off: outside [0, 1]
    in a classification task, or in a multiclass row that
    :func:`_rows_off_one` finds off one (``rows_off``, when the screens took
    it, else None). One ``np.logical_or.reduceat`` at the split start
    reduces each config's rows to its two cells, and an ``any`` over the
    last axis then reduces each cell's columns; taking that ``any`` first,
    over every row's few values, would go row by row. No float64 copy is
    made: float32 widens to float64 exactly, so the comparisons decide as on
    such a copy. This is the one place that names bad cells.
    """
    task = repo.tasks[t]
    nonfinite = ~np.isfinite(region)
    off = ((region < 0.0) | (region > 1.0)) & task.problem.is_classification
    if task.problem is ProblemType.MULTICLASS:
        if rows_off is None:
            rows_off = _rows_off_one(region)
        off |= rows_off[..., None]
    flags = np.logical_or.reduceat(np.stack([nonfinite, off]), [0, task.n_val], axis=2)
    nonfinite, off = flags.any(axis=3)
    return [(t, j, s,
             f"{'non-finite prediction' if nonfinite[j, s] else 'row-stochastic violation'}"
             f" at {_cell(repo, t, j, s)}")
            for j, s in np.argwhere(nonfinite | off).tolist()]


def _label_violations(tasks: Sequence[TaskMeta], labels: np.ndarray) -> dict[int, str]:
    """A message per task, in ordinal order, whose labels break a rule, naming
    the first rule broken: a non-finite label; in a classification task, a
    label that is not a class index (an integer in ``[0, o)``, or 0 or 1 for a
    binary task); in a binary task, a val or test split whose labels are all
    one class, the first such split named. So every task that passes can be
    scored, AUC too, in either split.

    ``labels`` is a buffer in the layout of labels.bin past its header; the
    first two rules are checked in one pass over it, and the last by counting
    the ones of each binary split.
    """
    sizes = [task.n_val + task.n_test for task in tasks]
    classes = [max(task.o, 2) if task.problem.is_classification else 0 for task in tasks]
    owner, bound = np.repeat(np.arange(len(tasks)), sizes), np.repeat(classes, sizes)
    nonfinite = set(owner[~np.isfinite(labels)].tolist())
    bad = (bound > 0) & ~((labels >= 0) & (labels < bound) & (np.floor(labels) == labels))
    not_index = set(owner[bad].tolist())
    found, at = {}, 0  # at: the start of task t's labels
    for t, task in enumerate(tasks):
        if t in nonfinite:
            found[t] = f"non-finite label for task {task.key}"
        elif t in not_index:
            found[t] = f"labels of task {task.key} are not class indices in [0, {classes[t]})"
        elif task.problem is ProblemType.BINARY:
            mid, end = at + task.n_val, at + sizes[t]
            one_class = [s for s, (a, b) in enumerate(((at, mid), (mid, end)))
                         if np.count_nonzero(labels[a:b]) in (0, b - a)]
            if one_class:
                found[t] = f"labels of task {task.key} hold one class in split {one_class[0]}"
        at += sizes[t]
    return found


def _invalid_evals(evals: np.ndarray) -> list[list[int]]:
    """(task, config) of each evaluation record with a negative or non-finite field, in order.

    The whole table is screened first: NaN fails ``min >= 0`` and either
    infinity fails one of the two tests, so a table that passes is clean and
    needs no per-record mask.
    """
    if evals.min(initial=0.0) >= 0.0 and evals.max(initial=0.0) < np.inf:
        return []
    return np.argwhere(~np.all(np.isfinite(evals) & (evals >= 0), axis=2)).tolist()


def _check_evals(repo: Repository) -> None:
    if bad := _invalid_evals(repo.eval_table):
        raise StoreError(f"invalid evaluation record at {_cell(repo, *bad[0])}")


def _header(name: str) -> bytes:
    """The 8-byte header of the binary file ``name``: its magic, then the format version."""
    return _BINARY_FILES[name][0] + np.uint32(FORMAT_VERSION).tobytes()


def _map_array(path: Path, name: str, count: int) -> np.ndarray:
    """The ``count`` values past the header of the binary file ``name`` in ``path``.

    The file is mapped whole and read-only, and the result is a view of the
    map, typed as :data:`_BINARY_FILES` says. The header is checked first,
    then the size: a file that does not hold exactly ``count`` values past
    its header is a StoreError, in one message shape for every file.
    """
    magic, dtype = _BINARY_FILES[name]
    try:
        with open(path / name, "rb", buffering=0) as f:
            data = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)  # holds its own descriptor
    except FileNotFoundError:
        raise StoreError(f"missing file: {name}") from None
    except IsADirectoryError:
        raise StoreError(f"{name} is a directory") from None
    except ValueError:  # an empty file cannot be mapped
        data = b""
    if len(data) < 8 or data[:4] != magic:
        raise StoreError(f"bad magic in {name}: expected {magic!r}")
    version = int.from_bytes(data[4:8], "little")
    if version != FORMAT_VERSION:
        raise StoreError(f"unsupported version {version} in {name}")
    need, size = 8 + count * dtype.itemsize, len(data)
    if size != need:
        side = "shorter" if size < need else "longer"
        raise StoreError(f"{name} {side} than index extent: need {need} bytes, {name} has {size}")
    return np.frombuffer(data, dtype=dtype, offset=8)


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


def _label_checksums(labels: np.ndarray, label_start: Sequence[int]) -> list[str]:
    """The sha256 hex digest of each task's run of the label buffer, as the manifest keeps them.

    ``label_start`` is :func:`_label_starts` of the tasks.
    """
    return [hashlib.sha256(labels[a:b]).hexdigest() for a, b in zip(label_start, label_start[1:])]


# every item on its own line: strings are encoded with their newlines
# escaped, so each "\n" of the text ends an item
_encode_items = json.JSONEncoder(separators=("\n", ": ")).encode


def _manifest_text(manifest: dict) -> str:
    r"""``json.dumps(manifest, indent=2)``, with the encoding done by the C encoder.

    CPython encodes in C only without ``indent``. Every manifest value is a
    scalar, a list of scalars or a list of objects whose values are scalars,
    so the "\n" ending an item of such a list is preceded by "}" exactly when
    it ends an object; the indent-2 layout follows from string replaces.
    """
    items = []
    for key, value in manifest.items():
        text = _encode_items(value)
        if type(value) is list and value:
            if type(value[0]) is dict:
                text = ("[\n    {\n      "
                        + text[2:-2].replace("\n", ",\n      ")
                        .replace("},\n      {", "\n    },\n    {\n      ")
                        + "\n    }\n  ]")
            else:
                text = "[\n    " + text[1:-1].replace("\n", ",\n    ") + "\n  ]"
        items.append(f"  {_encode_items(key)}: {text}")
    return "{\n" + ",\n".join(items) + "\n}"


def write_repo(repo: Repository, path: str | Path) -> None:
    """Write a repository to ``path``, creating the directory if needed.

    The output is canonical: writing the same repository twice, or writing a
    freshly opened copy, produces byte-identical files. Every cell, evaluation
    record and label is checked before anything is written (the labels by
    :func:`_label_violations`); a violation aborts with a diagnostic naming
    the offending cell or task. Each file is then written under a temporary
    name and renamed into place, manifest.json last, so ``path`` may be the
    directory ``repo`` was opened from.
    """
    path = Path(path)
    tasks, configs = repo.tasks, repo.configs
    if bad := _cell_violations(repo):
        raise StoreError(bad[0][3])
    _check_evals(repo)
    evals = np.ascontiguousarray(repo.eval_table, dtype="<f8")

    if bad_labels := _label_violations(tasks, repo._labels):
        raise StoreError(next(iter(bad_labels.values())))

    manifest = {
        "format": "prediction-repository",
        "version": FORMAT_VERSION,
        "folds_per_dataset": repo.folds_per_dataset,
        "tasks": [{**vars(t), "problem": t.problem.value} for t in tasks],
        "configs": [vars(c) for c in configs],
        "label_checksums": _label_checksums(repo._labels, repo._label_start),
    }

    path.mkdir(parents=True, exist_ok=True)
    for name, values in (("preds.blob", repo._preds),
                         ("preds.idx", _canonical_index(tasks, len(configs))),
                         ("evals.bin", evals), ("labels.bin", repo._labels)):
        _replace_file(path, name, _header(name), values)
    _replace_file(path, "manifest.json", (_manifest_text(manifest) + "\n").encode("utf-8"))


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
    """Parse the manifest's configs; a mistyped value is a StoreError naming ordinal and field.

    There are many more configs than tasks, so every config's four values
    are read at once and each field's types checked across all configs at
    once; only a list that fails is read again config by config, to name
    its first fault: the first config at fault, a missing field before a
    mistyped one, fields in :data:`_CONFIG_TYPES` order.
    """
    try:
        values = [(c["config_id"], c["family"], c["is_default"], c.get("hyperparams", ""))
                  for c in entries]  # only a JSON object has string keys
    except (KeyError, TypeError):
        values = None
    if values is not None and all({*map(type, column)} <= {kind}
                                  for (_, kind), column in zip(_CONFIG_TYPES, zip(*values))):
        return [ConfigMeta(*v) for v in values]
    configs = []
    try:
        for j, c in enumerate(entries):
            if type(c) is not dict:
                raise StoreError(f"manifest.json: config {j} is not a JSON object")
            values = (c["config_id"], c["family"], c["is_default"], c.get("hyperparams", ""))
            for (key, kind), value in zip(_CONFIG_TYPES, values):
                if type(value) is not kind:
                    raise StoreError(f"manifest.json: config {j}: invalid {key!r} value {value!r}")
            configs.append(ConfigMeta(*values))
    except KeyError as e:
        raise StoreError(f"manifest.json is missing required field {e.args[0]!r} "
                         f"in config {j}") from None
    return configs


def _check_index(words: np.ndarray, tasks: Sequence[TaskMeta],
                 configs: Sequence[ConfigMeta]) -> None:
    """Compare the records of preds.idx, given as its ``<u4`` words, with the canonical ones.

    ``words`` holds as many records as the canonical index (:func:`_map_array`
    checks the size). A file equal to the canonical one passes by one
    compare of all words, which makes no copy or per-byte mask; any other is
    compared record by record, pad bytes excepted.
    """
    want = _canonical_index(tasks, len(configs)).reshape(-1)
    if np.array_equal(words, want.view("<u4")):
        return
    raw = words.view(np.uint8)
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

    Metadata is parsed fully. Each binary file is then read through
    :func:`_map_array`, which checks its header and exact size and returns a
    view of its map; preds.idx comes first, and its records are checked
    against the ones the task shapes imply before preds.blob is mapped. A
    canonical index passes by one compare. Each task's labels are checked
    against their manifest checksum and then by :func:`_label_violations`:
    finite, class indices in classification tasks, and both classes in each
    split of a binary task. The prediction blob is never read in full at
    open time. The returned handle is immutable and safe for concurrent
    readers.
    """
    path = Path(path)
    try:
        manifest = json.loads((path / "manifest.json").read_text(encoding="utf-8"))
    except (FileNotFoundError, NotADirectoryError):
        raise StoreError(f"missing file: manifest.json in {path}") from None
    except IsADirectoryError:
        raise StoreError("manifest.json is a directory") from None
    except (ValueError, RecursionError) as e:  # undecodable text, deep nesting, long integers
        raise StoreError(f"manifest.json is not valid JSON: {e}") from None

    if type(manifest) is not dict or manifest.get("format") != "prediction-repository":
        raise StoreError("bad magic in manifest.json: not a prediction repository")
    if type(manifest.get("version")) is not int or manifest["version"] != FORMAT_VERSION:
        raise StoreError(f"unsupported version {manifest.get('version')} in manifest.json")

    array = _typed(list)
    tasks = _manifest_tasks(_field(manifest, "tasks", array))
    configs = _manifest_configs(_field(manifest, "configs", array))
    folds = _field(manifest, "folds_per_dataset", _u4)
    label_checksums = _field(manifest, "label_checksums", array)
    T, M = len(tasks), len(configs)

    index = _map_array(path, "preds.idx", 2 * T * M * _INDEX_DTYPE.itemsize // 4)
    _check_index(index, tasks, configs)
    preds = _map_array(path, "preds.blob", _pred_starts(tasks, M)[-1])
    evals = _map_array(path, "evals.bin", T * M * _EVAL_FIELDS).reshape(T, M, _EVAL_FIELDS)
    label_start = _label_starts(tasks)
    labels = _map_array(path, "labels.bin", label_start[-1])
    if len(label_checksums) != T:
        raise StoreError(
            f"manifest.json has {len(label_checksums)} label checksums for {T} tasks")
    for task, want, got in zip(tasks, label_checksums, _label_checksums(labels, label_start)):
        if type(want) is not str:
            raise StoreError(f"manifest.json: task {task.key}: invalid label checksum {want!r}")
        if got != want:
            raise StoreError(f"label checksum mismatch in labels.bin for task {task.key}")
    if bad_labels := _label_violations(tasks, labels):
        raise StoreError(next(iter(bad_labels.values())))

    repo = Repository(tasks, configs, folds, labels, preds, evals)
    _check_evals(repo)
    return repo


def validate_repo(repo: Repository) -> list[str]:
    """Check repository invariants; returns a list of violations (empty = valid).

    Covers the label rules of :func:`_label_violations` (labels finite, class
    indices in classification tasks, both classes in each split of a binary
    task; a task that breaks one gets one label line, first for the task, and
    its losses are not recomputed), NaN freedom and row stochasticity of every
    cell, valid evaluation records, and recomputation of the stored
    validation loss from the stored predictions within
    ``LOSS_RECOMPUTE_TOL`` relative. Each task is checked in one pass. Its
    lines are kept as (config, message) pairs, the label line at config -1.
    A task with no label line has its whole validation slab view scored,
    with no copy, in one :meth:`metrics.StackLoss.score` call. Its scorer
    comes from :meth:`metrics.StackLoss.of_checked_labels` on the task's
    float64 label view: the labels have passed every label rule, so they
    are not checked a second time or copied to int64, and the score cannot
    fail. Its cells are not checked a second time either: a multiclass
    task's column is read by :meth:`metrics.StackLoss.column`, and an RMSE
    or AUC task's is the slab's float32 column 0, which both metrics score
    as its float64 copy. Each config's loss reduces its own row, so the
    configs already named are left out by setting their losses to NaN
    without changing the others' bits. The losses go into one (tasks,
    configs) table, NaN for a task with a label line, and one tolerance test
    compares it with the stored losses. Violations come in (task, config)
    order.
    Density and cell shapes hold by construction.
    """
    from . import metrics  # local import to avoid a cycle

    found: list[list[tuple[int, str]]] = [[] for _ in repo.tasks]
    for t, message in _label_violations(repo.tasks, repo._labels).items():
        found[t].append((-1, message))
    for t, j, _, message in _cell_violations(repo):
        found[t].append((j, message))
    for t, j in _invalid_evals(repo.eval_table):
        found[t].append((j, f"invalid evaluation record at {_cell(repo, t, j)}"))
    recomputed = np.full((repo.n_tasks, repo.n_configs), np.nan)
    for t, task in enumerate(repo.tasks):
        if found[t] and found[t][0][0] < 0:  # a label line: no loss is recomputed
            continue
        loss_of = metrics.StackLoss.of_checked_labels(task, repo._label_views[VAL][t])
        slab = repo.task_predictions(t, VAL)
        # RMSE widens float32 at its subtraction and AUC only orders and compares
        column = loss_of.column(slab) if task.problem is ProblemType.MULTICLASS else slab[:, :, 0]
        recomputed[t] = loss_of.score(column)
        if found[t]:  # named already: never a mismatch
            recomputed[t, [j for j, _ in found[t]]] = np.nan
    stored = repo.eval_table[:, :, 0]
    tol = LOSS_RECOMPUTE_TOL * np.maximum(1.0, np.abs(recomputed))
    for t, j in np.argwhere(np.abs(stored - recomputed) > tol).tolist():
        found[t].append((j, f"loss_val mismatch at {_cell(repo, t, j)}: "
                            f"stored={float(stored[t, j])!r}, recomputed={float(recomputed[t, j])!r}"))
    return [message for lines in found for _, message in sorted(lines, key=lambda entry: entry[0])]
