"""Seeded synthetic repository generator and brute-force test oracles.

The generator makes every simulation procedure verifiable at desk scale.
Each config's predictions are a skill-weighted blend of the task's ground
truth and Gaussian noise with two components: one shared across the config's
family (correlation ``rho``) and one drawn per config and bag fold. Bagged
test predictions average the per-fold matrices, so test noise shrinks with
the number of bag folds while validation noise does not, and ensembles across
families gain more than ensembles within one.

Randomness comes from numpy's Philox counter-based generator. Every quantity
is drawn from its own stream keyed by ``(seed, purpose << 48 | a << 24 | b)``
so that, for example, regenerating one task's labels never shifts another
task's draws; :func:`rng_stream` is that stream. Draw order within a stream
is fixed: labels draw val rows then test rows; per-config prediction streams
draw, for each bag fold in order, the fold's validation-segment noise and
then its test noise. Identical specs therefore produce byte-identical
repositories. A Philox stream is its key and a counter, so
:func:`generate_repo` builds one bit generator and re-keys it for each
stream (:func:`_rekey`: the stream's key, a zero counter and an empty
buffer, set from one state dict per call that is updated in place), which
draws exactly what ``rng_stream`` of that key draws without building a
generator per stream. Each stream is drawn to its end before the next is
keyed: a config draws all its bag folds' noise in one call, in the
documented order, and the folds are slices of it, since a stream's draws do
not depend on how they are split into calls. Everything after the draws runs
once per block of up to ``CONFIG_BLOCK`` configs of a task slab of shape
(configs, rows, o): the blend, the link and the bag mean are applied to the
whole block, elementwise and in the per-config order of operations, so the
values are the per-config ones bit for bit. The softmax of a multiclass
block goes one class column at a time (:func:`_link`): numpy reduces a
short last axis one row at a time, a loop per row of a few classes, and
whole-array operations on the columns give the same bits several times
faster. The store allocates the repository's packed label and prediction
buffers (:func:`store._packed_buffers`, which
:meth:`store.Repository.in_memory` fills too) and hands out each task
split's label and cell views, the views the repository reads; each task's
slabs are written straight into those views, and their stored losses come
from one :class:`metrics.StackLoss` call per split, which equals
:func:`metrics.task_loss` bit for bit. Structural metadata (task shapes,
problem assignment, class counts) is keyed on a constant instead of the
seed, so changing only the seed redraws values but never shapes.

Model per task with truth logits ``z`` (regression: z is the label itself)::

    pred = link(skill * z + sigma_j * (sqrt(rho) * E_family + sqrt(1 - rho) * E_config))

where ``link`` is the identity, the logistic function, or row softmax by
problem type, and ``sigma_j`` is the family noise level times a per-config
log-normal factor (so configs within a family differ in quality on both
splits). Fit times are log-normal around a per-family base; the very first
config (the first family's default) is always generated cheap, in the low
seconds, so it can serve as the budget fallback. Inference times are a
per-family constant times a per-config factor.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from functools import reduce
from pathlib import Path

import numpy as np

from . import metrics
from .portfolio import AGGREGATIONS, RAW_LOSS, NORMALIZED_LOSS
from .store import (TEST, VAL, ConfigMeta, ProblemType, Repository, TaskMeta, _class_sums,
                    _packed_buffers, _typed)

BINARY_LOGIT_SCALE = 2.0
MULTICLASS_LOGIT_SCALE = 3.0
# log-sd of the per-config noise-level factor; kept small so that averaging
# many configs of a family beats picking its single luckiest one
CONFIG_NOISE_SPREAD = 0.10
FIT_TIME_SPREAD = 0.5  # log-sd of per-(task, config) fit times
FALLBACK_FIT_RANGE = (0.5, 3.0)
LABEL_RETRIES = 1000
ORACLE_MAX_CANDIDATES = 8
# configs whose streams are drawn and blended together; bounds the noise
# buffer of a block, every bag fold of each of its configs, to a few MB
CONFIG_BLOCK = 256

# stream purposes
_P_META = 0
_P_LABELS = 1
_P_FAMILY_NOISE = 2
_P_CONFIG_PREDS = 3
_P_FAMILY_CONST = 4
_P_TIMES = 5
_P_CONFIG_PROPS = 6
_P_SUBSAMPLE = 7  # reserved for CLI ablation draws


def _stream_key(seed: int, purpose: int, a: int, b: int) -> tuple[int, int]:
    """The Philox key of one (purpose, a, b) slot under ``seed``, as two uint64 words."""
    if not (0 <= a < 2**24 and 0 <= b < 2**24 and 0 <= purpose < 2**16):
        raise ValueError(f"stream id out of range: purpose={purpose}, a={a}, b={b}")
    return seed & (2**64 - 1), (purpose << 48) | (a << 24) | b


def rng_stream(seed: int, purpose: int, a: int = 0, b: int = 0) -> np.random.Generator:
    """Independent Philox stream for one (purpose, a, b) slot under ``seed``."""
    # a uint64 array: numpy casts a Python list with a key at or above 2**63
    # through float64, which rounds it or wraps it to 0
    key = np.array(_stream_key(seed, purpose, a, b), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


_ZEROS = (0, 0, 0, 0)


def _philox_state() -> dict:
    """A Philox state of a zero counter and an empty buffer, as a new
    ``Philox(key=...)`` starts; :func:`_rekey` sets its key."""
    return {"bit_generator": "Philox", "state": {"counter": _ZEROS, "key": _ZEROS[:2]},
            "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def _rekey(rng: np.random.Generator, seed: int, purpose: int, a: int = 0, b: int = 0,
           state: dict | None = None) -> np.random.Generator:
    """``rng``, a Philox generator, re-keyed to draw what ``rng_stream(seed,
    purpose, a, b)`` draws: ``state``, a :func:`_philox_state` dict (a new
    one when None), with the stream's key set in place. Setting a bit
    generator's state copies the values, so one dict serves every stream of
    one generator; it is never shared between callers."""
    state = _philox_state() if state is None else state
    state["state"]["key"] = _stream_key(seed, purpose, a, b)
    rng.bit_generator.state = state
    return rng


def subsample_rng(seed: int, a: int = 0, b: int = 0) -> np.random.Generator:
    """Stream for seeded subsampling (ablation axes); separate from generation."""
    return rng_stream(seed, _P_SUBSAMPLE, a, b)


class SpecError(ValueError):
    """Invalid generator spec (bad field values or malformed file)."""


def _number(value) -> float:
    """A finite JSON number that is not a bool, as a float."""
    if type(value) not in (int, float):
        raise TypeError
    value = float(value)
    if not np.isfinite(value):
        raise ValueError
    return value


def _array(value) -> tuple:
    """A JSON array, or a tuple."""
    if type(value) not in (list, tuple):
        raise TypeError
    return tuple(value)


def _range(value) -> tuple[int, int]:
    """A ``(lo, hi)`` range: a JSON array, or a tuple, of two integers."""
    value = _array(value)
    if len(value) != 2 or any(type(v) is not int for v in value):
        raise TypeError
    return value


def _mix(value) -> dict:
    """Problem-type weights: a JSON object whose values pass :func:`_number`."""
    if type(value) is not dict:
        raise TypeError
    for weight in value.values():
        _number(weight)
    return dict(value)


def _spec_object(value, where: str = "") -> dict:
    """A JSON object; anything else is a SpecError naming where it was read."""
    if type(value) is not dict:
        raise SpecError(f"generator spec:{where} expected a JSON object, got {value!r}")
    return value


def _spec_field(entry: dict, key: str, convert, where: str = ""):
    """``convert(entry[key])``; a missing or bad value is a SpecError naming the field."""
    if key not in entry:
        raise SpecError(f"generator spec:{where} missing field {key!r}")
    value = entry[key]
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise SpecError(f"generator spec:{where} invalid {key!r} value {value!r}") from None


_FAMILY_FIELDS = (("family", _typed(str)), ("count", _typed(int)), ("skill", _number),
                  ("noise", _number), ("rho", _number))
_SPEC_FIELDS = (("seed", _typed(int)), ("n_datasets", _typed(int)), ("folds", _typed(int)),
                ("rows_val", _range), ("rows_test", _range), ("problem_mix", _mix),
                ("multiclass_classes", _range), ("bag_folds", _typed(int)))
_SPEC_REQUIRED = ("seed", "n_datasets", "folds")  # the other fields have defaults


@dataclass(frozen=True)
class FamilySpec:
    family: str
    count: int
    skill: float
    noise: float
    rho: float


@dataclass(frozen=True)
class GeneratorSpec:
    """Everything that determines a synthetic repository, bit for bit."""

    seed: int
    n_datasets: int
    folds: int
    families: tuple[FamilySpec, ...]
    rows_val: tuple[int, int] = (30, 60)
    rows_test: tuple[int, int] = (30, 60)
    problem_mix: dict = field(default_factory=lambda: {"binary": 0.4, "multiclass": 0.3,
                                                       "regression": 0.3})
    multiclass_classes: tuple[int, int] = (3, 5)
    bag_folds: int = 8

    def validate(self) -> None:
        if not isinstance(self.seed, int) or not -(2**63) <= self.seed < 2**64:
            raise SpecError(f"seed must be a 64-bit integer, got {self.seed!r}")
        if self.n_datasets < 1:
            raise SpecError("n_datasets must be >= 1")
        if self.folds < 1:
            raise SpecError("folds must be >= 1")
        if self.bag_folds < 1:
            raise SpecError("bag_folds must be >= 1")
        for name, rng in (("rows_val", self.rows_val), ("rows_test", self.rows_test)):
            if len(rng) != 2 or not (2 <= rng[0] <= rng[1]):
                raise SpecError(f"{name} must be a (lo, hi) range with 2 <= lo <= hi, got {rng}")
        lo, hi = self.multiclass_classes
        if not (2 <= lo <= hi):
            raise SpecError(f"multiclass_classes must satisfy 2 <= lo <= hi, got {self.multiclass_classes}")
        if not self.families:
            raise SpecError("at least one family is required")
        names = [f.family for f in self.families]
        if len(set(names)) != len(names):
            raise SpecError(f"duplicate family names: {names}")
        for f in self.families:
            if f.count < 1:
                raise SpecError(f"family {f.family!r}: count must be >= 1")
            if not 0.0 <= f.skill <= 1.0:
                raise SpecError(f"family {f.family!r}: skill must be in [0, 1]")
            if not f.noise > 0:
                raise SpecError(f"family {f.family!r}: noise must be > 0")
            if not 0.0 <= f.rho < 1.0:
                raise SpecError(f"family {f.family!r}: rho must be in [0, 1)")
        bad = set(self.problem_mix) - {"binary", "multiclass", "regression"}
        if bad:
            raise SpecError(f"unknown problem types in mix: {sorted(bad)}")
        weights = [self.problem_mix.get(k, 0.0) for k in ("binary", "multiclass", "regression")]
        if any(w < 0 for w in weights) or sum(weights) <= 0:
            raise SpecError("problem_mix weights must be >= 0 and sum to a positive value")

    @classmethod
    def from_dict(cls, data: dict) -> "GeneratorSpec":
        """Read a spec from JSON data; a missing field or a value of the wrong JSON
        type is a SpecError naming the field (and the family's ordinal).

        Integers must be JSON integers (not bools, floats or strings), weights
        and family parameters finite numbers that are not bools, ranges arrays
        or tuples of two integers, ``families`` an array of objects, and family
        names strings.
        """
        data = _spec_object(data)
        families = []
        for i, entry in enumerate(_spec_field(data, "families", _array)):
            where = f" family {i}:"
            entry = _spec_object(entry, where)
            families.append(FamilySpec(*(_spec_field(entry, key, convert, where)
                                         for key, convert in _FAMILY_FIELDS)))
        spec = cls(families=tuple(families),
                   **{key: _spec_field(data, key, convert) for key, convert in _SPEC_FIELDS
                      if key in data or key in _SPEC_REQUIRED})
        spec.validate()
        return spec

    @classmethod
    def from_file(cls, path: str | Path) -> "GeneratorSpec":
        """Read a spec from the JSON file ``path``; a missing file, or one that
        does not decode (bad JSON, undecodable text, nesting that is too deep,
        an integer that is too long), is a SpecError."""
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise SpecError(f"spec file not found: {path}") from None
        except json.JSONDecodeError as e:
            raise SpecError(f"spec parse failure at line {e.lineno}, column {e.colno}: "
                            f"{e.msg}") from None
        except (ValueError, RecursionError) as e:
            raise SpecError(f"spec parse failure in {path}: {e}") from None
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        """The spec as plain data for ``json.dumps``; :meth:`from_dict` reads it back."""
        return asdict(self)


def _apportion_problems(mix: dict, n: int) -> list[str]:
    kinds = ("binary", "multiclass", "regression")
    weights = np.array([mix.get(k, 0.0) for k in kinds], dtype=np.float64)
    weights /= weights.sum()
    raw = weights * n
    counts = np.floor(raw).astype(int)
    frac_order = np.argsort(-(raw - counts), kind="stable")
    for i in range(n - int(counts.sum())):
        counts[frac_order[i]] += 1
    out: list[str] = []
    for kind, c in zip(kinds, counts):
        out.extend([kind] * int(c))
    return out


def _segment_sizes(n: int, parts: int) -> list[int]:
    base, extra = divmod(n, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def aggregate_bag_predictions(fold_preds) -> np.ndarray:
    """Elementwise mean of the per-fold prediction matrices.

    The per-config reference for the generator's bag mean, which accumulates
    every config's folds at once in the same order; tests compare the two.
    """
    arrs = [np.asarray(a, dtype=np.float64) for a in fold_preds]
    if not arrs:
        raise ValueError("need at least one bag fold")
    shape = arrs[0].shape
    for a in arrs[1:]:
        if a.shape != shape:
            raise ValueError(f"bag prediction shapes differ: {a.shape} vs {shape}")
    return np.mean(np.stack(arrs, axis=0), axis=0)


def _draw_labels(rng: np.random.Generator, problem: ProblemType, n_val: int,
                 n_test: int, n_classes: int) -> tuple[np.ndarray, np.ndarray]:
    if problem is ProblemType.REGRESSION:
        return rng.standard_normal(n_val), rng.standard_normal(n_test)
    if problem is ProblemType.MULTICLASS:
        return (rng.integers(0, n_classes, n_val), rng.integers(0, n_classes, n_test))
    for _ in range(LABEL_RETRIES):
        y_val = (rng.random(n_val) < 0.5).astype(np.int64)
        y_test = (rng.random(n_test) < 0.5).astype(np.int64)
        if 0 < y_val.sum() < n_val and 0 < y_test.sum() < n_test:
            return y_val, y_test
    raise SpecError("could not draw binary labels with both classes present")


def _truth_logits(problem: ProblemType, y: np.ndarray, o: int) -> np.ndarray:
    if problem is ProblemType.REGRESSION:
        return np.asarray(y, dtype=np.float64).reshape(-1, 1)
    if problem is ProblemType.BINARY:
        return (BINARY_LOGIT_SCALE * (2.0 * y - 1.0)).reshape(-1, 1)
    logits = np.zeros((len(y), o), dtype=np.float64)
    logits[np.arange(len(y)), y] = MULTICLASS_LOGIT_SCALE
    return logits


def _link(problem: ProblemType, logits: np.ndarray) -> np.ndarray:
    """Identity, logistic function or softmax over the last axis, by problem type.

    The softmax is ``e / e.sum(-1)`` with ``e = exp(z - z.max(-1))``, bit for
    bit, taken one class column at a time: numpy reduces a short last axis one row at a
    time, a few values per loop, which made the two reductions most of the
    softmax's cost. The maximum is ``np.maximum`` over the columns, exact in
    any order, and the sum is :func:`store._class_sums`, which has the bits
    of numpy's row sum.
    """
    if problem is ProblemType.REGRESSION:
        return logits
    if problem is ProblemType.BINARY:
        return 1.0 / (1.0 + np.exp(-logits))
    top = reduce(np.maximum, np.moveaxis(logits, -1, 0))
    shifted = np.subtract(logits, top[..., None])
    np.exp(shifted, out=shifted)
    shifted /= _class_sums(shifted)[..., None]
    return shifted


def generate_repo(spec: GeneratorSpec) -> Repository:
    """Generate the repository described by ``spec`` (see the module docstring)."""
    spec.validate()
    seed = spec.seed
    D, S, B = spec.n_datasets, spec.folds, spec.bag_folds

    # one generator and one state dict, re-keyed for every stream
    rng, state = np.random.Generator(np.random.Philox(0)), _philox_state()

    # metadata is keyed on a constant so that changing only the seed never
    # changes task shapes, problem assignment, or any other structure
    meta_rng = _rekey(rng, 0, _P_META, state=state)
    assignment = _apportion_problems(spec.problem_mix, D)
    perm = meta_rng.permutation(D)
    problems = [ProblemType(assignment[perm[d]]) for d in range(D)]

    tasks: list[TaskMeta] = []
    for d in range(D):
        for fold in range(S):
            n_val = int(meta_rng.integers(spec.rows_val[0], spec.rows_val[1] + 1))
            n_test = int(meta_rng.integers(spec.rows_test[0], spec.rows_test[1] + 1))
            n_features = int(meta_rng.integers(3, 50))
            if problems[d] is ProblemType.MULTICLASS:
                o = int(meta_rng.integers(spec.multiclass_classes[0],
                                          spec.multiclass_classes[1] + 1))
            else:
                o = 1
            tasks.append(TaskMeta(f"d{d:03d}", fold, problems[d], n_val, n_test, o, n_features))

    configs: list[ConfigMeta] = []
    config_family: list[int] = []
    sigma: list[float] = []
    infer_factor: list[float] = []
    for fi, fam in enumerate(spec.families):
        props = _rekey(rng, seed, _P_CONFIG_PROPS, a=fi, state=state)
        noise_mult = np.exp(CONFIG_NOISE_SPREAD * props.standard_normal(fam.count))
        noise_mult[0] = 1.0  # the default config sits at the family's nominal level
        factors = props.uniform(0.5, 1.5, fam.count)
        for k in range(fam.count):
            if k == 0:
                cid = f"{fam.family}-default"
            else:
                cid = f"{fam.family}-{k:03d}"
            configs.append(ConfigMeta(cid, fam.family, is_default=(k == 0),
                                      hyperparams=f"skill={fam.skill} noise={fam.noise} rho={fam.rho}"))
            config_family.append(fi)
            sigma.append(fam.noise * float(noise_mult[k]))
            infer_factor.append(float(factors[k]))

    fam_time_base = []
    fam_infer_const = []
    for fi in range(len(spec.families)):
        const_rng = _rekey(rng, seed, _P_FAMILY_CONST, a=fi, state=state)
        fam_time_base.append(float(np.exp(const_rng.uniform(np.log(2.0), np.log(300.0)))))
        fam_infer_const.append(float(np.exp(const_rng.uniform(np.log(1e-5), np.log(1e-2)))))

    # per-config blend weights as (M, 1, 1) columns, so that every expression
    # below is the per-config one applied elementwise to a block of a task slab
    M, F = len(configs), len(spec.families)
    family = np.array(config_family)
    rho = np.array([f.rho for f in spec.families])[family]
    skill = np.array([f.skill for f in spec.families])[family][:, None, None]
    sig = np.array(sigma)[:, None, None]
    w_shared = np.sqrt(rho)[:, None, None]
    w_own = np.sqrt(1.0 - rho)[:, None, None]
    time_base = np.array(fam_time_base)[family]

    labels, preds, label_views, cell_views = _packed_buffers(tasks, M)
    evals = np.zeros((len(tasks), M, 4), dtype=np.float64)
    evals[:, :, 3] = np.array(fam_infer_const)[family] * np.array(infer_factor)

    for t, task in enumerate(tasks):
        y_val, y_test = _draw_labels(_rekey(rng, seed, _P_LABELS, a=t, state=state), task.problem,
                                     task.n_val, task.n_test, task.o)
        label_views[VAL][t][...] = y_val
        label_views[TEST][t][...] = y_test
        val_cells, test_cells = cell_views[VAL][t], cell_views[TEST][t]
        z_val = _truth_logits(task.problem, y_val, task.o)
        z_test = _truth_logits(task.problem, y_test, task.o)

        fam_val = np.empty((F,) + z_val.shape)
        fam_test = np.empty((F,) + z_test.shape)
        for fi in range(F):
            fam_rng = _rekey(rng, seed, _P_FAMILY_NOISE, t, fi, state)
            fam_rng.standard_normal(out=fam_val[fi])
            fam_rng.standard_normal(out=fam_test[fi])

        # one stream per config, drawn in one call: every bag fold's
        # validation-segment noise, then its test noise, fold after fold. The
        # configs go in blocks of CONFIG_BLOCK, which bounds that buffer.
        for lo in range(0, M, CONFIG_BLOCK):
            k = slice(lo, lo + CONFIG_BLOCK)
            noise = np.empty((len(family[k]), task.n_val + B * task.n_test, task.o))
            for j, out in enumerate(noise, lo):  # positional: keywords cost per stream
                _rekey(rng, seed, _P_CONFIG_PREDS, t, j, state).standard_normal(out=out)
            own_val = np.empty((len(noise),) + z_val.shape)
            base_test = skill[k] * z_test
            shared_test = w_shared[k] * fam_test[family[k]]
            start = 0
            for b, size in enumerate(_segment_sizes(task.n_val, B)):
                at = start + b * task.n_test  # fold b's draws begin after b earlier folds
                own_val[:, start:start + size] = noise[:, at:at + size]
                own_test = noise[:, at + size:at + size + task.n_test]
                start += size
                linked = _link(task.problem,
                               base_test + sig[k] * (shared_test + w_own[k] * own_test))
                # np.mean over stacked folds copies the first, adds the others
                # in order, then divides
                if b == 0:
                    test = linked
                else:
                    test += linked
            test /= B
            val_cells[k] = _link(task.problem, skill[k] * z_val + sig[k] * (
                w_shared[k] * fam_val[family[k]] + w_own[k] * own_val))
            test_cells[k] = test

        evals[t, :, 0] = metrics.StackLoss(task, y_val)(val_cells)
        evals[t, :, 1] = metrics.StackLoss(task, y_test)(test_cells)

        evals[t, 0, 2] = _rekey(rng, seed, _P_TIMES, t, 0, state).uniform(*FALLBACK_FIT_RANGE)
        fit_draws = [_rekey(rng, seed, _P_TIMES, t, j, state).standard_normal()
                     for j in range(1, M)]
        evals[t, 1:, 2] = time_base[1:] * np.exp(FIT_TIME_SPREAD * np.array(fit_draws))

    return Repository(tasks, configs, S, labels, preds, evals)


# -- brute-force oracles -------------------------------------------------


def oracle_auc_pairwise(score, label) -> float:
    """O(n^2) pair-counting reference for ``auc_loss`` (ties count one half)."""
    s = np.asarray(score, dtype=np.float64).reshape(-1)
    y = np.asarray(label).reshape(-1)
    if s.shape != y.shape:
        raise ValueError(f"length mismatch: score has {s.size}, label has {y.size}")
    if not np.all(np.isfinite(s)):
        raise ValueError("score contains NaN or infinity")
    pos = s[y == 1]
    neg = s[y != 1]
    if pos.size == 0 or neg.size == 0:
        raise ValueError("AUC undefined: labels contain a single class")
    wins = 0.0
    for a in pos:
        wins += np.count_nonzero(a > neg) + 0.5 * np.count_nonzero(a == neg)
    return float(1.0 - wins / (pos.size * neg.size))


def oracle_greedy_extension(state, candidates, task, repo: Repository,
                            aggregation: str = RAW_LOSS):
    """Exhaustive one-step-extension argmin, for checking the greedy loops.

    With a single task, ``state`` is the multiset of configs already picked
    and each candidate is scored by directly averaging all state-plus-candidate
    validation predictions (ensemble semantics). With a list of tasks,
    ``state`` is the set of selected configs and each candidate is scored by
    the mean over tasks of the minimum loss across the extended selection,
    with losses recomputed from stored predictions (portfolio semantics).
    Ties go to the lowest ordinal. Capped at 8 candidates.
    """
    if aggregation not in AGGREGATIONS:
        raise ValueError(f"aggregation must be one of {AGGREGATIONS}, got {aggregation!r}")
    portfolio_mode = isinstance(task, list)
    cand = repo.config_ordinals(candidates)
    state = [repo.config_index(c) for c in state]

    if not portfolio_mode:
        if len(cand) > ORACLE_MAX_CANDIDATES:
            raise ValueError(f"M too large: oracle supports at most {ORACLE_MAX_CANDIDATES} candidates")
        t = repo.task_index(task)
        meta = repo.tasks[t]
        y = repo.labels(t, VAL)
        best_j, best_loss = -1, np.inf
        for j in cand:
            stack = [np.asarray(repo.predictions(t, k, VAL), dtype=np.float64)
                     for k in state + [j]]
            loss = metrics.task_loss(meta, np.mean(np.stack(stack, axis=0), axis=0), y)
            if loss < best_loss:
                best_loss, best_j = loss, j
        return best_j

    pool = sorted(set(state) | set(cand))
    if len(pool) > ORACLE_MAX_CANDIDATES:
        raise ValueError(f"M too large: oracle supports at most {ORACLE_MAX_CANDIDATES} candidates")
    task_ids = [repo.task_index(t) for t in task]
    if not task_ids:
        raise ValueError("task list is empty")
    loss_by_task = {}
    for t in task_ids:
        meta = repo.tasks[t]
        y = repo.labels(t, VAL)
        losses = {j: metrics.task_loss(meta, repo.predictions(t, j, VAL), y) for j in pool}
        if aggregation == NORMALIZED_LOSS:
            lo = min(losses.values())
            hi = max(losses.values())
            span = hi - lo
            losses = {j: ((v - lo) / span if span > 0 else 0.0) for j, v in losses.items()}
        loss_by_task[t] = losses

    best_j, best_obj = -1, np.inf
    for j in cand:
        if j in state:
            continue
        selection = state + [j]
        obj = float(np.mean([min(loss_by_task[t][k] for k in selection) for t in task_ids]))
        if obj < best_obj:
            best_obj, best_j = obj, j
    if best_j < 0:
        raise ValueError("no unselected candidate to extend with")
    return best_j
