"""Boosting loop, prediction, model files and single-task extraction.

Each iteration (_boost_step): compute per-task gradients at the current raw
scores, run the ensemble pass (weighted collapse to one gradient per sample)
and the updating pass (correlation damping), grow one shared tree from the
ensemble gradients, fit its per-task leaf values from the updating
gradients, and add those values to every task's score column.

Model files are versioned plain text. Floats are written as hexadecimal
literals, so save/load round trips are bit exact and files are diffable. A
file loads only if save_model would write it back byte for byte.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .data import BinMapper, Dataset, bin_column, column_indices, read_only, rebuilt_by_init
from .errors import (
    EmptyDataset,
    FeatureCountMismatch,
    FormatVersionMismatch,
    InvalidParameter,
    LabelOverflow,
    MapperMismatch,
    TaskIndexOutOfRange,
)
from .gradients import (
    MTConfig,
    check_fields,
    ensemble_grad_hess,
    string_tuple,
    updating_grad_hess,
)
from .objectives import (
    base_scores,
    check_labels,
    grad_hess,
    loss,
    transform_score,
    validate_objectives,
)
from .tree import (
    MultiOutputTree,
    RouteTables,
    TreeSkeleton,
    compile_routes,
    fit_leaf_values,
    grow_tree,
    leaf_words,
    route_binned,
    route_buffers,
    subtree_sums,
)

MODEL_FORMAT_MARKER = "mtboost-model-v2"
# predict routes runs of consecutive trees (chunks) together, a block of
# rows at a time. A chunk holds at most TREE_CHUNK trees whose routing
# tables take at most TABLE_BYTES (a tree whose own tables take more goes
# alone), and a block's buffers take about BLOCK_BYTES, so neither grows
# with the number of trees, rows, features, bins or tasks: more of them
# makes more passes. predict_batch's 100 trees of 16-bit words over 6
# features compile into 0.3 MB of tables, a 100-tree model of 31 leaves over
# 20 features into chunks of 57 and 43 trees. On a 2-vCPU VM (2 MB L2 per
# core), chunks of 128 trees routed predict_batch's model faster than
# chunks of 32 or 64, and BLOCK_BYTES of 1 to 4 MB within 10% of each other.
TREE_CHUNK = 128
TABLE_BYTES = 1 << 20
BLOCK_BYTES = 1 << 21


@dataclass(frozen=True)
class BoosterParams:
    """Everything train() needs besides the data.

    ``lambda_reg`` is the denominator regularizer of the split gain and leaf
    values. Historic configs sometimes call this knob "lambda_l1"; the CLI
    accepts that alias but the engine applies it in the denominator only.
    ``seed`` keys the task-selection stream of the multi-task config, so
    harnesses can vary whole runs with one knob. grow_tree,
    find_best_split and fit_leaf_values read the tree limits, regularizers,
    learning rate and leaf clamp off the params themselves, so this class is
    the only place they are declared and checked. gradients.check_fields
    checks and stores every field, however it is read, so every params
    object that can be built saves and loads.
    """

    objectives: tuple[str, ...]
    num_iterations: int = 200
    learning_rate: float = 0.03
    lambda_reg: float = 0.1
    gamma_reg: float = 0.0
    max_depth: int = 6
    max_leaves: int = 31
    min_samples_leaf: int = 20
    min_hess_leaf: float = 1e-3
    min_gain_to_split: float = 0.0
    early_stopping_rounds: int = 0
    seed: int = 0
    main_task_index: int = 0
    max_delta_step: float = 1e10
    mt: MTConfig = field(default_factory=MTConfig)

    def __post_init__(self):
        check_fields(self)
        validate_objectives(self.objectives)
        if not isinstance(self.mt, MTConfig):
            raise InvalidParameter(f"mt must be an MTConfig, got {self.mt!r}")
        if self.num_iterations < 1:
            raise InvalidParameter("num_iterations must be >= 1")
        if not 0.0 < self.learning_rate <= 1.0:
            raise InvalidParameter("learning_rate must be in (0, 1]")
        if not 0 <= self.main_task_index < len(self.objectives):
            raise InvalidParameter("main_task_index out of range")
        if self.max_delta_step <= 0:
            raise InvalidParameter("max_delta_step must be > 0")
        if self.max_leaves < 1:
            raise InvalidParameter("max_leaves must be >= 1")
        if self.max_depth < 1:
            raise InvalidParameter("max_depth must be >= 1")
        if self.min_samples_leaf < 1:
            raise InvalidParameter("min_samples_leaf must be >= 1")
        if self.lambda_reg < 0:
            raise InvalidParameter("lambda_reg must be >= 0")


@dataclass(frozen=True)
class IterationLog:
    """Losses of one boosting iteration; row i of a training log is
    iteration i."""

    train: tuple[float, ...]
    valid: tuple[float, ...] | None


@dataclass(frozen=True, eq=False)
class BoosterModel:
    """A trained ensemble, frozen, and so safe for concurrent prediction.

    ``trees`` and ``training_log`` are tuples, and the trees' arrays and
    ``base_scores`` read-only. ``chunks`` holds the routing tables and
    slot-ordered leaf values of each run of consecutive trees (_chunks),
    compiled once when the model is made (by train, load_model,
    extract_task or dataclasses.replace); predict reads nothing else of the
    trees, and save_model writes the trees, so both see the same model. A pickled or copied model is rebuilt
    through __init__, and so compiled and frozen again.
    ``extra``, a copy of the dict given, is the one field left open: predict
    never reads it and save_model writes it as it stands. Give a model
    other trees or extra with dataclasses.replace.

    However a model is made, construction raises InvalidParameter before
    any table is compiled unless the names are lists of strings (stored as
    tuples); ``base_scores``, ``task_names``, the objectives, every tree's
    leaf values and every log row agree on the task count;
    ``feature_names`` name the mapper's features; feature and task names
    are all distinct; base scores and losses are finite; every split's
    feature and ``threshold_bin`` are ones the mapper can produce; and, for
    each task, |base score| plus each tree's largest |leaf value|, summed in
    tree order as predict sums, is finite. Rounding a sum of non-negative
    terms is monotone, so every score predict returns is finite too. The
    trees, the mapper and the params check themselves.
    """

    trees: tuple[MultiOutputTree, ...]
    params: BoosterParams
    mapper: BinMapper
    base_scores: np.ndarray  # (n,)
    feature_names: tuple[str, ...]
    task_names: tuple[str, ...]
    training_log: tuple[IterationLog, ...]
    extra: dict = field(default_factory=dict)  # CLI-side metadata, round-trips
    chunks: tuple[RouteTables, ...] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "trees", tuple(self.trees))
        object.__setattr__(self, "training_log", tuple(self.training_log))
        object.__setattr__(self, "base_scores",
                           read_only(self.base_scores, np.float64, "base_scores"))
        object.__setattr__(self, "extra", dict(self.extra))
        for what in ("feature_names", "task_names"):
            object.__setattr__(self, what, string_tuple(what, getattr(self, what)))
        losses = [row_losses for row in self.training_log
                  for row_losses in (row.train, row.valid) if row_losses is not None]
        widths = {self.base_scores.shape, (len(self.params.objectives),),
                  *(tree.leaf_values.shape[1:] for tree in self.trees),
                  *((len(row_losses),) for row_losses in losses)}
        if widths != {(self.n_tasks,)}:
            raise InvalidParameter("base_scores, objectives, leaf values and losses must each "
                                   f"hold one value for each of the {self.n_tasks} tasks")
        if self.n_features != self.mapper.n_features:
            raise InvalidParameter(f"feature_names must name {self.mapper.n_features} features")
        names = (*self.feature_names, *self.task_names)
        column_indices(names, names, "feature and task names", InvalidParameter)
        if not np.isfinite(self.base_scores).all():
            raise InvalidParameter("base_scores must be finite")
        if not all(math.isfinite(value) for row in losses for value in row):
            raise InvalidParameter("losses must be finite")
        if self.trees:
            feature = np.concatenate([tree.skeleton.feature for tree in self.trees])
            threshold = np.concatenate([tree.skeleton.threshold_bin for tree in self.trees])
            if (feature >= self.n_features).any():
                raise InvalidParameter("a node's feature is out of range")
            if (threshold >= self.mapper.finite_bin_counts[feature] - 1).any():
                raise InvalidParameter("a node's threshold_bin is out of range")
            values = np.abs(np.concatenate([tree.leaf_values for tree in self.trees]))
            starts = np.cumsum([0, *(tree.n_leaves for tree in self.trees[:-1])])
            peaks = np.maximum.reduceat(values, starts)  # (trees, tasks)
            with np.errstate(over="ignore"):
                bound = np.add.accumulate(np.vstack([np.abs(self.base_scores), peaks]))[-1]
            if not np.isfinite(bound).all():
                raise InvalidParameter("leaf values can sum past float64")
        object.__setattr__(self, "chunks", tuple(
            compile_routes(chunk) for chunk in _chunks(self.trees, self.n_features)))

    __reduce__ = rebuilt_by_init

    @property
    def n_tasks(self) -> int:
        return len(self.task_names)

    @property
    def n_features(self) -> int:
        return len(self.feature_names)


def _losses(labels, scores, objectives, which: str) -> tuple[float, ...]:
    """Per-task losses; raises LabelOverflow when one is not finite."""
    losses = tuple(loss(labels[:, t], scores[:, t], kind) for t, kind in enumerate(objectives))
    for t, value in enumerate(losses):
        if not math.isfinite(value):
            raise LabelOverflow(f"task {t}: the {which} loss overflows float64")
    return losses


def _boost_step(dataset: Dataset, params: BoosterParams, it: int, labels: np.ndarray,
                scores: np.ndarray, g: np.ndarray, h: np.ndarray) -> MultiOutputTree:
    """One boosting iteration at the (m, n) ``scores``; returns its tree.

    In order: grad_hess writes every task's gradients and hessians into
    ``g`` and ``h``; the ensemble pass reads them into one (m,) gradient and
    hessian per row; the updating pass overwrites ``g`` with the damped
    gradients; grow_tree grows one shared tree from the ensemble pair; its
    per-task leaf values are fit from ``g`` and ``h``; and each task's leaf
    values are added to its column of ``scores`` in place. The ensemble pair
    is freed when the step returns.
    """
    grad_hess(labels, scores, params.objectives, out=(g, h))
    eg = ensemble_grad_hess(g, h, params.mt, it, params.seed, params.main_task_index)
    # The ensemble pass has read g, so the updating pass may overwrite it.
    g_u = updating_grad_hess(g, params.mt, params.main_task_index, out=g)
    skeleton, leaf_id = grow_tree(dataset, eg.g_e, eg.h_e, params)
    tree = fit_leaf_values(skeleton, leaf_id, g_u, h, params)
    for t, column in enumerate(tree.leaf_values.T):
        scores[:, t] += column.take(leaf_id)
    return tree


def train(dataset: Dataset, params: BoosterParams, valid: Dataset | None = None) -> BoosterModel:
    """Run the boosting loop and return the fitted model.

    Before the first iteration, objectives.check_labels checks the training
    and the validation labels. Validation data must be binned with the
    training mapper. With early_stopping_rounds > 0 and validation data
    present, the best iteration is the first one with the least main-task
    validation loss; training stops once that many iterations have passed
    without a strictly lower one, and the returned model is cut after the
    best iteration, also when num_iterations ends the loop first: its trees
    and its training log both end there, so the last log row describes the
    returned model.
    """
    if dataset.m == 0:
        raise EmptyDataset("training dataset has no rows")
    n = dataset.n
    if len(params.objectives) != n:
        raise InvalidParameter(f"{len(params.objectives)} objectives for {n} label columns")
    check_labels(dataset.labels, params.objectives, "labels")
    if params.mt.n_selected > n:
        raise InvalidParameter(f"n_selected={params.mt.n_selected} exceeds task count {n}")
    if valid is not None:
        if valid.mapper != dataset.mapper:
            raise MapperMismatch("validation data was binned with a different mapper")
        if valid.n != n:
            raise InvalidParameter("validation label count differs from training")
        check_labels(valid.labels, params.objectives, "validation labels")

    # One layout: every per-task (m, n) array is column-major, so each task's
    # column is contiguous. A no-op for apply_bins output. The scores,
    # gradients and hessians are transposes of (n, m) per-task rows of one
    # block, allocated once: iterations write into it instead of allocating
    # and freeing (m, n) arrays, whose reuse of freed heap made a run's peak
    # memory vary from run to run.
    labels = np.asfortranarray(dataset.labels)
    base = base_scores(labels, params.objectives)
    scores, g, h = (rows.T for rows in np.empty((3, n, dataset.m)))
    scores[:] = base
    if valid is not None:
        valid_labels = np.asfortranarray(valid.labels)
        valid_scores = np.tile(base[:, None], valid.m).T

    trees: list[MultiOutputTree] = []
    log: list[IterationLog] = []
    early_stopping = params.early_stopping_rounds > 0 and valid is not None
    best = 0  # the first iteration of the least main-task validation loss

    for it in range(params.num_iterations):
        tree = _boost_step(dataset, params, it, labels, scores, g, h)
        trees.append(tree)
        train_losses = _losses(labels, scores, params.objectives, "training")
        valid_losses = None
        if valid is not None:
            _add_tree_values(valid_scores.T, [compile_routes([tree])], valid.binned, slice(None))
            valid_losses = _losses(valid_labels, valid_scores, params.objectives, "validation")
        log.append(IterationLog(train=train_losses, valid=valid_losses))

        if early_stopping:
            if valid_losses[params.main_task_index] < log[best].valid[params.main_task_index]:
                best = it
            elif it - best >= params.early_stopping_rounds:
                break

    if early_stopping:
        trees, log = trees[: best + 1], log[: best + 1]

    return BoosterModel(
        trees=trees,
        params=params,
        mapper=dataset.mapper,
        base_scores=base,
        feature_names=dataset.feature_names,
        task_names=dataset.task_names,
        training_log=log,
    )


def _bin_features(model: BoosterModel, features: np.ndarray) -> np.ndarray:
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != model.n_features:
        raise FeatureCountMismatch(
            f"expected {model.n_features} feature columns, got {features.shape}"
        )
    binned = model.mapper.empty_binned(features.shape[0])
    for f in range(model.n_features):
        binned[:, f] = bin_column(features[:, f], model.mapper.boundaries[f])
    return binned


def _chunks(trees, n_features: int):
    """Split trees into runs of consecutive trees, each of at most TREE_CHUNK
    trees whose routing tables (compile_routes) take at most TABLE_BYTES.
    A run's tables take at most its trees times the bytes of its widest
    tree's words (leaf_words) times the summed rows of the longest table of
    each feature over all the trees; one tree whose tables take more than
    TABLE_BYTES by that count is a run alone."""
    longest = np.zeros(n_features, dtype=np.intp)
    if trees:
        # A feature's table has a row per bin up to one past its top threshold.
        features = np.concatenate([tree.skeleton.feature for tree in trees])
        thresholds = np.concatenate([tree.skeleton.threshold_bin for tree in trees])
        np.maximum.at(longest, features, thresholds + 2)
    n_rows = int(longest.sum())
    start, widest = 0, 0
    for j, tree in enumerate(trees):
        width, n_words = leaf_words(tree.n_leaves)
        word_bytes = n_words * width // 8
        if j > start and (j - start == TREE_CHUNK
                          or n_rows * (j - start + 1) * max(widest, word_bytes) > TABLE_BYTES):
            yield trees[start:j]
            start, widest = j, 0
        widest = max(widest, word_bytes)
    if trees:
        yield trees[start:]


def _block_rows(n_trees: int, n_words: int, n_out: int) -> int:
    """Rows per block of a chunk of ``n_trees`` trees of ``n_words`` words
    each, adding to ``n_out`` scores per row, so that the block's buffers
    take about BLOCK_BYTES: 32 bytes a row and word for route_binned's
    scratch (route_buffers), and 8 a row, task and tree for the values, plus
    two more for the scores and their sums."""
    return max(1, BLOCK_BYTES // (32 * n_trees * n_words + 8 * (n_trees + 2) * n_out))


def _add_tree_values(out, chunks, binned, tasks) -> None:
    """Add every tree's leaf values, in tree order, to ``out``: (tasks, k)
    scores, one row per task selected by ``tasks``.

    ``chunks`` are a model's runs of trees with their routing tables
    (BoosterModel.chunks), so nothing is compiled or laid out here: a
    chunk's selected columns of its slot-ordered values are taken once, a
    view for every task and a one-column copy for one. Rows then go in
    blocks (_block_rows): one route_binned call gives the block's slot
    positions in every tree, one take gathers the values of all of them
    behind a copy of the block's scores, and one reduce over that leading
    axis adds them to the scores in tree order, as the walk from tree to
    tree would.
    """
    k = binned.shape[0]
    n_out = out.shape[0]
    for routes in chunks:
        n_trees = routes.start.size
        by_slot = np.ascontiguousarray(routes.values[:, tasks])
        size = max(1, min(k, _block_rows(n_trees, routes.n_words, n_out)))
        buffers = route_buffers(size * n_trees * routes.n_words)
        gathered = np.empty((n_trees + 1) * size * n_out)
        summed = np.empty(size * n_out)
        for start in range(0, k, size):
            rows = binned[start:start + size]
            n_rows = rows.shape[0]
            pos = route_binned(routes, rows, buffers)
            sums = gathered[:(n_trees + 1) * n_rows * n_out].reshape(n_trees + 1, n_rows, n_out)
            block = summed[:n_rows * n_out].reshape(n_rows, n_out)
            np.copyto(sums[0], out[:, start:start + n_rows].T)
            by_slot.take(pos, axis=0, mode="clip", out=sums[1:])
            if block.size > 1:
                np.add.reduce(sums, axis=0, out=block)
            else:  # a lone score's values would be added pairwise by reduce
                block[:] = np.add.accumulate(sums, axis=0)[-1]
            np.copyto(out[:, start:start + n_rows].T, block)


def _task_index(model: BoosterModel, task) -> int:
    """``task`` as an int in [0, n_tasks); raises TaskIndexOutOfRange, also
    for a bool, which is no number here as in check_fields."""
    index = int(task) if isinstance(task, (int, np.integer)) and type(task) is not bool else -1
    if not 0 <= index < model.n_tasks:
        raise TaskIndexOutOfRange(f"task {task} not in [0, {model.n_tasks})")
    return index


def predict(model: BoosterModel, features, task: int | None = None) -> np.ndarray:
    """Raw additive scores for each row: (k, n), or (k,) when a task is given.

    Scores are summed task-major, one contiguous row of k scores per task,
    so the (k, n) result is a column-major (transposed) view. Each score is
    the task's base score plus its leaf values in tree order. The single-task
    path accumulates only that task's leaf values, so its cost does not grow
    with the number of tasks.
    """
    binned = _bin_features(model, features)
    if task is not None:
        task = _task_index(model, task)
    tasks = slice(None) if task is None else slice(task, task + 1)
    base = model.base_scores[tasks]
    out = np.empty((len(base), binned.shape[0]))
    out[:] = base[:, None]
    _add_tree_values(out, model.chunks, binned, tasks)
    return out.T if task is None else out[0]


def predict_proba(model: BoosterModel, features, task: int | None = None) -> np.ndarray:
    """Scores mapped through each task's link (sigmoid for classifiers)."""
    raw = predict(model, features, task)
    if task is not None:
        return transform_score(raw, model.params.objectives[task])
    out = np.empty_like(raw)
    for t, kind in enumerate(model.params.objectives):
        out[:, t] = transform_score(raw[:, t], kind)
    return out


def extract_task(model: BoosterModel, task: int) -> BoosterModel:
    """Slice a multi-task model down to one task.

    The trees keep their skeletons; only the chosen task's leaf values and
    metadata survive, and the new model compiles its own routing tables.
    Predictions equal the chosen column of the full model exactly.
    """
    task = _task_index(model, task)
    pick = slice(task, task + 1)
    return replace(
        model,
        trees=[replace(tree, leaf_values=np.ascontiguousarray(tree.leaf_values[:, pick]))
               for tree in model.trees],
        params=replace(model.params, objectives=model.params.objectives[pick], main_task_index=0),
        base_scores=model.base_scores[pick],
        task_names=model.task_names[pick],
        training_log=[replace(row, train=row.train[pick],
                              valid=None if row.valid is None else row.valid[pick])
                      for row in model.training_log],
    )


# ---------------------------------------------------------------------------
# Model file format (documented in README: "Model file format")
# ---------------------------------------------------------------------------


def _hexline(values) -> str:
    return " ".join(float(v).hex() for v in values)


def _model_lines(model: BoosterModel) -> list[str]:
    """The lines of the model's file: what save_model writes, and what
    load_model requires a file to hold."""
    lines = [MODEL_FORMAT_MARKER]
    lines.append(f"n_tasks {model.n_tasks}")
    lines.append(f"n_features {model.n_features}")
    lines.append(f"num_trees {len(model.trees)}")
    lines.append(f"num_log_rows {len(model.training_log)}")
    lines.append("feature_names " + json.dumps(list(model.feature_names)))
    lines.append("task_names " + json.dumps(list(model.task_names)))
    lines.append("params " + json.dumps(asdict(model.params)))
    lines.append("extra " + json.dumps(model.extra, sort_keys=True))
    lines.append("base_scores " + _hexline(model.base_scores))
    lines.append(f"mapper max_bins {model.mapper.max_bins}")
    for f, cuts in enumerate(model.mapper.boundaries):
        lines.append(f"feature {f} boundaries " + _hexline(cuts))
    for i, tree in enumerate(model.trees):
        s = tree.skeleton
        lines.append(f"tree {i} nodes {s.feature.size} leaves {tree.n_leaves}")
        lines += map("node {} {} {} {} {} {}".format, s.feature.tolist(),
                     s.threshold_bin.tolist(), s.left.tolist(), s.right.tolist(),
                     map(float.hex, s.gain.tolist()), subtree_sums(s, tree.leaf_counts).tolist())
        lines += map("leaf {} values {}".format, tree.leaf_counts.tolist(),
                     map(_hexline, tree.leaf_values.tolist()))
    for i, row in enumerate(model.training_log):
        valid = "-" if row.valid is None else _hexline(row.valid)
        lines.append(f"log {i} train {_hexline(row.train)} valid {valid}")
    lines.append("end")
    return lines


def save_model(model: BoosterModel, path) -> None:
    """Write the model as versioned text with hex float literals, one line
    of _model_lines each. load_model reads back every file written here,
    and a model it reads saves back byte for byte."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(_model_lines(model)) + "\n")


def _v1_as_v2(lines: list[str]) -> list[str]:
    """The lines of a mtboost-model-v1 file as v2 writes them, line for line.

    v1 params also held ``mt.g_target_std`` and ``mt.h_target_std``, finite
    numbers nothing used, and ``mt.seed``, an int >= 0 that v1 training
    added to ``seed``; each v1 node line held ``<default_right>``, always 1,
    before its gain; each v1 leaf line ended in ``means <hex>{n_tasks}``.
    Raises ValueError unless these are as v1 wrote them (the params JSON
    and the means spelled as json.dumps and float.hex spell them); they are
    then dropped, with mt.seed added to seed. Every other line is left as
    it is, for the v2 rule to check."""
    out = [MODEL_FORMAT_MARKER]
    for line in lines[1:]:
        fields = line.split(" ")
        if fields[0] == "params":
            params = json.loads(line[len("params "):])
            mt = params["mt"] = dict(params["mt"])
            as_saved = "params " + json.dumps(params) == line
            *stds, seed = (mt.pop(key) for key in ("g_target_std", "h_target_std", "seed"))
            if not (as_saved and type(seed) is type(params["seed"]) is int and seed >= 0
                    and all(type(s) in (int, float) and math.isfinite(s) for s in stds)):
                raise ValueError("v1 params must be as saved, with finite std targets "
                                 "and integer seeds, mt.seed >= 0")
            params["seed"] += seed
            line = "params " + json.dumps(params)
        elif fields[0] == "node":
            if len(fields) != 8 or fields[5] != "1":
                raise ValueError("a v1 node line has 7 fields, <default_right> 1 the fifth")
            line = " ".join(fields[:5] + fields[6:])
        elif fields[0] == "leaf":
            k = (len(fields) - 4) // 2  # the values, and as many means
            if (fields[3 + k:4 + k] != ["means"] or len(fields) != 4 + 2 * k
                    or any(float.fromhex(t).hex() != t for t in fields[4 + k:])):
                raise ValueError("a v1 leaf line ends in 'means' and one hex float per value")
            line = " ".join(fields[:3 + k])
        out.append(line)
    return out


class _Reader:
    def __init__(self, lines, path):
        self.lines = lines
        self.path = path
        self.pos = 0

    def next(self, expect_prefix: str = "") -> str:
        """The next line, which must start with ``expect_prefix``."""
        if self.pos >= len(self.lines):
            raise FormatVersionMismatch(f"{self.path}: truncated model file")
        line = self.lines[self.pos]
        self.pos += 1
        if not line.startswith(expect_prefix):
            raise FormatVersionMismatch(
                f"{self.path}: expected {expect_prefix!r}, got {line[:40]!r}"
            )
        return line

    def rest(self, prefix: str) -> str:
        """The next line after ``prefix``, which it must start with."""
        return self.next(prefix)[len(prefix):]

    def rows(self, count: int, head: str, width: int) -> list[list[str]]:
        """The fields of the next ``count`` lines: ``head`` and ``width`` more."""
        if not 0 <= count <= len(self.lines) - self.pos:
            raise FormatVersionMismatch(f"{self.path}: {count} {head} lines do not follow")
        rows = [line.split(" ") for line in self.lines[self.pos:self.pos + count]]
        self.pos += count
        if any(len(row) != width + 1 or row[0] != head for row in rows):
            raise ValueError(f"each {head!r} line must have {width} fields")
        return rows


def _parse_hexline(rest: str) -> np.ndarray:
    return np.array([float.fromhex(tok) for tok in rest.split(" ")] if rest else [],
                    dtype=np.float64)


def load_model(path) -> BoosterModel:
    """Read a model file that save_model wrote.

    The lines are parsed leniently (int, float.fromhex, json.loads) into a
    model, which checks itself as it is built. The file is then accepted
    only if its lines are the ones save_model writes of that model
    (_model_lines): one rule covers the spelling of every integer, float
    and JSON value, the prefixes, the ``tree <i>`` numbers and the node
    counts. A mtboost-model-v1 file is first turned into the v2 lines it
    stands for (_v1_as_v2), which then meet the same rule. Anything else
    raises FormatVersionMismatch, naming the first line that differs."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise FormatVersionMismatch(f"{path}: not UTF-8 text ({exc.reason})") from None
    try:
        if lines[:1] == ["mtboost-model-v1"]:
            lines = _v1_as_v2(lines)
        rd = _Reader(lines, path)
        if rd.next() != MODEL_FORMAT_MARKER:
            raise FormatVersionMismatch(f"{path}: not a {MODEL_FORMAT_MARKER} file")
        n_tasks, n_features, num_trees, num_log_rows = (
            int(rd.rest(f"{key} ")) for key in ("n_tasks", "n_features", "num_trees",
                                                "num_log_rows"))
        feature_names = json.loads(rd.rest("feature_names "))
        task_names = json.loads(rd.rest("task_names "))
        params = dict(json.loads(rd.rest("params ")))
        params = BoosterParams(mt=MTConfig(**params.pop("mt", {})), **params)
        extra = json.loads(rd.rest("extra "))
        base_scores = _parse_hexline(rd.rest("base_scores "))
        # Counts are checked before any of them sizes a loop or an array.
        if (min(num_trees, num_log_rows) < 0 or len(task_names) != n_tasks
                or len(feature_names) != n_features):
            raise FormatVersionMismatch(f"{path}: inconsistent header counts")
        max_bins = int(rd.rest("mapper max_bins "))
        mapper = BinMapper(tuple(_parse_hexline(rd.rest(f"feature {f} boundaries "))
                                 for f in range(n_features)), max_bins)
        trees = []
        for _ in range(num_trees):
            _, _, _, n_nodes, _, n_leaves = rd.next("tree ").split(" ")
            nodes = rd.rows(int(n_nodes), "node", 6)
            leaves = rd.rows(int(n_leaves), "leaf", n_tasks + 2)
            # The counts (last column) are derived, and checked as saved below.
            _, feature, threshold, left, right, gain, _ = list(zip(*nodes)) or [()] * 7
            skeleton = TreeSkeleton(feature, threshold, left, right,
                                    [float.fromhex(t) for t in gain], int(n_leaves))
            values = [[float.fromhex(t) for t in row[3:]] for row in leaves]
            trees.append(MultiOutputTree(skeleton, values, [row[1] for row in leaves]))
        log = []
        for i in range(num_log_rows):
            line = rd.next(f"log {i} train ")  # row i is iteration i
            train_part, _, valid_part = line.partition(" train ")[2].partition(" valid ")
            valid = None if valid_part == "-" else tuple(_parse_hexline(valid_part))
            log.append(IterationLog(tuple(_parse_hexline(train_part)), valid))
        rd.next("end")
        if rd.pos < len(lines):
            raise ValueError("lines follow 'end'")
        model = BoosterModel(
            trees=trees,
            params=params,
            mapper=mapper,
            base_scores=base_scores,
            feature_names=feature_names,
            task_names=task_names,
            training_log=log,
            extra=extra,
        )
    except FormatVersionMismatch:
        raise
    except (ValueError, TypeError, LookupError, OverflowError, RecursionError) as exc:
        raise FormatVersionMismatch(f"{path}: corrupt model file: {exc}") from None
    for number, (want, got) in enumerate(zip(_model_lines(model), lines), 1):
        if want != got:
            at = len(os.path.commonprefix([want, got]))
            raise FormatVersionMismatch(
                f"{path}: line {number} is not as save_model writes it, from character "
                f"{at + 1}: expected {want[at:at + 40]!r}, got {got[at:at + 40]!r}")
    return model
