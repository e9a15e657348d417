"""Boosting loop, prediction, model files and single-task extraction.

Each iteration: compute per-task gradients at the current raw scores, run
the updating pass (correlation damping) and the ensemble pass (weighted
collapse to one gradient per sample), grow one shared tree from the
ensemble gradients, fit its per-task leaf values from the updating
gradients, and add those values to every task's score column.

Model files are versioned plain text. Floats are written as hexadecimal
literals, so save/load round trips are bit exact and files are diffable.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .data import BinMapper, Dataset, bin_column
from .errors import (
    EmptyDataset,
    FeatureCountMismatch,
    FormatVersionMismatch,
    InvalidParameter,
    LabelOverflow,
    MapperMismatch,
    TaskIndexOutOfRange,
)
from .gradients import MTConfig, check_finite_fields, ensemble_grad_hess, updating_grad_hess
from .objectives import (
    BINARY_LOGLOSS,
    PROB_EPS,
    grad_hess,
    loss,
    transform_score,
    validate_objectives,
)
from .tree import (
    GrowthParams,
    MultiOutputTree,
    TreeNode,
    fit_leaf_values,
    grow_tree,
    route_binned,
)

MODEL_FORMAT_MARKER = "mtboost-model-v1"

# Annotation of a parameter field -> type tag. The CLI parses config values
# by these tags and load_model checks the params JSON against them.
PARAM_TYPES = {
    "int": "int",
    "float": "float",
    "str": "str",
    "tuple[str, ...]": "strlist",
    "tuple[float, ...] | None": "floatlist",
}


@dataclass(frozen=True)
class BoosterParams:
    """Everything train() needs besides the data.

    ``lambda_reg`` is the denominator regularizer of the split gain and leaf
    values. Historic configs sometimes call this knob "lambda_l1"; the CLI
    accepts that alias but the engine applies it in the denominator only.
    ``seed`` offsets the task-selection stream of the multi-task config, so
    harnesses can vary whole runs with one knob. ``growth`` is the
    GrowthParams view of the fields that share its names, built (and so
    checked) once, with the params.
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
        object.__setattr__(self, "objectives", validate_objectives(self.objectives))
        check_finite_fields(self)
        if self.num_iterations < 1:
            raise InvalidParameter("num_iterations must be >= 1")
        if not 0.0 < self.learning_rate <= 1.0:
            raise InvalidParameter("learning_rate must be in (0, 1]")
        if not 0 <= self.main_task_index < len(self.objectives):
            raise InvalidParameter("main_task_index out of range")
        if self.max_delta_step <= 0:
            raise InvalidParameter("max_delta_step must be > 0")
        growth = GrowthParams(**{f.name: getattr(self, f.name) for f in fields(GrowthParams)})
        object.__setattr__(self, "growth", growth)


def param_types(cls) -> dict[str, str]:
    """Type tag of each field of BoosterParams or MTConfig, in field order;
    the nested ``mt`` config is left out."""
    return {f.name: PARAM_TYPES[f.type] for f in fields(cls) if f.name != "mt"}


@dataclass(frozen=True)
class IterationLog:
    """Losses of one boosting iteration."""

    iteration: int
    train: tuple[float, ...]
    valid: tuple[float, ...] | None


@dataclass(eq=False)
class BoosterModel:
    """A trained ensemble; immutable and safe for concurrent prediction."""

    trees: list[MultiOutputTree]
    params: BoosterParams
    mapper: BinMapper
    base_scores: np.ndarray  # (n,)
    feature_names: tuple[str, ...]
    task_names: tuple[str, ...]
    training_log: list[IterationLog]
    extra: dict = field(default_factory=dict)  # CLI-side metadata, round-trips

    @property
    def n_tasks(self) -> int:
        return len(self.task_names)

    @property
    def n_features(self) -> int:
        return len(self.feature_names)


def _base_scores(labels, objectives) -> np.ndarray:
    """Per-task starting score: label mean, or its log-odds for classifiers.
    Raises LabelOverflow when a mean overflows."""
    base = np.empty(labels.shape[1], dtype=np.float64)
    for t, kind in enumerate(objectives):
        with np.errstate(over="ignore"):
            mean = float(np.mean(labels[:, t]))
        if not math.isfinite(mean):
            raise LabelOverflow(f"task {t}: the label mean overflows float64")
        if kind == BINARY_LOGLOSS:
            p = min(max(mean, PROB_EPS), 1.0 - PROB_EPS)
            base[t] = math.log(p / (1.0 - p))
        else:
            base[t] = mean
    return base


def _add_leaf_values(scores, tree: MultiOutputTree, leaf_id) -> None:
    """Add each row's leaf values to its scores, one task column at a time."""
    for t, values in enumerate(tree.leaf_values.T):
        scores[:, t] += values.take(leaf_id)


def _losses(labels, scores, objectives, which: str) -> tuple[float, ...]:
    """Per-task losses; raises LabelOverflow when one is not finite."""
    losses = tuple(loss(labels[:, t], scores[:, t], kind) for t, kind in enumerate(objectives))
    for t, value in enumerate(losses):
        if not math.isfinite(value):
            raise LabelOverflow(f"task {t}: the {which} loss overflows float64")
    return losses


def train(dataset: Dataset, params: BoosterParams, valid: Dataset | None = None) -> BoosterModel:
    """Run the boosting loop and return the fitted model.

    Validation data must be binned with the training mapper. With
    early_stopping_rounds > 0 and validation data present, training stops
    once the main task's validation loss has not improved for that many
    iterations, and the returned model is truncated to the best iteration:
    its trees and its training log both end there, so the last log row
    describes the returned model.
    """
    if dataset.m == 0:
        raise EmptyDataset("training dataset has no rows")
    n = dataset.n
    if len(params.objectives) != n:
        raise InvalidParameter(f"{len(params.objectives)} objectives for {n} label columns")
    for t, kind in enumerate(params.objectives):
        if kind == BINARY_LOGLOSS:
            col = dataset.labels[:, t]
            if not np.isin(col, (0.0, 1.0)).all():
                raise InvalidParameter(f"task {t} labels must all be 0 or 1 for {kind}")
    if params.mt.n_selected > n:
        raise InvalidParameter(f"n_selected={params.mt.n_selected} exceeds task count {n}")
    if valid is not None:
        if valid.mapper != dataset.mapper:
            raise MapperMismatch("validation data was binned with a different mapper")
        if valid.n != n:
            raise InvalidParameter("validation label count differs from training")

    mt = replace(params.mt, seed=params.mt.seed + params.seed)
    # One layout: every per-task (m, n) array is column-major, so each task's
    # column is contiguous. A no-op for apply_bins output. The scores,
    # gradients and hessians are transposes of (n, m) per-task rows of one
    # block, allocated once: iterations write into it instead of allocating
    # and freeing (m, n) arrays, whose reuse of freed heap made a run's peak
    # memory vary from run to run.
    labels = np.asfortranarray(dataset.labels)
    base = _base_scores(labels, params.objectives)
    scores, g, h = (rows.T for rows in np.empty((3, n, dataset.m)))
    scores[:] = base
    if valid is not None:
        valid_labels = np.asfortranarray(valid.labels)
        valid_scores = np.tile(base[:, None], valid.m).T

    trees: list[MultiOutputTree] = []
    log: list[IterationLog] = []
    best_loss = math.inf
    best_iter = -1

    for it in range(params.num_iterations):
        gh = grad_hess(labels, scores, params.objectives, out=(g, h))
        eg = ensemble_grad_hess(gh, mt, it)
        gu = updating_grad_hess(gh, mt, out=g)  # the ensemble pass has read g
        skeleton, leaf_id = grow_tree(dataset, eg.g_e, eg.h_e, params.growth)
        tree = fit_leaf_values(
            skeleton, leaf_id, gu.g, gu.h,
            params.lambda_reg, params.learning_rate, params.max_delta_step,
        )
        del gh, gu, eg  # free g_e and h_e before the next iteration allocates its own
        trees.append(tree)
        _add_leaf_values(scores, tree, leaf_id)
        train_losses = _losses(labels, scores, params.objectives, "training")
        valid_losses = None
        if valid is not None:
            _add_leaf_values(valid_scores, tree, route_binned(tree.nodes, valid.binned))
            valid_losses = _losses(valid_labels, valid_scores, params.objectives, "validation")
        log.append(IterationLog(iteration=it, train=train_losses, valid=valid_losses))

        if params.early_stopping_rounds > 0 and valid_losses is not None:
            monitored = valid_losses[params.main_task_index]
            if monitored < best_loss:
                best_loss = monitored
                best_iter = it
            elif it - best_iter >= params.early_stopping_rounds:
                break

    if params.early_stopping_rounds > 0 and valid is not None and best_iter >= 0:
        trees = trees[: best_iter + 1]
        log = log[: best_iter + 1]

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


def predict(model: BoosterModel, features, task: int | None = None) -> np.ndarray:
    """Raw additive scores for each row: (k, n), or (k,) when a task is given.

    Scores are summed task-major, one contiguous row of k scores per task,
    so the (k, n) result is a column-major (transposed) view. Each score is
    the task's base score plus its leaf values in tree order. The single-task
    path accumulates only that task's leaf values, so its cost does not grow
    with the number of tasks.
    """
    binned = _bin_features(model, features)
    if task is not None and not 0 <= task < model.n_tasks:
        raise TaskIndexOutOfRange(f"task {task} not in [0, {model.n_tasks})")
    tasks = range(model.n_tasks) if task is None else (task,)
    out = np.empty((len(tasks), binned.shape[0]))
    out[:] = model.base_scores[list(tasks), None]
    for tree in model.trees:
        leaf = route_binned(tree.nodes, binned)
        values = tree.leaf_values.T
        for row, t in zip(out, tasks):
            row += values[t].take(leaf)
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

    The shared structure is kept; only the chosen task's leaf values,
    residual means and metadata survive. Predictions equal the chosen
    column of the full model exactly.
    """
    if not 0 <= task < model.n_tasks:
        raise TaskIndexOutOfRange(f"task {task} not in [0, {model.n_tasks})")
    trees = [
        MultiOutputTree(
            nodes=t.nodes,
            leaf_values=np.ascontiguousarray(t.leaf_values[:, task : task + 1]),
            leaf_residual_means=np.ascontiguousarray(
                t.leaf_residual_means[:, task : task + 1]
            ),
            leaf_counts=t.leaf_counts,
        )
        for t in model.trees
    ]
    params = replace(
        model.params, objectives=(model.params.objectives[task],), main_task_index=0
    )
    log = [
        IterationLog(
            iteration=row.iteration,
            train=(row.train[task],),
            valid=None if row.valid is None else (row.valid[task],),
        )
        for row in model.training_log
    ]
    return BoosterModel(
        trees=trees,
        params=params,
        mapper=model.mapper,
        base_scores=model.base_scores[task : task + 1].copy(),
        feature_names=model.feature_names,
        task_names=(model.task_names[task],),
        training_log=log,
        extra=dict(model.extra),
    )


# ---------------------------------------------------------------------------
# Model file format (documented in README: "Model file format")
# ---------------------------------------------------------------------------


def _hex(x: float) -> str:
    return float(x).hex()


def _hexline(values) -> str:
    return " ".join(_hex(v) for v in values)


def save_model(model: BoosterModel, path) -> None:
    """Write the model as versioned text with hex float literals."""
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
        lines.append(f"tree {i} nodes {len(tree.nodes)} leaves {tree.n_leaves}")
        for node in tree.nodes:
            # The fifth field, <default_right>, is always 1: missing goes right.
            lines.append(
                f"node {node.feature} {node.threshold_bin} {node.left} {node.right} "
                f"1 {_hex(node.gain)} {node.count}"
            )
        for leaf in range(tree.n_leaves):
            lines.append(
                f"leaf {int(tree.leaf_counts[leaf])} "
                f"values {_hexline(tree.leaf_values[leaf])} "
                f"means {_hexline(tree.leaf_residual_means[leaf])}"
            )
    for row in model.training_log:
        valid = "-" if row.valid is None else _hexline(row.valid)
        lines.append(f"log {row.iteration} train {_hexline(row.train)} valid {valid}")
    lines.append("end")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


_JSON_TYPE_OK = {
    "int": lambda v: type(v) is int,
    "float": lambda v: type(v) in (int, float),
    "str": lambda v: type(v) is str,
    "strlist": lambda v: type(v) is list and all(type(x) is str for x in v),
    "floatlist": lambda v: v is None or (
        type(v) is list and all(type(x) in (int, float) for x in v)
    ),
}


def _kwargs_from_json(cls, obj) -> dict:
    """Constructor arguments of ``cls`` from its JSON snapshot: the keys must
    be exactly its fields and each value must have its field's type."""
    types = param_types(cls)
    if type(obj) is not dict or obj.keys() != types.keys():
        raise ValueError(f"{cls.__name__} params must have exactly the keys {list(types)}")
    for name, tag in types.items():
        if not _JSON_TYPE_OK[tag](obj[name]):
            raise ValueError(f"{cls.__name__} param {name!r}: {obj[name]!r} is not {tag}")
    return {k: tuple(v) if type(v) is list else v for k, v in obj.items()}


def _params_from_dict(d) -> BoosterParams:
    if type(d) is not dict:
        raise ValueError("params must be a JSON object")
    kwargs = dict(d)
    mt = MTConfig(**_kwargs_from_json(MTConfig, kwargs.pop("mt", None)))
    return BoosterParams(mt=mt, **_kwargs_from_json(BoosterParams, kwargs))


def _check_tree(nodes, n_leaves: int, finite_bins) -> None:
    """Raise ValueError unless the nodes form one binary tree over n_leaves
    leaves with splits the mapper can produce: every child comes after its
    parent, and every node but the root and every leaf has exactly one
    parent."""
    node_refs = []
    leaf_refs = [] if nodes else [0]  # a tree without nodes is the single leaf 0
    for i, node in enumerate(nodes):
        if not 0 <= node.feature < len(finite_bins):
            raise ValueError(f"node {i}: feature {node.feature} out of range")
        if not 0 <= node.threshold_bin < finite_bins[node.feature] - 1:
            raise ValueError(f"node {i}: threshold_bin {node.threshold_bin} out of range")
        for child in (node.left, node.right):
            if 0 <= child <= i:
                raise ValueError(f"node {i}: child node {child} does not come after it")
            if child >= 0:
                node_refs.append(child)
            else:
                leaf_refs.append(~child)
    if sorted(node_refs) != list(range(1, len(nodes))) or sorted(leaf_refs) != list(
        range(n_leaves)
    ):
        raise ValueError("node children must reference every node and leaf exactly once")


class _Reader:
    def __init__(self, lines, path):
        self.lines = lines
        self.path = path
        self.pos = 0

    def next(self, expect_prefix: str | None = None) -> str:
        if self.pos >= len(self.lines):
            raise FormatVersionMismatch(f"{self.path}: truncated model file")
        line = self.lines[self.pos]
        self.pos += 1
        if expect_prefix is not None and not line.startswith(expect_prefix):
            raise FormatVersionMismatch(
                f"{self.path}: expected {expect_prefix!r}, got {line[:40]!r}"
            )
        return line


def _parse_hexline(rest: str, count: int | None = None) -> np.ndarray:
    values = np.array(
        [float.fromhex(tok) for tok in rest.split(" ")] if rest else [], dtype=np.float64
    )
    if count is not None and len(values) != count:
        raise ValueError(f"expected {count} values, got {len(values)}")
    return values


def load_model(path) -> BoosterModel:
    """Parse a model file written by save_model; strict about the format."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise FormatVersionMismatch(f"{path}: not UTF-8 text ({exc.reason})") from None
    rd = _Reader(lines, path)
    if rd.next() != MODEL_FORMAT_MARKER:
        raise FormatVersionMismatch(f"{path}: not a {MODEL_FORMAT_MARKER} file")
    try:
        n_tasks = int(rd.next("n_tasks ").split(" ")[1])
        n_features = int(rd.next("n_features ").split(" ")[1])
        num_trees = int(rd.next("num_trees ").split(" ")[1])
        num_log_rows = int(rd.next("num_log_rows ").split(" ")[1])
        feature_names = tuple(json.loads(rd.next("feature_names ")[len("feature_names "):]))
        task_names = tuple(json.loads(rd.next("task_names ")[len("task_names "):]))
        params = _params_from_dict(json.loads(rd.next("params ")[len("params "):]))
        extra = json.loads(rd.next("extra ")[len("extra "):])
        if type(extra) is not dict:
            raise ValueError("extra must be a JSON object")
        base_scores = _parse_hexline(rd.next("base_scores ")[len("base_scores "):])
        max_bins = int(rd.next("mapper max_bins ").split(" ")[2])
        boundaries = []
        for f in range(n_features):
            head = f"feature {f} boundaries"
            cuts = _parse_hexline(rd.next(head)[len(head):].strip())
            if np.isnan(cuts).any() or not np.all(cuts[1:] > cuts[:-1]):
                raise ValueError(f"{head} must be strictly ascending")
            boundaries.append(cuts)
        mapper = BinMapper(boundaries=tuple(boundaries), max_bins=max_bins)
        trees = []
        for i in range(num_trees):
            header = rd.next(f"tree {i} ").split(" ")
            n_nodes, n_leaves = int(header[3]), int(header[5])
            nodes = []
            for _ in range(n_nodes):
                line = rd.next("node ")
                tok = line.split(" ")
                if len(tok) != 8 or tok[5] != "1":
                    raise ValueError(f"{line!r}: expected 7 fields, <default_right> 1")
                nodes.append(
                    TreeNode(
                        feature=int(tok[1]),
                        threshold_bin=int(tok[2]),
                        left=int(tok[3]),
                        right=int(tok[4]),
                        gain=float.fromhex(tok[6]),
                        count=int(tok[7]),
                    )
                )
            _check_tree(nodes, n_leaves, mapper.finite_bin_counts)
            values = np.empty((n_leaves, n_tasks))
            means = np.empty((n_leaves, n_tasks))
            counts = np.empty(n_leaves, dtype=np.int64)
            for leaf in range(n_leaves):
                line = rd.next("leaf ")
                head, _, tail = line.partition(" values ")
                counts[leaf] = int(head.split(" ")[1])
                values_part, _, means_part = tail.partition(" means ")
                values[leaf] = _parse_hexline(values_part, n_tasks)
                means[leaf] = _parse_hexline(means_part, n_tasks)
            trees.append(
                MultiOutputTree(
                    nodes=nodes,
                    leaf_values=values,
                    leaf_residual_means=means,
                    leaf_counts=counts,
                )
            )
        log = []
        for _ in range(num_log_rows):
            line = rd.next("log ")
            head, _, tail = line.partition(" train ")
            train_part, _, valid_part = tail.partition(" valid ")
            log.append(
                IterationLog(
                    iteration=int(head.split(" ")[1]),
                    train=tuple(_parse_hexline(train_part, n_tasks)),
                    valid=None if valid_part == "-" else tuple(
                        _parse_hexline(valid_part, n_tasks)
                    ),
                )
            )
        rd.next("end")
    except FormatVersionMismatch:
        raise
    except (ValueError, TypeError, IndexError) as exc:
        raise FormatVersionMismatch(f"{path}: corrupt model file: {exc}") from None
    if (len(base_scores) != n_tasks or len(task_names) != n_tasks
            or len(params.objectives) != n_tasks or len(feature_names) != n_features):
        raise FormatVersionMismatch(f"{path}: inconsistent header counts")
    return BoosterModel(
        trees=trees,
        params=params,
        mapper=mapper,
        base_scores=base_scores,
        feature_names=feature_names,
        task_names=task_names,
        training_log=log,
        extra=extra,
    )
