"""Correctness checks computed apart from the program.

Each check returns a list of problems; an empty list means it passed. The
checks only read the program's outputs (models, predictions, printed
metrics) and never call its training, routing or loss code.
"""

from __future__ import annotations

import math

import numpy as np

PROB_EPS = 1e-15
LOSS_RTOL = 1e-9


def own_loss(labels, scores, kind: str) -> float:
    """Mean L2 loss, or mean log-loss of the clipped sigmoid of the scores."""
    labels = np.asarray(labels, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    if kind == "regression_l2":
        return float(np.mean((labels - scores) ** 2))
    with np.errstate(over="ignore"):
        p = np.clip(1.0 / (1.0 + np.exp(-scores)), PROB_EPS, 1.0 - PROB_EPS)
    return float(-np.mean(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p)))


def walk_trees(model, features) -> np.ndarray:
    """Raw scores by a plain walk on raw floats, summed in tree order.

    A row goes left when x <= cuts[threshold_bin]; NaN compares false and
    goes right. Children >= 0 are nodes, a negative child c is leaf ~c.
    """
    features = np.asarray(features, dtype=np.float64)
    rows = np.arange(features.shape[0])
    out = np.tile(model.base_scores, (features.shape[0], 1))
    for t in model.trees:
        if not t.nodes:
            out += t.leaf_values[np.zeros(len(rows), dtype=np.int64)]
            continue
        feature = np.array([n.feature for n in t.nodes])
        cut = np.array([
            model.mapper.boundaries[n.feature][n.threshold_bin] for n in t.nodes
        ])
        left = np.array([n.left for n in t.nodes])
        right = np.array([n.right for n in t.nodes])
        node = np.zeros(len(rows), dtype=np.int64)
        leaf = np.full(len(rows), -1, dtype=np.int64)
        active = rows
        while active.size:
            x = features[active, feature[node[active]]]
            child = np.where(x <= cut[node[active]], left[node[active]], right[node[active]])
            done = child < 0
            leaf[active[done]] = ~child[done]
            node[active[~done]] = child[~done]
            active = active[~done]
        out += t.leaf_values[leaf]
    return out


def check_walk(model, features, predicted) -> list[str]:
    expected = walk_trees(model, features)
    predicted = np.asarray(predicted).reshape(expected.shape)
    if not np.array_equal(expected, predicted):
        worst = float(np.max(np.abs(expected - predicted)))
        return [f"predictions differ from the tree walk by up to {worst!r}"]
    return []


def _depths(nodes) -> list[int]:
    """Depth of every leaf, in leaf-index order; the root sits at depth 0."""
    depth_of_leaf: dict[int, int] = {}
    stack = [(0, 0)] if nodes else []
    while stack:
        node_id, depth = stack.pop()
        for child in (nodes[node_id].left, nodes[node_id].right):
            if child >= 0:
                stack.append((child, depth + 1))
            else:
                depth_of_leaf[~child] = depth + 1
    return [depth_of_leaf.get(i, 0) for i in range(max(len(depth_of_leaf), 1))]


def check_structure(model, m: int) -> list[str]:
    """Leaf counts cover the m training rows; trees obey the growth limits."""
    p = model.params
    problems = []
    for i, t in enumerate(model.trees):
        depths = _depths(t.nodes)
        if len(depths) != t.n_leaves:
            problems.append(f"tree {i}: {len(depths)} reachable leaves, {t.n_leaves} stored")
        if int(np.sum(t.leaf_counts)) != m:
            problems.append(f"tree {i}: leaf counts sum to {int(np.sum(t.leaf_counts))}, not {m}")
        if t.n_leaves > p.max_leaves or max(depths) > p.max_depth:
            problems.append(f"tree {i}: {t.n_leaves} leaves, depth {max(depths)}")
        if t.n_leaves > 1 and int(np.min(t.leaf_counts)) < p.min_samples_leaf:
            problems.append(f"tree {i}: a leaf holds {int(np.min(t.leaf_counts))} rows")
    return problems


def check_log(model, scores, labels, which: str) -> list[str]:
    """The last training-log row equals our own loss of the given scores."""
    logged = getattr(model.training_log[-1], which)
    problems = []
    for t, kind in enumerate(model.params.objectives):
        ours = own_loss(labels[:, t], scores[:, t], kind)
        if not math.isclose(logged[t], ours, rel_tol=LOSS_RTOL):
            problems.append(f"{which} loss of task {t}: logged {logged[t]!r}, ours {ours!r}")
    return problems


def check_beats_base(model, scores, labels) -> list[str]:
    """Main-task loss on held-out rows is below that of the constant start."""
    t = model.params.main_task_index
    kind = model.params.objectives[t]
    ours = own_loss(labels[:, t], scores[:, t], kind)
    base = own_loss(labels[:, t], np.full(len(labels), model.base_scores[t]), kind)
    if not ours < base:
        return [f"held-out main loss {ours!r} is not below the base score's {base!r}"]
    return []
