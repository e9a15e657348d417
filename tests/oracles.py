"""Independent reference implementations used as test oracles.

Everything here is written straight-line, with per-sample Python loops and
none of the engine's code paths, so a bug in the engine cannot hide in its
own oracle. Slow on purpose; only run on small inputs.
"""

from __future__ import annotations

import csv
import math

import numpy as np


# ---------------------------------------------------------------------------
# Binning
# ---------------------------------------------------------------------------


def quantile_boundaries_oracle(values, max_bins):
    """Brute-force sort-and-cut quantile boundaries (linear interpolation)."""
    vals = sorted(float(v) for v in values if not math.isnan(v))
    distinct = sorted(set(vals))
    if len(distinct) <= max_bins:
        return distinct[:-1]
    m = len(vals)
    cuts = []
    for j in range(1, max_bins):
        pos = (m - 1) * (j / max_bins)
        lo = int(math.floor(pos))
        frac = pos - lo
        if lo + 1 < m:
            cut = vals[lo] + (vals[lo + 1] - vals[lo]) * frac
        else:
            cut = vals[lo]
        cuts.append(cut)
    vmax = distinct[-1]
    out = []
    for c in cuts:
        if c < vmax and (not out or c > out[-1]):
            out.append(c)
    return out


def fit_bins_oracle(col, max_bins):
    """One column's boundaries from np.unique and np.quantile on the
    unsorted non-NaN values."""
    vals = col[~np.isnan(col)]
    if vals.size == 0:
        return np.empty(0, dtype=np.float64)
    distinct = np.unique(vals)
    if distinct.size <= max_bins:
        return distinct[:-1]
    with np.errstate(invalid="ignore"):
        cuts = np.unique(np.quantile(vals, np.arange(1, max_bins) / max_bins))
    return cuts[cuts < distinct[-1]]


def bin_column_oracle(values, cuts):
    """Bins by plain binary search: the count of cuts below each value, NaN
    to the missing bin."""
    bins = np.searchsorted(cuts, values, side="left")
    bins[np.isnan(values)] = len(cuts) + 1
    return bins


def parse_cells_oracle(cells, missing_token):
    """One float per feature cell: the missing token and any cell ``float()``
    rejects give NaN; everything else, Python float syntax such as ``1_0``
    and `` 2 `` included, gives ``float(cell)``."""
    out = []
    for cell in cells:
        if cell == missing_token:
            out.append(math.nan)
            continue
        try:
            out.append(float(cell))
        except ValueError:
            out.append(math.nan)
    return out


def write_csv_oracle(table, path):
    """A RawTable as CSV through csv.writer, one cell at a time: features
    then labels, ``repr`` of each float, NaN as an empty cell."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([*table.feature_names, *table.task_names])
        for features, labels in zip(table.features, table.labels):
            row = features.tolist() + labels.tolist()
            writer.writerow(["" if math.isnan(v) else repr(v) for v in row])


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------


def window_features_oracle(seed, m, window_sizes=(3, 7, 14, 30)):
    """The ``timeseries_ratio`` table built row by row: the autoregressive
    series, then each row's value, its window min/max/mean/var over every
    window size, and the next value and next/current ratio as labels."""
    rng = np.random.default_rng([seed, 3])
    burn = max(window_sizes)
    total = m + burn
    mu_log = math.log(1000.0)
    kappa, sigma = 0.05, 0.03
    values = np.empty(total + 1, dtype=np.float64)
    ratios = np.empty(total, dtype=np.float64)
    values[0] = 1000.0
    eps = rng.standard_normal(total)
    for t in range(total):
        ratios[t] = math.exp(kappa * (mu_log - math.log(values[t])) + sigma * eps[t])
        values[t + 1] = values[t] * ratios[t]

    features = np.empty((m, 1 + 4 * len(window_sizes)), dtype=np.float64)
    labels = np.empty((m, 2), dtype=np.float64)
    for row, i in enumerate(range(burn - 1, burn - 1 + m)):
        features[row, 0] = values[i]
        col = 1
        for w in window_sizes:
            window = values[i - w + 1 : i + 1]
            features[row, col : col + 4] = (
                window.min(), window.max(), window.mean(), window.var(),
            )
            col += 4
        labels[row, 0] = values[i + 1]
        labels[row, 1] = ratios[i]
    return features, labels


# ---------------------------------------------------------------------------
# Split finding
# ---------------------------------------------------------------------------


def split_gain(gl, hl, gr, hr, lam, gamma_reg):
    """Second-order gain of splitting a node into (left, right) parts."""
    parent = (gl + gr) ** 2 / (hl + hr + lam)
    return 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent) - gamma_reg


def enumerate_best_split(binned, finite_bins, g, h, *, lam, gamma_reg,
                         min_samples_leaf, min_hess_leaf, min_gain):
    """Try every (feature, boundary) pair; return (feature, bin, gain) or None.

    Left = samples with bin <= boundary; the missing bin can never go left.
    First strictly-better candidate wins, scanning features then bins in
    ascending order.
    """
    m, d = binned.shape
    samples = np.arange(m)
    best = None
    for f in range(d):
        col = binned[:, f]
        for b in range(int(finite_bins[f]) - 1):
            left = samples[col <= b]
            right = samples[col > b]
            if len(left) < min_samples_leaf or len(right) < min_samples_leaf:
                continue
            gl = float(np.sum(g[left]))
            hl = float(np.sum(h[left]))
            gr = float(np.sum(g[right]))
            hr = float(np.sum(h[right]))
            if hl < min_hess_leaf or hr < min_hess_leaf:
                continue
            gain = split_gain(gl, hl, gr, hr, lam, gamma_reg)
            if best is None or gain > best[2]:
                best = (f, b, gain)
    if best is None or best[2] <= min_gain:
        return None
    return best


# ---------------------------------------------------------------------------
# Leaf values
# ---------------------------------------------------------------------------


def leaf_values_oracle(leaf_id, n_leaves, g, h, *, lam, lr, max_delta):
    """Per-leaf Newton values and row counts.

    Each row's gradients are added to its leaf's running sums one row at a
    time, in ascending row order. Returns (values, counts) arrays.
    """
    m, n = g.shape
    sum_g = [[0.0] * n for _ in range(n_leaves)]
    sum_h = [[0.0] * n for _ in range(n_leaves)]
    counts = [0] * n_leaves
    for i in range(m):
        leaf = int(leaf_id[i])
        counts[leaf] += 1
        for t in range(n):
            sum_g[leaf][t] += float(g[i, t])
            sum_h[leaf][t] += float(h[i, t])
    values = []
    for leaf in range(n_leaves):
        row_values = []
        for t in range(n):
            value = -lr * sum_g[leaf][t] / (sum_h[leaf][t] + lam)
            row_values.append(min(max(value, -max_delta), max_delta))
        values.append(row_values)
    return np.array(values), np.array(counts)


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------


def route_binned_oracle(nodes, binned):
    """Leaf index of each binned row by walking the nodes from the root: the
    rows of a node split by ``bin <= threshold_bin`` into its two children."""
    k = binned.shape[0]
    out = np.zeros(k, dtype=np.int64)
    if not nodes:
        return out
    stack = [(0, np.arange(k, dtype=np.int64))]
    while stack:
        node_id, idx = stack.pop()
        node = nodes[node_id]
        col = binned[idx, node.feature]
        mask = col <= node.threshold_bin
        for child, sub in ((node.left, idx[mask]), (node.right, idx[~mask])):
            if sub.size == 0:
                continue
            if child >= 0:
                stack.append((child, sub))
            else:
                out[sub] = ~child
    return out


def node_rows_oracle(nodes, binned):
    """How many binned rows pass through each node: every row walks from
    the root to its leaf, one node at a time, counting each node it visits."""
    counts = [0] * len(nodes)
    for row in binned.tolist():
        node_id = 0 if nodes else -1
        while node_id >= 0:
            counts[node_id] += 1
            node = nodes[node_id]
            node_id = node.left if row[node.feature] <= node.threshold_bin else node.right
    return counts


def check_tree_oracle(nodes, n_leaves, finite_bins):
    """Raise ValueError unless the nodes (objects with feature,
    threshold_bin, left and right) form one binary tree over n_leaves leaves
    with splits the mapper can produce, checked node by node: every child
    comes after its parent, and every node but the root and every leaf has
    exactly one parent."""
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


# ---------------------------------------------------------------------------
# Gradient ensemble and updating passes (straight-line transcriptions)
# ---------------------------------------------------------------------------


def ensemble_oracle(g, h, *, gamma, chosen, g_target_mean=0.05,
                    h_target_mean=1.0, h_floor=1e-6, dead_eps=1e-12):
    """Literal per-sample computation of the splitting gradient ensemble."""
    m, n = g.shape
    w = []
    for t in range(n):
        mean_abs = sum(abs(g[i][t]) for i in range(m)) / m
        w.append(g_target_mean / mean_abs if mean_abs > dead_eps else 1.0)
    v = []
    for t in range(n):
        mean_abs = sum(abs(h[i][t]) for i in range(m)) / m
        v.append(h_target_mean / mean_abs if mean_abs > dead_eps else 1.0)
    for k in chosen:
        w[k] = gamma * w[k]
    g_e = [sum(w[t] * g[i][t] for t in range(n)) for i in range(m)]
    h_e = [max(sum(v[t] * h[i][t] for t in range(n)), h_floor) for i in range(m)]
    return np.array(g_e), np.array(h_e), np.array(w), np.array(v)


def _pearson(a, b):
    m = len(a)
    ma = sum(a) / m
    mb = sum(b) / m
    cov = sum((a[i] - ma) * (b[i] - mb) for i in range(m))
    va = sum((a[i] - ma) ** 2 for i in range(m))
    vb = sum((b[i] - mb) ** 2 for i in range(m))
    if va <= 0.0 or vb <= 0.0:
        return 0.0
    return cov / math.sqrt(va * vb)


def updating_oracle(g, h, corr_mode, main=0):
    """Literal computation of the correlation-damped updating gradients: the
    mean correlation of every other column with column ``main``."""
    if corr_mode == "constant_one":
        return g.copy(), h.copy()
    m, n = g.shape
    if n == 1:
        corr = 1.0
    else:
        others = [t for t in range(n) if t != main]
        corr = sum(_pearson(list(g[:, main]), list(g[:, t])) for t in others) / (n - 1)
    factor = min(max(corr, 0.5), 1.0)
    return g * factor, h.copy()


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def pairwise_auc(labels, scores):
    """AUC by enumerating every positive/negative pair; ties earn half."""
    pos = [s for label, s in zip(labels, scores) if label == 1]
    neg = [s for label, s in zip(labels, scores) if label == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


# ---------------------------------------------------------------------------
# Scalar (single-output) GBDT reference
# ---------------------------------------------------------------------------


class _RefNode:
    def __init__(self, samples, depth, order):
        self.samples = samples
        self.depth = depth
        self.order = order
        self.split = None  # (f, b, gain, left_samples, right_samples)
        self.children = None


def _ref_find_split(node, binned, finite_bins, g, h, p):
    col_cache = binned[node.samples]
    best = None
    for f in range(binned.shape[1]):
        col = col_cache[:, f]
        for b in range(int(finite_bins[f]) - 1):
            mask = col <= b
            left = node.samples[mask]
            right = node.samples[~mask]
            if len(left) < p["min_samples_leaf"] or len(right) < p["min_samples_leaf"]:
                continue
            gl = float(np.sum(g[left]))
            hl = float(np.sum(h[left]))
            gr = float(np.sum(g[right]))
            hr = float(np.sum(h[right]))
            if hl < p["min_hess_leaf"] or hr < p["min_hess_leaf"]:
                continue
            gain = split_gain(gl, hl, gr, hr, p["lam"], p["gamma_reg"])
            if best is None or gain > best[2]:
                best = (f, b, gain, left, right)
    if best is None or best[2] <= p["min_gain"]:
        return None
    return best


def ref_grow_tree(binned, finite_bins, g, h, p):
    """Best-first scalar tree; returns (root node, list of leaf nodes)."""
    order = 0
    root = _RefNode(np.arange(binned.shape[0], dtype=np.int64), 0, order)
    order += 1
    if p["max_leaves"] > 1 and root.depth < p["max_depth"]:
        root.split = _ref_find_split(root, binned, finite_bins, g, h, p)
    frontier = [root]
    n_leaves = 1
    while n_leaves < p["max_leaves"]:
        candidates = [nd for nd in frontier if nd.split is not None]
        if not candidates:
            break
        best_node = candidates[0]
        for nd in candidates[1:]:
            if nd.split[2] > best_node.split[2]:
                best_node = nd
        f, b, gain, left, right = best_node.split
        lchild = _RefNode(left, best_node.depth + 1, order)
        order += 1
        rchild = _RefNode(right, best_node.depth + 1, order)
        order += 1
        for child in (lchild, rchild):
            if p["max_leaves"] > 1 and child.depth < p["max_depth"]:
                child.split = _ref_find_split(child, binned, finite_bins, g, h, p)
        best_node.children = (lchild, rchild)
        frontier.remove(best_node)
        frontier.append(lchild)
        frontier.append(rchild)
        n_leaves += 1
    leaves = [nd for nd in frontier]
    return root, leaves


def ref_tree_structure(root):
    if root.children is None:
        return ("leaf",)
    f = root.split[0]
    b = root.split[1]
    return (f, b, ref_tree_structure(root.children[0]), ref_tree_structure(root.children[1]))


def ref_boost_structures(binned, finite_bins, y, *, iterations, lr, p):
    """Scalar squared-error boosting; returns each iteration's structure."""
    m = binned.shape[0]
    scores = np.full(m, float(np.mean(y)))
    structures = []
    for _ in range(iterations):
        g = scores - y
        h = np.ones(m)
        root, leaves = ref_grow_tree(binned, finite_bins, g, h, p)
        structures.append(ref_tree_structure(root))
        for leaf in leaves:
            s = leaf.samples
            value = -lr * float(np.sum(g[s])) / (float(np.sum(h[s])) + p["lam"])
            scores[s] += value
    return structures


def engine_tree_structure(nodes, node_id=0):
    """Canonical nested-tuple form of an engine tree's structure."""
    if not nodes:
        return ("leaf",)
    node = nodes[node_id]

    def go(child):
        if child >= 0:
            return engine_tree_structure(nodes, child)
        return ("leaf",)

    return (node.feature, node.threshold_bin, go(node.left), go(node.right))
