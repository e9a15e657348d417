"""Shared-structure decision tree with one output per task at each leaf.

Structure is grown best-first (leaf-wise) from the per-sample splitting
gradients (g_e, h_e): node histograms accumulate gradient/hessian sums per
(feature, bin), and the split maximizing the second-order gain

    1/2 [ G_L^2/(H_L+lambda) + G_R^2/(H_R+lambda) - (G_L+G_R)^2/(H_L+H_R+lambda) ] - gamma_reg

wins. Leaf values are fitted afterwards, per task, from the per-task
updating gradients, so the same structure serves every task.

Determinism rules used throughout: samples are accumulated in ascending
index order, features are scanned in ascending order, bins left to right,
and ties keep the first candidate. Of the two children of a split, the one
with fewer samples gets its histogram built directly; its sibling's is
derived by subtracting it from the parent's, which makes
parent = built + derived an exact identity. A split neither of whose
children can split again builds no histogram.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .data import Dataset, read_only, rebuilt_by_init
from .errors import EmptyLeaf, InvalidParameter

if TYPE_CHECKING:
    from .booster import BoosterParams

@dataclass(frozen=True, eq=False)
class Histogram:
    """Per-(feature, bin) sums of one node.

    ``sums[0]``, ``sums[1]`` and ``sums[2]`` are the (d, B) sums of g_e,
    h_e and the row count, with B the mapper's ``n_bins_max``; counts are
    float64, which holds them exactly. Rows are padded with zeros past each
    feature's own bins. ``splittable`` is the mapper's mask of the bins a
    split may follow, shared by every histogram.
    """

    sums: np.ndarray  # (3, d, B)
    splittable: np.ndarray  # (d, B) bool, read-only


def build_histograms(sample_indices, dataset: Dataset, g_e, h_e) -> Histogram:
    """Accumulate gradient/hessian histograms for one node.

    ``sample_indices`` must be ascending and distinct, as the grower's
    sample lists are (np.compress keeps order). Samples are then visited in
    ascending index order per feature, so repeated calls on the same
    arguments are bit-identical. All ``dataset.m`` of them can only be every
    row: the histogram then reads whole columns, ``g_e`` and ``h_e`` as they
    are and the dataset's ``rows_per_bin``, the same sums without a gather.
    """
    n_bins = dataset.mapper.n_bins_max
    sums = np.empty((3, dataset.d, n_bins), dtype=np.float64)
    every_row = len(sample_indices) == dataset.m
    rows = slice(None) if every_row else np.asarray(sample_indices, dtype=np.intp)
    g_node = g_e[rows]
    h_node = h_e[rows]
    if every_row:
        sums[2] = dataset.rows_per_bin
    for f in range(dataset.d):
        bins = dataset.binned[:, f][rows].astype(np.intp)
        sums[0, f] = np.bincount(bins, weights=g_node, minlength=n_bins)
        sums[1, f] = np.bincount(bins, weights=h_node, minlength=n_bins)
        if not every_row:
            sums[2, f] = np.bincount(bins, minlength=n_bins)
    return Histogram(sums, dataset.mapper.splittable)


def subtract_histograms(parent: Histogram, child: Histogram) -> Histogram:
    """Histogram of the sibling node: parent minus one child, elementwise."""
    return Histogram(parent.sums - child.sums, parent.splittable)


@dataclass(frozen=True)
class SplitInfo:
    """Winning split of one node: boundary, gain and both children's sums."""

    feature: int
    threshold_bin: int
    gain: float
    left_sums: tuple[float, float, int]  # (G_e, H_e, count)
    right_sums: tuple[float, float, int]


def find_best_split(hist: Histogram, node_totals, params: BoosterParams):
    """Scan every feature and bin boundary; return the best split or None.

    ``node_totals`` is the node's (G_e, H_e, count). Of ``params`` it reads
    min_samples_leaf, min_hess_leaf, min_gain_to_split, lambda_reg and
    gamma_reg. A boundary at bin b sends bins <= b left and everything else
    (missing bin included) right. Both children must satisfy
    min_samples_leaf and min_hess_leaf; ties are broken toward the lower
    feature index, then the lower bin index. A gain that is not finite never
    wins. Returns None when no candidate beats min_gain_to_split.
    """
    if node_totals[2] < 2 * params.min_samples_leaf:
        return None
    lam = params.lambda_reg
    # sides[0] and sides[1] hold the left and right (G, H, count) of all
    # (d, B) boundaries at once; column b is "bins <= b go left".
    sides = np.empty((2,) + hist.sums.shape)
    np.cumsum(hist.sums, axis=2, out=sides[0])
    np.subtract(np.array(node_totals, dtype=np.float64)[:, None, None], sides[0], out=sides[1])
    (lg, lh, _), (rg, rh, _) = sides
    fits = (sides[:, 2] >= params.min_samples_leaf) & (sides[:, 1] >= params.min_hess_leaf)
    valid = fits[0] & fits[1] & hist.splittable
    # 0.5 * (lg^2 / (lh + lam) + rg^2 / (rh + lam) - (lg + rg)^2 / (lh + rh + lam))
    # - gamma_reg, in place, one operation at a time in that order.
    with np.errstate(all="ignore"):
        terms = np.square(sides[:, 0])
        terms /= sides[:, 1] + lam
        gains = terms[0] + terms[1]
        parent, denom = terms
        np.square(np.add(lg, rg, out=parent), out=parent)
        np.add(lh, rh, out=denom)
        denom += lam
        parent /= denom
        gains -= parent
        gains *= 0.5
        gains -= params.gamma_reg
    valid &= np.isfinite(gains)
    np.putmask(gains, ~valid, -np.inf)
    # Row-major argmax: first maximum = lowest feature, then lowest bin.
    f, b = np.unravel_index(int(np.argmax(gains)), gains.shape)
    gain = float(gains[f, b])
    if not gain > params.min_gain_to_split:
        return None
    (lg, lh, lc), (rg, rh, rc) = sides[:, :, f, b].tolist()
    return SplitInfo(feature=int(f), threshold_bin=int(b), gain=gain,
                     left_sums=(lg, lh, int(lc)), right_sums=(rg, rh, int(rc)))


# Node fields and their dtypes: node i of a tree is entry i of each array.
NODE_DTYPES = dict(feature=np.intp, threshold_bin=np.intp, left=np.intp, right=np.intp,
                   gain=np.float64)


@dataclass(frozen=True, eq=False)
class TreeSkeleton:
    """Split structure produced by growth, before leaf values are fitted.

    One read-only array per NODE_DTYPES field, converted on construction (a
    value that does not convert raises InvalidParameter naming the field).
    A node's training rows are not stored: subtree_sums derives them from
    the leaves' counts. Rows whose bin of ``feature[i]`` is <=
    ``threshold_bin[i]`` go to child ``left[i]``, the others, missing values
    included, to ``right[i]``. A child >= 0 is a node; a negative child c
    is leaf ~c.

    Construction raises InvalidParameter unless the arrays are 1-D of one
    length and the nodes form one binary tree over ``n_leaves`` leaves, as
    grow_tree builds them: every child comes after its parent, every node
    but the root and every leaf has exactly one parent, features and
    thresholds are >= 0 and gains are finite. The leaf count is compared
    first, so a huge claimed count costs nothing. Whether the features and
    thresholds exist in a mapper, BoosterModel checks.
    """

    feature: np.ndarray
    threshold_bin: np.ndarray
    left: np.ndarray
    right: np.ndarray
    gain: np.ndarray
    n_leaves: int

    def __post_init__(self):
        for name, dtype in NODE_DTYPES.items():
            object.__setattr__(self, name, read_only(getattr(self, name), dtype, name))
        n = self.feature.size
        if any(getattr(self, name).shape != (n,) for name in NODE_DTYPES):
            raise InvalidParameter("node arrays must be 1-D and of one length")
        if self.n_leaves != n + 1:
            raise InvalidParameter(f"{n} nodes cannot hold {self.n_leaves} leaves")
        if min(self.feature.min(initial=0), self.threshold_bin.min(initial=0)) < 0:
            raise InvalidParameter("a node's feature or threshold_bin is negative")
        if not np.isfinite(self.gain).all():
            raise InvalidParameter("node gains must be finite")
        children = np.array([self.left, self.right])
        if ((children >= 0) & (children <= np.arange(n))).any():
            raise InvalidParameter("a child node does not come after its parent")
        # Sorted, a tree's children are its leaves ~n, ..., ~0, then its nodes 1, ..., n - 1.
        expected = np.arange(-n - 1, n - 1)
        expected[n + 1:] += 1
        if (np.sort(children, axis=None) != expected).any():
            raise InvalidParameter("node children must reference every node and leaf exactly once")

    __reduce__ = rebuilt_by_init

    @property
    def nodes(self) -> list:
        """Per-node records copied from the arrays, for readers of node objects."""
        return list(np.rec.fromarrays([getattr(self, name) for name in NODE_DTYPES],
                                      names=list(NODE_DTYPES)))


def subtree_sums(skeleton: TreeSkeleton, leaf_rows) -> np.ndarray:
    """Each node's sum of ``leaf_rows``, an array of one row per leaf, over
    the leaves under it: (nodes,) plus the shape of a row, row i for node i.
    Every child comes after its parent, so one pass from the last node back
    to the root sums each child before its parent. A node's training rows
    are ``subtree_sums(skeleton, tree.leaf_counts)``."""
    n = skeleton.feature.size
    # Node i is entry i, and leaf ~c entry c counted from the end.
    sums = [None] * n + list(leaf_rows[::-1])
    for i, lc, rc in zip(range(n - 1, -1, -1), skeleton.left[::-1].tolist(),
                         skeleton.right[::-1].tolist()):
        sums[i] = sums[lc] + sums[rc]
    return np.array(sums[:n], dtype=leaf_rows.dtype).reshape((n,) + leaf_rows.shape[1:])


class _Candidate:
    """A leaf-in-waiting: its samples, histogram, totals and best split."""

    __slots__ = ("samples", "hist", "totals", "depth", "best", "slot")

    def __init__(self, samples, hist, totals, depth, best, slot):
        self.samples = samples
        self.hist = hist
        self.totals = totals
        self.depth = depth
        self.best = best
        self.slot = slot  # the entry of grow_tree's children that will point to it


def grow_tree(dataset: Dataset, g_e, h_e, params: BoosterParams):
    """Grow the split structure best-first from the splitting gradients.

    Repeatedly splits the pending leaf with the largest gain until
    max_leaves, max_depth or the gain threshold stops it; ``params`` gives
    those limits and what find_best_split reads of it. Returns the
    skeleton and ``leaf_id``, the leaf of every training row, with leaves
    numbered in creation order.
    """
    m = dataset.m
    feature, threshold_bin, gain = [], [], []
    # children[0] points to the root; node i's children go to 2 * i + 1 and 2 * i + 2.
    children = [0]
    pending: dict[int, _Candidate] = {}
    heap: list[tuple[float, int]] = []
    counter = 0

    def may_split(depth, rows):
        """Whether a node made now could ever split: the leaf budget is not
        spent, it sits above max_depth and it holds rows for two leaves."""
        return (len(feature) + 1 < params.max_leaves and depth < params.max_depth
                and rows >= 2 * params.min_samples_leaf)

    def add_candidate(samples, hist, totals, depth, slot):
        """Queue a new leaf; ``hist`` is None for one that is never scanned."""
        nonlocal counter
        best = None if hist is None else find_best_split(hist, totals, params)
        pending[counter] = _Candidate(samples, hist, totals, depth, best, slot)
        if best is not None:
            heapq.heappush(heap, (-best.gain, counter))
        counter += 1

    samples = np.arange(m, dtype=np.int64)
    hist = build_histograms(samples, dataset, g_e, h_e) if may_split(0, m) else None
    add_candidate(samples, hist, (float(np.sum(g_e)), float(np.sum(h_e)), m), 0, 0)

    while len(feature) + 1 < params.max_leaves and heap:  # n nodes hold n + 1 leaves
        _, cid = heapq.heappop(heap)
        cand = pending.pop(cid)
        best = cand.best
        node_id = len(feature)
        feature.append(best.feature)
        threshold_bin.append(best.threshold_bin)
        gain.append(best.gain)
        children += [0, 0]
        children[cand.slot] = node_id

        # np.compress keeps the ascending order of the node's rows.
        left = dataset.binned[:, best.feature][cand.samples] <= best.threshold_bin
        sides = np.compress(left, cand.samples), np.compress(~left, cand.samples)
        depth = cand.depth + 1
        scan = [may_split(depth, len(rows)) for rows in sides]
        hists = [None, None]
        if any(scan):
            # Build the smaller child's histogram; derive its sibling's.
            small = int(len(sides[0]) > len(sides[1]))
            hists[small] = build_histograms(sides[small], dataset, g_e, h_e)
            hists[1 - small] = subtract_histograms(cand.hist, hists[small])
        for i, totals in enumerate((best.left_sums, best.right_sums)):
            add_candidate(sides[i], hists[i] if scan[i] else None, totals, depth,
                          2 * node_id + 1 + i)

    # Whatever is still pending becomes a leaf, in creation order.
    leaf_id = np.empty(m, dtype=np.intp)
    for leaf, cand in enumerate(pending.values()):
        leaf_id[cand.samples] = leaf
        children[cand.slot] = ~leaf
    skeleton = TreeSkeleton(feature, threshold_bin, children[1::2], children[2::2], gain,
                            n_leaves=len(pending))
    return skeleton, leaf_id


@dataclass(frozen=True, eq=False)
class MultiOutputTree:
    """Finished tree: shared structure plus per-task leaf values.

    ``leaf_values`` holds the shrunk Newton steps, one row of n per leaf,
    and ``leaf_counts`` the training rows of each leaf, both read-only;
    construction raises InvalidParameter unless each leaf of the skeleton
    has one row and one count, every value is finite and every count is at
    least 1, with a total that fits int64, so that every node's count
    (subtree_sums) does too (BoosterModel checks that each row holds one
    value per task). A tree holds no routing tables: compile_routes builds
    them, once per chunk of a model's trees when the model is made.
    """

    skeleton: TreeSkeleton
    leaf_values: np.ndarray  # (L, n)
    leaf_counts: np.ndarray  # (L,)

    def __post_init__(self):
        for name, dtype in (("leaf_values", np.float64), ("leaf_counts", np.int64)):
            object.__setattr__(self, name, read_only(getattr(self, name), dtype, name))
        leaves = (self.skeleton.n_leaves,)
        if self.leaf_values.shape[:1] != leaves or self.leaf_counts.shape != leaves:
            raise InvalidParameter(f"{leaves[0]} leaves need as many rows of values and counts")
        if not np.isfinite(self.leaf_values).all():
            raise InvalidParameter("leaf values must be finite")
        if self.leaf_counts.min() < 1 or sum(self.leaf_counts.tolist()) > np.iinfo(np.int64).max:
            raise InvalidParameter("leaf counts must be >= 1 and sum to at most 2**63 - 1")

    __reduce__ = rebuilt_by_init

    @property
    def nodes(self) -> list:
        return self.skeleton.nodes

    @property
    def n_leaves(self) -> int:
        return self.skeleton.n_leaves


def fit_leaf_values(skeleton: TreeSkeleton, leaf_id, g_u, h_u,
                    params: BoosterParams) -> MultiOutputTree:
    """Compute every leaf's per-task Newton step from the updating gradients.

    value[leaf, t] = -learning_rate * sum(g_u[t]) / (sum(h_u[t]) + lambda_reg),
    clamped to [-max_delta_step, max_delta_step], with the settings read off
    ``params``, where the sums run over the rows with ``leaf_id == leaf`` in
    ascending row order, like the histograms. A zero value is +0.0, so model
    files never hold -0.0.
    """
    counts = np.bincount(leaf_id, minlength=skeleton.n_leaves)
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        raise EmptyLeaf(f"leaf {empty[0]} received no samples")
    n = g_u.shape[1]
    sum_g = np.empty((counts.size, n), dtype=np.float64)
    sum_h = np.empty((counts.size, n), dtype=np.float64)
    for t in range(n):
        sum_g[:, t] = np.bincount(leaf_id, weights=g_u[:, t], minlength=counts.size)
        sum_h[:, t] = np.bincount(leaf_id, weights=h_u[:, t], minlength=counts.size)
    values = -params.learning_rate * sum_g / (sum_h + params.lambda_reg)
    np.clip(values, -params.max_delta_step, params.max_delta_step, out=values)
    values += 0.0
    return MultiOutputTree(skeleton=skeleton, leaf_values=values, leaf_counts=counts)


@dataclass(frozen=True)
class _WordKind:
    """Leaf-mask words of one width. (x * de_bruijn) >> shift differs for
    each of the width one-bit words x, so it maps a word's isolated lowest
    set bit to a slot; bit_of_slot[slot] is that bit's position. low[b],
    for b from 0 to width, is the word with bits 0 to b - 1 set."""

    dtype: type
    de_bruijn: np.unsignedinteger
    shift: np.unsignedinteger
    bit_of_slot: np.ndarray
    low: np.ndarray

    @classmethod
    def make(cls, dtype, de_bruijn: int) -> _WordKind:
        width = np.dtype(dtype).itemsize * 8
        shift = width - width.bit_length() + 1
        bit_of_slot = np.empty(width, dtype=np.intp)
        slots = [((de_bruijn << p) & ((1 << width) - 1)) >> shift for p in range(width)]
        bit_of_slot[slots] = np.arange(width)
        low = np.array([(1 << b) - 1 for b in range(width + 1)], dtype=dtype)
        return cls(dtype, dtype(de_bruijn), dtype(shift), bit_of_slot, low)


_WORD_KINDS = {
    8: _WordKind.make(np.uint8, 0x1D),
    16: _WordKind.make(np.uint16, 0x0F2D),
    32: _WordKind.make(np.uint32, 0x077CB531),
    64: _WordKind.make(np.uint64, 0x03F79D71B4CB0A89),
}


def leaf_words(n_leaves: int) -> tuple[int, int]:
    """The width and count of the words that hold a leaf mask of
    ``n_leaves`` leaves: one word of the narrowest width that holds them, or
    as many 64-bit words as they need."""
    width = next(w for w in _WORD_KINDS if n_leaves <= w or w == 64)
    return width, -(-n_leaves // width)


@dataclass(frozen=True, eq=False)
class RouteTables:
    """The routing tables of a run of trees, side by side in words of one kind.

    Every tree's leaf mask is ``n_words`` words of ``width`` bits, and word
    w of tree j is column ``j * n_words + w``. ``tables`` lists (feature,
    table) for every feature any of the trees splits on, in ascending
    feature order; row b of a table holds every tree's words for bin b of
    that feature, and the table has a row per bin up to one past the top
    threshold of the feature's nodes. Tree j's exit slots take the positions
    from ``start[j]`` on, and ``values[p]`` holds the per-task values of the
    leaf at position p (a position no leaf takes holds its tree's leaf 0).
    Every array is read-only, and ``values`` is C-contiguous.
    """

    width: int
    n_words: int
    tables: tuple[tuple[int, np.ndarray], ...]
    start: np.ndarray
    values: np.ndarray  # (slots, n)


def compile_routes(trees) -> RouteTables:
    """Fold the nodes of one or more trees into the tables route_binned
    routes through, in the words of the widest tree (leaf_words), and lay
    their leaf values out by slot position.

    QuickScorer's exit rule (Lucchese et al., SIGIR 2015): number a tree's
    leaves left to right and start every row with all of them set. Each node
    whose test sends the row right clears the leaves of its left subtree,
    and the row's leaf is then its lowest set bit. The bits past a tree's
    own leaves are never cleared and lie above its leaf, so wider words than
    it needs route it alike. One feature's nodes fold into a table over its
    bins whose entry b is the AND of the clear masks of the nodes with
    ``threshold_bin < b``: each mask is AND-ed into entry
    ``threshold_bin + 1``, then the entries down the bins. A tree that does
    not split on the feature keeps all-ones columns. Bins above the table,
    the missing bin included, clip to the last entry, where every node of
    that feature sends the row right (V-QuickScorer's layout, Lucchese et
    al., SIGIR 2016). The nodes of each tree form one tree with each child
    after its parent, as TreeSkeleton checks however a tree is made, so
    subtree_sums counts the leaves under each node.
    """
    width, n_words = map(max, zip(*(leaf_words(tree.n_leaves) for tree in trees)))
    kind = _WORD_KINDS[width]
    slots = n_words * width
    leaf_at = [0] * (len(trees) * slots)
    # Each node's clear mask clears the span of leaves under its left child,
    # from position start on.
    starts, spans = [], []
    for j, tree in enumerate(trees):
        left, right = tree.skeleton.left.tolist(), tree.skeleton.right.tolist()
        under = subtree_sums(tree.skeleton, np.ones(tree.n_leaves, dtype=np.intp)).tolist()
        # In-order leaf positions: node i's leaves start at at[i].
        at = [0] * len(left)
        for i, (lc, rc) in enumerate(zip(left, right)):
            start = at[i]
            span = under[lc] if lc >= 0 else 1
            if lc >= 0:
                at[lc] = start
            else:
                leaf_at[j * slots + start] = ~lc
            if rc >= 0:
                at[rc] = start + span
            else:
                leaf_at[j * slots + start + span] = ~rc
            spans.append(span)
        starts += at
    # Word w of a mask clears the span's bits from lo = start - width * w up
    # to hi = lo + span, those of them that fall in the word.
    lo = np.array(starts, dtype=np.intp)[:, None] - width * np.arange(n_words)
    hi = lo + np.array(spans, dtype=np.intp)[:, None]
    masks = ~(kind.low[hi.clip(0, width)] ^ kind.low[lo.clip(0, width)])

    feature = np.concatenate([tree.skeleton.feature for tree in trees])
    row = np.concatenate([tree.skeleton.threshold_bin for tree in trees]) + 1
    column = np.repeat(np.arange(len(trees)) * n_words,
                       [tree.skeleton.feature.size for tree in trees])
    # Used feature u's table is rows ends[u] - sizes[u] to ends[u] of entries.
    used, which = np.unique(feature, return_inverse=True)
    sizes = np.zeros(used.size, dtype=np.intp)
    np.maximum.at(sizes, which, row + 1)
    ends = np.cumsum(sizes)
    entries = np.full((int(sizes.sum()), len(trees) * n_words), kind.low[width],
                      dtype=kind.dtype)
    np.bitwise_and.at(entries, ((ends - sizes)[which, None] + row[:, None],
                                column[:, None] + np.arange(n_words)), masks)
    tables = tuple(zip(used.tolist(), np.split(entries, ends[:-1])))
    for _, table in tables:
        np.bitwise_and.accumulate(table, axis=0, out=table)
        table.flags.writeable = False
    # Positions are counted in the words' own dtype where they fit (8-bit
    # words in 16 bits), in a wider one where they do not.
    n_slots = len(trees) * slots
    start = read_only(np.arange(0, n_slots, slots, dtype=np.result_type(
        kind.dtype, np.uint16, np.min_scalar_type(n_slots))))
    # Word w's slots map through their bit positions to leaves, numbered in
    # the trees' concatenated leaves, whose values they take.
    leaf = np.array(leaf_at, dtype=np.intp).reshape(-1, n_words, width)
    leaf = leaf[:, :, kind.bit_of_slot].ravel()
    leaf += np.repeat(np.cumsum([0] + [tree.n_leaves for tree in trees[:-1]]), slots)
    values = np.concatenate([tree.leaf_values for tree in trees])[leaf]
    return RouteTables(width=width, n_words=n_words, tables=tables, start=start,
                       values=read_only(values))


def route_buffers(cells: int) -> tuple[np.ndarray, np.ndarray]:
    """Scratch for route_binned on up to ``cells`` rows times word columns:
    two rows of 64-bit words and two rows of positions."""
    return np.empty((2, cells), dtype=np.uint64), np.empty((2, cells), dtype=np.intp)


def route_binned(routes: RouteTables, binned, buffers=None) -> np.ndarray:
    """Route each binned row through every tree of ``routes``: a (trees,
    rows) array of the slot position of the leaf each row reaches in each
    tree, whose values are ``routes.values`` at that position. That leaf is
    the one the walk from the root reaches.

    A row's leaf masks are the AND of one table row per used feature, one
    gather for all trees, and each tree's leaf is the lowest set bit of its
    mask (see compile_routes). ``buffers`` (from route_buffers, with at
    least rows times word columns cells) lets a caller route many blocks
    through one set of arrays; the result is then a view of them, valid
    until the next call.
    """
    k = binned.shape[0]
    n_trees, n_words = routes.start.size, routes.n_words
    cells = k * n_trees * n_words
    words, index = buffers if buffers is not None else route_buffers(cells)
    kind = _WORD_KINDS[routes.width]
    spare = words[1]
    words, got = (row[:cells].reshape(k, n_trees * n_words) for row in words.view(kind.dtype))
    if not routes.tables:  # stumps only: every mask is all ones, leaf 0
        words.fill(1)
    for i, (f, table) in enumerate(routes.tables):
        table.take(binned[:, f], axis=0, mode="clip", out=got if i else words)
        if i:
            words &= got

    # The row's leaf is the lowest set bit of its lowest nonzero word; for
    # several words, offset holds the 64 * w position of that word.
    low = words
    if n_words > 1:
        words = words.reshape(k, n_trees, n_words)
        low = words[:, :, -1]
        offset = index[1, :k * n_trees].view(np.uint64).reshape(k, n_trees)
        offset.fill(64 * (n_words - 1))
        for w in range(n_words - 2, -1, -1):
            nonzero = words[:, :, w] != 0
            np.copyto(low, words[:, :, w], where=nonzero)
            np.copyto(offset, 64 * w, where=nonzero)
    neg = got[:, :n_trees]
    np.negative(low, out=neg)  # two's complement: ~low + 1
    low &= neg
    low *= kind.de_bruijn
    low >>= kind.shift
    slot = spare.view(routes.start.dtype)[:k * n_trees].reshape(k, n_trees)
    np.add(low, routes.start, out=slot)
    if n_words > 1:
        slot += offset
    pos = index[0, :k * n_trees].reshape(n_trees, k)
    np.copyto(pos, slot.T)
    return pos
