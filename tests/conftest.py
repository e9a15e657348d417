import numpy as np
import pytest
from hypothesis import settings

from mtboost.data import BinMapper, Dataset
from mtboost.tree import MultiOutputTree, TreeSkeleton

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


def make_binned_dataset(binned, labels=None, finite_bins=None, max_bins=None):
    """Wrap an integer bin matrix in a Dataset without going through CSVs.

    ``finite_bins[f]`` defaults to max bin + 1 per feature; the implied
    boundaries are 0, 1, ..., so bin semantics stay right-closed integers.
    ``max_bins`` defaults to 255, or to the most finite bins of any feature
    when that is more.
    """
    binned = np.asarray(binned)
    m, d = binned.shape
    if finite_bins is None:
        finite_bins = binned.max(axis=0).astype(np.int64) + 1
    if labels is None:
        labels = np.zeros((m, 1))
    boundaries = tuple(
        np.arange(int(nb) - 1, dtype=np.float64) for nb in finite_bins
    )
    if max_bins is None:
        max_bins = max([255, *map(int, finite_bins)])
    mapper = BinMapper(boundaries=boundaries, max_bins=max_bins)
    return Dataset(
        binned=np.asfortranarray(binned, dtype=np.uint32),
        labels=np.asarray(labels, dtype=np.float64),
        mapper=mapper,
        feature_names=tuple(f"f{j}" for j in range(d)),
        task_names=tuple(f"t{j}" for j in range(labels.shape[1])),
    )


def nodeless_skeleton():
    """The structure of a tree without nodes: its one leaf takes every row."""
    return TreeSkeleton([], [], [], [], [], n_leaves=1)


def leaf_id_tree(skeleton, first=0):
    """A one-task tree whose leaf values are its leaf ids plus ``first``, so
    the values a row gathers name the leaf it reaches."""
    ids = first + np.arange(skeleton.n_leaves, dtype=np.float64)
    return MultiOutputTree(skeleton, ids[:, None], np.ones(skeleton.n_leaves, dtype=np.int64))


def random_skeleton(rng, n_leaves, finite_bins):
    """A valid tree over n_leaves leaves, split one random leaf at a time as
    grow_tree splits them (each child after its parent, leaves numbered in
    creation order), on random features and thresholds the mapper allows."""
    feature, threshold_bin, children, pending = [], [], [], [None]
    while len(pending) < n_leaves:
        slot = pending.pop(int(rng.integers(len(pending))))
        f = int(rng.integers(len(finite_bins)))
        feature.append(f)
        threshold_bin.append(int(rng.integers(finite_bins[f] - 1)))
        children += [0, 0]
        if slot is not None:
            children[slot] = len(feature) - 1
        pending += [len(children) - 2, len(children) - 1]
    for leaf, slot in enumerate(pending):
        if slot is not None:
            children[slot] = ~leaf
    n = len(feature)
    return TreeSkeleton(feature, threshold_bin, children[0::2], children[1::2],
                        [0.0] * n, n_leaves=n_leaves)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
