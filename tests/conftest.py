import numpy as np
import pytest
from hypothesis import settings

from mtboost.data import BinMapper, Dataset
from mtboost.tree import TreeSkeleton

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


def make_binned_dataset(binned, labels=None, finite_bins=None, max_bins=255):
    """Wrap an integer bin matrix in a Dataset without going through CSVs.

    ``finite_bins[f]`` defaults to max bin + 1 per feature; the implied
    boundaries are 0, 1, ..., so bin semantics stay right-closed integers.
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
    return TreeSkeleton([], [], [], [], [], [], n_leaves=1)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
