import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtboost.booster import BoosterParams
from mtboost.errors import EmptyLeaf
from mtboost.tree import (
    TreeSkeleton,
    build_histograms,
    compile_routes,
    find_best_split,
    fit_leaf_values,
    grow_tree,
    route_binned,
    subtract_histograms,
    subtree_sums,
)

from conftest import leaf_id_tree, make_binned_dataset, nodeless_skeleton, random_skeleton
from oracles import (
    engine_tree_structure,
    enumerate_best_split,
    leaf_values_oracle,
    node_rows_oracle,
    ref_grow_tree,
    ref_tree_structure,
    route_binned_oracle,
    split_gain,
)


def loose_params(**kw):
    defaults = dict(
        max_leaves=31,
        max_depth=8,
        min_samples_leaf=1,
        min_hess_leaf=0.0,
        min_gain_to_split=0.0,
        lambda_reg=0.0,
        gamma_reg=0.0,
    )
    defaults.update(kw)
    return BoosterParams(objectives=("regression_l2",), **defaults)


def route_one(skeleton, binned):
    """Each row's leaf through route_binned, with the tree compiled alone."""
    routes = compile_routes([leaf_id_tree(skeleton)])
    return routes.values[route_binned(routes, binned)[0], 0].astype(np.intp)


def capture_subtractions(monkeypatch):
    """Record (parent, built, derived) for every sibling histogram the grower
    derives, by wrapping ``mtboost.tree.subtract_histograms``."""
    captures = []

    def recording(parent, built):
        derived = subtract_histograms(parent, built)
        captures.append((parent, built, derived))
        return derived

    monkeypatch.setattr("mtboost.tree.subtract_histograms", recording)
    return captures


def dead_split_reasons(skeleton, leaf_id, params):
    """Why neither child of each node, in creation order, can ever split:
    the ones of "budget" (the split made the last leaf max_leaves allows),
    "depth" (its children sit at max_depth) and "rows" (both children hold
    fewer than 2 * min_samples_leaf rows) that hold, none when one can."""
    leaf_rows = np.bincount(leaf_id)
    node_rows = subtree_sums(skeleton, leaf_rows)
    depth = [0] * len(skeleton.feature)
    reasons = []
    for i, children in enumerate(zip(skeleton.left, skeleton.right)):
        rows = [node_rows[c] if c >= 0 else leaf_rows[~c] for c in children]
        for c in children:
            if c >= 0:
                depth[c] = depth[i] + 1
        reasons.append({reason for reason, holds in (
            ("budget", i + 2 >= params.max_leaves),
            ("depth", depth[i] + 1 >= params.max_depth),
            ("rows", max(rows) < 2 * params.min_samples_leaf)) if holds})
    return reasons


class TestBuildHistograms:
    def test_single_sample(self):
        ds = make_binned_dataset([[2], [0], [1]], finite_bins=[4])
        g = np.array([1.5, -2.0, 0.5])
        h = np.array([1.0, 1.0, 1.0])
        hist = build_histograms([0], ds, g, h)
        assert hist.sums[0, 0, 2] == 1.5
        assert hist.sums[2, 0, 2] == 1
        assert hist.sums[2, 0].sum() == 1

    def test_same_bin_accumulates(self):
        ds = make_binned_dataset([[1], [1]], finite_bins=[3])
        hist = build_histograms([0, 1], ds, np.array([1.0, 2.0]), np.array([0.5, 0.25]))
        assert hist.sums[0, 0, 1] == 3.0
        assert hist.sums[1, 0, 1] == 0.75
        assert hist.sums[2, 0, 1] == 2

    def test_totals_match_direct_sums(self, rng):
        binned = rng.integers(0, 6, size=(100, 3))
        ds = make_binned_dataset(binned, finite_bins=[6, 6, 6])
        g = rng.normal(size=100)
        h = rng.uniform(0.5, 2.0, size=100)
        node = np.sort(rng.choice(100, size=60, replace=False))
        hist = build_histograms(node, ds, g, h)
        for f in range(3):
            np.testing.assert_allclose(hist.sums[0, f].sum(), g[node].sum(), rtol=1e-9)
            np.testing.assert_allclose(hist.sums[1, f].sum(), h[node].sum(), rtol=1e-9)
            assert hist.sums[2, f].sum() == 60

    @pytest.mark.parametrize("finite, dtype", [([300, 3, 1], np.uint32), ([7, 2, 1], np.uint8)])
    def test_equals_bincount_per_feature(self, rng, finite, dtype):
        # Every feature has rows in its missing bin (index finite[f]), and
        # 300 finite bins take the uint32 layout empty_binned picks for them.
        m = 400
        binned = np.column_stack([rng.integers(0, nb + 1, size=m) for nb in finite])
        ds = make_binned_dataset(binned, finite_bins=finite)
        assert ds.mapper.empty_binned(1).dtype == dtype
        ds = replace(ds, binned=np.asfortranarray(binned, dtype=dtype))
        g = rng.normal(size=m)
        h = rng.uniform(0.5, 2.0, size=m)
        node = np.flatnonzero(rng.random(m) < 0.6)
        hist = build_histograms(node, ds, g, h)
        width = max(finite) + 1
        assert hist.sums.shape == (3, 3, width) and hist.sums.dtype == np.float64
        assert hist.splittable is ds.mapper.splittable
        for f in range(3):
            bins = binned[node, f]
            for i, weights in enumerate((g[node], h[node], None)):
                want = np.bincount(bins, weights=weights, minlength=width).astype(np.float64)
                assert np.array_equal(hist.sums[i, f], want)
        assert hist.sums[2, :, :].sum(axis=1).tolist() == [len(node)] * 3

    @pytest.mark.parametrize("finite, dtype", [([300, 3, 1], np.uint32), ([7, 2, 1], np.uint8)])
    def test_every_row_equals_the_gathered_path(self, rng, finite, dtype):
        # All m rows take the whole columns and the count row; the same rows
        # of a dataset with one more row go through the gather.
        m = 400
        binned = np.column_stack([rng.integers(0, nb + 1, size=m + 1) for nb in finite])
        ds = make_binned_dataset(binned, finite_bins=finite)
        ds = replace(ds, binned=np.asfortranarray(binned, dtype=dtype))
        assert ds.binned.dtype == ds.mapper.empty_binned(1).dtype == dtype
        every = replace(ds, binned=ds.binned[:m], labels=ds.labels[:m])
        g = rng.normal(size=m + 1)
        h = rng.uniform(0.5, 2.0, size=m + 1)
        rows = np.arange(m)
        whole = build_histograms(rows, every, g[:m], h[:m])
        gathered = build_histograms(rows, ds, g, h)
        assert whole.sums.tobytes() == gathered.sums.tobytes()
        assert np.array_equal(whole.sums[2], every.rows_per_bin)

    def test_splittable_marks_every_boundary_but_the_last_finite_bin(self):
        mapper = make_binned_dataset([[0, 0]], finite_bins=[4, 1]).mapper
        assert mapper.n_bins_max == 5
        assert mapper.splittable.tolist() == [[True, True, True, False, False],
                                              [False] * 5]
        assert not mapper.splittable.flags.writeable
        assert not mapper.finite_bin_counts.flags.writeable


class TestSplitGain:
    def test_symmetric_cancellation(self):
        assert split_gain(4.0, 2.0, -4.0, 2.0, 0.0, 0.0) == 8.0

    def test_no_information_split(self):
        assert split_gain(1.5, 2.0, 1.5, 2.0, 0.0, 0.3) == pytest.approx(-0.3)

    def test_hand_arithmetic(self):
        # 0.5 * (9/2 + 1/2 - 16/3) = -1/6
        assert split_gain(3.0, 1.0, 1.0, 1.0, 1.0, 0.0) == pytest.approx(-1 / 6)


class TestFindBestSplit:
    def test_single_bin_features_give_none(self):
        ds = make_binned_dataset([[0], [0], [0]], finite_bins=[1])
        g = np.array([1.0, -1.0, 0.5])
        h = np.ones(3)
        hist = build_histograms(np.arange(3), ds, g, h)
        totals = (float(g.sum()), 3.0, 3)
        assert find_best_split(hist, totals, loose_params()) is None

    def test_step_pattern(self):
        ds = make_binned_dataset([[0], [1], [2], [3]], finite_bins=[4])
        g = np.array([-1.0, -1.0, 1.0, 1.0])
        h = np.ones(4)
        hist = build_histograms(np.arange(4), ds, g, h)
        split = find_best_split(hist, (0.0, 4.0, 4), loose_params())
        assert split.feature == 0
        assert split.threshold_bin == 1
        assert split.gain == pytest.approx(2.0)
        assert split.left_sums == (-2.0, 2.0, 2)
        assert split.right_sums == (2.0, 2.0, 2)

    def test_tie_prefers_lower_feature(self, rng):
        col = rng.integers(0, 4, size=30)
        binned = np.column_stack([col, col])
        ds = make_binned_dataset(binned, finite_bins=[4, 4])
        g = rng.normal(size=30)
        h = np.ones(30)
        hist = build_histograms(np.arange(30), ds, g, h)
        split = find_best_split(hist, (float(g.sum()), 30.0, 30), loose_params())
        assert split.feature == 0

    def test_gain_matches_split_gain_on_sums(self, rng):
        binned = rng.integers(0, 8, size=(60, 2))
        ds = make_binned_dataset(binned, finite_bins=[8, 8])
        g = rng.normal(size=60)
        h = rng.uniform(0.5, 1.5, size=60)
        hist = build_histograms(np.arange(60), ds, g, h)
        params = loose_params(lambda_reg=0.7, gamma_reg=0.05)
        split = find_best_split(hist, (float(g.sum()), float(h.sum()), 60), params)
        gl, hl, _ = split.left_sums
        gr, hr, _ = split.right_sums
        assert split.gain == split_gain(gl, hl, gr, hr, 0.7, 0.05)

    def test_matches_exhaustive_enumeration(self, rng):
        for trial in range(25):
            m = int(rng.integers(10, 120))
            d = int(rng.integers(1, 5))
            finite = [int(rng.integers(2, 12)) for _ in range(d)]
            binned = np.column_stack(
                [rng.integers(0, nb, size=m) for nb in finite]
            )
            ds = make_binned_dataset(binned, finite_bins=finite)
            g = rng.normal(size=m)
            h = rng.uniform(0.2, 2.0, size=m)
            params = loose_params(
                min_samples_leaf=int(rng.integers(1, 4)),
                lambda_reg=float(rng.choice([0.0, 0.5])),
            )
            hist = build_histograms(np.arange(m), ds, g, h)
            got = find_best_split(hist, (float(g.sum()), float(h.sum()), m), params)
            want = enumerate_best_split(
                binned, finite, g, h,
                lam=params.lambda_reg, gamma_reg=params.gamma_reg,
                min_samples_leaf=params.min_samples_leaf,
                min_hess_leaf=params.min_hess_leaf,
                min_gain=params.min_gain_to_split,
            )
            if want is None:
                assert got is None
            else:
                assert (got.feature, got.threshold_bin) == (want[0], want[1])

    def test_missing_bin_stays_right(self):
        # Feature has 3 finite bins; bin 3 marks missing.
        binned = np.array([[0], [1], [2], [3], [3]])
        ds = make_binned_dataset(binned, finite_bins=[3])
        g = np.array([-1.0, -1.0, 1.0, 5.0, 5.0])
        h = np.ones(5)
        hist = build_histograms(np.arange(5), ds, g, h)
        split = find_best_split(hist, (float(g.sum()), 5.0, 5), loose_params())
        # Whatever the boundary, missing samples are in the right sums.
        assert split.threshold_bin <= 1
        left_count = split.left_sums[2]
        assert left_count + split.right_sums[2] == 5
        assert split.right_sums[2] >= 2


    def test_matches_enumeration_wide(self, rng):
        # Realistic width: 20 features with 1 to 255 finite bins (so the
        # (d, B) scan pads most rows), missing-bin rows, and exact copies of
        # features so that ties must go to the lower feature index.
        m = 1500
        finite = [255, 1, 2, 40, 255, 7, 2, 128, 1, 255, 3, 64, 200, 5, 255, 16, 90, 2, 31, 255]
        binned = np.column_stack([rng.integers(0, nb, size=m) for nb in finite])
        for f in (1, 3, 6, 12, 17):
            binned[rng.random(m) < 0.1, f] = finite[f]  # missing bin
        for dup, src in ((9, 4), (14, 4), (19, 0)):
            binned[:, dup] = binned[:, src]
            finite[dup] = finite[src]
        ds = make_binned_dataset(binned, finite_bins=finite)
        signals = (
            binned[:, 4] > 100,  # a finite boundary of feature 4 (and its copies)
            binned[:, 12] == finite[12],  # missingness, which no boundary isolates
            np.zeros(m, dtype=bool),
        )
        for trial in range(3):
            g = rng.normal(size=m) + 2.0 * signals[trial]
            h = rng.uniform(0.2, 2.0, size=m)
            params = loose_params(
                min_samples_leaf=(1, 25, 200)[trial],
                min_hess_leaf=(0.0, 5.0, 50.0)[trial],
                lambda_reg=(0.0, 0.5, 2.0)[trial],
            )
            hist = build_histograms(np.arange(m), ds, g, h)
            got = find_best_split(hist, (float(g.sum()), float(h.sum()), m), params)
            want = enumerate_best_split(
                binned, finite, g, h,
                lam=params.lambda_reg, gamma_reg=params.gamma_reg,
                min_samples_leaf=params.min_samples_leaf,
                min_hess_leaf=params.min_hess_leaf,
                min_gain=params.min_gain_to_split,
            )
            assert (got.feature, got.threshold_bin) == (want[0], want[1])
            assert got.gain == pytest.approx(want[2], rel=1e-9)
            if trial == 0:
                assert got.feature == 4  # the planted feature, not its copies

    def test_nan_gain_never_wins(self):
        # Zero hessians with lambda 0: the boundary after bin 0 has
        # G_L = H_L = 0, so its gain is 0/0 = NaN; the boundary after bin 1
        # has the finite gain 0.5 * (4/1 + 4/1 - 0/2) = 4.
        ds = make_binned_dataset([[0], [1], [2]], finite_bins=[3])
        g = np.array([0.0, -2.0, 2.0])
        h = np.array([0.0, 1.0, 1.0])
        params = loose_params(lambda_reg=0.0, min_hess_leaf=0.0)
        hist = build_histograms(np.arange(3), ds, g, h)
        split = find_best_split(hist, (0.0, 2.0, 3), params)
        assert (split.feature, split.threshold_bin) == (0, 1)
        assert split.gain == 4.0 and math.isfinite(split.gain)
        # A node whose only boundary has a NaN gain has no split at all.
        only_nan = build_histograms(np.arange(2), ds, g, h)
        assert find_best_split(only_nan, (-2.0, 1.0, 2), params) is None
        # G_L = 1e200 after bin 0 squares to infinity; that gain is ignored
        # without a warning, and the boundary after bin 1 wins with
        # 0.5 * (0/2 + 4/1 - 4/3) = 4/3.
        g = np.array([1e200, -1e200, 2.0])
        h = np.ones(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            split = find_best_split(build_histograms(np.arange(3), ds, g, h), (2.0, 3.0, 3),
                                    params)
            assert (split.feature, split.threshold_bin) == (0, 1)
            assert split.gain == 0.5 * (4.0 - 4.0 / 3.0)
            only_overflow = build_histograms(np.arange(2), ds, g, h)
            assert find_best_split(only_overflow, (0.0, 2.0, 2), params) is None


class TestGrowTree:
    def test_stump(self, rng):
        ds = make_binned_dataset(rng.integers(0, 4, size=(20, 2)))
        g = rng.normal(size=20)
        skeleton, leaf_id = grow_tree(ds, g, np.ones(20), loose_params(max_leaves=1))
        assert skeleton.n_leaves == 1
        assert not skeleton.nodes
        assert np.array_equal(leaf_id, np.zeros(20))

    def test_two_leaves_equal_root_split(self, rng):
        binned = rng.integers(0, 5, size=(40, 2))
        ds = make_binned_dataset(binned)
        g = rng.normal(size=40)
        h = np.ones(40)
        params = loose_params(max_leaves=2)
        hist = build_histograms(np.arange(40), ds, g, h)
        root_split = find_best_split(hist, (float(g.sum()), 40.0, 40), params)
        skeleton, leaf_id = grow_tree(ds, g, h, params)
        assert len(skeleton.nodes) == 1
        node = skeleton.nodes[0]
        assert (node.feature, node.threshold_bin) == (
            root_split.feature, root_split.threshold_bin,
        )
        assert skeleton.n_leaves == 2
        assert set(leaf_id) == {0, 1}

    def test_matches_reference_grower_xor(self, rng):
        # XOR-like gradient pattern over two features.
        binned = rng.integers(0, 4, size=(200, 2))
        quadrant = (binned[:, 0] >= 2) ^ (binned[:, 1] >= 2)
        g = np.where(quadrant, 1.0, -1.0) + rng.normal(scale=0.05, size=200)
        h = np.ones(200)
        ds = make_binned_dataset(binned, finite_bins=[4, 4])
        params = loose_params(max_leaves=4, min_samples_leaf=5)
        skeleton, _ = grow_tree(ds, g, h, params)
        ref_root, _ = ref_grow_tree(
            binned, [4, 4], g, h,
            dict(
                max_leaves=4, max_depth=8, min_samples_leaf=5, min_hess_leaf=0.0,
                min_gain=0.0, lam=0.0, gamma_reg=0.0,
            ),
        )
        assert engine_tree_structure(skeleton.nodes) == ref_tree_structure(ref_root)

    def test_matches_reference_grower_random(self, rng):
        for _ in range(8):
            m = int(rng.integers(30, 150))
            d = int(rng.integers(1, 4))
            finite = [int(rng.integers(2, 9)) for _ in range(d)]
            binned = np.column_stack([rng.integers(0, nb, size=m) for nb in finite])
            g = rng.normal(size=m)
            h = rng.uniform(0.5, 1.5, size=m)
            ds = make_binned_dataset(binned, finite_bins=finite)
            params = loose_params(max_leaves=6, max_depth=4, min_samples_leaf=3)
            skeleton, _ = grow_tree(ds, g, h, params)
            ref_root, _ = ref_grow_tree(
                binned, finite, g, h,
                dict(
                    max_leaves=6, max_depth=4, min_samples_leaf=3,
                    min_hess_leaf=0.0, min_gain=0.0, lam=0.0, gamma_reg=0.0,
                ),
            )
            assert engine_tree_structure(skeleton.nodes) == ref_tree_structure(ref_root)

    def test_routing_partition(self, rng):
        binned = rng.integers(0, 6, size=(120, 3))
        ds = make_binned_dataset(binned)
        g = rng.normal(size=120)
        skeleton, leaf_id = grow_tree(ds, g, np.ones(120), loose_params(max_leaves=8))
        assert leaf_id.shape == (120,)
        assert np.array_equal(np.unique(leaf_id), np.arange(skeleton.n_leaves))
        assert np.array_equal(route_one(skeleton, binned), leaf_id)

    def test_max_depth_respected(self, rng):
        binned = rng.integers(0, 16, size=(400, 2))
        ds = make_binned_dataset(binned)
        g = rng.normal(size=400)
        skeleton, leaf_id = grow_tree(
            ds, g, np.ones(400), loose_params(max_leaves=100, max_depth=3)
        )
        assert skeleton.n_leaves <= 8
        assert leaf_id.max() == skeleton.n_leaves - 1

    def test_gain_scaling_argmax_invariance(self, rng):
        binned = rng.integers(0, 8, size=(100, 3))
        ds = make_binned_dataset(binned)
        g = rng.normal(size=100)
        h = rng.uniform(0.5, 2.0, size=100)
        params = loose_params()
        hist = build_histograms(np.arange(100), ds, g, h)
        base = find_best_split(hist, (float(g.sum()), float(h.sum()), 100), params)
        for c in (2.0, 0.5, 7.0, 0.001):
            hist_c = build_histograms(np.arange(100), ds, c * g, c * c * h)
            totals_c = (float((c * g).sum()), float((c * c * h).sum()), 100)
            scaled = find_best_split(hist_c, totals_c, params)
            assert (scaled.feature, scaled.threshold_bin) == (
                base.feature, base.threshold_bin,
            )

    def test_histogram_subtraction_exact(self, rng, monkeypatch):
        binned = rng.integers(0, 6, size=(80, 2))
        ds = make_binned_dataset(binned)
        g = rng.normal(size=80)
        h = rng.uniform(0.5, 1.5, size=80)
        captures = capture_subtractions(monkeypatch)
        grow_tree(ds, g, h, loose_params(max_leaves=5, min_samples_leaf=4))
        assert captures
        for parent, left, right in captures:
            recomputed = subtract_histograms(parent, left)
            assert np.array_equal(recomputed.sums, right.sums)

    def test_smaller_child_built_larger_derived(self, rng, monkeypatch):
        # Skewed bins make the smaller child the left one at some splits and
        # the right one at others.
        binned = np.column_stack([
            rng.choice(8, size=300, p=[0.4, 0.2, 0.1, 0.1, 0.05, 0.05, 0.05, 0.05]),
            rng.choice(8, size=300, p=[0.05, 0.05, 0.05, 0.05, 0.1, 0.1, 0.2, 0.4]),
            rng.integers(0, 8, size=300),
        ])
        ds = make_binned_dataset(binned, finite_bins=[8, 8, 8])
        g = rng.normal(size=300) + np.where(binned[:, 0] == 0, 1.0, 0.0)
        h = rng.uniform(0.5, 1.5, size=300)
        captures = capture_subtractions(monkeypatch)
        params = loose_params(max_leaves=12, min_samples_leaf=3)
        skeleton, leaf_id = grow_tree(ds, g, h, params)
        live = [i for i, dead in enumerate(dead_split_reasons(skeleton, leaf_id, params))
                if not dead]
        assert len(captures) == len(live) < len(skeleton.feature)
        node_rows = subtree_sums(skeleton, np.bincount(leaf_id))
        sides = set()
        for i, (parent, built, derived) in zip(live, captures):
            assert np.array_equal(derived.sums, parent.sums - built.sums)
            assert parent.sums[2, 0].sum() == node_rows[i]
            n_built = int(built.sums[2, 0].sum())
            assert n_built <= int(derived.sums[2, 0].sum())
            f, b = skeleton.feature[i], skeleton.threshold_bin[i]
            n_left = int(built.sums[2, f, : b + 1].sum())
            sides.add("left" if n_left == n_built else "right")
        assert sides == {"left", "right"}

    def test_no_histogram_for_a_split_whose_children_never_split(self, rng, monkeypatch):
        # A split gets no histogram when it spends the last leaf, when its
        # children sit at max_depth, or when both hold fewer than
        # 2 * min_samples_leaf rows; its tree still equals the reference's.
        built = []

        def counting(sample_indices, *args):
            built.append(len(sample_indices))
            return build_histograms(sample_indices, *args)

        captures = capture_subtractions(monkeypatch)
        monkeypatch.setattr("mtboost.tree.build_histograms", counting)
        seen = set()
        for max_leaves, max_depth, min_samples_leaf in ((9, 3, 5), (20, 6, 8), (2, 8, 1),
                                                        (1, 8, 1), (30, 8, 100)):
            m = 240
            finite = [8, 6, 5]
            binned = np.column_stack([rng.integers(0, nb + 1, size=m) for nb in finite])
            ds = make_binned_dataset(binned, finite_bins=finite)
            g = rng.normal(size=m) + 0.8 * (binned[:, 0] < 3) - 0.5 * (binned[:, 1] > 2)
            h = rng.uniform(0.5, 1.5, size=m)
            params = loose_params(max_leaves=max_leaves, max_depth=max_depth,
                                  min_samples_leaf=min_samples_leaf)
            del built[:], captures[:]
            skeleton, leaf_id = grow_tree(ds, g, h, params)
            dead = dead_split_reasons(skeleton, leaf_id, params)
            seen.update(*dead)
            live = [i for i, reasons in enumerate(dead) if not reasons]
            node_rows = subtree_sums(skeleton, np.bincount(leaf_id))
            assert [int(p.sums[2, 0].sum()) for p, _, _ in captures] == [
                node_rows[i] for i in live]
            root_scanned = max_leaves > 1 and m >= 2 * min_samples_leaf
            assert len(built) == root_scanned + len(live)

            ref_root, ref_leaves = ref_grow_tree(binned, finite, g, h, dict(
                max_leaves=max_leaves, max_depth=max_depth, min_samples_leaf=min_samples_leaf,
                min_hess_leaf=0.0, min_gain=0.0, lam=0.0, gamma_reg=0.0))
            assert engine_tree_structure(skeleton.nodes) == ref_tree_structure(ref_root)
            ref_leaf_id = np.empty(m, dtype=np.intp)
            for leaf, node in enumerate(ref_leaves):
                ref_leaf_id[node.samples] = leaf
            assert np.array_equal(leaf_id, ref_leaf_id)
        assert seen == {"budget", "depth", "rows"}


class TestFitLeafValues:
    def _grow(self, rng, n_tasks=1, m=60):
        binned = rng.integers(0, 5, size=(m, 2))
        ds = make_binned_dataset(binned)
        g_e = rng.normal(size=m)
        skeleton, leaf_id = grow_tree(
            ds, g_e, np.ones(m), loose_params(max_leaves=4, min_samples_leaf=5)
        )
        return skeleton, leaf_id

    def test_newton_formula(self):
        skeleton = nodeless_skeleton()
        g = np.array([[2.0]])
        h = np.array([[1.0]])
        tree = fit_leaf_values(skeleton, np.array([0]), g, h,
                               loose_params(lambda_reg=1.0, learning_rate=0.1))
        assert tree.leaf_values[0, 0] == pytest.approx(-0.1 * 2.0 / 2.0)

    def test_zero_gradients_zero_values(self, rng):
        skeleton, leaf_id = self._grow(rng)
        m = len(leaf_id)
        tree = fit_leaf_values(skeleton, leaf_id, np.zeros((m, 2)), np.ones((m, 2)),
                               loose_params(lambda_reg=0.1, learning_rate=0.3))
        assert np.array_equal(tree.leaf_values, np.zeros_like(tree.leaf_values))

    def test_per_task_independence(self, rng):
        skeleton, leaf_id = self._grow(rng)
        m = len(leaf_id)
        g = rng.normal(size=(m, 2))
        h = rng.uniform(0.5, 1.5, size=(m, 2))
        params = loose_params(lambda_reg=0.5, learning_rate=0.2)
        both = fit_leaf_values(skeleton, leaf_id, g, h, params)
        for t in range(2):
            single = fit_leaf_values(skeleton, leaf_id, g[:, [t]], h[:, [t]], params)
            np.testing.assert_array_equal(both.leaf_values[:, t], single.leaf_values[:, 0])

    def test_matches_row_order_oracle(self, rng):
        # Gradients spanning 16 orders of magnitude, so a different summation
        # order (pairwise, or by leaf and then by task) would change the bits.
        skeleton, leaf_id = self._grow(rng, m=300)
        assert skeleton.n_leaves == 4
        for n_tasks in (1, 3):
            g = rng.normal(size=(300, n_tasks)) * 10.0 ** rng.integers(-8, 8, size=(300, n_tasks))
            h = rng.uniform(0.1, 3.0, size=(300, n_tasks))
            tree = fit_leaf_values(skeleton, leaf_id, g, h, loose_params(
                lambda_reg=0.3, learning_rate=0.1, max_delta_step=1e4))
            values, counts = leaf_values_oracle(
                leaf_id, skeleton.n_leaves, g, h, lam=0.3, lr=0.1, max_delta=1e4
            )
            assert np.array_equal(tree.leaf_values, values)
            assert np.array_equal(tree.leaf_counts, counts)
            assert np.abs(values).max() == 1e4  # the clamp was exercised

    def test_skipped_leaf_raises(self, rng):
        skeleton, leaf_id = self._grow(rng)
        assert skeleton.n_leaves > 2
        skipped = np.where(leaf_id == 1, 0, leaf_id)  # no row in leaf 1
        m = len(leaf_id)
        with pytest.raises(EmptyLeaf, match="leaf 1 "):
            fit_leaf_values(skeleton, skipped, np.ones((m, 2)), np.ones((m, 2)),
                            loose_params(lambda_reg=0.1, learning_rate=0.1))

    def test_empty_leaf_raises(self):
        skeleton = nodeless_skeleton()
        with pytest.raises(EmptyLeaf):
            fit_leaf_values(
                skeleton, np.array([], dtype=np.int64),
                np.zeros((0, 1)), np.zeros((0, 1)), loose_params(learning_rate=0.1),
            )


@st.composite
def routed_trees(draw, n_leaves, left_chain=False):
    """A valid tree over n_leaves leaves as a TreeSkeleton, and binned rows.

    Leaves are split one at a time, as grow_tree does, so every child comes
    after its parent and leaves are numbered in creation order; a left chain
    always splits the newest node's left leaf. Half the rows are aimed at a
    random leaf (their bins satisfy every test on its path, when it can be
    reached), the rest are uniform over every bin, missing bin included.
    """
    wide = draw(st.booleans())  # uint32 bins, more than uint8 can hold
    d = draw(st.integers(1, 4))
    finite = [draw(st.integers(2, 700 if wide else 255)) for _ in range(d)]
    # children[2 * i] and children[2 * i + 1] are node i's left and right.
    feature, threshold_bin, children, pending = [], [], [], [None]
    while len(pending) < n_leaves:
        pick = len(pending) - 2 if left_chain and feature else draw(
            st.integers(0, len(pending) - 1))
        slot = pending.pop(pick)
        f = draw(st.integers(0, d - 1))
        top = finite[f] - 2
        feature.append(f)
        threshold_bin.append(draw(st.sampled_from([0, top]) | st.integers(0, top)))
        children += [0, 0]
        if slot is not None:
            children[slot] = len(feature) - 1
        pending += [len(children) - 2, len(children) - 1]
    for leaf, slot in enumerate(pending):
        if slot is not None:
            children[slot] = ~leaf
    skeleton = TreeSkeleton(feature, threshold_bin, children[0::2], children[1::2],
                            [0.0] * len(feature), n_leaves)

    k = draw(st.sampled_from([0, 1, 2, 300]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    binned = np.column_stack([rng.integers(0, nb + 1, size=k) for nb in finite])
    binned[rng.random(k) < 0.1, 0] = finite[0]  # missing bin
    parent = {child: slot for slot, child in enumerate(children)}
    for row in range(0, k, 2):
        lo, hi = [0] * d, list(finite)
        child = ~int(rng.integers(n_leaves))
        while child in parent:
            i, went_right = divmod(parent[child], 2)
            f, threshold = feature[i], threshold_bin[i]
            if went_right:
                lo[f] = max(lo[f], threshold + 1)
            else:
                hi[f] = min(hi[f], threshold)
            child = i
        if all(a <= b for a, b in zip(lo, hi)):
            binned[row] = [rng.integers(a, b + 1) for a, b in zip(lo, hi)]
    dtype = np.uint32 if wide else np.uint8
    return skeleton, np.asfortranarray(binned, dtype=dtype)


class TestRouteBinned:
    @pytest.mark.parametrize("n_leaves", [1, 2, 8, 9, 16, 17, 32, 33, 63, 64, 65, 130])
    @settings(max_examples=25)
    @given(data=st.data())
    def test_matches_node_walk(self, n_leaves, data):
        # Up to 8, 16, 32 and 64 leaves take one word of that width; 65 and
        # 130 leaves take two and three 64-bit words.
        skeleton, binned = data.draw(routed_trees(n_leaves))
        got = route_one(skeleton, binned)
        assert got.dtype == np.int64 and got.shape == (binned.shape[0],)
        assert np.array_equal(got, route_binned_oracle(skeleton.nodes, binned))

    @settings(max_examples=25)
    @given(data=st.data())
    def test_left_chain_deeper_than_a_word(self, data):
        skeleton, binned = data.draw(routed_trees(130, left_chain=True))
        got = route_one(skeleton, binned)
        assert np.array_equal(got, route_binned_oracle(skeleton.nodes, binned))

    @settings(max_examples=50)
    @given(data=st.data())
    def test_any_size(self, data):
        skeleton, binned = data.draw(routed_trees(data.draw(st.integers(1, 140))))
        got = route_one(skeleton, binned)
        assert np.array_equal(got, route_binned_oracle(skeleton.nodes, binned))

    def test_every_leaf_of_a_long_chain(self):
        # One feature, thresholds 129, 128, ..., 1 down a left chain: bin b
        # goes left at node i while b <= 129 - i, so bins 1 to 130 each end
        # on a different leaf, across three words.
        n = 129
        i = np.arange(n)
        zeros = np.zeros(n, dtype=np.intp)
        skeleton = TreeSkeleton(zeros, n - i, np.append(i[1:], ~n), ~i, zeros,
                                n_leaves=n + 1)
        binned = np.arange(n + 3, dtype=np.uint8)[:, None]
        got = route_one(skeleton, binned)
        assert np.array_equal(got, route_binned_oracle(skeleton.nodes, binned))
        assert len(set(got.tolist())) == n + 1

    @pytest.mark.parametrize("low, high", [(1, 8), (9, 16), (17, 32), (33, 64), (65, 128),
                                           (1, 200)])
    @settings(max_examples=25)
    @given(data=st.data())
    def test_stacked_trees_match_node_walk(self, low, high, data):
        # Trees compiled together, of one word kind or (1 to 200 leaves) in
        # the words of the widest: each splits on its own features up to its
        # own top thresholds, so the tables hold all-ones columns and
        # repeated last entries.
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        finite = rng.integers(2, 40, size=int(rng.integers(1, 5)))
        skeletons = [random_skeleton(rng, int(rng.integers(low, high + 1)), finite)
                     for _ in range(data.draw(st.integers(1, 5)))]
        first = np.cumsum([0] + [s.n_leaves for s in skeletons])
        routes = compile_routes([leaf_id_tree(s, f) for s, f in zip(skeletons, first)])
        binned = np.column_stack([rng.integers(0, nb + 1, size=200) for nb in finite])
        got = routes.values[route_binned(routes, binned), 0]
        assert got.shape == (len(skeletons), 200)
        for j, skeleton in enumerate(skeletons):
            assert np.array_equal(got[j] - first[j], route_binned_oracle(skeleton.nodes, binned))

    def test_stacked_positions_past_the_words_dtype(self):
        # 4100 trees of 16 leaves have 65600 slot positions, more than the
        # 16-bit words' own dtype counts.
        rng = np.random.default_rng(5)
        finite = np.array([20, 30])
        skeletons = [random_skeleton(rng, 16, finite) for _ in range(4)] * 1025
        first = np.arange(len(skeletons)) * 16
        routes = compile_routes([leaf_id_tree(s, f) for s, f in zip(skeletons, first)])
        assert routes.start[-1] > np.iinfo(np.uint16).max
        binned = np.column_stack([rng.integers(0, nb + 1, size=50) for nb in finite])
        got = routes.values[route_binned(routes, binned), 0]
        for j in (0, 3, 4096, 4099):
            want = route_binned_oracle(skeletons[j].nodes, binned)
            assert np.array_equal(got[j] - first[j], want)


class TestSubtreeSums:
    @pytest.mark.parametrize("max_leaves, max_depth, min_samples_leaf", [
        (1, 8, 1), (2, 8, 1), (9, 3, 5), (31, 8, 1), (20, 6, 8)])
    def test_grown_node_rows_match_node_walk(self, rng, max_leaves, max_depth,
                                             min_samples_leaf):
        # A grown tree's node counts, summed up from its leaves' rows, are
        # the rows whose walk from the root passes through each node.
        m = 400
        finite = [8, 6, 5]
        binned = np.column_stack([rng.integers(0, nb + 1, size=m) for nb in finite])
        ds = make_binned_dataset(binned, finite_bins=finite)
        g = rng.normal(size=m) + 0.8 * (binned[:, 0] < 3) - 0.5 * (binned[:, 1] > 2)
        skeleton, leaf_id = grow_tree(ds, g, np.ones(m), loose_params(
            max_leaves=max_leaves, max_depth=max_depth, min_samples_leaf=min_samples_leaf))
        got = subtree_sums(skeleton, np.bincount(leaf_id, minlength=skeleton.n_leaves))
        assert got.shape == (skeleton.n_leaves - 1,)
        assert got.tolist() == node_rows_oracle(skeleton.nodes, binned)
        assert got[:1].tolist() == ([m] if max_leaves > 1 else [])

    @settings(max_examples=50)
    @given(data=st.data())
    def test_rows_of_any_width_match_node_walk(self, data):
        # Random trees and rows; leaf rows of one value and of two.
        skeleton, binned = data.draw(routed_trees(data.draw(st.integers(1, 40))))
        counts = np.bincount(route_binned_oracle(skeleton.nodes, binned),
                             minlength=skeleton.n_leaves)
        want = node_rows_oracle(skeleton.nodes, binned)
        assert subtree_sums(skeleton, counts).tolist() == want
        stacked = subtree_sums(skeleton, np.column_stack([counts, 0.5 * counts]))
        assert stacked.shape == (skeleton.n_leaves - 1, 2)
        assert stacked.tolist() == [[w, 0.5 * w] for w in want]
