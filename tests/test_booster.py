import copy
import dataclasses
import functools
import json
import math
import pickle
import re
import signal
import threading
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from mtboost import booster as booster_module
from mtboost.booster import (
    TREE_CHUNK,
    BoosterModel,
    BoosterParams,
    _block_rows,
    _chunks,
    extract_task,
    load_model,
    predict,
    predict_proba,
    save_model,
    train,
)
from mtboost.data import BinMapper, Dataset, RawTable, apply_bins, bin_column, fit_bins
from mtboost.errors import (
    EmptyDataset,
    FeatureCountMismatch,
    FormatVersionMismatch,
    InvalidParameter,
    LabelOverflow,
    MapperMismatch,
    MtboostError,
    NonNumericLabel,
    TaskIndexOutOfRange,
)
from mtboost.gradients import MTConfig, param_types
from mtboost.objectives import BINARY_LOGLOSS, REGRESSION_L2, transform_score
from mtboost.tree import (
    NODE_DTYPES,
    MultiOutputTree,
    RouteTables,
    TreeSkeleton,
    compile_routes,
    leaf_words,
    route_binned,
)

from conftest import nodeless_skeleton, random_skeleton
from oracles import (
    check_tree_oracle,
    engine_tree_structure,
    ref_boost_structures,
    route_binned_oracle,
)


def regression_table(rng, m=200, d=3, n=2):
    x = rng.uniform(0, 1, size=(m, d))
    y0 = 3.0 * x[:, 0] - 2.0 * x[:, 1] + rng.normal(scale=0.1, size=m)
    labels = [y0]
    for _ in range(n - 1):
        labels.append(y0 * rng.uniform(0.5, 1.5) + rng.normal(scale=0.1, size=m))
    return RawTable(
        x, np.column_stack(labels),
        tuple(f"f{j}" for j in range(d)), tuple(f"y{t}" for t in range(n)),
    )


def binned(table, max_bins=32):
    return apply_bins(table, fit_bins(table, max_bins))


def reg_params(n=2, **kw):
    defaults = dict(
        objectives=tuple([REGRESSION_L2] * n),
        num_iterations=8,
        learning_rate=0.1,
        lambda_reg=0.0,
        min_samples_leaf=5,
        max_leaves=8,
        mt=MTConfig(corr_mode="constant_one"),
    )
    defaults.update(kw)
    return BoosterParams(**defaults)


class TestTrain:
    def test_tree_count_and_log(self, rng):
        ds = binned(regression_table(rng))
        model = train(ds, reg_params(num_iterations=1))
        assert len(model.trees) == 1
        assert len(model.training_log) == 1
        with pytest.raises(ValueError):
            reg_params(num_iterations=0)

    def test_zero_rows_raise_empty_dataset(self, rng):
        ds = binned(regression_table(rng))
        empty = Dataset(ds.binned[:0], ds.labels[:0], ds.mapper, ds.feature_names,
                        ds.task_names)
        with pytest.raises(EmptyDataset):
            train(empty, reg_params())

    def test_l2_training_loss_nonincreasing(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            ds = binned(regression_table(rng, n=1))
            model = train(ds, reg_params(n=1, num_iterations=15))
            losses = [row.train[0] for row in model.training_log]
            assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_mapper_mismatch(self, rng):
        t1 = regression_table(rng)
        t2 = regression_table(rng)
        ds = binned(t1)
        other = binned(t2)
        with pytest.raises(MapperMismatch):
            train(ds, reg_params(), other)

    def test_classification_labels_validated(self, rng):
        table = regression_table(rng, n=1)
        ds = binned(table)
        with pytest.raises(InvalidParameter,
                           match="^task 0 labels must all be 0 or 1 for binary_logloss$"):
            train(ds, reg_params(n=1, objectives=(BINARY_LOGLOSS,)))

    def test_validation_classification_labels_validated(self, rng, monkeypatch):
        table = regression_table(rng, n=2)
        table.labels[:] = rng.integers(0, 2, table.labels.shape)
        mapper = fit_bins(table, 32)
        ds = apply_bins(table, mapper)
        valid_table = regression_table(rng, m=50, n=2)
        valid_table.labels[:] = rng.integers(0, 2, valid_table.labels.shape)
        valid_table.labels[7, 1] = 7.0
        params = reg_params(objectives=(REGRESSION_L2, BINARY_LOGLOSS))
        grown = []
        monkeypatch.setattr(booster_module, "grow_tree", lambda *args: grown.append(args))
        with pytest.raises(InvalidParameter,
                           match="^task 1 validation labels must all be 0 or 1 for binary_logloss$"):
            train(ds, params, apply_bins(valid_table, mapper))
        assert not grown  # raised before the first iteration
        monkeypatch.undo()
        # Task 0 is regression_l2, so 7.0 there is a fine label.
        valid_table.labels[7] = (7.0, 1.0)
        train(ds, params, apply_bins(valid_table, mapper))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind", [REGRESSION_L2, BINARY_LOGLOSS])
    @pytest.mark.parametrize("which", ["labels", "validation labels"])
    def test_non_finite_label_is_a_non_numeric_label(self, rng, monkeypatch, bad, kind, which):
        # RawTable rejects such labels, but a Dataset built around it does not.
        table = regression_table(rng, n=2)
        table.labels[:, 1] = rng.integers(0, 2, table.m)
        ds = binned(table)
        labels = ds.labels.copy()
        labels[17, 1] = bad
        broken = dataclasses.replace(ds, labels=labels)
        train_ds, valid_ds = (broken, ds) if which == "labels" else (ds, broken)
        params = reg_params(objectives=(REGRESSION_L2, kind))
        grown = []
        monkeypatch.setattr(booster_module, "grow_tree", lambda *args: grown.append(args))
        with pytest.raises(NonNumericLabel, match=f"^task 1 {which} must all be finite$"):
            train(train_ds, params, valid_ds)
        assert not grown  # raised before the first iteration

    def test_early_stopping_truncates(self, rng):
        table = regression_table(rng, m=300, n=1)
        valid_rng = np.random.default_rng(999)
        valid_table = regression_table(valid_rng, m=100, n=1)
        mapper = fit_bins(table, 32)
        ds = apply_bins(table, mapper)
        vs = apply_bins(valid_table, mapper)
        params = reg_params(n=1, num_iterations=60, early_stopping_rounds=3)
        model = train(ds, params, vs)
        assert len(model.training_log) <= 60
        best = min(
            range(len(model.training_log)),
            key=lambda i: model.training_log[i].valid[0],
        )
        assert len(model.trees) == best + 1

    def test_early_stopping_log_matches_model(self, rng):
        table = regression_table(rng, m=300, n=2)
        mapper = fit_bins(table, 32)
        ds = apply_bins(table, mapper)
        vs = apply_bins(regression_table(np.random.default_rng(999), m=100, n=2), mapper)
        params = reg_params(num_iterations=60, early_stopping_rounds=3)
        model = train(ds, params, vs)
        assert len(model.trees) < params.num_iterations  # stopping did trigger
        assert len(model.training_log) == len(model.trees)
        main_losses = [row.valid[params.main_task_index] for row in model.training_log]
        assert main_losses[-1] == min(main_losses)

    @staticmethod
    def _flat_loss_run(rng, monkeypatch, **kw):
        # Constant training labels: every gradient and leaf value is 0, so
        # every iteration's validation loss equals the first one's.
        x = rng.uniform(0, 1, size=(200, 2))
        table = RawTable(x, np.full((200, 1), 2.5), ("a", "b"), ("y",))
        mapper = fit_bins(table, 16)
        valid = apply_bins(regression_table(rng, m=50, d=2, n=1), mapper)
        steps = []
        step = booster_module._boost_step

        def counted(*args):
            steps.append(args[2])
            return step(*args)

        monkeypatch.setattr(booster_module, "_boost_step", counted)
        model = train(apply_bins(table, mapper), reg_params(n=1, **kw), valid)
        assert {float(v) for tree in model.trees for v in tree.leaf_values.ravel()} == {0.0}
        return model, steps

    def test_early_stopping_keeps_the_first_least_loss(self, rng, monkeypatch):
        # No later loss is strictly lower, so the first iteration stays the
        # best and the loop stops after 3 more.
        model, steps = self._flat_loss_run(rng, monkeypatch, num_iterations=60,
                                           early_stopping_rounds=3)
        assert steps == [0, 1, 2, 3]
        assert len(model.trees) == len(model.training_log) == 1

    def test_early_stopping_cuts_when_the_iterations_run_out(self, rng, monkeypatch):
        model, steps = self._flat_loss_run(rng, monkeypatch, num_iterations=3,
                                           early_stopping_rounds=5)
        assert steps == [0, 1, 2]
        assert len(model.trees) == len(model.training_log) == 1

    def test_invalid_parameters_are_typed(self, rng):
        with pytest.raises(InvalidParameter):
            reg_params(learning_rate=2.0)
        with pytest.raises(InvalidParameter):
            MTConfig(gamma_boost=0.5)
        for bad in (0.0, -1.0):
            with pytest.raises(InvalidParameter, match="max_delta_step must be > 0"):
                reg_params(max_delta_step=bad)
            for name in ("g_target_mean", "h_target_mean"):
                with pytest.raises(InvalidParameter, match="g_target_mean and h_target_mean must be > 0"):
                    MTConfig(**{name: bad})
        ds = binned(regression_table(rng))
        with pytest.raises(InvalidParameter):
            train(ds, reg_params(n=3))
        with pytest.raises(InvalidParameter):
            train(ds, reg_params(mt=MTConfig(n_selected=3)))

    @pytest.mark.parametrize("n", [1, 2])
    def test_task_weights_must_number_the_tasks(self, rng, n):
        # One task draws nothing, yet its weights are checked as for two.
        ds = binned(regression_table(rng, n=n))
        mt = MTConfig(task_select="weighted", task_weights=(0.5, 0.25, 0.25))
        with pytest.raises(InvalidParameter, match=f"^3 task_weights for {n} tasks$"):
            train(ds, reg_params(n=n, mt=mt))

    @pytest.mark.parametrize("name, bad, message", [
        ("max_leaves", 0, "max_leaves must be >= 1"),
        ("max_depth", 0, "max_depth must be >= 1"),
        ("min_samples_leaf", 0, "min_samples_leaf must be >= 1"),
        ("lambda_reg", -0.1, "lambda_reg must be >= 0"),
    ])
    def test_tree_limits_checked_by_params(self, name, bad, message):
        with pytest.raises(InvalidParameter, match=f"^{message}$"):
            reg_params(**{name: bad})

    def test_validation_scores_added_in_blocks(self, rng, tmp_path, monkeypatch):
        table = regression_table(rng, m=300)
        mapper = fit_bins(table, 32)
        ds = apply_bins(table, mapper)
        valid_ds = apply_bins(regression_table(rng, m=101), mapper)
        params = reg_params(num_iterations=5)
        whole = train(ds, params, valid_ds)
        save_model(whole, tmp_path / "whole.txt")

        seen = []

        def spy(routes, rows, *args):
            seen.append(rows.shape[0])
            return route_binned(routes, rows, *args)

        # A row of one 8-leaf tree adding to 2 tasks takes 32 + 8 * 3 * 2
        # bytes of block buffers (_block_rows), so 40 rows fill a block.
        monkeypatch.setattr(booster_module, "BLOCK_BYTES", 80 * 40)
        monkeypatch.setattr(booster_module, "route_binned", spy)
        blocked = train(ds, params, valid_ds)
        save_model(blocked, tmp_path / "blocked.txt")
        assert seen == [40, 40, 21] * params.num_iterations
        assert repr(blocked.training_log) == repr(whole.training_log)
        assert (tmp_path / "blocked.txt").read_bytes() == (tmp_path / "whole.txt").read_bytes()

    def test_non_finite_floats_rejected(self):
        for cls, make in ((BoosterParams, reg_params), (MTConfig, MTConfig)):
            floats = [name for name, tag in param_types(cls).items() if tag == "float"]
            assert floats
            for name in floats:
                for bad in (math.nan, math.inf, -math.inf):
                    with pytest.raises(InvalidParameter, match=f"{name} must be finite"):
                        make(**{name: bad})
        for weights in ((math.nan, 1.0), (0.5, math.inf)):
            with pytest.raises(InvalidParameter, match="task_weights must be finite"):
                MTConfig(task_select="weighted", task_weights=weights)

    @pytest.mark.parametrize("make, name, value", [
        (reg_params, "max_leaves", 4.5),
        (reg_params, "num_iterations", 2.5),
        (reg_params, "seed", "3"),
        (MTConfig, "n_selected", 1.0),
    ])
    def test_int_fields_reject_non_integers(self, make, name, value):
        with pytest.raises(InvalidParameter, match=f"{name} must be an integer"):
            make(**{name: value})

    @pytest.mark.parametrize("name, value", [
        ("learning_rate", "0.1"), ("lambda_reg", True), ("gamma_reg", None)])
    def test_float_fields_reject_non_numbers(self, name, value):
        with pytest.raises(InvalidParameter, match=f"{name} must be a number"):
            reg_params(**{name: value})

    def test_task_weights_must_be_a_list_of_numbers(self):
        for weights in (0.5, "0.5,0.5"):
            with pytest.raises(InvalidParameter, match="task_weights must be a list of numbers"):
                MTConfig(task_select="weighted", task_weights=weights)
        with pytest.raises(InvalidParameter, match="task_weights must be a number"):
            MTConfig(task_select="weighted", task_weights=("0.5", "0.5"))
        weights = MTConfig(task_select="weighted", task_weights=np.array([0.25, 0.75]))
        assert weights.task_weights == (0.25, 0.75)
        assert MTConfig(task_weights=[]).task_weights is None

    def test_numpy_numbers_save_and_load_as_python_numbers(self, rng, tmp_path):
        ds = binned(regression_table(rng))
        mt = MTConfig(gamma_boost=np.float32(20.0), n_selected=np.int64(2),
                      task_select="weighted", task_weights=(np.float32(0.5), np.float64(0.5)))
        numpy_params = reg_params(seed=np.int64(3), learning_rate=np.float32(0.25),
                                  max_leaves=np.int32(6), mt=mt)
        plain = reg_params(seed=3, learning_rate=0.25, max_leaves=6, mt=MTConfig(
            gamma_boost=20.0, n_selected=2, task_select="weighted", task_weights=(0.5, 0.5)))
        assert numpy_params == plain
        for params in (numpy_params, numpy_params.mt):
            for name, tag in param_types(type(params)).items():
                value = getattr(params, name)
                if tag in ("int", "float"):
                    assert type(value) in (int, float), name
        paths = [tmp_path / "numpy.txt", tmp_path / "plain.txt"]
        for params, path in zip((numpy_params, plain), paths):
            save_model(train(ds, params), path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert load_model(paths[0]).params == plain

    def test_python_numbers_keep_their_json_form(self):
        params = reg_params(learning_rate=1, lambda_reg=0.5, mt=MTConfig(gamma_boost=10))
        text = json.dumps(dataclasses.asdict(params))
        assert '"learning_rate": 1,' in text and '"gamma_boost": 10,' in text
        assert '"lambda_reg": 0.5,' in text

    @pytest.mark.parametrize("train_labels, valid_labels, match", [
        ((1e308, 1.5e308), None, "task 1: the label mean overflows"),
        ((1e160, -1e160), None, "task 1: the training loss overflows"),
        (None, (1e160, -1e160), "task 1: the validation loss overflows"),
    ])
    def test_overflowing_labels_typed(self, rng, train_labels, valid_labels, match):
        def table(huge):
            t = regression_table(rng, m=200, n=2)
            if huge is not None:
                t.labels[:, 1] = np.resize(huge, 200)
            return t

        fit = table(train_labels)
        mapper = fit_bins(fit, 32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(LabelOverflow, match=match):
                train(apply_bins(fit, mapper), reg_params(mt=MTConfig()),
                      apply_bins(table(valid_labels), mapper))

    def test_single_task_reduction_matches_scalar_reference(self):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            table = regression_table(rng, m=150, n=1)
            ds = binned(table, max_bins=16)
            params = reg_params(
                n=1, num_iterations=4, max_leaves=6, learning_rate=0.3,
                min_samples_leaf=5, min_hess_leaf=0.0,
            )
            model = train(ds, params)
            finite = ds.mapper.finite_bin_counts
            ref = ref_boost_structures(
                ds.binned.astype(np.int64), finite, table.labels[:, 0],
                iterations=4, lr=0.3,
                p=dict(
                    max_leaves=6, max_depth=6, min_samples_leaf=5,
                    min_hess_leaf=0.0, min_gain=0.0, lam=0.0, gamma_reg=0.0,
                ),
            )
            got = [engine_tree_structure(t.nodes) for t in model.trees]
            assert got == ref


def row_major(ds):
    return dataclasses.replace(ds, labels=np.ascontiguousarray(ds.labels))


class TestLayout:
    """train() stores every per-task (m, n) array column-major."""

    def test_per_task_passes_get_column_major_arrays(self, rng, monkeypatch):
        import mtboost.booster as bt

        seen = []

        def recording(fn, pick):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                seen.append((fn.__name__, pick(args, out)))
                return out
            return wrapper

        for name, pick in (
            ("grad_hess", lambda a, out: (a[0], a[1], *out)),
            ("updating_grad_hess", lambda a, out: (out,)),
            ("fit_leaf_values", lambda a, out: (a[2], a[3])),
        ):
            monkeypatch.setattr(bt, name, recording(getattr(bt, name), pick))
        table = regression_table(rng, m=200, n=3)
        mapper = fit_bins(table, 32)
        ds = row_major(apply_bins(table, mapper))
        train(ds, reg_params(n=3, num_iterations=3, mt=MTConfig()), row_major(ds))
        assert {name for name, _ in seen} == {
            "grad_hess", "updating_grad_hess", "fit_leaf_values"}
        for name, arrays in seen:
            for a in arrays:
                assert a.shape == (200, 3) and a.flags.f_contiguous, name

    def test_row_major_labels_train_to_the_same_bytes(self, rng, tmp_path):
        table = regression_table(rng, m=300, n=3)
        ds = binned(table)
        assert ds.labels.flags.f_contiguous
        params = reg_params(n=3, mt=MTConfig(n_selected=2))
        files = []
        for i, (data, valid) in enumerate(((ds, ds), (row_major(ds), row_major(ds)))):
            files.append(tmp_path / f"m{i}.txt")
            save_model(train(data, params, valid), files[-1])
        assert files[0].read_bytes() == files[1].read_bytes()


class TestPredict:
    def test_no_trees_gives_base_scores(self, rng):
        table = regression_table(rng)
        ds = binned(table)
        model = train(ds, reg_params(num_iterations=1))
        empty = BoosterModel(
            trees=[], params=model.params, mapper=model.mapper,
            base_scores=model.base_scores, feature_names=model.feature_names,
            task_names=model.task_names, training_log=[],
        )
        out = predict(empty, table.features[:5])
        assert np.array_equal(out, np.tile(model.base_scores, (5, 1)))

    def test_single_stump_scores_everywhere(self, rng):
        from mtboost.tree import MultiOutputTree

        table = regression_table(rng)
        base_model = train(binned(table), reg_params(num_iterations=1))
        stump = MultiOutputTree(
            skeleton=nodeless_skeleton(),
            leaf_values=np.array([[0.2, -0.1]]),
            leaf_counts=np.array([table.m]),
        )
        model = BoosterModel(
            trees=[stump], params=base_model.params, mapper=base_model.mapper,
            base_scores=np.zeros(2), feature_names=base_model.feature_names,
            task_names=base_model.task_names, training_log=[],
        )
        out = predict(model, table.features[:6])
        assert np.array_equal(out, np.tile([0.2, -0.1], (6, 1)))

    def test_task_projection_exact(self, rng):
        table = regression_table(rng)
        model = train(binned(table), reg_params())
        full = predict(model, table.features)
        for t in range(2):
            np.testing.assert_array_equal(predict(model, table.features, task=t), full[:, t])

    def test_feature_count_mismatch(self, rng):
        table = regression_table(rng)
        model = train(binned(table), reg_params())
        with pytest.raises(FeatureCountMismatch):
            predict(model, table.features[:, :2])

    def test_score_additivity(self, rng):
        table = regression_table(rng)
        model = train(binned(table), reg_params(num_iterations=5))
        shorter = BoosterModel(
            trees=model.trees[:-1], params=model.params, mapper=model.mapper,
            base_scores=model.base_scores, feature_names=model.feature_names,
            task_names=model.task_names, training_log=[],
        )
        from mtboost.data import bin_column

        x = table.features[:20]
        cols = np.column_stack(
            [bin_column(x[:, f], model.mapper.boundaries[f]) for f in range(x.shape[1])]
        )
        routes = compile_routes(model.trees[-1:])
        contribution = routes.values[route_binned(routes, cols)[0]]
        np.testing.assert_array_equal(predict(shorter, x) + contribution, predict(model, x))

    def test_predict_proba_applies_links(self, rng):
        x = rng.uniform(0, 1, size=(150, 2))
        y_bin = (x[:, 0] > 0.5).astype(float)
        y_reg = x[:, 1] * 2
        table = RawTable(x, np.column_stack([y_bin, y_reg]), ("a", "b"), ("c", "r"))
        params = reg_params(objectives=(BINARY_LOGLOSS, REGRESSION_L2))
        model = train(binned(table), params)
        raw = predict(model, x)
        proba = predict_proba(model, x)
        assert ((proba[:, 0] > 0) & (proba[:, 0] < 1)).all()
        np.testing.assert_array_equal(proba[:, 0], transform_score(raw[:, 0], BINARY_LOGLOSS))
        np.testing.assert_array_equal(proba[:, 1], raw[:, 1])
        np.testing.assert_array_equal(predict_proba(model, x, task=0), proba[:, 0])


def scores_oracle(model, features):
    """Base scores plus every tree's leaf values in tree order, one row of
    tasks at a time, with rows routed by the node walk."""
    binned = np.column_stack([
        bin_column(features[:, f], model.mapper.boundaries[f])
        for f in range(model.n_features)
    ])
    out = np.tile(model.base_scores, (len(features), 1))
    for tree in model.trees:
        out += tree.leaf_values[route_binned_oracle(tree.nodes, binned)]
    return out


class TestPredictLayout:
    @pytest.fixture
    def model_and_rows(self, rng):
        # Trees of up to 100 leaves route through one and two 64-leaf words.
        table = regression_table(rng, m=400, n=3)
        table.features[rng.random(400) < 0.2, 1] = np.nan
        model = train(binned(table), reg_params(
            n=3, num_iterations=6, max_leaves=100, max_depth=12, min_samples_leaf=1,
        ))
        assert max(t.n_leaves for t in model.trees) > 64
        x = rng.uniform(-0.2, 1.2, size=(300, 3))
        x[::7, 1] = np.nan
        return model, x

    def test_columns_equal_single_task_predictions(self, model_and_rows):
        model, x = model_and_rows
        full = predict(model, x)
        assert full.shape == (300, 3) and full.flags.f_contiguous
        stacked = np.column_stack([predict(model, x, task=t) for t in range(3)])
        assert full.tobytes() == stacked.tobytes()

    def test_equals_tree_order_oracle(self, model_and_rows):
        model, x = model_and_rows
        assert np.array_equal(predict(model, x), scores_oracle(model, x))

    def test_zero_rows(self, model_and_rows):
        model, _ = model_and_rows
        empty = np.zeros((0, 3))
        assert predict(model, empty).shape == (0, 3)
        assert predict(model, empty, task=1).shape == (0,)
        assert predict_proba(model, empty).shape == (0, 3)

    @pytest.fixture
    def models(self, model_and_rows, tmp_path):
        # predict routes the 7 trees together in two 64-bit words, BLOCK rows
        # at a time (TASK_BLOCK for one task); a tree without nodes sits
        # among the trained ones.
        model, _ = model_and_rows
        stump = MultiOutputTree(
            skeleton=nodeless_skeleton(), leaf_values=np.array([[0.25, -0.5, 0.125]]),
            leaf_counts=np.array([400]),
        )
        model = dataclasses.replace(model, trees=model.trees[:3] + (stump,) + model.trees[3:])
        path = tmp_path / "model.txt"
        save_model(model, path)
        return {"trained": model, "loaded": load_model(path), "extracted": extract_task(model, 1)}

    @staticmethod
    def rows(rng, k):
        x = rng.uniform(-0.2, 1.2, size=(k, 3))
        x[::7, 1] = np.nan
        x[::5] = np.nan  # whole rows missing
        return x

    BLOCK, TASK_BLOCK = _block_rows(7, 2, 3), _block_rows(7, 2, 1)

    # Each block edge, and row counts that span several blocks.
    @pytest.mark.parametrize("k", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3,
                                   TASK_BLOCK, TASK_BLOCK + 1, 8191, 8192, 8193, 16387])
    def test_equals_tree_order_oracle_at_block_edges(self, rng, models, k):
        x = self.rows(rng, k)
        for name, model in models.items():
            want = scores_oracle(model, x)
            assert predict(model, x).tobytes() == want.tobytes(), name
            for t in range(model.n_tasks):
                assert predict(model, x, task=t).tobytes() == want[:, t].tobytes(), (name, t)

    def test_blocks_end_at_block_rows(self, rng, models, monkeypatch):
        seen = []

        def spy(stack, rows, *args):
            seen.append(rows.shape[0])
            return route_binned(stack, rows, *args)

        monkeypatch.setattr(booster_module, "route_binned", spy)
        predict(models["trained"], self.rows(rng, self.BLOCK + 1))
        predict(models["trained"], self.rows(rng, self.TASK_BLOCK + 1), task=0)
        assert seen == [self.BLOCK, 1, self.TASK_BLOCK, 1]

    def test_predict_compiles_nothing(self, rng, models, monkeypatch):
        compiled = []
        monkeypatch.setattr(booster_module, "compile_routes",
                            lambda *args: compiled.append(args) or compile_routes(*args))
        x = self.rows(rng, self.BLOCK + 1)
        for model in models.values():
            predict(model, x)
            for t in range(model.n_tasks):
                predict(model, x, task=t)
        assert compiled == []

    def test_save_load_save_is_identical(self, models, tmp_path):
        first, again = tmp_path / "first.txt", tmp_path / "again.txt"
        for name, model in models.items():
            save_model(model, first)
            save_model(load_model(first), again)
            assert again.read_bytes() == first.read_bytes(), name

    def test_two_threads_predict_the_same_bytes(self, rng, models):
        model = models["trained"]
        x = self.rows(rng, 2 * self.BLOCK + 3)
        want = predict(model, x).tobytes()
        start = threading.Barrier(2)
        got = [[], []]

        def work(i):
            start.wait()
            for _ in range(4):
                got[i].append(predict(model, x).tobytes())

        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert got[0] == got[1] == [want] * 4


class TestMixedWordKinds:
    """A hand-built model of TREE_CHUNK + 7 trees cycling through every word
    kind: a stump, up to 8, 16, 32 and 64 leaves, and two and three 64-bit
    words. Each of its two chunks routes every tree in three 64-bit words,
    its first chunk in blocks of EDGES[0] rows, its last chunk of 7 trees in
    blocks of EDGES[1] rows."""

    LEAVES = (1, 6, 13, 30, 64, 65, 150)
    EDGES = (_block_rows(TREE_CHUNK, 3, 3), _block_rows(7, 3, 3))

    @pytest.fixture(scope="class")
    def models(self, tmp_path_factory):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((500, 5))
        x[::9, 2] = np.nan
        table = RawTable(x, np.zeros((500, 3)), tuple(f"f{j}" for j in range(5)),
                         ("a", "b", "c"))
        mapper = fit_bins(table, 64)
        finite = mapper.finite_bin_counts
        trees = []
        for i in range(TREE_CHUNK + 7):
            skeleton = random_skeleton(rng, self.LEAVES[i % len(self.LEAVES)], finite)
            # Values of very different sizes, so any other order of the
            # additions would move the sums' last bits.
            values = rng.standard_normal((skeleton.n_leaves, 3)) * 10.0 ** rng.integers(
                -6, 7, size=(skeleton.n_leaves, 3))
            trees.append(MultiOutputTree(skeleton, values, np.ones(skeleton.n_leaves, np.int64)))
        assert {leaf_words(t.n_leaves) for t in trees[:TREE_CHUNK]} == {
            (8, 1), (16, 1), (32, 1), (64, 1), (64, 2), (64, 3)}
        assert [len(c) for c in _chunks(trees, 5)] == [TREE_CHUNK, 7]
        model = BoosterModel(
            trees=trees, params=BoosterParams(objectives=(REGRESSION_L2,) * 3),
            mapper=mapper, base_scores=np.array([0.5, -1e-3, 1e4]),
            feature_names=table.feature_names, task_names=table.task_names, training_log=[],
        )
        assert [(r.width, r.n_words) for r in model.chunks] == [(64, 3), (64, 3)]
        path = tmp_path_factory.mktemp("mixed") / "model.txt"
        save_model(model, path)
        return model, load_model(path)

    @pytest.mark.parametrize("k", [1, 2, EDGES[0] - 1, EDGES[0] + 1, EDGES[1] + 1])
    def test_equals_tree_order_oracle(self, models, k):
        model, loaded = models
        x = np.random.default_rng(k).standard_normal((k, 5)) * 1.5
        x[::4, 2] = np.nan
        want = scores_oracle(model, x)
        for name, m in (("trained", model), ("loaded", loaded)):
            assert predict(m, x).tobytes() == want.tobytes(), name
            for t in range(3):
                assert predict(m, x, task=t).tobytes() == want[:, t].tobytes(), (name, t)
                assert predict(extract_task(m, t), x).tobytes() == want[:, [t]].tobytes()

    def test_table_budget_splits_chunks(self, models, monkeypatch):
        # A smaller budget cuts the trees into chunks of a few trees, at
        # other places than the word kinds' cycle; the sums stay in tree order.
        model, _ = models
        monkeypatch.setattr(booster_module, "TABLE_BYTES", 1 << 13)
        model = dataclasses.replace(model)  # compiles its chunks under the smaller budget
        sizes = [routes.start.size for routes in model.chunks]
        assert len(sizes) > 10 and sum(sizes) == len(model.trees)
        for size, routes in zip(sizes, model.chunks):
            nbytes = sum(table.nbytes for _, table in routes.tables)
            assert size == 1 or nbytes <= 1 << 13
        x = np.random.default_rng(3).standard_normal((300, 5)) * 1.5
        x[::4, 2] = np.nan
        want = scores_oracle(model, x)
        assert predict(model, x).tobytes() == want.tobytes()
        assert predict(model, x, task=2).tobytes() == want[:, 2].tobytes()


class TestModelFile:
    def test_round_trip_bit_identical(self, rng, tmp_path):
        table = regression_table(rng)
        model = train(binned(table), reg_params())
        path = tmp_path / "model.txt"
        save_model(model, path)
        loaded = load_model(path)
        x = rng.uniform(0, 1, size=(100, 3))
        np.testing.assert_array_equal(predict(model, x), predict(loaded, x))
        assert loaded.task_names == model.task_names
        assert loaded.params == model.params
        assert len(loaded.training_log) == len(model.training_log)

    def test_save_is_deterministic(self, rng, tmp_path):
        table = regression_table(rng)
        model = train(binned(table), reg_params())
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_model(model, p1)
        save_model(model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_file_rejected(self, rng, tmp_path):
        table = regression_table(rng)
        model = train(binned(table), reg_params())
        path = tmp_path / "model.txt"
        save_model(model, path)
        text = path.read_text()
        clipped = tmp_path / "clipped.txt"
        clipped.write_text(text[: len(text) // 2])
        with pytest.raises(FormatVersionMismatch):
            load_model(clipped)

    def test_wrong_marker_rejected(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("some-other-format\n")
        with pytest.raises(FormatVersionMismatch):
            load_model(bad)

    def test_zero_tree_model_round_trips(self, rng, tmp_path):
        table = regression_table(rng)
        model = train(binned(table), reg_params(num_iterations=1))
        empty = BoosterModel(
            trees=[], params=model.params, mapper=model.mapper,
            base_scores=model.base_scores, feature_names=model.feature_names,
            task_names=model.task_names, training_log=[],
        )
        path = tmp_path / "empty.txt"
        save_model(empty, path)
        loaded = load_model(path)
        x = table.features[:7]
        np.testing.assert_array_equal(predict(loaded, x), predict(empty, x))


GOLDEN = Path(__file__).parent / "golden_model_v1.txt"  # 2 tasks, NaN features, valid log
GOLDEN_V2 = Path(__file__).parent / "golden_model_v2.txt"  # save_model(load_model(GOLDEN))


def _golden_lines(golden=GOLDEN):
    return golden.read_text().splitlines()


# Each hex float, decimal number or JSON string of the v2 golden file, as
# (line number, start, end); and ways to spell one otherwise, given a set
# of ten non-ASCII digits by its zero.
GOLDEN_V2_TOKENS = [
    (i, found.start(), found.end())
    for i, line in enumerate(_golden_lines(GOLDEN_V2))
    for found in re.finditer(r'-?0x[0-9a-f]\.[0-9a-f]+p[-+][0-9]+|-?[0-9]+(?:\.[0-9]+)?|"[^"]*"',
                             line)
]
RESPELLINGS = {
    "sign": lambda tok, digits: "+" + tok,
    "leading zero": lambda tok, digits: re.sub("[0-9]", r"0\g<0>", tok, count=1),
    "underscore": lambda tok, digits: re.sub("([0-9])([0-9])", r"\1_\2", tok, count=1),
    "non-ASCII digits": lambda tok, digits: tok.translate(
        {ord("0") + d: ord(digits) + d for d in range(10)}),
    "upper case": lambda tok, digits: tok if tok[0] == '"' else tok.upper(),
    "shortened": lambda tok, digits: re.sub(r"0+(?=p)|\.0$|(?<=e)\+", "", tok),
    "decimal": lambda tok, digits: (repr(float.fromhex(tok)) if "0x" in tok
                                    else tok + ".0" if tok[-1] != '"' else tok),
    "JSON escapes": lambda tok, digits: "".join(
        c if c == '"' else f"\\u{ord(c):04x}" for c in tok) if tok[0] == '"' else tok,
    "space before": lambda tok, digits: " " + tok,
    "space after": lambda tok, digits: tok + " ",
    "tab before": lambda tok, digits: "\t" + tok,
}


def _with_token(lines, line_no, tok, value):
    parts = lines[line_no].split(" ")
    parts[tok] = value
    return lines[:line_no] + [" ".join(parts)] + lines[line_no + 1:]


def _with_params(lines, change):
    i = next(i for i, line in enumerate(lines) if line.startswith("params "))
    params = json.loads(lines[i][len("params "):])
    change(params)
    return lines[:i] + ["params " + json.dumps(params)] + lines[i + 1:]


def _set(key, value, section=None):
    def change(params):
        (params[section] if section else params)[key] = value
    return change


TREE_MUTATIONS = ("none", "self-loop", "back-edge", "forward-edge", "duplicate-child",
                  "swap", "leaf", "feature", "threshold", "leaf-count")


@st.composite
def mutated_trees(draw):
    """(mutation, node arrays, finite bins per feature): a valid tree grown
    one leaf split at a time, as grow_tree does, then changed by one
    mutation. The arrays are feature, threshold_bin, left, right and the
    claimed leaf count.
    A "swap" exchanges two child entries, which keeps every reference count
    and so can only be caught by the order of nodes; a "leaf" mutation
    points a child at a leaf that may already be referenced or lie past the
    last; "leaf-count" changes the claimed count, also for a tree without
    nodes."""
    finite_bins = np.array(draw(st.lists(st.integers(2, 6), min_size=1, max_size=3)))
    n = draw(st.integers(0, 8))
    feature = [draw(st.integers(0, len(finite_bins) - 1)) for _ in range(n)]
    threshold_bin = [draw(st.integers(0, finite_bins[f] - 2)) for f in feature]
    children, pending = [], [None]  # children[2 * i + side]: node i's left, right
    for i in range(n):
        slot = pending.pop(draw(st.integers(0, len(pending) - 1)))
        children += [0, 0]
        if slot is not None:
            children[slot] = i
        pending += [2 * i, 2 * i + 1]
    for leaf, slot in enumerate(pending):
        if slot is not None:
            children[slot] = ~leaf
    n_leaves = n + 1

    kind = draw(st.sampled_from(TREE_MUTATIONS))
    slot = draw(st.integers(0, max(2 * n - 1, 0)))
    i = slot // 2
    if kind == "leaf-count":
        n_leaves = draw(st.integers(0, n + 3).filter(lambda count: count != n + 1))
    elif n == 0:
        kind = "none"
    elif kind == "self-loop":
        children[slot] = i
    elif kind == "back-edge":
        children[slot] = draw(st.integers(0, i))
    elif kind == "forward-edge":
        children[slot] = draw(st.integers(i + 1, n + 1))
    elif kind == "duplicate-child":
        children[slot] = children[draw(st.integers(0, 2 * n - 1))]
    elif kind == "swap":
        other = draw(st.integers(0, 2 * n - 1))
        children[slot], children[other] = children[other], children[slot]
    elif kind == "leaf":
        children[slot] = ~draw(st.integers(0, n + 1))
    elif kind == "feature":
        feature[i] = draw(st.sampled_from([-1, len(finite_bins)]))
    elif kind == "threshold":
        threshold_bin[i] = draw(st.sampled_from([-1, finite_bins[feature[i]] - 1]))
    return kind, (feature, threshold_bin, children[0::2], children[1::2], n_leaves), finite_bins


class GoldenFileEdits:
    """Edits of a golden model file: each is rejected, or loads and predicts.
    Run on the v1 file and on the v2 file."""

    golden = GOLDEN

    @pytest.mark.parametrize("tok, value", [(3, "0"), (2, "99999999999")],
                             ids=["self-loop", "threshold-1e11"])
    def test_corrupt_tree_rejected_before_any_table_is_built(self, tmp_path, monkeypatch,
                                                             tok, value):
        # The first root names itself as its child, the second asks for a
        # bin table of about 10**11 entries: load_model must reject either
        # file before it compiles any tree.
        compiled = []
        monkeypatch.setattr(booster_module, "compile_routes",
                            lambda *args: compiled.append(args))
        lines = _golden_lines(self.golden)
        root = next(i for i, line in enumerate(lines) if line.startswith("node "))
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(_with_token(lines, root, tok, value)) + "\n")
        with pytest.raises(FormatVersionMismatch):
            load_model(path)
        assert compiled == []

    @pytest.mark.parametrize("tok, value", [
        (3, "0"),  # left child is the node itself: routing would never end
        (4, "99"),  # right child past the last node
        (3, "-99"),  # leaf past the last leaf
        (1, "99"),  # feature past the last feature
        (2, "99"),  # threshold_bin past the feature's last boundary
        (-1, "161"),  # <count>, last on v1 and v2, one more than its leaves hold
        (-1, "159"),
        (1, "+0"),  # integers that int() reads but save_model never writes
        (2, "03"),
        (1, "-0"),
        (-1, "1_60"),
        (1, "\u0660"),  # ARABIC-INDIC DIGIT ZERO
    ], ids=["self-loop", "child-99", "leaf-99", "feature-99", "threshold-99", "count-161",
            "count-159", "feature-+0", "threshold-03", "feature--0", "count-1_60",
            "feature-arabic-0"])
    def test_corrupt_node_rejected(self, tmp_path, tok, value):
        lines = _golden_lines(self.golden)
        root = next(i for i, line in enumerate(lines) if line.startswith("node "))
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(_with_token(lines, root, tok, value)) + "\n")
        with pytest.raises(FormatVersionMismatch):
            load_model(path)

    @pytest.mark.parametrize("old, new", [
        ("n_tasks 2", "n_tasks 2 junk"),
        ("n_features 3", "n_features 03"),
        ("num_trees 4", "num_trees \u0664"),  # ARABIC-INDIC DIGIT FOUR
        ("num_log_rows ", "num_log_rows +"),
        ("mapper max_bins 12", "mapper max_bins 1_2"),
        ("tree 0 nodes 4 leaves 5", "tree 0 foo 4 bar 5"),
        ("tree 1 nodes ", "tree 1 nodes +"),
        ("tree 2 nodes 4 leaves ", "tree 2 nodes 4 leaves 0"),
        ("tree 3 ", "tree 2 "),  # rejected at any version: tree i must be numbered i
        ("leaf 40 ", "leaf 4_0 "),
        ("feature 1 boundaries ", "feature 1 boundaries  "),
        # Floats and JSON that float.fromhex and json.loads read but
        # save_model never writes.
        ("base_scores 0x1.3358185ac918cp-4", "base_scores 1"),
        ("leaf 40 values 0x1.1fff303760994p-2", "leaf 40 values 0X1.1FFF303760994P-2"),
        ("leaf 40 values ", "leaf 40 values \t"),
        ("leaf 43 values 0x1.23ca466208d97p-4 0x1.7dfda06f42d90p-3",
         "leaf 43 values 0x1.23ca466208d97p-4 0x1.7dfda06f42d9p-3"),
        ('feature_names ["a", "b", "c"]', 'feature_names   ["a", "b", "c"]  '),
        ('feature_names ["a", "b", "c"]', 'feature_names ["a",  "b", "c"]'),
        ('params {"objectives": ', 'params {"objectives":'),
    ], ids=["n_tasks-junk", "n_features-03", "num_trees-arabic-4", "num_log_rows-+",
            "max_bins-1_2", "tree-foo-bar", "tree-nodes-+", "tree-leaves-0",
            "tree-3-numbered-2", "leaf-count-4_0", "boundaries-two-spaces",
            "base-score-1", "leaf-value-upper-case", "leaf-value-after-tab",
            "leaf-value-shortened", "feature_names-spaced", "feature_names-two-spaces",
            "params-colon-unspaced"])
    def test_line_not_as_saved_rejected(self, tmp_path, old, new):
        # But for the renumbered tree, each line loaded while integers were
        # read as int() reads them, header lines by their first words,
        # floats as float.fromhex reads them and JSON as json.loads does.
        lines = _golden_lines(self.golden)
        i = next(i for i, line in enumerate(lines) if line.startswith(old))
        lines[i] = new + lines[i][len(old):]
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatVersionMismatch):
            load_model(path)

    @pytest.mark.parametrize("text", [
        lambda lines: "\r\n".join(lines) + "\r\n",
        lambda lines: "\n".join(lines),
    ], ids=["crlf", "no-final-newline"])
    def test_line_endings_are_not_compared(self, tmp_path, text):
        # The rule compares the lines splitlines() gives, not the bytes
        # between them.
        path = tmp_path / "model.txt"
        path.write_bytes(text(_golden_lines(self.golden)).encode())
        x = np.random.default_rng(0).normal(size=(20, 3))
        assert predict(load_model(path), x).tobytes() == predict(load_model(self.golden),
                                                                  x).tobytes()

    @pytest.mark.parametrize("edit", [
        lambda lines: _with_token(lines, 55, 1, "2"),
        lambda lines: _with_token(lines, 54, 1, "00"),
        lambda lines: [*lines[:55], lines[56], lines[55], *lines[57:]],
    ], ids=["log-1-numbered-2", "log-0-numbered-00", "log-rows-swapped"])
    def test_log_row_out_of_position_rejected(self, tmp_path, edit):
        lines = _golden_lines(self.golden)
        assert lines[54].startswith("log 0 ") and lines[57].startswith("log 3 ")
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(edit(lines)) + "\n")
        with pytest.raises(FormatVersionMismatch, match=r"expected 'log \d train ', got 'log "):
            load_model(path)

    @pytest.mark.parametrize("change", [
        lambda p: p.pop("seed"),
        lambda p: p["mt"].pop("corr_mode"),
        _set("lambda", 0.5),
        _set("learning_rate", "x"),
        _set("max_leaves", True),
        _set("objectives", "regression_l2"),
        _set("task_weights", [0.5, "x"], "mt"),
        _set("mt", None),
        _set("learning_rate", 2.0),
        _set("max_leaves", 0),
        _set("task_select", "nope", "mt"),
        _set("seed", True),
    ], ids=["no-seed", "no-mt-corr_mode", "extra-key", "str-float", "bool-int",
            "str-list", "str-in-floatlist", "mt-null", "learning-rate-2", "max-leaves-0",
            "unknown-task-select", "bool-seed"])
    def test_corrupt_params_rejected(self, tmp_path, change):
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(_with_params(_golden_lines(self.golden), change)) + "\n")
        with pytest.raises(FormatVersionMismatch):
            load_model(path)

    def test_leaf_width_must_match_task_count(self, tmp_path):
        lines = _golden_lines(self.golden)
        i = next(i for i, line in enumerate(lines) if line.startswith("leaf "))
        parts = lines[i].split(" ")
        del parts[4]  # "leaf <count> values <v0> <v1> ..." loses <v1>
        lines[i] = " ".join(parts)
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatVersionMismatch):
            load_model(path)

    @pytest.mark.parametrize("value", ["-3", "1"])
    def test_max_bins_below_two_rejected(self, tmp_path, value):
        lines = _golden_lines(self.golden)
        i = next(i for i, line in enumerate(lines) if line.startswith("mapper max_bins "))
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(_with_token(lines, i, 2, value)) + "\n")
        with pytest.raises(FormatVersionMismatch, match="max_bins must be >= 2"):
            load_model(path)

    @pytest.mark.parametrize("tail", ["garbage 1\ngarbage 2\n", "copy"])
    def test_nothing_may_follow_end(self, tmp_path, tail):
        text = self.golden.read_text()
        path = tmp_path / "bad.txt"
        path.write_text(text + (text if tail == "copy" else tail))
        with pytest.raises(FormatVersionMismatch, match="lines follow 'end'"):
            load_model(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("prefix, tok", [
        ("base_scores ", 1), ("leaf ", 3), ("node ", -2), ("log ", 3), ("log ", 6),
    ], ids=["base-score", "leaf-value", "gain", "train-loss", "valid-loss"])
    def test_non_finite_value_rejected(self, tmp_path, prefix, tok, value):
        # train() never writes one; a -inf boundary is allowed (fit_bins
        # writes it for a column holding -inf).
        lines = _golden_lines(self.golden)
        i = next(i for i, line in enumerate(lines) if line.startswith(prefix))
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(_with_token(lines, i, tok, value)) + "\n")
        with pytest.raises(FormatVersionMismatch, match="must be finite"):
            load_model(path)

    def test_node_token_sweep_loads_and_predicts_or_rejects(self, rng, tmp_path):
        lines = _golden_lines(self.golden)
        x = rng.normal(size=(40, 3))
        x[::3, 1] = np.nan
        path = tmp_path / "swept.txt"
        rejected = 0
        for i, line in enumerate(lines):
            if not line.startswith("node "):
                continue
            for tok in range(len(line.split(" "))):
                for value in ("-1", "0", "99", "x", str(2**70), str(-2**70)):
                    path.write_text("\n".join(_with_token(lines, i, tok, value)) + "\n")
                    try:
                        model = load_model(path)
                    except MtboostError:
                        rejected += 1
                        continue
                    assert predict(model, x).shape == (40, 2)
        assert rejected > 0


class TestModelFileChecks(GoldenFileEdits):
    def test_golden_v2_round_trips_byte_for_byte(self, tmp_path):
        path = tmp_path / "again.txt"
        save_model(load_model(GOLDEN_V2), path)
        assert path.read_bytes() == GOLDEN_V2.read_bytes()

    @settings(max_examples=400)
    @given(token=st.sampled_from(GOLDEN_V2_TOKENS), respelling=st.sampled_from(list(RESPELLINGS)),
           digits=st.sampled_from(["\u0660", "\uff10", "\u0966"]))
    def test_respelled_token_rejected_or_saved_back(self, tmp_path_factory, token,
                                                    respelling, digits):
        # One integer, hex float or JSON token of the v2 golden file spelled
        # otherwise: the file is rejected, or it is exactly what save_model
        # writes of the model it loads as.
        line_no, start, end = token
        lines = _golden_lines(GOLDEN_V2)
        old = lines[line_no][start:end]
        new = RESPELLINGS[respelling](old, digits)
        event(respelling)
        lines[line_no] = lines[line_no][:start] + new + lines[line_no][end:]
        path = tmp_path_factory.getbasetemp() / "respelled.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            model = load_model(path)
        except FormatVersionMismatch:
            event("rejected")
            return
        again = tmp_path_factory.getbasetemp() / "saved_back.txt"
        save_model(model, again)
        assert again.read_bytes() == path.read_bytes(), (old, new)

    def test_deeply_nested_json_rejected(self, tmp_path):
        # json.loads gives up on 100,000 nested arrays with RecursionError;
        # load_model reports it as a corrupt file like any other.
        lines = _golden_lines(GOLDEN_V2)
        extra = next(i for i, line in enumerate(lines) if line.startswith("extra "))
        lines[extra] = "extra " + "[" * 100_000 + "]" * 100_000
        path = tmp_path / "deep.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatVersionMismatch, match="corrupt model file: maximum recursion"):
            load_model(path)

    def test_golden_v1_predicts_as_v2(self, rng):
        v1, v2 = load_model(GOLDEN), load_model(GOLDEN_V2)
        # The v1 file holds seed 3 and mt.seed 2; train() keyed selection on their sum.
        assert v1.params == v2.params and v1.params.seed == 5
        x = rng.normal(size=(300, 3))
        x[::3, 1] = np.nan
        x[::5, 0] = np.nan
        for task in (None, 0, 1):
            assert predict(v1, x, task).tobytes() == predict(v2, x, task).tobytes()

    @pytest.mark.parametrize("line, tok, value", [
        ("node ", 5, "0"),  # <default_right> must be 1
        ("leaf ", 5, "mean"),  # the token before the means
        ("leaf ", 6, "x"),  # a mean that is not a hex float
    ], ids=["default_right-0", "means-token", "means-hex"])
    def test_v1_only_columns_checked(self, tmp_path, line, tok, value):
        lines = _golden_lines()
        i = next(i for i, text in enumerate(lines) if text.startswith(line))
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(_with_token(lines, i, tok, value)) + "\n")
        with pytest.raises(FormatVersionMismatch):
            load_model(path)

    @pytest.mark.parametrize("change", [
        lambda p: p["mt"].pop("g_target_std"),
        _set("h_target_std", math.nan, "mt"),
        _set("seed", -1, "mt"),
        _set("seed", 1.0, "mt"),
    ], ids=["no-mt-g_target_std", "nan-std", "negative-mt-seed", "float-mt-seed"])
    def test_v1_only_params_checked(self, tmp_path, change):
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(_with_params(_golden_lines(), change)) + "\n")
        with pytest.raises(FormatVersionMismatch):
            load_model(path)

    @pytest.mark.parametrize("golden, marker", [
        (GOLDEN, "mtboost-model-v2"), (GOLDEN_V2, "mtboost-model-v1"),
    ], ids=["v1-lines", "v2-lines"])
    def test_marker_must_match_lines(self, tmp_path, golden, marker):
        path = tmp_path / "bad.txt"
        path.write_text("\n".join([marker, *_golden_lines(golden)[1:]]) + "\n")
        with pytest.raises(FormatVersionMismatch):
            load_model(path)

    def test_empty_task_weights_saved_as_null(self, rng, tmp_path):
        params = reg_params(mt=MTConfig(corr_mode="constant_one", task_weights=()))
        assert params.mt.task_weights is None
        path = tmp_path / "model.txt"
        save_model(train(binned(regression_table(rng)), params), path)
        assert '"task_weights": null' in path.read_text()

    @pytest.mark.parametrize("change", [
        lambda cuts: [cuts[-1], *cuts[1:-1], cuts[0]],
        lambda cuts: [cuts[0], *cuts],
        lambda cuts: [*cuts[:5], "nan", *cuts[6:]],
        lambda cuts: ["nan"],
    ], ids=["first-last-swapped", "repeated", "nan", "only-nan"])
    def test_boundaries_must_ascend(self, tmp_path, change):
        lines = _golden_lines()
        i = next(i for i, line in enumerate(lines) if line.startswith("feature 0 "))
        parts = lines[i].split(" ")
        lines[i] = " ".join(parts[:3] + change(parts[3:]))
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatVersionMismatch, match="feature 0 boundaries"):
            load_model(path)

    def test_negative_infinite_first_boundary_loads(self, tmp_path):
        # fit_bins writes -inf as the first boundary of a column holding -inf.
        lines = _golden_lines()
        i = next(i for i, line in enumerate(lines) if line.startswith("feature 0 "))
        parts = lines[i].split(" ")
        parts[3] = "-inf"
        lines[i] = " ".join(parts)
        path = tmp_path / "neg_inf.txt"
        path.write_text("\n".join(lines) + "\n")
        assert load_model(path).mapper.boundaries[0][0] == -np.inf

    def test_huge_leaf_count_rejected_before_allocating(self, tmp_path):
        # The first tree's header claims 10**12 leaves for its 4 nodes.
        lines = _golden_lines()
        header = next(i for i, line in enumerate(lines) if line.startswith("tree 0 "))
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(_with_token(lines, header, 5, str(10**12))) + "\n")
        tracemalloc.start()
        try:
            with pytest.raises(FormatVersionMismatch):
                load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**21

    @settings(max_examples=500)
    @given(case=mutated_trees())
    def test_check_tree_agrees_with_node_by_node_oracle(self, case):
        # The check under test is construction: the skeleton, its tree and
        # a model over a mapper with ``finite_bins`` bins per feature.
        kind, (feature, threshold_bin, left, right, n_leaves), finite_bins = case
        n = len(feature)

        def build():
            skeleton = TreeSkeleton(feature, threshold_bin, left, right, [0.0] * n, n_leaves)
            tree = MultiOutputTree(skeleton, np.zeros((n_leaves, 1)), [1] * n_leaves)
            mapper = BinMapper(tuple(np.arange(k - 1.0) for k in finite_bins), max_bins=8)
            names = tuple(f"f{j}" for j in range(len(finite_bins)))
            BoosterModel(trees=[tree], params=reg_params(n=1), mapper=mapper,
                         base_scores=[0.0], feature_names=names, task_names=("y",),
                         training_log=())

        def accepts(check, *args):
            try:
                check(*args)
            except ValueError:
                return False
            return True

        nodes = [types.SimpleNamespace(feature=f, threshold_bin=b, left=lc, right=rc)
                 for f, b, lc, rc in zip(feature, threshold_bin, left, right)]
        accepted = accepts(build)
        assert accepted == accepts(check_tree_oracle, nodes, n_leaves, finite_bins)
        if kind == "none":
            assert accepted

    @settings(max_examples=300)
    @given(edits=st.lists(
        st.tuples(st.sampled_from(["delete", "duplicate", "swap"]),
                  st.integers(0, 58), st.integers(0, 58)),
        min_size=1, max_size=3,
    ))
    def test_line_edits_load_and_predict_or_reject(self, tmp_path_factory, edits):
        # Whole lines of the golden file deleted, duplicated or swapped: the
        # file loads and predicts, or load_model raises an MtboostError.
        # On both golden files: a hypothesis test must not be inherited by
        # two classes (GoldenFileEdits), so this one loops over them.
        x = np.random.default_rng(0).normal(size=(40, 3))
        x[::3, 1] = np.nan

        def hang(signum, frame):
            raise TimeoutError("load or predict did not finish in 10 s")

        for golden in (GOLDEN, GOLDEN_V2):
            lines = _golden_lines(golden)
            for kind, i, j in edits:
                i, j = i % len(lines), j % len(lines)
                if kind == "delete":
                    del lines[i]
                elif kind == "duplicate":
                    lines.insert(j, lines[i])
                else:
                    lines[i], lines[j] = lines[j], lines[i]
            path = tmp_path_factory.getbasetemp() / "line_edits.txt"
            path.write_text("\n".join(lines) + "\n")
            previous = signal.signal(signal.SIGALRM, hang)
            signal.alarm(10)
            try:
                try:
                    model = load_model(path)
                except MtboostError:
                    continue
                assert predict(model, x).shape == (40, model.n_tasks)
            finally:
                signal.alarm(0)
                signal.signal(signal.SIGALRM, previous)


class TestModelFileChecksV2(GoldenFileEdits):
    golden = GOLDEN_V2


def _with_tree0(model, **changes):
    """``model`` with its first tree changed by ``changes``; a ``skeleton``
    entry is a dict of changes to that tree's skeleton."""
    tree = model.trees[0]
    if "skeleton" in changes:
        changes["skeleton"] = dataclasses.replace(tree.skeleton, **changes["skeleton"])
    return dataclasses.replace(model, trees=[dataclasses.replace(tree, **changes),
                                             *model.trees[1:]])


# Each builds a broken model or model part from the v2 golden model (2
# tasks, 3 features); the tree cases change its first tree, of 4 nodes and
# 5 leaves.
BROKEN_PARTS = {
    "descending-boundaries": lambda m: BinMapper(boundaries=(np.array([1.0, 0.0]),), max_bins=4),
    "max-bins-negative": lambda m: dataclasses.replace(m.mapper, max_bins=-3),
    "feature-named-twice": lambda m: dataclasses.replace(m, feature_names=("a", "a", "c")),
    "task-named-as-feature": lambda m: dataclasses.replace(m, task_names=("a", "y_reg")),
    "nan-base-score": lambda m: dataclasses.replace(m, base_scores=[math.nan, 0.0]),
    "nan-leaf-values": lambda m: MultiOutputTree(
        m.trees[0].skeleton, np.full((5, 2), math.nan), m.trees[0].leaf_counts),
    "root-is-its-own-left-child": lambda m: _with_tree0(m, skeleton={"left": [0, 3, -2, -4]}),
    "three-base-scores": lambda m: dataclasses.replace(m, base_scores=[0.0, 0.0, 0.0]),
    "three-task-leaves": lambda m: _with_tree0(m, leaf_values=np.zeros((5, 3))),
    "fewer-leaf-rows": lambda m: _with_tree0(m, leaf_values=m.trees[0].leaf_values[:-1]),
    "node-feature-7": lambda m: _with_tree0(m, skeleton={"feature": [7, 0, 2, 2]}),
    "two-feature-names": lambda m: dataclasses.replace(m, feature_names=("a", "b")),
    "negative-leaf-counts": lambda m: _with_tree0(m, leaf_counts=[-5] * 5),
    "zero-leaf-count": lambda m: _with_tree0(m, leaf_counts=[40, 24, 0, 43, 23]),
    "leaf-counts-past-int64": lambda m: _with_tree0(m, leaf_counts=[2**62] * 5),
    "max-bins-2": lambda m: dataclasses.replace(m.mapper, max_bins=2),
    "max-bins-11": lambda m: dataclasses.replace(m.mapper, max_bins=11),
    "max-bins-nan": lambda m: dataclasses.replace(m.mapper, max_bins=math.nan),
    "max-bins-12.0": lambda m: dataclasses.replace(m.mapper, max_bins=12.0),
    "feature-names-none": lambda m: dataclasses.replace(m, feature_names=None),
    "task-name-not-a-string": lambda m: dataclasses.replace(m, task_names=("y_cls", 1)),
    "leaf-values-sum-past-float64": lambda m: _replaced(m, "every leaf value", 0, 1e308),
}


@pytest.mark.parametrize("build", BROKEN_PARTS.values(), ids=BROKEN_PARTS)
def test_broken_model_part_rejected_when_made(build):
    # Unchecked, each would build silently, or build and then make predict
    # fail with a bare numpy error or return NaN.
    model = load_model(GOLDEN_V2)
    with pytest.raises(InvalidParameter):
        build(model)


# Each builds a model part from values that do not convert to its arrays'
# dtypes; the error names the field.
UNCONVERTIBLE_PARTS = {
    "feature": lambda m: TreeSkeleton([2**70], [0], [-1], [-2], [0.0], 2),
    "threshold_bin": lambda m: _with_tree0(m, skeleton={"threshold_bin": np.full(4, np.nan)}),
    "left": lambda m: _with_tree0(m, skeleton={"left": [3, 2, math.nan, -4]}),
    "right": lambda m: _with_tree0(m, skeleton={"right": None}),
    "gain": lambda m: _with_tree0(m, skeleton={"gain": ["x"] * 4}),
    "leaf_counts": lambda m: MultiOutputTree(nodeless_skeleton(), [[0.0]], [2**70]),
    "leaf_values": lambda m: _with_tree0(m, leaf_values=[[0.0, 1.0]] * 4 + [[0.0]]),
    "base_scores": lambda m: dataclasses.replace(m, base_scores=["x", 0.0]),
    "feature 1 boundaries": lambda m: BinMapper((np.zeros(1), [1e30, "y"]), max_bins=4),
}


@pytest.mark.parametrize("field", UNCONVERTIBLE_PARTS)
def test_unconvertible_model_part_is_typed(field):
    # numpy raised a bare OverflowError, ValueError or TypeError.
    with pytest.raises(InvalidParameter, match=f"^{field}: "):
        UNCONVERTIBLE_PARTS[field](load_model(GOLDEN_V2))


@functools.cache
def _golden_v2_model():
    return load_model(GOLDEN_V2)


# Values drawn in place of a model part or one of its entries: small ones
# first, which hypothesis draws most (11 and 12 sit at the golden mapper's
# max_bins), then ones past int64, NaN, infinite or of another type.
ODD_VALUES = (0, 2, 11, 1, 3, 12, -1, -5, 0.5, True, "1", 2**62, 2**63 - 1, 2**70, -2**70, 1e300,
              -1e300, math.nan, math.inf, -math.inf, "x", "a", None)
# A part is a node field or leaf row of the first tree, its leaf counts, a
# boundary array, the base scores, a name list or max_bins.
MODEL_PARTS = (*NODE_DTYPES, "leaf row", "leaf_counts", "boundaries", "base_scores",
               "feature_names", "task_names", "max_bins")


@st.composite
def replaced_parts(draw):
    """(part, index, value): ``part`` of the v2 golden model, row or feature
    ``index`` for a leaf row or a boundary array, replaced by ``value``: the
    part with one entry replaced, or a drawn scalar, list or nested list."""
    part = draw(st.sampled_from(MODEL_PARTS))
    index = draw(st.integers(0, 4))
    odd = st.sampled_from(ODD_VALUES)
    old = _part(_golden_v2_model(), part, index)
    shape = draw(st.sampled_from(["entry", "entry", "entry", "scalar", "list", "nested"]))
    if shape == "entry" and isinstance(old, list) and old:
        value = list(old)
        value[draw(st.integers(0, len(old) - 1))] = draw(odd)
    elif shape == "list":
        value = draw(st.lists(odd, max_size=6))
    elif shape == "nested":
        value = [draw(st.lists(odd, min_size=1, max_size=3))] * 2
    else:
        value = draw(odd)
    return part, index, value


def _part(model, part, index):
    """The value of ``part`` (see replaced_parts) as Python lists."""
    tree = model.trees[0]
    if part in NODE_DTYPES:
        return getattr(tree.skeleton, part).tolist()
    if part == "leaf row":
        return tree.leaf_values[index].tolist()
    if part == "leaf_counts":
        return tree.leaf_counts.tolist()
    if part == "boundaries":
        return model.mapper.boundaries[index % model.n_features].tolist()
    if part == "max_bins":
        return model.mapper.max_bins
    value = getattr(model, part)
    return list(value.tolist() if isinstance(value, np.ndarray) else value)


def _replaced(model, part, index, value):
    """``model`` with ``part`` (see replaced_parts) replaced by ``value``."""
    if part in NODE_DTYPES:
        return _with_tree0(model, skeleton={part: value})
    if part == "leaf row":
        rows = model.trees[0].leaf_values.tolist()
        rows[index] = value
        return _with_tree0(model, leaf_values=rows)
    if part == "leaf_counts":
        return _with_tree0(model, leaf_counts=value)
    if part == "every leaf value":  # of every tree
        return dataclasses.replace(model, trees=[
            dataclasses.replace(tree, leaf_values=np.full_like(tree.leaf_values, value))
            for tree in model.trees])
    if part in ("boundaries", "max_bins"):
        boundaries = list(model.mapper.boundaries)
        if part == "boundaries":
            boundaries[index % model.n_features] = value
        max_bins = value if part == "max_bins" else model.mapper.max_bins
        return dataclasses.replace(model, mapper=BinMapper(tuple(boundaries), max_bins))
    return dataclasses.replace(model, **{part: value})


@settings(max_examples=500)
@given(case=replaced_parts())
@example(case=("feature", 0, [2**70, 0, 2, 2]))  # numpy's bare OverflowError
@example(case=("leaf_counts", 0, [2**70, 24, 30, 43, 23]))
@example(case=("max_bins", 0, 2))  # more finite bins than max_bins
@example(case=("leaf_counts", 0, [-5] * 5))  # counts no rows
@example(case=("leaf row", 1, [1e300, -1e300]))
@example(case=("every leaf value", 0, 1e308))  # each finite, their sum not
def test_every_model_that_builds_is_usable(tmp_path_factory, case):
    # Either building the model raises an MtboostError, or the model
    # predicts finite scores, saves and loads to the same bytes, extracts
    # each task's column, and holds the invariants its readers rely on: a
    # leaf's count weights a mean, so it is at least 1, and bin indices fit
    # the dtype that max_bins alone would choose.
    try:
        model = _replaced(_golden_v2_model(), *case)
    except MtboostError:
        event(f"{case[0]} rejected")
        return
    event(f"{case[0]} built")
    x = np.random.default_rng(0).normal(scale=3.0, size=(30, 3))
    x[::4, 1] = np.nan
    x[1::5, [0, 2]] = np.nan
    scores = predict(model, x)
    assert scores.shape == (30, model.n_tasks) and np.isfinite(scores).all()
    first, again = (tmp_path_factory.getbasetemp() / name for name in ("first.txt", "again.txt"))
    save_model(model, first)
    save_model(load_model(first), again)
    assert first.read_bytes() == again.read_bytes()
    for t in range(model.n_tasks):
        assert predict(extract_task(model, t), x)[:, 0].tobytes() == scores[:, t].tobytes()
    assert all((tree.leaf_counts >= 1).all() for tree in model.trees)
    assert (model.mapper.finite_bin_counts <= model.mapper.max_bins).all()


class TestExtractTask:
    def test_projection_equals_column(self, rng):
        table = regression_table(rng)
        model = train(binned(table), reg_params())
        x = rng.uniform(0, 1, size=(1000, 3))
        full = predict(model, x)
        for t in range(2):
            sub = extract_task(model, t)
            np.testing.assert_array_equal(predict(sub, x)[:, 0], full[:, t])
            np.testing.assert_array_equal(predict(sub, x, task=0), full[:, t])

    def test_extracted_file_smaller(self, rng, tmp_path):
        table = regression_table(rng)
        model = train(binned(table), reg_params())
        full_path = tmp_path / "full.txt"
        sub_path = tmp_path / "sub.txt"
        save_model(model, full_path)
        save_model(extract_task(model, 0), sub_path)
        assert sub_path.stat().st_size < full_path.stat().st_size

    def test_out_of_range(self, rng):
        table = regression_table(rng)
        model = train(binned(table), reg_params())
        with pytest.raises(TaskIndexOutOfRange):
            extract_task(model, 2)

    def test_task_index_is_an_integer(self, rng):
        table = regression_table(rng)
        model = train(binned(table), reg_params(num_iterations=2))
        x = table.features[:10]
        for call in (lambda task: predict(model, x, task),
                     lambda task: predict_proba(model, x, task),
                     lambda task: extract_task(model, task)):
            for task in (1.5, True):
                with pytest.raises(TaskIndexOutOfRange,
                                   match=rf"task {re.escape(str(task))} not in \[0, 2\)"):
                    call(task)
        np.testing.assert_array_equal(predict(model, x, np.int64(1)), predict(model, x, 1))
        np.testing.assert_array_equal(predict_proba(model, x, np.int64(1)),
                                      predict_proba(model, x, 1))
        np.testing.assert_array_equal(predict(extract_task(model, np.int64(1)), x, 0),
                                      predict(model, x, 1))

    def test_identity_on_single_task(self, rng):
        table = regression_table(rng, n=1)
        model = train(binned(table), reg_params(n=1))
        sub = extract_task(model, 0)
        x = table.features[:50]
        np.testing.assert_array_equal(predict(sub, x), predict(model, x))


class TestFrozenModel:
    """A model, its trees and their arrays cannot be edited in place, so
    what predict reads and what save_model writes are one model."""

    @pytest.fixture
    def models(self, rng, tmp_path):
        table = regression_table(rng, m=300, n=3)
        table.features[rng.random(300) < 0.2, 1] = np.nan
        model = train(binned(table), reg_params(n=3, num_iterations=6))
        path = tmp_path / "model.txt"
        save_model(model, path)
        return {"trained": model, "loaded": load_model(path), "extracted": extract_task(model, 2)}

    def test_fields_cannot_be_assigned(self, models):
        for model in models.values():
            tree = model.trees[0]
            for obj, name in ((model, "trees"), (model, "base_scores"), (model, "extra"),
                              (model, "chunks"), (tree, "leaf_values"), (tree, "skeleton"),
                              (tree.skeleton, "feature"), (tree.skeleton, "n_leaves")):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(obj, name, getattr(obj, name))

    def test_arrays_cannot_be_written(self, models):
        for model in models.values():
            tree = model.trees[0]
            arrays = [tree.leaf_values, tree.leaf_counts, model.base_scores,
                      model.mapper.boundaries[0]]
            arrays += [getattr(tree.skeleton, name) for name in NODE_DTYPES]
            arrays += [model.chunks[0].values, model.chunks[0].start,
                       model.chunks[0].tables[0][1]]
            for array in arrays:
                assert array.size
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = array[0]

    def test_sequences_cannot_be_changed(self, models):
        for model in models.values():
            with pytest.raises(AttributeError):
                model.trees.append(model.trees[0])
            with pytest.raises(TypeError):
                model.trees[0] = model.trees[-1]
            with pytest.raises(TypeError):
                model.training_log[0] = model.training_log[-1]

    def test_copies_are_frozen_too(self, rng, models):
        x = rng.uniform(-0.2, 1.2, size=(50, 3))
        for name, model in models.items():
            for copied in (pickle.loads(pickle.dumps(model)), copy.deepcopy(model),
                           copy.copy(model)):
                tree = copied.trees[0]
                for array in (tree.leaf_values, tree.skeleton.left, copied.base_scores,
                              copied.mapper.boundaries[0], copied.chunks[0].values):
                    assert not array.flags.writeable, name
                assert predict(copied, x).tobytes() == predict(model, x).tobytes(), name

    def test_callers_arrays_keep_their_flags(self):
        values, counts = np.array([[0.5, -1.0]]), np.array([7])
        feature = np.zeros(0, dtype=np.intp)
        tree = MultiOutputTree(TreeSkeleton(feature, feature, feature, feature, [], 1),
                               values, counts)
        cuts = np.array([0.0, 1.0])
        model = BoosterModel(trees=[tree], params=BoosterParams(objectives=(REGRESSION_L2,) * 2),
                             mapper=BinMapper(boundaries=(cuts,), max_bins=4),
                             base_scores=values[0], feature_names=("a",), task_names=("y", "z"),
                             training_log=[])
        assert tree.leaf_values.base is values and tree.skeleton.feature.base is feature
        assert model.mapper.boundaries[0].base is cuts
        for array in (values, counts, feature, cuts):
            assert array.flags.writeable
        assert not any(a.flags.writeable for a in (tree.leaf_values, tree.leaf_counts,
                                                   model.base_scores, model.mapper.boundaries[0]))

    def test_chunks_hold_slot_ordered_values(self, models):
        for model in models.values():
            assert type(model.chunks) is tuple
            for routes in model.chunks:
                assert type(routes) is RouteTables
                assert routes.values.flags.c_contiguous
                assert routes.values.shape[1] == model.n_tasks

    def test_replaced_model_predicts_as_its_file(self, rng, models, tmp_path):
        x = rng.uniform(-0.2, 1.2, size=(200, 3))
        x[::7, 1] = np.nan
        path = tmp_path / "cut.txt"
        for name, model in models.items():
            for k in (0, 1, 4, len(model.trees)):
                cut = dataclasses.replace(model, trees=model.trees[:k])
                assert len(cut.trees) == k and sum(r.start.size for r in cut.chunks) == k
                save_model(cut, path)
                loaded = load_model(path)
                assert predict(cut, x).tobytes() == predict(loaded, x).tobytes(), (name, k)
                for t in range(model.n_tasks):
                    got = predict(cut, x, task=t).tobytes()
                    assert got == predict(loaded, x, task=t).tobytes(), (name, k, t)


class TestDeterminism:
    def test_same_seed_same_model(self, rng, tmp_path):
        table = regression_table(rng, n=2)
        ds = binned(table)
        params = reg_params(
            seed=42 + 7, mt=MTConfig(task_select="uniform_random", n_selected=1)
        )
        m1 = train(ds, params)
        m2 = train(ds, params)
        p1, p2 = tmp_path / "m1.txt", tmp_path / "m2.txt"
        save_model(m1, p1)
        save_model(m2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_different_seed_changes_selection(self, rng):
        table = regression_table(rng, n=2)
        ds = binned(table)
        base = reg_params(mt=MTConfig(task_select="uniform_random", n_selected=1))
        import dataclasses

        m1 = train(ds, base)
        m2 = train(ds, dataclasses.replace(base, seed=99))
        s1 = [engine_tree_structure(t.nodes) for t in m1.trees]
        s2 = [engine_tree_structure(t.nodes) for t in m2.trees]
        assert s1 != s2  # task rotation differs, structures should too
