import dataclasses
import json
import math
import signal
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtboost.booster import (
    BoosterModel,
    BoosterParams,
    extract_task,
    load_model,
    param_types,
    predict,
    predict_proba,
    save_model,
    train,
)
from mtboost.data import RawTable, apply_bins, bin_column, fit_bins
from mtboost.errors import (
    FeatureCountMismatch,
    FormatVersionMismatch,
    InvalidParameter,
    LabelOverflow,
    MapperMismatch,
    MtboostError,
    TaskIndexOutOfRange,
)
from mtboost.gradients import MTConfig
from mtboost.objectives import BINARY_LOGLOSS, REGRESSION_L2, transform_score

from oracles import engine_tree_structure, ref_boost_structures, route_binned_oracle


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
        with pytest.raises(ValueError):
            train(ds, reg_params(n=1, objectives=(BINARY_LOGLOSS,)))

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
            ("grad_hess", lambda a, out: (a[0], a[1], out.g, out.h)),
            ("updating_grad_hess", lambda a, out: (out.g, out.h)),
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
            nodes=[],
            leaf_values=np.array([[0.2, -0.1]]),
            leaf_residual_means=np.zeros((1, 2)),
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
        from mtboost.tree import route_binned

        x = table.features[:20]
        cols = np.column_stack(
            [bin_column(x[:, f], model.mapper.boundaries[f]) for f in range(x.shape[1])]
        )
        last = model.trees[-1]
        contribution = last.leaf_values[route_binned(last.nodes, cols)]
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


def _golden_lines():
    return GOLDEN.read_text().splitlines()


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


class TestModelFileChecks:
    def test_golden_v1_round_trips_byte_for_byte(self, tmp_path):
        path = tmp_path / "again.txt"
        save_model(load_model(GOLDEN), path)
        assert path.read_bytes() == GOLDEN.read_bytes()

    def test_empty_task_weights_saved_as_null(self, rng, tmp_path):
        params = reg_params(mt=MTConfig(corr_mode="constant_one", task_weights=()))
        assert params.mt.task_weights is None
        path = tmp_path / "model.txt"
        save_model(train(binned(regression_table(rng)), params), path)
        assert '"task_weights": null' in path.read_text()

    @pytest.mark.parametrize("tok, value", [
        (3, "0"),  # left child is the node itself: routing would never end
        (4, "99"),  # right child past the last node
        (3, "-99"),  # leaf past the last leaf
        (1, "99"),  # feature past the last feature
        (2, "99"),  # threshold_bin past the feature's last boundary
        (5, "0"),  # <default_right> must be 1
    ], ids=["self-loop", "child-99", "leaf-99", "feature-99", "threshold-99",
            "default_right-0"])
    def test_corrupt_node_rejected(self, tmp_path, tok, value):
        lines = _golden_lines()
        root = next(i for i, line in enumerate(lines) if line.startswith("node "))
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(_with_token(lines, root, tok, value)) + "\n")
        with pytest.raises(FormatVersionMismatch):
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
    ], ids=["no-seed", "no-mt-corr_mode", "extra-key", "str-float", "bool-int",
            "str-list", "str-in-floatlist", "mt-null"])
    def test_corrupt_params_rejected(self, tmp_path, change):
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(_with_params(_golden_lines(), change)) + "\n")
        with pytest.raises(FormatVersionMismatch):
            load_model(path)

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

    def test_leaf_width_must_match_task_count(self, tmp_path):
        lines = _golden_lines()
        i = next(i for i, line in enumerate(lines) if line.startswith("leaf "))
        parts = lines[i].split(" ")
        del parts[4]  # "leaf <count> values <v0> <v1> means ..." loses <v1>
        lines[i] = " ".join(parts)
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatVersionMismatch):
            load_model(path)

    def test_node_token_sweep_loads_and_predicts_or_rejects(self, rng, tmp_path):
        lines = _golden_lines()
        x = rng.normal(size=(40, 3))
        x[::3, 1] = np.nan
        path = tmp_path / "swept.txt"
        rejected = 0
        for i, line in enumerate(lines):
            if not line.startswith("node "):
                continue
            for tok in range(len(line.split(" "))):
                for value in ("-1", "0", "99", "x"):
                    path.write_text("\n".join(_with_token(lines, i, tok, value)) + "\n")
                    try:
                        model = load_model(path)
                    except MtboostError:
                        rejected += 1
                        continue
                    assert predict(model, x).shape == (40, 2)
        assert rejected > 0

    @settings(max_examples=300)
    @given(edits=st.lists(
        st.tuples(st.sampled_from(["delete", "duplicate", "swap"]),
                  st.integers(0, 58), st.integers(0, 58)),
        min_size=1, max_size=3,
    ))
    def test_line_edits_load_and_predict_or_reject(self, tmp_path_factory, edits):
        # Whole lines of the golden file deleted, duplicated or swapped: the
        # file loads and predicts, or load_model raises an MtboostError.
        lines = _golden_lines()
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
        x = np.random.default_rng(0).normal(size=(40, 3))
        x[::3, 1] = np.nan

        def hang(signum, frame):
            raise TimeoutError("load or predict did not finish in 10 s")

        previous = signal.signal(signal.SIGALRM, hang)
        signal.alarm(10)
        try:
            try:
                model = load_model(path)
            except MtboostError:
                return
            assert predict(model, x).shape == (40, model.n_tasks)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


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

    def test_identity_on_single_task(self, rng):
        table = regression_table(rng, n=1)
        model = train(binned(table), reg_params(n=1))
        sub = extract_task(model, 0)
        x = table.features[:50]
        np.testing.assert_array_equal(predict(sub, x), predict(model, x))


class TestDeterminism:
    def test_same_seed_same_model(self, rng, tmp_path):
        table = regression_table(rng, n=2)
        ds = binned(table)
        params = reg_params(
            seed=42, mt=MTConfig(task_select="uniform_random", n_selected=1, seed=7)
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
