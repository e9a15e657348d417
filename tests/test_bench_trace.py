"""The benchmark's trace hooks (bench/spans.py) against the current program.

``bench/run.py --trace 1`` wraps public functions where their callers look
them up. A refactor that moves or renames one of them, or changes what a
work counter reads, breaks the traced benchmark without failing any other
test; these tests catch that.
"""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from mtboost import booster, tree
from mtboost.data import RawTable, apply_bins, fit_bins
from mtboost.gradients import MTConfig

BENCH = Path(__file__).parents[1] / "bench"
GOLDEN = Path(__file__).parent / "golden_model_v1.txt"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def spans():
    return _load("spans")


def test_every_target_resolves(spans):
    for name, (places, _) in spans.TARGETS.items():
        for module, attr in places:
            assert callable(getattr(module, attr, None)), f"{name}: {module.__name__}.{attr}"


def test_checks_read_trained_and_loaded_trees(rng):
    # bench/checks.py walks t.nodes by attribute and truth-tests it; a tree
    # without nodes (max_leaves=1) must read as falsy and walk to leaf 0.
    checks = _load("checks")
    x = rng.normal(size=(300, 3))
    x[::7, 1] = np.nan
    y = np.column_stack([x[:, 0] + rng.normal(scale=0.1, size=300), x[:, 2] > 0])
    table = RawTable(x, y.astype(np.float64), ("a", "b", "c"), ("y_reg", "y_cls"))
    ds = apply_bins(table, fit_bins(table, 16))
    models = []
    for max_leaves in (1, 6):
        params = booster.BoosterParams(
            objectives=("regression_l2", "binary_logloss"), num_iterations=3,
            learning_rate=0.3, max_leaves=max_leaves, min_samples_leaf=5,
        )
        models.append((booster.train(ds, params), table.m))
    assert not models[0][0].trees[0].nodes and models[1][0].trees[0].nodes
    golden = booster.load_model(GOLDEN)
    models.append((golden, int(golden.trees[0].leaf_counts.sum())))
    for model, m in models:
        assert checks.check_structure(model, m) == []
        assert checks.check_walk(model, x, booster.predict(model, x)) == []


def test_traced_train_predict_save(spans, rng, tmp_path):
    def table(m):
        x = rng.normal(size=(m, 3))
        x[::7, 1] = np.nan
        y = np.column_stack([x[:, 0] + rng.normal(scale=0.1, size=m), x[:, 2] > 0])
        return RawTable(x, y.astype(np.float64), ("a", "b", "c"), ("y_reg", "y_cls"))

    train_table = table(300)
    mapper = fit_bins(train_table, 16)
    train_ds = apply_bins(train_table, mapper)
    valid_ds = apply_bins(table(120), mapper)
    rows = rng.normal(size=(50, 3))
    params = booster.BoosterParams(
        objectives=("regression_l2", "binary_logloss"), num_iterations=4,
        learning_rate=0.3, max_leaves=6, min_samples_leaf=5, mt=MTConfig(n_selected=2),
    )

    tracer = spans.Tracer()
    with tracer.phase("op"):
        model = booster.train(train_ds, params, valid_ds)
        booster.predict(model, rows)
        booster.save_model(model, tmp_path / "model.txt")
        booster.load_model(tmp_path / "model.txt")
    totals = tracer.totals(tracer.roots("op")[0])

    for name in ("booster.train", "booster.predict", "booster.save_model", "booster.load_model",
                 "tree.grow_tree", "tree.fit_leaf_values", "tree.route_binned",
                 "tree.build_histograms", "tree.find_best_split",
                 "objectives.grad_hess", "objectives.loss", "gradients.ensemble",
                 "gradients.updating", "data.bin_column"):
        assert totals[name]["calls"] > 0, name
    assert totals["tree.grow_tree"]["calls"] == len(model.trees) == 4
    n_leaves = sum(t.n_leaves for t in model.trees)
    assert n_leaves > len(model.trees)
    assert totals["tree.grow_tree"]["work"] == n_leaves
    # Validation routes each new tree over every validation row; predict
    # routes all trees of a row block together, so each of its calls counts
    # the block's rows once (here one block and one word kind).
    routed = totals["tree.route_binned"]
    predict_calls = routed["calls"] - len(model.trees)
    assert predict_calls == 1
    assert routed["work"] == len(model.trees) * valid_ds.m + predict_calls * len(rows)
    # load_model checks a file against the lines save_model writes without
    # calling save_model, so the save spans count the one save alone.
    assert totals["booster.load_model"]["calls"] == totals["booster.save_model"]["calls"] == 1
    assert totals["booster.save_model"]["work"] == (tmp_path / "model.txt").stat().st_size
    assert booster.grow_tree is tree.grow_tree  # the phase restored the originals


def test_traced_train_records_each_pass_once_per_iteration(spans, rng):
    # The boosting step looks every pass up in booster's namespace, where
    # the trace installs its wrappers.
    x = rng.normal(size=(240, 3))
    y = np.column_stack([x[:, 0] + rng.normal(scale=0.1, size=240), x[:, 2] > 0])
    table = RawTable(x, y.astype(np.float64), ("a", "b", "c"), ("y_reg", "y_cls"))
    mapper = fit_bins(table, 16)
    train_ds = apply_bins(table, mapper)
    valid_ds = dataclasses.replace(train_ds, binned=train_ds.binned[:80],
                                   labels=train_ds.labels[:80])
    params = booster.BoosterParams(
        objectives=("regression_l2", "binary_logloss"), num_iterations=5,
        learning_rate=0.3, max_leaves=4, min_samples_leaf=5, mt=MTConfig(n_selected=2),
    )
    tracer = spans.Tracer()
    with tracer.phase("op"):
        model = booster.train(train_ds, params, valid_ds)
    totals = tracer.totals(tracer.roots("op")[0])
    assert len(model.trees) == 5
    for name in ("objectives.grad_hess", "gradients.ensemble", "gradients.updating",
                 "tree.grow_tree", "tree.fit_leaf_values", "tree.route_binned"):
        assert totals[name]["calls"] == 5, name


def test_traced_growth_counts_every_row_at_the_root(spans, rng):
    # The root's histogram reads whole columns; its work count is still m.
    m = 500
    x = rng.normal(size=(m, 3))
    x[::5, 0] = np.nan
    table = RawTable(x, x[:, :1] > 0, ("a", "b", "c"), ("y",))
    ds = apply_bins(table, fit_bins(table, 32))
    g = rng.normal(size=m)
    h = rng.uniform(0.5, 1.0, size=m)
    params = booster.BoosterParams(objectives=("binary_logloss",), max_leaves=6,
                                   min_samples_leaf=5)
    tracer = spans.Tracer()
    with tracer.phase("op"):
        skeleton, _ = tree.grow_tree(ds, g, h, params)
    built = [work for name, *_, work in tracer.spans if name == "tree.build_histograms"]
    assert skeleton.n_leaves == 6 and len(built) >= 2
    # Each later call builds the smaller child, at most half its parent's rows.
    assert built[0] == m and all(0 < work <= m // 2 for work in built[1:])
    assert tracer.totals(tracer.roots("op")[0])["tree.build_histograms"]["work"] == sum(built)
