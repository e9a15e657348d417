"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
timings. Every tolerance is pinned here; nothing is deferred.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from mtboost import (
    BoosterParams,
    MTConfig,
    RawTable,
    SyntheticSpec,
    apply_bins,
    extract_task,
    fit_bins,
    gen_synthetic,
    load_model,
    mape,
    predict,
    rmse,
    roc_auc,
    save_model,
    train,
)
from mtboost.cli import main as cli_main
from mtboost.gradients import ensemble_grad_hess, select_tasks, updating_grad_hess
from mtboost.objectives import BINARY_LOGLOSS, REGRESSION_L2, grad_hess
from mtboost.tree import build_histograms, find_best_split

from conftest import make_binned_dataset
from oracles import (
    engine_tree_structure,
    ensemble_oracle,
    enumerate_best_split,
    pairwise_auc,
    ref_boost_structures,
    updating_oracle,
)
from test_objectives import per_sample_loss


@contextmanager
def criterion(num, desc, max_seconds=None):
    t0 = time.time()
    try:
        yield
    except Exception:
        print(f"criterion {num:2d} FAIL: {desc} ({time.time() - t0:.1f}s)")
        raise
    elapsed = time.time() - t0
    print(f"criterion {num:2d} PASS: {desc} ({elapsed:.1f}s)")
    if max_seconds is not None:
        assert elapsed < max_seconds, f"criterion {num} exceeded {max_seconds}s"


def _split(table, m_train):
    tr = RawTable(table.features[:m_train], table.labels[:m_train],
                  table.feature_names, table.task_names)
    te = RawTable(table.features[m_train:], table.labels[m_train:],
                  table.feature_names, table.task_names)
    return tr, te


def _auc_experiment(scenario, seed, mt_cfg, booster_kw, *, noise, d,
                    m_train=5000, m_test=10000, max_bins=63):
    """Main-task test AUC of the 2-task model and the 1-task baseline."""
    spec = SyntheticSpec(scenario, m=m_train + m_test, d=d, noise_rate=noise, seed=seed)
    tr, te = _split(gen_synthetic(spec), m_train)

    ds = apply_bins(tr, fit_bins(tr, max_bins))
    params = BoosterParams(objectives=(BINARY_LOGLOSS, BINARY_LOGLOSS),
                           seed=seed, mt=mt_cfg, **booster_kw)
    mt_auc = roc_auc(te.labels[:, 0], predict(train(ds, params), te.features, task=0))

    tr1 = RawTable(tr.features, tr.labels[:, :1], tr.feature_names, tr.task_names[:1])
    ds1 = apply_bins(tr1, fit_bins(tr1, max_bins))
    params1 = BoosterParams(objectives=(BINARY_LOGLOSS,), seed=seed,
                            mt=MTConfig(corr_mode="constant_one"), **booster_kw)
    single_auc = roc_auc(te.labels[:, 0], predict(train(ds1, params1), te.features, task=0))
    return mt_auc, single_auc


ROTATION = MTConfig(task_select="uniform_random", n_selected=1, gamma_boost=50.0,
                    corr_mode="constant_one")


def test_criterion_1_gradient_finite_differences():
    with criterion(1, "finite-difference gradients for both objectives", 1.0):
        rng = np.random.default_rng(101)
        delta = 1e-5
        for kind in (REGRESSION_L2, BINARY_LOGLOSS):
            for _ in range(100):
                y = (float(rng.integers(0, 2)) if kind == BINARY_LOGLOSS
                     else float(rng.normal(scale=3)))
                raw = float(rng.normal(scale=3))
                g, h = grad_hess(np.array([[y]]), np.array([[raw]]), (kind,))
                num_g = (per_sample_loss(y, raw + delta, kind)
                         - per_sample_loss(y, raw - delta, kind)) / (2 * delta)
                assert abs(g[0, 0] - num_g) < 1e-6
                gp = grad_hess(np.array([[y]]), np.array([[raw + delta]]), (kind,))[0][0, 0]
                gm = grad_hess(np.array([[y]]), np.array([[raw - delta]]), (kind,))[0][0, 0]
                assert abs(h[0, 0] - (gp - gm) / (2 * delta)) < 1e-6


def test_criterion_2_split_oracle_equivalence():
    with criterion(2, "find_best_split matches exhaustive enumeration on 60 datasets", 30.0):
        rng = np.random.default_rng(202)
        checked_splits = 0
        for trial in range(60):
            m = int(rng.integers(5, 201))
            d = int(rng.integers(1, 6))
            finite = [int(rng.integers(1, 17)) for _ in range(d)]
            binned = np.column_stack([rng.integers(0, nb, size=m) for nb in finite])
            if trial % 3 == 0:
                # sprinkle missing-bin samples; they must stay on the right
                for f in range(d):
                    mask = rng.random(m) < 0.1
                    binned[mask, f] = finite[f]
            ds = make_binned_dataset(binned, finite_bins=finite)
            g = rng.normal(size=m)
            h = rng.uniform(0.2, 2.0, size=m)
            if trial % 4 == 0:
                # duplicate a feature to force exact gain ties
                binned[:, -1] = binned[:, 0]
                finite[-1] = finite[0]
                ds = make_binned_dataset(binned, finite_bins=finite)
            params = BoosterParams(
                objectives=("regression_l2",), max_leaves=2, max_depth=1,
                min_samples_leaf=int(rng.integers(1, 6)),
                min_hess_leaf=float(rng.choice([0.0, 1e-3])),
                min_gain_to_split=0.0,
                lambda_reg=float(rng.choice([0.0, 0.1, 1.0])),
                gamma_reg=float(rng.choice([0.0, 0.05])),
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
                assert got.gain == pytest.approx(want[2], rel=1e-9, abs=1e-12)
                checked_splits += 1
        assert checked_splits >= 30


def test_criterion_3_gradient_algorithm_oracles():
    with criterion(3, "ensemble and updating passes match straight-line oracles at 1e-12", 5.0):
        rng = np.random.default_rng(303)
        for trial in range(30):
            m = int(rng.integers(3, 80))
            n = int(rng.integers(1, 5))
            g = rng.normal(scale=rng.uniform(0.01, 10), size=(m, n))
            h = rng.uniform(0.0, 3.0, size=(m, n))
            cfg = MTConfig(
                gamma_boost=float(rng.uniform(10, 100)),
                task_select="uniform_random",
                n_selected=int(rng.integers(1, n + 1)),
                corr_mode="pearson_to_main" if trial % 2 else "constant_one",
            )
            eg = ensemble_grad_hess(g, h, cfg, iteration=trial, seed=trial)
            chosen = select_tasks(cfg, n, trial, seed=trial)
            assert eg.chosen_tasks == chosen
            oge, ohe, ow, ov = ensemble_oracle(
                g, h, gamma=cfg.gamma_boost, chosen=chosen,
                g_target_mean=cfg.g_target_mean, h_target_mean=cfg.h_target_mean,
            )
            np.testing.assert_allclose(eg.g_e, oge, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(eg.h_e, ohe, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(eg.w, ow, rtol=1e-12)
            np.testing.assert_allclose(eg.v, ov, rtol=1e-12)

            g_u = updating_grad_hess(g, cfg)
            og, oh = updating_oracle(g, h, cfg.corr_mode)
            np.testing.assert_allclose(g_u, og, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(h, oh, rtol=0)  # the leaf fit reads h as computed


def test_criterion_4_single_task_reduction():
    with criterion(4, "n=1 pipeline grows trees identical to a scalar GBDT reference"):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            m, d = 250, 4
            x = rng.uniform(0, 1, size=(m, d))
            y = 2.0 * x[:, 0] - x[:, 1] * x[:, 2] + rng.normal(scale=0.2, size=m)
            table = RawTable(x, y.reshape(-1, 1), tuple(f"f{j}" for j in range(d)), ("y",))
            ds = apply_bins(table, fit_bins(table, 16))
            params = BoosterParams(
                objectives=(REGRESSION_L2,), num_iterations=5, learning_rate=0.3,
                lambda_reg=0.0, gamma_reg=0.0, max_leaves=8, max_depth=5,
                min_samples_leaf=5, min_hess_leaf=0.0,
                mt=MTConfig(corr_mode="constant_one"), seed=seed,
            )
            model = train(ds, params)
            ref = ref_boost_structures(
                ds.binned.astype(np.int64), ds.mapper.finite_bin_counts, y,
                iterations=5, lr=0.3,
                p=dict(max_leaves=8, max_depth=5, min_samples_leaf=5,
                       min_hess_leaf=0.0, min_gain=0.0, lam=0.0, gamma_reg=0.0),
            )
            got = [engine_tree_structure(t.nodes) for t in model.trees]
            assert got == ref, f"structure diverged on seed {seed}"


def test_criterion_5_noisy_tasks_directional():
    booster_kw = dict(num_iterations=150, learning_rate=0.1, max_leaves=63,
                      max_depth=12, min_samples_leaf=5, lambda_reg=0.1)
    with criterion(5, "two noisy views beat the single noisy label (m=5000, rate 0.15)", 120.0):
        diffs = []
        for seed in range(5):
            mt_auc, single_auc = _auc_experiment(
                "noisy_tasks", seed, ROTATION, booster_kw, noise=0.15, d=6,
            )
            diffs.append(mt_auc - single_auc)
        assert sum(d > 0 for d in diffs) >= 4, f"improvements: {diffs}"
        assert np.mean(diffs) > 0, f"mean improvement not positive: {diffs}"


def test_criterion_6_sub_tasks_directional():
    booster_kw = dict(num_iterations=150, learning_rate=0.1, max_leaves=31,
                      max_depth=8, min_samples_leaf=20, lambda_reg=0.1)
    with criterion(6, "a rare clean subclass label lifts the main task (prevalence 3.5%)", 120.0):
        diffs = []
        for seed in range(5):
            mt_auc, single_auc = _auc_experiment(
                "sub_tasks", seed, ROTATION, booster_kw, noise=0.25, d=6,
            )
            diffs.append(mt_auc - single_auc)
        assert all(d >= -0.002 for d in diffs), f"guard band broken: {diffs}"
        assert np.mean(diffs) > 0, f"mean improvement not positive: {diffs}"


def test_criterion_7_determinism(tmp_path):
    with criterion(7, "byte-identical retrains; bit-identical save/load predictions"):
        data = tmp_path / "data.csv"
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "label_columns = y_main, y_aux\n"
            "objectives = binary_logloss, binary_logloss\n"
            "num_iterations = 20\nlearning_rate = 0.1\nmin_samples_leaf = 5\n"
            "max_bins = 32\nseed = 9\ntask_select = uniform_random\nn_selected = 1\n"
        )
        assert cli_main(["synth", "--scenario", "noisy_tasks", "--m", "800",
                         "--d", "4", "--seed", "3", "--out", str(data)]) == 0
        m1, m2 = tmp_path / "m1.txt", tmp_path / "m2.txt"
        for out in (m1, m2):
            assert cli_main(["train", "--config", str(cfg), "--data", str(data),
                             "--out", str(out)]) == 0
        assert m1.read_bytes() == m2.read_bytes()

        model = load_model(m1)
        rng = np.random.default_rng(77)
        x = rng.uniform(-0.5, 1.5, size=(1000, 4))
        saved = tmp_path / "resaved.txt"
        save_model(model, saved)
        reloaded = load_model(saved)
        np.testing.assert_array_equal(predict(model, x), predict(reloaded, x))


def test_criterion_8_single_task_extraction(tmp_path):
    with criterion(8, "extract_task predicts the exact column and writes a smaller file"):
        rng = np.random.default_rng(88)
        spec = SyntheticSpec("noisy_tasks", m=1500, d=4, seed=8)
        table = gen_synthetic(spec)
        ds = apply_bins(table, fit_bins(table, 32))
        params = BoosterParams(objectives=(BINARY_LOGLOSS, BINARY_LOGLOSS),
                               num_iterations=15, learning_rate=0.1,
                               min_samples_leaf=5, mt=ROTATION, seed=1)
        model = train(ds, params)
        x = rng.uniform(0, 1, size=(1000, 4))
        full = predict(model, x)
        for t in range(2):
            sub = extract_task(model, t)
            np.testing.assert_array_equal(predict(sub, x, task=0), full[:, t])
        full_path, sub_path = tmp_path / "full.txt", tmp_path / "sub.txt"
        save_model(model, full_path)
        save_model(extract_task(model, 0), sub_path)
        assert sub_path.stat().st_size < full_path.stat().st_size


def test_criterion_9_metric_correctness():
    with criterion(9, "roc_auc matches pairwise enumeration; rmse/mape match formulas"):
        rng = np.random.default_rng(909)
        for _ in range(100):
            n = int(rng.integers(4, 40))
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                labels[0] = 1 - labels[0]
            scores = (rng.integers(0, 8, size=n) / 7.0 if rng.random() < 0.5
                      else rng.normal(size=n))
            assert roc_auc(labels, scores) == pytest.approx(
                pairwise_auc(labels, scores), abs=1e-12)
        for _ in range(50):
            n = int(rng.integers(1, 30))
            y = rng.uniform(0.5, 10, size=n)
            p = y + rng.normal(size=n)
            assert rmse(y, p) == pytest.approx(
                math.sqrt(sum((a - b) ** 2 for a, b in zip(y, p)) / n), rel=1e-12)
            assert mape(y, p) == pytest.approx(
                sum(abs(a - b) / abs(a) for a, b in zip(y, p)) / n, rel=1e-12)


def test_criterion_10_training_loss_monotone():
    with criterion(10, "single-task L2 training loss never increases (lr=0.1)"):
        for seed in range(5):
            rng = np.random.default_rng(seed + 500)
            m, d = 400, 4
            x = rng.uniform(0, 1, size=(m, d))
            y = np.sin(4 * x[:, 0]) + x[:, 1] ** 2 + rng.normal(scale=0.3, size=m)
            table = RawTable(x, y.reshape(-1, 1), tuple(f"f{j}" for j in range(d)), ("y",))
            ds = apply_bins(table, fit_bins(table, 32))
            params = BoosterParams(
                objectives=(REGRESSION_L2,), num_iterations=40, learning_rate=0.1,
                min_samples_leaf=5, mt=MTConfig(corr_mode="constant_one"), seed=seed,
            )
            model = train(ds, params)
            losses = [row.train[0] for row in model.training_log]
            for a, b in zip(losses, losses[1:]):
                assert b <= a + 1e-12, f"loss rose on seed {seed}: {a} -> {b}"
