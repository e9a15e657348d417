from dataclasses import replace

import numpy as np
import pytest

from mtboost import booster as booster_module
from mtboost.booster import BoosterParams, predict, predict_proba, train
from mtboost.data import RawTable, apply_bins, fit_bins
from mtboost.errors import InvalidParameter, TooFewSamples
from mtboost.evaluation import run_kfold
from mtboost.gradients import MTConfig
from mtboost.metrics import rmse, roc_auc
from mtboost.objectives import BINARY_LOGLOSS, REGRESSION_L2
from mtboost.synthetic import SyntheticSpec, gen_synthetic


def quick_params(seed=0):
    return BoosterParams(
        objectives=(BINARY_LOGLOSS, BINARY_LOGLOSS),
        num_iterations=5,
        learning_rate=0.2,
        min_samples_leaf=5,
        max_leaves=8,
        seed=seed,
        mt=MTConfig(task_select="uniform_random", n_selected=1),
    )


@pytest.fixture(scope="module")
def table():
    return gen_synthetic(SyntheticSpec("noisy_tasks", m=300, d=3, seed=4))


def fold_models(table, k, params, max_bins):
    """Each fold's model and hold-out rows, rebuilt as run_kfold's docstring
    describes its folds."""
    chunks = np.array_split(np.random.default_rng([params.seed, 0xF01D]).permutation(table.m), k)
    for i, chunk in enumerate(chunks):
        rows = {"train": np.sort(np.concatenate(chunks[:i] + chunks[i + 1:])),
                "valid": np.sort(chunk)}
        fit, held = (RawTable(table.features[r], table.labels[r], table.feature_names,
                              table.task_names) for r in rows.values())
        mapper = fit_bins(fit, max_bins)
        model = train(apply_bins(fit, mapper), replace(params, seed=params.seed + i),
                      apply_bins(held, mapper))
        yield model, held


class TestRunKfold:
    def test_two_folds(self, table):
        report = run_kfold(table, 2, quick_params(), max_bins=16)
        assert len(report.fold_values) == 2
        assert report.metric == "auc"
        assert report.mean == pytest.approx(np.mean(report.fold_values))

    def test_deterministic(self, table):
        a = run_kfold(table, 3, quick_params(), max_bins=16)
        b = run_kfold(table, 3, quick_params(), max_bins=16)
        assert a == b

    def test_seed_changes_folds(self, table):
        a = run_kfold(table, 3, quick_params(seed=0), max_bins=16)
        b = run_kfold(table, 3, quick_params(seed=1), max_bins=16)
        assert a.fold_values != b.fold_values

    def test_fold_partition_disjoint_exhaustive(self):
        rng = np.random.default_rng([7, 0xF01D])
        perm = rng.permutation(100)
        chunks = np.array_split(perm, 4)
        combined = np.sort(np.concatenate(chunks))
        assert np.array_equal(combined, np.arange(100))
        sizes = [len(c) for c in chunks]
        assert sum(sizes) == 100 and max(sizes) - min(sizes) <= 1

    def test_too_few_samples(self, table):
        from mtboost.data import RawTable

        small = RawTable(
            table.features[:5], table.labels[:5],
            table.feature_names, table.task_names,
        )
        with pytest.raises(TooFewSamples):
            run_kfold(small, 4, quick_params())

    def test_unknown_metric_fails_before_any_fold_trains(self, table, monkeypatch):
        trained = []
        monkeypatch.setattr(booster_module, "train", lambda *args: trained.append(args))
        with pytest.raises(InvalidParameter, match="^unknown metric 'gini'; expected one of"):
            run_kfold(table, 2, quick_params(), metric="gini")
        assert not trained

    @pytest.mark.parametrize("k", [1, 0, -3])
    def test_fewer_than_two_folds_is_an_invalid_parameter(self, table, k):
        with pytest.raises(InvalidParameter, match="k must be >= 2"):
            run_kfold(table, k, quick_params())

    def test_chronological_uses_tail(self, table):
        report = run_kfold(table, 2, quick_params(), chronological=True, max_bins=16)
        assert len(report.fold_values) == 1
        # Hold-out is the last 20% by row order: 60 of 300 rows.
        cut = int(table.m * 0.8)
        assert cut == 240

    @pytest.mark.parametrize("main", [0, 1])
    def test_rmse_scores_probabilities_as_eval_does(self, table, main):
        params = replace(quick_params(), main_task_index=main)
        report = run_kfold(table, 3, params, metric="rmse", max_bins=16)
        want, raw = [], []
        for model, held in fold_models(table, 3, params, 16):
            labels = held.labels[:, main]
            want.append(rmse(labels, predict_proba(model, held.features, main)))
            raw.append(rmse(labels, predict(model, held.features, main)))
        assert report.fold_values == tuple(want)
        assert report.fold_values != tuple(raw)  # log-odds are not probabilities

    @pytest.mark.parametrize("objectives, metric, score", [
        ((BINARY_LOGLOSS, BINARY_LOGLOSS), "auto", roc_auc),
        ((BINARY_LOGLOSS, BINARY_LOGLOSS), "auc", roc_auc),
        ((REGRESSION_L2, BINARY_LOGLOSS), "auto", rmse),
        ((REGRESSION_L2, BINARY_LOGLOSS), "rmse", rmse),
    ])
    def test_raw_score_folds_unchanged(self, table, objectives, metric, score):
        """auc reads raw scores, and a regression_l2 task's probabilities are
        its raw scores, so these folds are the metric of predict's column."""
        params = replace(quick_params(), objectives=objectives)
        regression = table
        if objectives[0] == REGRESSION_L2:
            labels = table.labels.copy()
            labels[:, 0] = table.features[:, 0] * 2.0 + table.labels[:, 0]
            regression = RawTable(table.features, labels, table.feature_names, table.task_names)
        report = run_kfold(regression, 3, params, metric=metric, max_bins=16)
        want = tuple(score(held.labels[:, 0], predict(model, held.features, 0))
                     for model, held in fold_models(regression, 3, params, 16))
        assert report.metric == score.__name__.replace("roc_", "")
        assert report.fold_values == want
