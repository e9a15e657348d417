import numpy as np
import pytest

from mtboost.booster import BoosterParams
from mtboost.errors import InvalidParameter, TooFewSamples
from mtboost.evaluation import run_kfold
from mtboost.gradients import MTConfig
from mtboost.objectives import BINARY_LOGLOSS
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
