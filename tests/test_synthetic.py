import numpy as np
import pytest

from mtboost.errors import InvalidSpec
from mtboost.synthetic import SyntheticSpec, gen_synthetic

from oracles import window_features_oracle


class TestSpecValidation:
    def test_unknown_scenario(self):
        with pytest.raises(InvalidSpec):
            SyntheticSpec("mystery")

    def test_too_few_rows(self):
        with pytest.raises(InvalidSpec):
            SyntheticSpec("noisy_tasks", m=50)

    def test_noise_rate_range(self):
        with pytest.raises(InvalidSpec):
            SyntheticSpec("noisy_tasks", noise_rate=0.5)


class TestNoisyTasks:
    def test_zero_noise_identical_columns(self):
        table = gen_synthetic(SyntheticSpec("noisy_tasks", m=500, noise_rate=0.0, seed=3))
        assert np.array_equal(table.labels[:, 0], table.labels[:, 1])

    def test_noise_flips_some(self):
        table = gen_synthetic(SyntheticSpec("noisy_tasks", m=2000, noise_rate=0.2, seed=3))
        disagree = np.mean(table.labels[:, 0] != table.labels[:, 1])
        assert 0.2 < disagree < 0.45  # 2r(1-r) = 0.32 expected

    def test_deterministic(self):
        spec = SyntheticSpec("noisy_tasks", m=300, seed=11)
        a, b = gen_synthetic(spec), gen_synthetic(spec)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)


class TestSubTasks:
    def test_subclass_is_subset(self):
        table = gen_synthetic(SyntheticSpec("sub_tasks", m=5000, seed=5))
        sub = table.labels[:, 1] == 1.0
        assert sub.any()
        assert (table.labels[sub, 0] == 1.0).all()

    def test_prevalence_near_target(self):
        table = gen_synthetic(SyntheticSpec("sub_tasks", m=20000, seed=5))
        prevalence = table.labels[:, 1].mean()
        assert 0.02 < prevalence < 0.05


class TestTimeseriesRatio:
    def test_label_identity_exact(self):
        table = gen_synthetic(SyntheticSpec("timeseries_ratio", m=400, seed=2))
        current = table.features[:, 0]
        main, sub = table.labels[:, 0], table.labels[:, 1]
        assert np.array_equal(main, sub * current)

    def test_window_features_consistent(self):
        table = gen_synthetic(SyntheticSpec("timeseries_ratio", m=200, seed=2))
        names = table.feature_names
        i_min = names.index("min_7")
        i_max = names.index("max_7")
        i_mean = names.index("mean_7")
        assert (table.features[:, i_min] <= table.features[:, i_mean]).all()
        assert (table.features[:, i_mean] <= table.features[:, i_max]).all()

    @pytest.mark.parametrize("m", [100, 401, 8000])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_row_by_row_oracle(self, seed, m):
        table = gen_synthetic(SyntheticSpec("timeseries_ratio", m=m, seed=seed))
        features, labels = window_features_oracle(seed, m)
        assert np.array_equal(table.features, features)
        assert np.array_equal(table.labels, labels)

    def test_positive_series(self):
        table = gen_synthetic(SyntheticSpec("timeseries_ratio", m=300, seed=9))
        assert (table.features[:, 0] > 0).all()
        assert (table.labels > 0).all()
