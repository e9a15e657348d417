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

    @pytest.mark.parametrize("scenario, name, value", [
        ("timeseries_ratio", "d", 2),
        ("timeseries_ratio", "noise_rate", 0.4),
        ("timeseries_ratio", "subclass_prevalence", 0.2),
        ("noisy_tasks", "subclass_prevalence", 0.1),
        ("noisy_tasks", "subclass_prevalence", 0.5),
    ])
    def test_field_the_scenario_does_not_read_must_keep_its_default(self, scenario, name,
                                                                   value):
        with pytest.raises(InvalidSpec, match=f"^{scenario} does not use {name};"):
            SyntheticSpec(scenario, **{name: value})

    def test_unread_fields_at_their_defaults_build(self):
        SyntheticSpec("timeseries_ratio", d=6, noise_rate=0.15, subclass_prevalence=0.035)
        SyntheticSpec("noisy_tasks", subclass_prevalence=0.035)

    def test_subclass_prevalence_range(self):
        for bad in (0.0, 0.25):
            with pytest.raises(InvalidSpec, match="subclass_prevalence must be in"):
                SyntheticSpec("sub_tasks", subclass_prevalence=bad)


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
