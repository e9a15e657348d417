import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtboost.errors import (
    InvalidParameter,
    LabelOverflow,
    LengthMismatch,
    SingleClass,
    ZeroLabelInMape,
)
from mtboost.metrics import METRIC_NAMES, METRICS, compute_metric, mape, rmse, roc_auc

from oracles import pairwise_auc


class TestRmseMape:
    def test_mape_ten_percent(self):
        assert mape([100.0], [90.0]) == pytest.approx(0.10)

    def test_zero_when_equal(self, rng):
        y = rng.uniform(1, 5, size=20)
        assert rmse(y, y) == 0.0
        assert mape(y, y) == 0.0

    def test_rmse_unit(self):
        assert rmse([1.0, 3.0], [2.0, 4.0]) == 1.0

    def test_mape_zero_label(self):
        with pytest.raises(ZeroLabelInMape):
            mape([0.0, 1.0], [1.0, 1.0])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            rmse([1.0], [1.0, 2.0])

    @pytest.mark.parametrize("metric, y, p", [
        (rmse, [1e160, -1e160], [0.0, 0.0]),
        (rmse, [1e308, -1e308], [-1e308, 1e308]),
        (mape, [1e-310, 2.0], [1.0, 2.0]),
        (mape, [1e308, 1.0], [-1e308, 1.0]),
    ])
    def test_overflow_raises_without_warning(self, metric, y, p):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(LabelOverflow, match=f"^{metric.__name__} overflows"):
                metric(y, p)

    def test_large_finite_values_pass(self):
        assert rmse([1e150], [-1e150]) == 2e150
        assert mape([1e-300], [2e-300]) == 1.0

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.5, max_value=100, allow_nan=False),
            min_size=1, max_size=20,
        )
    )
    def test_zero_iff_equal(self, y):
        y = np.array(y)
        p = y + 0.001
        assert rmse(y, p) > 0
        assert mape(y, p) > 0


class TestRocAuc:
    def test_perfect_ranking(self):
        assert roc_auc([1, 1, 0, 0], [0.9, 0.8, 0.2, 0.1]) == 1.0

    def test_all_tied_half(self):
        assert roc_auc([1, 0, 1, 0], [0.5, 0.5, 0.5, 0.5]) == 0.5

    def test_three_of_four_pairs(self):
        assert roc_auc([1, 0, 1, 0], [0.9, 0.8, 0.7, 0.1]) == 0.75

    def test_single_class_rejected(self):
        with pytest.raises(SingleClass):
            roc_auc([1, 1], [0.1, 0.2])

    def test_labels_other_than_0_1_are_an_invalid_parameter(self):
        with pytest.raises(InvalidParameter, match="labels must be 0/1"):
            roc_auc([1.0, 0.0, 2.5], [0.1, 0.2, 0.3])

    def test_matches_pairwise_enumeration(self, rng):
        for _ in range(100):
            n = int(rng.integers(4, 30))
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                labels[0] = 1 - labels[0]
            # Small discrete score grid so ties actually occur.
            scores = rng.integers(0, 6, size=n) / 5.0
            assert roc_auc(labels, scores) == pytest.approx(
                pairwise_auc(labels, scores), abs=1e-12
            )

    def test_invariant_under_monotone_transform(self, rng):
        labels = rng.integers(0, 2, size=50)
        labels[0], labels[1] = 0, 1
        scores = rng.normal(size=50)
        base = roc_auc(labels, scores)
        for transform in (lambda s: 3 * s + 1, np.tanh, lambda s: np.exp(s / 2)):
            assert roc_auc(labels, transform(scores)) == pytest.approx(base, abs=1e-12)


def test_unknown_metric_is_an_invalid_parameter():
    with pytest.raises(InvalidParameter, match="unknown metric 'gini'") as excinfo:
        compute_metric("gini", [1.0], [1.0])
    assert isinstance(excinfo.value, ValueError)


def test_metric_names_are_the_table():
    assert METRIC_NAMES == tuple(METRICS) == ("rmse", "mape", "auc")
    predictions = [0.2, 0.7, 0.4, 0.5]
    for name, metric, labels in (("rmse", rmse, [1.0, 2.0, 0.5, 1.0]),
                                 ("mape", mape, [1.0, 2.0, 0.5, 1.0]),
                                 ("auc", roc_auc, [0.0, 1.0, 0.0, 1.0])):
        assert compute_metric(name, labels, predictions) == metric(labels, predictions)
