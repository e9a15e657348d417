import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtboost.errors import LengthMismatch, ShapeMismatch
from mtboost.objectives import (
    BINARY_LOGLOSS,
    REGRESSION_L2,
    grad_hess,
    loss,
    transform_score,
)


def per_sample_loss(y, raw, kind):
    """Unaveraged loss of one sample, matching the engine's conventions."""
    if kind == REGRESSION_L2:
        return 0.5 * (raw - y) ** 2
    p = 1.0 / (1.0 + math.exp(-raw))
    p = min(max(p, 1e-15), 1 - 1e-15)
    return -(y * math.log(p) + (1 - y) * math.log(1 - p))


class TestTransformScore:
    def test_logloss_midpoint(self):
        assert transform_score(np.array([0.0]), BINARY_LOGLOSS)[0] == 0.5

    def test_regression_identity(self):
        assert transform_score(np.array([3.7]), REGRESSION_L2)[0] == 3.7

    def test_extreme_raw_clamped(self):
        p = transform_score(np.array([1e9]), BINARY_LOGLOSS)[0]
        assert p <= 1 - 1e-15
        q = transform_score(np.array([-1e9]), BINARY_LOGLOSS)[0]
        assert q >= 1e-15


class TestLoss:
    def test_perfect_fit_l2(self):
        assert loss([1.0, 3.0], [1.0, 3.0], REGRESSION_L2) == 0.0

    def test_logloss_at_zero(self):
        assert loss([1.0], [0.0], BINARY_LOGLOSS) == pytest.approx(math.log(2), abs=1e-12)

    def test_l2_mean_of_squares(self):
        assert loss([2.0, 0.0], [1.0, 1.0], REGRESSION_L2) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            loss([1.0], [1.0, 2.0], REGRESSION_L2)

    def test_overflowing_l2_loss_is_inf_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert loss([1e160, -1e160], [0.0, 0.0], REGRESSION_L2) == math.inf


class TestGradHess:
    def test_l2_values(self):
        gh = grad_hess(np.array([[1.0]]), np.array([[3.0]]), (REGRESSION_L2,))
        assert gh.g[0, 0] == 2.0
        assert gh.h[0, 0] == 1.0

    def test_logloss_symmetry(self):
        gh = grad_hess(
            np.array([[1.0], [0.0]]), np.zeros((2, 1)), (BINARY_LOGLOSS,)
        )
        assert gh.g[0, 0] == -0.5
        assert gh.g[1, 0] == 0.5
        assert np.allclose(gh.h, 0.25)

    def test_column_major_in_column_major_out(self, rng):
        labels = np.asfortranarray(rng.integers(0, 2, size=(30, 3)), dtype=np.float64)
        scores = np.asfortranarray(rng.normal(size=(30, 3)))
        gh = grad_hess(labels, scores, (REGRESSION_L2, BINARY_LOGLOSS, REGRESSION_L2))
        assert gh.g.flags.f_contiguous and gh.h.flags.f_contiguous

    def test_writes_into_out(self, rng):
        labels = np.asfortranarray(rng.integers(0, 2, size=(30, 3)), dtype=np.float64)
        scores = np.asfortranarray(rng.normal(size=(30, 3)))
        kinds = (REGRESSION_L2, BINARY_LOGLOSS, REGRESSION_L2)
        g, h = np.full_like(labels, np.nan), np.full_like(labels, np.nan)
        gh = grad_hess(labels, scores, kinds, out=(g, h))
        fresh = grad_hess(labels, scores, kinds)
        assert gh.g is g and gh.h is h
        assert np.array_equal(g, fresh.g) and np.array_equal(h, fresh.h)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            grad_hess(np.zeros((2, 1)), np.zeros((3, 1)), (REGRESSION_L2,))
        with pytest.raises(ShapeMismatch):
            grad_hess(np.zeros((2, 2)), np.zeros((2, 2)), (REGRESSION_L2,))


class TestDerivativeProperties:
    @pytest.mark.parametrize("kind", [REGRESSION_L2, BINARY_LOGLOSS])
    def test_finite_difference(self, kind, rng):
        delta = 1e-5
        for _ in range(100):
            y = float(rng.integers(0, 2)) if kind == BINARY_LOGLOSS else float(
                rng.normal(scale=3)
            )
            raw = float(rng.normal(scale=3))
            gh = grad_hess(np.array([[y]]), np.array([[raw]]), (kind,))
            num_g = (
                per_sample_loss(y, raw + delta, kind)
                - per_sample_loss(y, raw - delta, kind)
            ) / (2 * delta)
            assert abs(gh.g[0, 0] - num_g) < 1e-6
            gp = grad_hess(np.array([[y]]), np.array([[raw + delta]]), (kind,)).g[0, 0]
            gm = grad_hess(np.array([[y]]), np.array([[raw - delta]]), (kind,)).g[0, 0]
            assert abs(gh.h[0, 0] - (gp - gm) / (2 * delta)) < 1e-6

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(0, 1),
        st.floats(min_value=-30, max_value=30, allow_nan=False),
    )
    def test_logloss_gradient_bounds(self, y, raw):
        gh = grad_hess(np.array([[float(y)]]), np.array([[raw]]), (BINARY_LOGLOSS,))
        g = gh.g[0, 0]
        assert -1.0 < g < 1.0
        q = transform_score(np.array([raw]), BINARY_LOGLOSS)[0]
        if q != y:
            assert math.copysign(1, g) == math.copysign(1, q - y)

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        st.floats(min_value=-100, max_value=100, allow_nan=False),
    )
    def test_hessian_nonnegative(self, y, raw):
        for kind, label in ((REGRESSION_L2, y), (BINARY_LOGLOSS, float(y > 0))):
            gh = grad_hess(np.array([[label]]), np.array([[raw]]), (kind,))
            assert gh.h[0, 0] >= 0.0
