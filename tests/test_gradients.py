import warnings

import numpy as np
import pytest

from mtboost.errors import NonFiniteGradient
from mtboost.gradients import (
    MTConfig,
    ensemble_grad_hess,
    normalize_weights,
    pearson_to_main,
    select_tasks,
    updating_grad_hess,
)
from mtboost.objectives import GradHess

from oracles import ensemble_oracle, updating_oracle


class TestNormalizeWeights:
    def test_mean_two_gives_quarter_of_target(self):
        g = np.full((4, 1), 2.0)
        assert normalize_weights(g, 0.05)[0] == pytest.approx(0.025)

    def test_dead_task_guard(self):
        g = np.zeros((4, 1))
        assert normalize_weights(g, 0.05)[0] == 1.0

    def test_already_on_target(self):
        g = np.array([[0.05], [-0.05]])
        assert normalize_weights(g, 0.05)[0] == pytest.approx(1.0)

    def test_scale_covariance(self, rng):
        g = rng.normal(size=(50, 3))
        w = normalize_weights(g, 0.05)
        for c in (2.0, 0.25, 7.3):
            scaled = g.copy()
            scaled[:, 1] *= c
            w2 = normalize_weights(scaled, 0.05)
            np.testing.assert_allclose(w2[1] * scaled[:, 1], w[1] * g[:, 1], rtol=1e-12)
            np.testing.assert_allclose(w2[[0, 2]], w[[0, 2]], rtol=0)

    def test_column_major_matches_whole_matrix_mean(self, rng):
        # train() passes column-major gradients; a column at a time gives
        # the bits of the mean over axis 0.
        for m in (1, 9, 8193, 20_001):
            g = np.asfortranarray(rng.normal(size=(m, 3)) * [1e-3, 1.0, 1e5])
            expected = 0.05 / np.mean(np.abs(g), axis=0)
            assert np.array_equal(normalize_weights(g, 0.05), expected)


class TestSelectTasks:
    def test_always_main_single(self):
        cfg = MTConfig(task_select="always_main", n_selected=1, seed=3)
        assert select_tasks(cfg, 4, 0) == {0}

    def test_single_task_any_policy(self):
        for policy in ("always_main", "uniform_random"):
            cfg = MTConfig(task_select=policy, n_selected=1, seed=9)
            assert select_tasks(cfg, 1, 5) == {0}

    def test_uniform_deterministic(self):
        cfg = MTConfig(task_select="uniform_random", n_selected=2, seed=11)
        first = select_tasks(cfg, 4, 7)
        assert len(first) == 2
        assert select_tasks(cfg, 4, 7) == first

    def test_iterations_vary(self):
        cfg = MTConfig(task_select="uniform_random", n_selected=1, seed=11)
        picks = {tuple(sorted(select_tasks(cfg, 4, it))) for it in range(50)}
        assert len(picks) > 1

    def test_always_main_includes_zero(self):
        cfg = MTConfig(task_select="always_main", n_selected=3, seed=4)
        for it in range(10):
            chosen = select_tasks(cfg, 5, it)
            assert 0 in chosen and len(chosen) == 3

    def test_weighted_needs_weights(self):
        with pytest.raises(ValueError):
            MTConfig(task_select="weighted")
        cfg = MTConfig(task_select="weighted", task_weights=(0.9, 0.1), n_selected=1)
        counts = sum(0 in select_tasks(cfg, 2, it) for it in range(200))
        assert counts > 150  # heavy weight dominates


def random_gh(rng, m=40, n=3):
    return GradHess(g=rng.normal(size=(m, n)), h=rng.uniform(0.1, 2.0, size=(m, n)))


class TestEnsembleGradHess:
    def test_single_task_sign_pattern(self, rng):
        gh = GradHess(g=rng.normal(size=(20, 1)), h=np.ones((20, 1)))
        eg = ensemble_grad_hess(gh, MTConfig(), 0)
        assert np.array_equal(np.sign(eg.g_e), np.sign(gh.g[:, 0]))

    def test_equal_columns_proportional(self, rng):
        col = rng.normal(size=30)
        gh = GradHess(g=np.column_stack([col, col]), h=np.ones((30, 2)))
        cfg = MTConfig(task_select="uniform_random", n_selected=2, seed=1)
        eg = ensemble_grad_hess(gh, cfg, 0)
        ratio = eg.g_e[col != 0] / col[col != 0]
        np.testing.assert_allclose(ratio, ratio[0], rtol=1e-9)

    def test_matches_handwritten_oracle(self):
        g = np.array(
            [[0.4, -1.0], [-0.2, 2.0], [0.1, -3.0], [-0.3, 4.0]], dtype=np.float64
        )
        h = np.array(
            [[1.0, 0.5], [1.0, 0.7], [1.0, 0.9], [1.0, 1.1]], dtype=np.float64
        )
        cfg = MTConfig(gamma_boost=10.0, task_select="always_main", n_selected=1, seed=0)
        eg = ensemble_grad_hess(GradHess(g=g, h=h), cfg, 0)
        assert eg.chosen_tasks == {0}
        ge, he, w, v = ensemble_oracle(g, h, gamma=10.0, chosen={0})
        np.testing.assert_allclose(eg.g_e, ge, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(eg.h_e, he, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(eg.w, w, rtol=1e-12)
        np.testing.assert_allclose(eg.v, v, rtol=1e-12)

    def test_nonfinite_rejected(self):
        g = np.array([[np.nan]])
        with pytest.raises(NonFiniteGradient):
            ensemble_grad_hess(GradHess(g=g, h=np.ones((1, 1))), MTConfig(), 0)

    @pytest.mark.parametrize("config", [
        MTConfig(g_target_mean=1e308),  # weight 2e308 overflows
        MTConfig(h_target_mean=1e308),
        MTConfig(g_target_mean=1e306, gamma_boost=10.0),  # weights finite, g_e not
        MTConfig(h_target_mean=1e307),  # h_e finite, its sum over rows not
    ])
    def test_overflowing_weights_rejected(self, config):
        g = np.zeros((20, 2))
        g[0, 0], g[1, 1] = 10.0, -10.0  # mean |g| 0.5 per task
        gh = GradHess(g=g, h=np.full((20, 2), 0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteGradient):
                ensemble_grad_hess(gh, config, 0)

    def test_h_e_strictly_positive(self, rng):
        gh = GradHess(g=rng.normal(size=(30, 2)), h=np.zeros((30, 2)))
        eg = ensemble_grad_hess(gh, MTConfig(task_select="uniform_random"), 2)
        assert (eg.h_e > 0).all()

    def test_deterministic(self, rng):
        gh = random_gh(rng)
        cfg = MTConfig(task_select="uniform_random", n_selected=2, seed=5)
        a = ensemble_grad_hess(gh, cfg, 3)
        b = ensemble_grad_hess(gh, cfg, 3)
        assert np.array_equal(a.g_e, b.g_e)
        assert np.array_equal(a.h_e, b.h_e)
        assert a.chosen_tasks == b.chosen_tasks


class TestUpdatingGradHess:
    def test_clip_values(self):
        assert float(np.clip(0.3, 0.5, 1.0)) == 0.5
        assert float(np.clip(0.75, 0.5, 1.0)) == 0.75
        assert float(np.clip(1.2, 0.5, 1.0)) == 1.0

    def test_constant_one_is_identity(self, rng):
        gh = random_gh(rng)
        out = updating_grad_hess(gh, MTConfig(corr_mode="constant_one"))
        assert np.array_equal(out.g, gh.g)
        assert np.array_equal(out.h, gh.h)

    def test_single_task_identity(self, rng):
        gh = random_gh(rng, n=1)
        out = updating_grad_hess(gh, MTConfig(corr_mode="pearson_to_main"))
        assert np.array_equal(out.g, gh.g)

    def test_perfectly_correlated_identity(self, rng):
        col = rng.normal(size=25)
        gh = GradHess(g=np.column_stack([col, 2 * col]), h=np.ones((25, 2)))
        out = updating_grad_hess(gh, MTConfig(corr_mode="pearson_to_main"))
        np.testing.assert_allclose(out.g, gh.g, rtol=1e-12)

    def test_matches_oracle(self, rng):
        for n in (2, 3, 4):
            gh = random_gh(rng, m=30, n=n)
            out = updating_grad_hess(gh, MTConfig(corr_mode="pearson_to_main"))
            og, oh = updating_oracle(gh.g, gh.h, "pearson_to_main")
            np.testing.assert_allclose(out.g, og, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(out.h, oh, rtol=0)

    def test_single_shared_factor(self, rng):
        gh = random_gh(rng, m=60, n=4)
        out = updating_grad_hess(gh, MTConfig(corr_mode="pearson_to_main"))
        factors = []
        for t in range(4):
            nonzero = gh.g[:, t] != 0
            factors.append(out.g[nonzero, t] / gh.g[nonzero, t])
        flat = np.concatenate(factors)
        assert np.max(np.abs(flat - flat[0])) == 0.0
        assert 0.5 <= flat[0] <= 1.0

    def test_anticorrelated_floor(self, rng):
        col = rng.normal(size=40)
        gh = GradHess(g=np.column_stack([col, -col]), h=np.ones((40, 2)))
        out = updating_grad_hess(gh, MTConfig(corr_mode="pearson_to_main"))
        np.testing.assert_allclose(out.g, 0.5 * gh.g, rtol=1e-12)

    def test_correlation_survives_huge_gradients(self, rng):
        # At 1e80 each sum of squares is finite but their product is not.
        col = rng.normal(size=200)
        g = np.column_stack([col, col + 0.1 * rng.normal(size=200), rng.normal(size=200)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            corr, huge = pearson_to_main(g), pearson_to_main(g * 1e80)
        assert corr > 0.4
        assert huge == pytest.approx(corr, rel=1e-12, abs=0)

    def test_hessian_never_modified(self, rng):
        gh = random_gh(rng, n=3)
        out = updating_grad_hess(gh, MTConfig(corr_mode="pearson_to_main"))
        assert np.array_equal(out.h, gh.h)

    def test_column_major_in_column_major_out(self, rng):
        gh = random_gh(rng)
        gh = GradHess(g=np.asfortranarray(gh.g), h=np.asfortranarray(gh.h))
        for mode in ("constant_one", "pearson_to_main"):
            out = updating_grad_hess(gh, MTConfig(corr_mode=mode))
            assert out.g.flags.f_contiguous and out.h.flags.f_contiguous

    def test_scales_in_place_into_out(self, rng):
        gh = random_gh(rng, n=3)
        expected = updating_grad_hess(gh, MTConfig(corr_mode="pearson_to_main")).g
        g = gh.g
        out = updating_grad_hess(gh, MTConfig(corr_mode="pearson_to_main"), out=gh.g)
        assert out.g is g and out.h is gh.h
        assert np.array_equal(g, expected)

    def test_results_may_share_input_memory(self, rng):
        gh = random_gh(rng)
        for mode in ("constant_one", "pearson_to_main"):
            out = updating_grad_hess(gh, MTConfig(corr_mode=mode))
            assert out.h is gh.h
        assert updating_grad_hess(gh, MTConfig(corr_mode="constant_one")).g is gh.g
