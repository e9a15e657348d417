import dataclasses
import inspect
import warnings

import numpy as np
import pytest

from mtboost.booster import BoosterParams
from mtboost.cli import DataOptions
from mtboost.errors import InvalidParameter, NonFiniteGradient
from mtboost.gradients import (
    MTConfig,
    ensemble_grad_hess,
    normalize_weights,
    pearson_to_main,
    select_tasks,
    updating_grad_hess,
)

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
        cfg = MTConfig(task_select="always_main", n_selected=1)
        assert select_tasks(cfg, 4, 0, seed=3) == {0}

    def test_no_generator_without_a_draw(self, monkeypatch):
        def no_generator(seed, iteration):
            raise AssertionError("a generator was built for a selection with no draw")

        monkeypatch.setattr("mtboost.gradients._iteration_rng", no_generator)
        assert select_tasks(MTConfig(), 4, 0, seed=3) == {0}
        for policy in ("always_main", "uniform_random"):
            assert select_tasks(MTConfig(task_select=policy, n_selected=2), 1, 5, seed=9) == {0}

    def test_single_task_any_policy(self):
        for policy in ("always_main", "uniform_random"):
            cfg = MTConfig(task_select=policy, n_selected=1)
            assert select_tasks(cfg, 1, 5, seed=9) == {0}

    def test_uniform_deterministic(self):
        cfg = MTConfig(task_select="uniform_random", n_selected=2)
        first = select_tasks(cfg, 4, 7, seed=11)
        assert len(first) == 2
        assert select_tasks(cfg, 4, 7, seed=11) == first

    def test_iterations_vary(self):
        cfg = MTConfig(task_select="uniform_random", n_selected=1)
        picks = {tuple(sorted(select_tasks(cfg, 4, it, seed=11))) for it in range(50)}
        assert len(picks) > 1

    def test_always_main_includes_zero(self):
        cfg = MTConfig(task_select="always_main", n_selected=3)
        for it in range(10):
            chosen = select_tasks(cfg, 5, it, seed=4)
            assert 0 in chosen and len(chosen) == 3

    def test_weighted_needs_weights(self):
        with pytest.raises(ValueError):
            MTConfig(task_select="weighted")
        cfg = MTConfig(task_select="weighted", task_weights=(0.9, 0.1), n_selected=1)
        counts = sum(0 in select_tasks(cfg, 2, it, seed=0) for it in range(200))
        assert counts > 150  # heavy weight dominates


def main_first(n_tasks, main):
    """The task order that moves ``main`` to the front and keeps the others
    in ascending order."""
    return [main, *(t for t in range(n_tasks) if t != main)]


MAINS = [(n, main) for n in (3, 4) for main in range(n)]


@pytest.mark.parametrize("n_tasks, main", MAINS)
class TestMainTaskIsJustAColumn:
    """Task ``main`` plays the part task 0 plays once the tasks are put in
    main_first order."""

    def test_correlation_of_permuted_columns(self, rng, n_tasks, main):
        perm = main_first(n_tasks, main)
        for scale in (1.0, 1e80):
            g = rng.normal(size=(50, n_tasks)) * scale
            g[:, -1] += g[:, 0]  # columns that correlate
            assert pearson_to_main(g, main) == pearson_to_main(g[:, perm], 0)
            out = updating_grad_hess(g, MTConfig(), main)[:, perm]
            assert out.tobytes() == updating_grad_hess(g[:, perm], MTConfig()).tobytes()

    def test_selection_of_permuted_tasks(self, n_tasks, main):
        perm = main_first(n_tasks, main)
        for n_selected in range(1, n_tasks + 1):
            cfg = MTConfig(task_select="always_main", n_selected=n_selected)
            for seed, it in ((0, 0), (3, 1), (7, 19), (2**63, 5)):
                chosen = select_tasks(cfg, n_tasks, it, seed, main)
                assert main in chosen and len(chosen) == n_selected
                assert chosen == {perm[t] for t in select_tasks(cfg, n_tasks, it, seed)}

    def test_boosted_weights_of_permuted_tasks(self, rng, n_tasks, main):
        perm = main_first(n_tasks, main)
        g, h = random_gh(rng, n=n_tasks)
        cfg = MTConfig(n_selected=2)
        eg = ensemble_grad_hess(g, h, cfg, 4, seed=8, main=main)
        permuted = ensemble_grad_hess(g[:, perm], h[:, perm], cfg, 4, seed=8)
        assert np.array_equal(eg.w[perm], permuted.w)
        assert eg.chosen_tasks == {perm[t] for t in permuted.chosen_tasks}


@pytest.mark.parametrize("main", [-1, 3, 7])
def test_main_outside_the_tasks_rejected(rng, main):
    g, h = random_gh(rng, n=3)
    message = rf"^main task {main} not in \[0, 3\)$"
    for call in (lambda: select_tasks(MTConfig(), 3, 0, 0, main),
                 lambda: ensemble_grad_hess(g, h, MTConfig(), 0, 0, main),
                 lambda: pearson_to_main(g, main),
                 lambda: updating_grad_hess(g, MTConfig(), main)):
        with pytest.raises(InvalidParameter, match=message):
            call()


def random_gh(rng, m=40, n=3):
    return rng.normal(size=(m, n)), rng.uniform(0.1, 2.0, size=(m, n))


class TestEnsembleGradHess:
    def test_single_task_sign_pattern(self, rng):
        g = rng.normal(size=(20, 1))
        eg = ensemble_grad_hess(g, np.ones((20, 1)), MTConfig(), 0, seed=0)
        assert np.array_equal(np.sign(eg.g_e), np.sign(g[:, 0]))

    def test_equal_columns_proportional(self, rng):
        col = rng.normal(size=30)
        cfg = MTConfig(task_select="uniform_random", n_selected=2)
        eg = ensemble_grad_hess(np.column_stack([col, col]), np.ones((30, 2)), cfg, 0, seed=1)
        ratio = eg.g_e[col != 0] / col[col != 0]
        np.testing.assert_allclose(ratio, ratio[0], rtol=1e-9)

    def test_matches_handwritten_oracle(self):
        g = np.array(
            [[0.4, -1.0], [-0.2, 2.0], [0.1, -3.0], [-0.3, 4.0]], dtype=np.float64
        )
        h = np.array(
            [[1.0, 0.5], [1.0, 0.7], [1.0, 0.9], [1.0, 1.1]], dtype=np.float64
        )
        cfg = MTConfig(gamma_boost=10.0, task_select="always_main", n_selected=1)
        eg = ensemble_grad_hess(g, h, cfg, 0, seed=0)
        assert eg.chosen_tasks == {0}
        ge, he, w, v = ensemble_oracle(g, h, gamma=10.0, chosen={0})
        np.testing.assert_allclose(eg.g_e, ge, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(eg.h_e, he, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(eg.w, w, rtol=1e-12)
        np.testing.assert_allclose(eg.v, v, rtol=1e-12)

    def test_nonfinite_rejected(self):
        g = np.array([[np.nan]])
        with pytest.raises(NonFiniteGradient):
            ensemble_grad_hess(g, np.ones((1, 1)), MTConfig(), 0, seed=0)

    @pytest.mark.parametrize("config", [
        MTConfig(g_target_mean=1e308),  # weight 2e308 overflows
        MTConfig(h_target_mean=1e308),
        MTConfig(g_target_mean=1e306, gamma_boost=10.0),  # weights finite, g_e not
        MTConfig(h_target_mean=1e307),  # h_e finite, its sum over rows not
    ])
    def test_overflowing_weights_rejected(self, config):
        g = np.zeros((20, 2))
        g[0, 0], g[1, 1] = 10.0, -10.0  # mean |g| 0.5 per task
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteGradient):
                ensemble_grad_hess(g, np.full((20, 2), 0.5), config, 0, seed=0)

    def test_h_e_strictly_positive(self, rng):
        g, h = rng.normal(size=(30, 2)), np.zeros((30, 2))
        eg = ensemble_grad_hess(g, h, MTConfig(task_select="uniform_random"), 2, seed=0)
        assert (eg.h_e > 0).all()

    def test_deterministic(self, rng):
        g, h = random_gh(rng)
        cfg = MTConfig(task_select="uniform_random", n_selected=2)
        a = ensemble_grad_hess(g, h, cfg, 3, seed=5)
        b = ensemble_grad_hess(g, h, cfg, 3, seed=5)
        assert np.array_equal(a.g_e, b.g_e)
        assert np.array_equal(a.h_e, b.h_e)
        assert a.chosen_tasks == b.chosen_tasks


class TestUpdatingGradHess:
    def test_clip_values(self):
        assert float(np.clip(0.3, 0.5, 1.0)) == 0.5
        assert float(np.clip(0.75, 0.5, 1.0)) == 0.75
        assert float(np.clip(1.2, 0.5, 1.0)) == 1.0

    def test_constant_one_is_identity(self, rng):
        g, _ = random_gh(rng)
        before = g.copy()
        out = updating_grad_hess(g, MTConfig(corr_mode="constant_one"))
        assert np.array_equal(out, before)

    def test_single_task_identity(self, rng):
        g, _ = random_gh(rng, n=1)
        out = updating_grad_hess(g, MTConfig(corr_mode="pearson_to_main"))
        assert np.array_equal(out, g)

    def test_perfectly_correlated_identity(self, rng):
        col = rng.normal(size=25)
        g = np.column_stack([col, 2 * col])
        out = updating_grad_hess(g, MTConfig(corr_mode="pearson_to_main"))
        np.testing.assert_allclose(out, g, rtol=1e-12)

    def test_matches_oracle(self, rng):
        for n in (2, 3, 4):
            g, h = random_gh(rng, m=30, n=n)
            out = updating_grad_hess(g, MTConfig(corr_mode="pearson_to_main"))
            og, oh = updating_oracle(g, h, "pearson_to_main")
            np.testing.assert_allclose(out, og, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(h, oh, rtol=0)

    def test_matches_oracle_for_every_main(self, rng):
        for n in (2, 3, 4):
            for main in range(n):
                g, h = random_gh(rng, m=30, n=n)
                out = updating_grad_hess(g, MTConfig(corr_mode="pearson_to_main"), main)
                og, oh = updating_oracle(g, h, "pearson_to_main", main)
                np.testing.assert_allclose(out, og, rtol=1e-12, atol=1e-15)
                np.testing.assert_allclose(h, oh, rtol=0)

    def test_single_shared_factor(self, rng):
        g, _ = random_gh(rng, m=60, n=4)
        out = updating_grad_hess(g, MTConfig(corr_mode="pearson_to_main"))
        factors = []
        for t in range(4):
            nonzero = g[:, t] != 0
            factors.append(out[nonzero, t] / g[nonzero, t])
        flat = np.concatenate(factors)
        assert np.max(np.abs(flat - flat[0])) == 0.0
        assert 0.5 <= flat[0] <= 1.0

    def test_anticorrelated_floor(self, rng):
        col = rng.normal(size=40)
        g = np.column_stack([col, -col])
        out = updating_grad_hess(g, MTConfig(corr_mode="pearson_to_main"))
        np.testing.assert_allclose(out, 0.5 * g, rtol=1e-12)

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
        # The pass takes gradients only, so the leaf fit gets the hessians as
        # grad_hess computed them; the oracle passes them through too.
        params = inspect.signature(updating_grad_hess).parameters
        assert not any(name.startswith("h") for name in params)
        g, h = random_gh(rng, n=3)
        assert np.array_equal(updating_oracle(g, h, "pearson_to_main")[1], h)

    def test_column_major_in_column_major_out(self, rng):
        g = np.asfortranarray(random_gh(rng)[0])
        for mode in ("constant_one", "pearson_to_main"):
            out = updating_grad_hess(g, MTConfig(corr_mode=mode))
            assert out.flags.f_contiguous

    def test_scales_in_place_into_out(self, rng):
        g, _ = random_gh(rng, n=3)
        expected = updating_grad_hess(g, MTConfig(corr_mode="pearson_to_main"))
        out = updating_grad_hess(g, MTConfig(corr_mode="pearson_to_main"), out=g)
        assert out is g
        assert np.array_equal(g, expected)

    def test_results_may_share_input_memory(self, rng):
        g, _ = random_gh(rng)
        assert updating_grad_hess(g, MTConfig(corr_mode="constant_one")) is g
        assert updating_grad_hess(g, MTConfig(corr_mode="pearson_to_main")) is not g


SETTINGS = [(cls, f) for cls in (BoosterParams, MTConfig, DataOptions)
            for f in dataclasses.fields(cls)]


@pytest.mark.parametrize("cls, field", SETTINGS,
                         ids=[f"{cls.__name__}.{f.name}" for cls, f in SETTINGS])
def test_every_settings_field_is_checked(cls, field):
    # Each value is of the wrong kind for its field: a bool is no number and
    # a bare string no list.
    wrong = [object()]
    if field.type in ("int", "float"):
        wrong.append(True)
    if field.type.startswith("tuple["):
        wrong.append("a")
    base = {"objectives": ("regression_l2",)} if cls is BoosterParams else {}
    for value in wrong:
        with pytest.raises(InvalidParameter, match=f"^{field.name} "):
            cls(**{**base, field.name: value})
