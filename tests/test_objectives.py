import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mtboost.errors import InvalidParameter, LengthMismatch, ShapeMismatch
import mtboost
from mtboost.objectives import (
    BINARY_LOGLOSS,
    PROB_EPS,
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

    def test_unknown_objective_is_invalid_parameter(self):
        with pytest.raises(InvalidParameter, match="unknown objective 'bogus'"):
            transform_score(np.array([0.0]), "bogus")

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

    def test_unknown_objective_is_invalid_parameter(self):
        with pytest.raises(InvalidParameter, match="unknown objective 'bogus'"):
            loss([1.0], [1.0], "bogus")

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            loss([1.0], [1.0, 2.0], REGRESSION_L2)

    @given(st.lists(st.tuples(st.integers(0, 1), st.one_of(
        st.sampled_from([-1e9, -40.0, 0.0, 40.0, 1e9]),
        st.floats(min_value=-50, max_value=50, allow_nan=False))), min_size=1, max_size=40))
    @example([(0, -1e9), (1, -1e9), (0, 1e9), (1, 1e9)])
    def test_logloss_equals_two_log_form_bit_for_bit(self, rows):
        # Raw scores of +-40 and past take p to the clamps PROB_EPS and 1 - PROB_EPS.
        y, raw = (np.array(column, dtype=np.float64) for column in zip(*rows))
        p = transform_score(raw, BINARY_LOGLOSS)
        assert set(p[np.abs(raw) >= 40].tolist()) <= {PROB_EPS, 1.0 - PROB_EPS}
        two_logs = float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))
        assert loss(y, raw, BINARY_LOGLOSS).hex() == two_logs.hex()

    def test_overflowing_l2_loss_is_inf_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert loss([1e160, -1e160], [0.0, 0.0], REGRESSION_L2) == math.inf


class TestGradHess:
    def test_l2_values(self):
        g, h = grad_hess(np.array([[1.0]]), np.array([[3.0]]), (REGRESSION_L2,))
        assert g[0, 0] == 2.0
        assert h[0, 0] == 1.0

    def test_logloss_symmetry(self):
        g, h = grad_hess(
            np.array([[1.0], [0.0]]), np.zeros((2, 1)), (BINARY_LOGLOSS,)
        )
        assert g[0, 0] == -0.5
        assert g[1, 0] == 0.5
        assert np.allclose(h, 0.25)

    def test_column_major_in_column_major_out(self, rng):
        labels = np.asfortranarray(rng.integers(0, 2, size=(30, 3)), dtype=np.float64)
        scores = np.asfortranarray(rng.normal(size=(30, 3)))
        g, h = grad_hess(labels, scores, (REGRESSION_L2, BINARY_LOGLOSS, REGRESSION_L2))
        assert g.flags.f_contiguous and h.flags.f_contiguous

    def test_writes_into_out(self, rng):
        labels = np.asfortranarray(rng.integers(0, 2, size=(30, 3)), dtype=np.float64)
        scores = np.asfortranarray(rng.normal(size=(30, 3)))
        kinds = (REGRESSION_L2, BINARY_LOGLOSS, REGRESSION_L2)
        g, h = np.full_like(labels, np.nan), np.full_like(labels, np.nan)
        got_g, got_h = grad_hess(labels, scores, kinds, out=(g, h))
        fresh_g, fresh_h = grad_hess(labels, scores, kinds)
        assert got_g is g and got_h is h
        assert np.array_equal(g, fresh_g) and np.array_equal(h, fresh_h)

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
            g, h = grad_hess(np.array([[y]]), np.array([[raw]]), (kind,))
            num_g = (
                per_sample_loss(y, raw + delta, kind)
                - per_sample_loss(y, raw - delta, kind)
            ) / (2 * delta)
            assert abs(g[0, 0] - num_g) < 1e-6
            gp = grad_hess(np.array([[y]]), np.array([[raw + delta]]), (kind,))[0][0, 0]
            gm = grad_hess(np.array([[y]]), np.array([[raw - delta]]), (kind,))[0][0, 0]
            assert abs(h[0, 0] - (gp - gm) / (2 * delta)) < 1e-6

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(0, 1),
        st.floats(min_value=-30, max_value=30, allow_nan=False),
    )
    def test_logloss_gradient_bounds(self, y, raw):
        g = grad_hess(np.array([[float(y)]]), np.array([[raw]]), (BINARY_LOGLOSS,))[0][0, 0]
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
            _, h = grad_hess(np.array([[label]]), np.array([[raw]]), (kind,))
            assert h[0, 0] >= 0.0


def objective_mentions(path: Path) -> list[str]:
    """Where the module at ``path`` names an objective or PROB_EPS: a name,
    attribute or import of REGRESSION_L2, BINARY_LOGLOSS or PROB_EPS, or a
    string equal to an objective's name. __init__.py may re-export them from
    .objectives."""
    names = {"REGRESSION_L2", "BINARY_LOGLOSS", "PROB_EPS"}
    reexports = set()
    tree = ast.parse(path.read_text(), str(path))
    if path.name == "__init__.py":
        reexports = {id(alias) for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.module == "objectives"
                     for alias in node.names}
    found = []
    for node in sorted((n for n in ast.walk(tree) if hasattr(n, "lineno")),
                       key=lambda n: (n.lineno, n.col_offset)):
        named = (node.id if isinstance(node, ast.Name)
                 else node.attr if isinstance(node, ast.Attribute)
                 else node.name if isinstance(node, ast.alias) and id(node) not in reexports
                 else None)
        literal = isinstance(node, ast.Constant) and node.value in (REGRESSION_L2, BINARY_LOGLOSS)
        if named in names or literal:
            found.append(f"{path.name}:{node.lineno}: {named or node.value}")
    return found


def test_only_objectives_names_an_objective():
    package = Path(mtboost.__file__).parent
    found = [hit for path in sorted(package.glob("*.py")) if path.name != "objectives.py"
             for hit in objective_mentions(path)]
    assert found == []


def test_objective_mentions_finds_each_form(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text("from .objectives import PROB_EPS\n"
                      "from . import objectives as ob\n"
                      "if kind == ob.BINARY_LOGLOSS or kind == 'regression_l2':\n"
                      "    x = REGRESSION_L2\n")
    assert objective_mentions(module) == [
        "probe.py:1: PROB_EPS", "probe.py:3: BINARY_LOGLOSS", "probe.py:3: regression_l2",
        "probe.py:4: REGRESSION_L2"]
    init = tmp_path / "__init__.py"
    init.write_text("from .objectives import BINARY_LOGLOSS\n"
                    "from .booster import REGRESSION_L2\n"
                    "__all__ = ['BINARY_LOGLOSS']\n")
    assert objective_mentions(init) == ["__init__.py:2: REGRESSION_L2"]
