"""Combining per-task gradients into splitting and updating gradients.

Two transformations run each boosting iteration:

* The *ensemble* pass collapses the (m, n) gradient/hessian matrices into a
  single per-sample pair (g_e, h_e) that drives node splitting. Each task's
  gradient column is rescaled so its mean magnitude hits a common target,
  a randomly chosen subset of tasks is further amplified by a boost factor,
  and the weighted columns are summed.

* The *updating* pass rescales the per-task gradients used for leaf values
  by a single scalar in [0.5, 1] derived from the correlation between each
  auxiliary task's gradient vector and the main task's. One shared scalar
  keeps every task advancing at the same pace; hessians pass through
  untouched.

Task selection draws from a fresh generator keyed on (seed, iteration), so
results do not depend on evaluation order or thread count.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidParameter, NonFiniteGradient

TASK_SELECT_POLICIES = ("always_main", "uniform_random", "weighted")
CORR_MODES = ("pearson_to_main", "constant_one")

# Tasks whose mean |g| falls below this are treated as converged; their
# weight defaults to 1 instead of exploding.
DEAD_TASK_EPS = 1e-12

# Floor on the combined hessian, protecting the gain denominators.
H_E_FLOOR = 1e-6


# Annotation of a parameter field -> type tag. The CLI parses config text by
# these tags, and check_fields checks every value against them, however it
# was read: from Python, a config file or a model file.
PARAM_TYPES = {
    "int": "int",
    "float": "float",
    "str": "str",
    "tuple[str, ...]": "strlist",
    "tuple[float, ...] | None": "floatlist",
}


def param_types(cls) -> dict[str, str]:
    """Type tag of each field of a parameter dataclass (BoosterParams,
    MTConfig or cli.DataOptions), in field order; the nested ``mt`` config
    is left out."""
    return {f.name: PARAM_TYPES[f.type] for f in fields(cls) if f.name != "mt"}


def string_tuple(name: str, value) -> tuple[str, ...]:
    """``value``, a tuple or list of strings, as a tuple; raises
    InvalidParameter, naming ``name``, for anything else."""
    if not isinstance(value, (tuple, list)) or not all(isinstance(v, str) for v in value):
        raise InvalidParameter(f"{name} must be a list of strings, got {value!r}")
    return tuple(value)


def _real(name: str, value) -> int | float:
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise InvalidParameter(f"{name} must be a number, got {value!r}")
    value = value.item() if isinstance(value, np.generic) else value
    if isinstance(value, float) and not math.isfinite(value):
        raise InvalidParameter(f"{name} must be finite, got {value}")
    return value


def check_fields(params) -> None:
    """Check each field of a frozen parameter dataclass by its type tag and
    store it so that it saves as JSON and loads back: an int as
    operator.index(value); a float or floatlist element as itself (a Python
    int keeps its JSON form) or a numpy number's Python equal; a strlist as
    a tuple; an empty floatlist as None. Raise InvalidParameter, naming the
    field, for a value of another type (a bool is no number) or a NaN or inf."""
    for name, tag in param_types(type(params)).items():
        value = getattr(params, name)
        if tag == "int":
            if isinstance(value, bool) or not hasattr(value, "__index__"):
                raise InvalidParameter(f"{name} must be an integer, got {value!r}")
            value = operator.index(value)
        elif tag == "float":
            value = _real(name, value)
        elif tag == "str" and not isinstance(value, str):
            raise InvalidParameter(f"{name} must be a string, got {value!r}")
        elif tag == "strlist":
            value = string_tuple(name, value)
        elif tag == "floatlist" and value is not None:
            if not isinstance(value, (tuple, list, np.ndarray)):
                raise InvalidParameter(f"{name} must be a list of numbers, got {value!r}")
            value = tuple(_real(name, v) for v in value) or None
        object.__setattr__(params, name, value)


@dataclass(frozen=True)
class MTConfig:
    """Knobs for the gradient ensemble and updating passes.

    ``gamma_boost`` amplifies the chosen tasks' weights (useful range 10 to
    100; higher helps when tasks conflict). Target means control the common
    scale gradients are normalized to.
    """

    gamma_boost: float = 50.0
    g_target_mean: float = 0.05
    h_target_mean: float = 1.0
    task_select: str = "always_main"
    task_weights: tuple[float, ...] | None = None
    n_selected: int = 1
    corr_mode: str = "pearson_to_main"

    def __post_init__(self):
        check_fields(self)
        if self.gamma_boost < 1.0:
            raise InvalidParameter("gamma_boost must be >= 1")
        if min(self.g_target_mean, self.h_target_mean) <= 0:
            raise InvalidParameter("g_target_mean and h_target_mean must be > 0")
        if self.task_select not in TASK_SELECT_POLICIES:
            raise InvalidParameter(f"unknown task_select {self.task_select!r}")
        if self.corr_mode not in CORR_MODES:
            raise InvalidParameter(f"unknown corr_mode {self.corr_mode!r}")
        if self.n_selected < 1:
            raise InvalidParameter("n_selected must be >= 1")
        if self.task_select == "weighted":
            if not self.task_weights:
                raise InvalidParameter("weighted task selection needs task_weights")
            total = sum(self.task_weights)
            if abs(total - 1.0) > 1e-9:
                raise InvalidParameter(f"task_weights must sum to 1, got {total}")
            if min(self.task_weights) < 0:
                raise InvalidParameter("task_weights must be nonnegative")
            nonzero = sum(w > 0 for w in self.task_weights)
            if self.n_selected > nonzero:
                raise InvalidParameter(
                    f"n_selected={self.n_selected} exceeds the {nonzero} tasks "
                    "with nonzero task_weights"
                )


@dataclass(eq=False)
class EnsembleGrad:
    """Per-sample splitting gradients plus the weights that produced them."""

    g_e: np.ndarray  # (m,)
    h_e: np.ndarray  # (m,), strictly positive
    chosen_tasks: frozenset[int]
    w: np.ndarray  # (n,) gradient weights, boost applied
    v: np.ndarray  # (n,) hessian weights


def normalize_weights(g: np.ndarray, target_mean: float) -> np.ndarray:
    """Per-task scalars w_t so that mean(|w_t * g[:, t]|) == target_mean.

    A task whose mean absolute gradient is essentially zero keeps weight 1.
    """
    mags = np.array([np.mean(np.abs(col)) for col in g.T])  # no (m, n) temporary
    w = np.ones_like(mags)
    alive = mags > DEAD_TASK_EPS
    w[alive] = target_mean / mags[alive]
    return w


def _iteration_rng(seed: int, iteration: int) -> np.random.Generator:
    return np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, iteration])


def _other_tasks(n_tasks: int, main: int) -> np.ndarray:
    """Every task index but ``main``, ascending; raises InvalidParameter
    unless ``main`` is one of the ``n_tasks``."""
    if not 0 <= main < n_tasks:
        raise InvalidParameter(f"main task {main} not in [0, {n_tasks})")
    return np.delete(np.arange(n_tasks), main)


def select_tasks(config: MTConfig, n_tasks: int, iteration: int, seed: int,
                 main: int = 0) -> frozenset[int]:
    """Pick the task indices to amplify this iteration.

    ``always_main`` forces task ``main`` and draws the rest uniformly from
    the others; the other policies sample without replacement, uniformly or
    per the configured weights. Deterministic given (seed, iteration).
    """
    rest = _other_tasks(n_tasks, main)
    if config.task_select == "weighted" and len(config.task_weights) != n_tasks:
        raise InvalidParameter(f"{len(config.task_weights)} task_weights for {n_tasks} tasks")
    k = min(config.n_selected, n_tasks)
    if n_tasks == 1 or config.task_select == "always_main" and k == 1:
        return frozenset({main})  # nothing to draw
    rng = _iteration_rng(seed, iteration)
    if config.task_select == "always_main":
        return frozenset({main, *map(int, rng.choice(rest, size=k - 1, replace=False))})
    weights = config.task_weights if config.task_select == "weighted" else None
    return frozenset(map(int, rng.choice(n_tasks, size=k, replace=False, p=weights)))


@np.errstate(over="ignore", invalid="ignore")
def ensemble_grad_hess(g, h, config: MTConfig, iteration: int, seed: int,
                       main: int = 0) -> EnsembleGrad:
    """Collapse (m, n) per-task gradients and hessians into one splitting
    pair per sample. Raises NonFiniteGradient unless the combined values and
    their total over the rows, which bounds every node sum, are finite."""
    n = g.shape[1]
    w = normalize_weights(g, config.g_target_mean)
    v = normalize_weights(h, config.h_target_mean)
    chosen = select_tasks(config, n, iteration, seed, main)
    w[list(chosen)] *= config.gamma_boost

    # Accumulate task by task in index order: deterministic regardless of
    # any BLAS threading.
    g_e = np.zeros(g.shape[0], dtype=np.float64)
    h_e = np.zeros(g.shape[0], dtype=np.float64)
    for t in range(n):
        g_e += w[t] * g[:, t]
        h_e += v[t] * h[:, t]
    np.maximum(h_e, H_E_FLOOR, out=h_e)
    if not math.isfinite(float(np.abs(g_e).sum()) + float(h_e.sum())):
        raise NonFiniteGradient("gradients, hessians or their weighted sums are not finite")

    return EnsembleGrad(g_e=g_e, h_e=h_e, chosen_tasks=chosen, w=w, v=v)


@np.errstate(over="ignore", invalid="ignore")
def pearson_to_main(g: np.ndarray, main: int = 0) -> float:
    """Mean Pearson correlation of the other columns, ascending, with column ``main``.

    Columns with zero variance contribute 0. With a single task the empty
    mean is defined as 1 (no damping). A product of two sums of squares that
    overflows is taken as the product of their roots. Gradients whose sums
    of squares overflow give 0 or NaN without a warning; a NaN reaches every
    leaf value and so the training loss, which train() rejects.
    """
    others = _other_tasks(g.shape[1], main)
    if not others.size:
        return 1.0
    main_c = g[:, main] - g[:, main].mean()
    main_ss = float(np.dot(main_c, main_c))
    total = 0.0
    for t in others:
        col = g[:, t]
        col_c = col - col.mean()
        col_ss = float(np.dot(col_c, col_c))
        if main_ss <= 0.0 or col_ss <= 0.0:
            continue
        scale = np.sqrt(main_ss * col_ss)
        if not math.isfinite(scale):  # the product overflows, the sums need not
            scale = np.sqrt(main_ss) * np.sqrt(col_ss)
        total += float(np.dot(main_c, col_c)) / scale
    return total / others.size


def updating_grad_hess(g, config: MTConfig, main: int = 0, out=None) -> np.ndarray:
    """Scale every gradient column by one shared, clipped pearson_to_main(g, main).

    It takes gradients only: leaf values use the hessians unmodified.
    ``constant_one`` mode returns ``g`` itself. The scaled gradients go to
    ``out`` when given, which may be ``g``.
    """
    if config.corr_mode == "constant_one":
        return g
    factor = float(np.clip(pearson_to_main(g, main), 0.5, 1.0))
    return np.multiply(g, factor, out=out)
