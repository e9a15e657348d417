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
from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidParameter, NonFiniteGradient
from .objectives import GradHess

TASK_SELECT_POLICIES = ("always_main", "uniform_random", "weighted")
CORR_MODES = ("pearson_to_main", "constant_one")

# Tasks whose mean |g| falls below this are treated as converged; their
# weight defaults to 1 instead of exploding.
DEAD_TASK_EPS = 1e-12

# Floor on the combined hessian, protecting the gain denominators.
H_E_FLOOR = 1e-6


def check_finite_fields(params) -> None:
    """Raise InvalidParameter when a float field of a parameter dataclass,
    or an element of a tuple field, is NaN or infinite."""
    for f in fields(params):
        value = getattr(params, f.name)
        for v in value if isinstance(value, tuple) else (value,):
            if isinstance(v, float) and not math.isfinite(v):
                raise InvalidParameter(f"{f.name} must be finite, got {v}")


@dataclass(frozen=True)
class MTConfig:
    """Knobs for the gradient ensemble and updating passes.

    ``gamma_boost`` amplifies the chosen tasks' weights (useful range 10 to
    100; higher helps when tasks conflict). Target means control the common
    scale gradients are normalized to; the std targets are kept in the
    model file but not enforced, since a single scalar weight cannot hit a
    mean and a std at once.
    """

    gamma_boost: float = 50.0
    g_target_mean: float = 0.05
    g_target_std: float = 0.01
    h_target_mean: float = 1.0
    h_target_std: float = 0.1
    task_select: str = "always_main"
    task_weights: tuple[float, ...] | None = None
    n_selected: int = 1
    corr_mode: str = "pearson_to_main"
    seed: int = 0

    def __post_init__(self):
        if self.task_weights is not None and len(self.task_weights) == 0:
            object.__setattr__(self, "task_weights", None)
        check_finite_fields(self)
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
        if self.seed < 0:
            raise InvalidParameter("seed must be nonnegative")


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


def select_tasks(config: MTConfig, n_tasks: int, iteration: int) -> frozenset[int]:
    """Pick the task indices to amplify this iteration.

    ``always_main`` forces task 0 and fills the rest uniformly; the other
    policies sample without replacement, uniformly or per the configured
    weights. Deterministic given (seed, iteration).
    """
    k = min(config.n_selected, n_tasks)
    if n_tasks == 1:
        return frozenset({0})
    rng = _iteration_rng(config.seed, iteration)
    if config.task_select == "always_main":
        rest = rng.choice(np.arange(1, n_tasks), size=k - 1, replace=False) if k > 1 else []
        return frozenset({0, *map(int, rest)})
    if config.task_select == "uniform_random":
        picks = rng.choice(n_tasks, size=k, replace=False)
        return frozenset(map(int, picks))
    weights = np.asarray(config.task_weights, dtype=np.float64)
    if weights.shape != (n_tasks,):
        raise InvalidParameter(f"task_weights has length {weights.size}, expected {n_tasks}")
    picks = rng.choice(n_tasks, size=k, replace=False, p=weights)
    return frozenset(map(int, picks))


@np.errstate(over="ignore", invalid="ignore")
def ensemble_grad_hess(gh: GradHess, config: MTConfig, iteration: int) -> EnsembleGrad:
    """Collapse per-task gradients into one splitting pair per sample. Raises
    NonFiniteGradient unless the combined values and their total over the
    rows, which bounds every node sum, are finite."""
    g, h = gh.g, gh.h
    n = g.shape[1]
    w = normalize_weights(g, config.g_target_mean)
    v = normalize_weights(h, config.h_target_mean)
    chosen = select_tasks(config, n, iteration)
    for k in chosen:
        w[k] *= config.gamma_boost

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
def pearson_to_main(g: np.ndarray) -> float:
    """Mean Pearson correlation of each auxiliary gradient column with task 0.

    Columns with zero variance contribute 0. With a single task the empty
    mean is defined as 1 (no damping). A product of two sums of squares that
    overflows is taken as the product of their roots. Gradients whose sums
    of squares overflow give 0 or NaN without a warning; a NaN reaches every
    leaf value and so the training loss, which train() rejects.
    """
    n = g.shape[1]
    if n == 1:
        return 1.0
    main = g[:, 0]
    main_c = main - main.mean()
    main_ss = float(np.dot(main_c, main_c))
    total = 0.0
    for t in range(1, n):
        col = g[:, t]
        col_c = col - col.mean()
        col_ss = float(np.dot(col_c, col_c))
        if main_ss <= 0.0 or col_ss <= 0.0:
            continue
        scale = np.sqrt(main_ss * col_ss)
        if not math.isfinite(scale):  # the product overflows, the sums need not
            scale = np.sqrt(main_ss) * np.sqrt(col_ss)
        total += float(np.dot(main_c, col_c)) / scale
    return total / (n - 1)


def updating_grad_hess(gh: GradHess, config: MTConfig, out=None) -> GradHess:
    """Scale every task's gradient column by one shared clipped correlation.

    ``constant_one`` mode returns ``gh`` itself; hessians are ``gh.h``, unmodified.
    The scaled gradients go to ``out`` when given, which may be ``gh.g``.
    """
    if config.corr_mode == "constant_one":
        return gh
    corr = pearson_to_main(gh.g)
    factor = float(np.clip(corr, 0.5, 1.0))
    return GradHess(g=np.multiply(gh.g, factor, out=out), h=gh.h)
