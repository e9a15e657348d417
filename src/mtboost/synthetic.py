"""Synthetic multi-task datasets for experiments and tests.

Three scenarios, each a miniature of a real multi-task situation:

* ``noisy_tasks``: one separable 2-D ground truth observed through two
  independently label-flipped binary tasks. Averaging both tasks' gradients
  recovers a cleaner split signal than either noisy label alone.
* ``sub_tasks``: a broad noisy class (main task) containing a small clean
  subclass (auxiliary task, ~3.5% prevalence by default). The subclass
  gradients pull splits that isolate the small group the main label alone
  cannot cleanly find.
* ``timeseries_ratio``: a positive autoregressive series; the main label is
  the next value, the auxiliary label the next/current ratio, with sliding
  window min/max/mean/var features over 3, 7, 14 and 30 steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import RawTable
from .errors import InvalidSpec

SCENARIOS = ("noisy_tasks", "sub_tasks", "timeseries_ratio")

# The SyntheticSpec fields each scenario does not read; a spec must leave
# them at their defaults, so a setting that would have no effect is an error.
_UNREAD_FIELDS = {
    "noisy_tasks": ("subclass_prevalence",),
    "sub_tasks": (),
    "timeseries_ratio": ("d", "noise_rate", "subclass_prevalence"),
}

WINDOW_SIZES = (3, 7, 14, 30)


@dataclass(frozen=True)
class SyntheticSpec:
    scenario: str
    m: int = 5000
    d: int = 6
    noise_rate: float = 0.15
    subclass_prevalence: float = 0.035
    seed: int = 0

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise InvalidSpec(f"unknown scenario {self.scenario!r}")
        for f in fields(self):
            if f.name in _UNREAD_FIELDS[self.scenario] and getattr(self, f.name) != f.default:
                raise InvalidSpec(f"{self.scenario} does not use {f.name}; leave it at "
                                  f"its default {f.default}")
        if self.m < 100:
            raise InvalidSpec("m must be >= 100")
        if not 0.0 <= self.noise_rate < 0.5:
            raise InvalidSpec("noise_rate must be in [0, 0.5)")
        if self.scenario == "noisy_tasks" and self.d < 2:
            raise InvalidSpec("noisy_tasks needs d >= 2")
        if self.scenario == "sub_tasks" and self.d < 4:
            raise InvalidSpec("sub_tasks needs d >= 4")
        if self.scenario == "sub_tasks" and not 0.0 < self.subclass_prevalence <= 0.2:
            raise InvalidSpec("subclass_prevalence must be in (0, 0.2]")


def gen_synthetic(spec: SyntheticSpec) -> RawTable:
    if spec.scenario == "noisy_tasks":
        return _gen_noisy_tasks(spec)
    if spec.scenario == "sub_tasks":
        return _gen_sub_tasks(spec)
    return _gen_timeseries_ratio(spec)


def _feature_names(d: int) -> tuple[str, ...]:
    return tuple(f"x{j}" for j in range(d))


def _gen_noisy_tasks(spec: SyntheticSpec) -> RawTable:
    rng = np.random.default_rng([spec.seed, 1])
    x = rng.uniform(0.0, 1.0, size=(spec.m, spec.d))
    truth = (x[:, 0] + x[:, 1]) > 1.0
    y_main = truth ^ (rng.random(spec.m) < spec.noise_rate)
    y_aux = truth ^ (rng.random(spec.m) < spec.noise_rate)
    labels = np.column_stack([y_main, y_aux]).astype(np.float64)
    return RawTable(x, labels, _feature_names(spec.d), ("y_main", "y_aux"))


def _gen_sub_tasks(spec: SyntheticSpec) -> RawTable:
    rng = np.random.default_rng([spec.seed, 2])
    x = rng.uniform(0.0, 1.0, size=(spec.m, spec.d))
    broad = x[:, 0] > 0.6  # ~40% of rows
    # The subclass is a three-feature corner of the broad positives, sized so
    # its overall prevalence matches the spec. The conjunction keeps each
    # feature's marginal signal in the main label weak; the subclass label
    # itself points straight at it.
    conditional = min(spec.subclass_prevalence / 0.4, 1.0)
    tail = conditional ** (1.0 / 3.0)
    sub = broad & (x[:, 1] > 1.0 - tail) & (x[:, 2] > 1.0 - tail) & (x[:, 3] > 1.0 - tail)
    flips = rng.random(spec.m) < spec.noise_rate
    y_main = np.where(sub, True, broad ^ flips)
    labels = np.column_stack([y_main, sub]).astype(np.float64)
    return RawTable(x, labels, _feature_names(spec.d), ("y_main", "y_sub"))


def _gen_timeseries_ratio(spec: SyntheticSpec) -> RawTable:
    rng = np.random.default_rng([spec.seed, 3])
    burn = max(WINDOW_SIZES)
    total = spec.m + burn
    mu_log = math.log(1000.0)
    kappa, sigma = 0.05, 0.03
    values = np.empty(total + 1, dtype=np.float64)
    ratios = np.empty(total, dtype=np.float64)
    values[0] = 1000.0
    eps = rng.standard_normal(total)
    for t in range(total):
        ratios[t] = math.exp(kappa * (mu_log - math.log(values[t])) + sigma * eps[t])
        values[t + 1] = values[t] * ratios[t]

    names = ["value_now"]
    columns = [values[burn - 1 : burn - 1 + spec.m]]
    for w in WINDOW_SIZES:
        names += [f"min_{w}", f"max_{w}", f"mean_{w}", f"var_{w}"]
        # Row r's window ends at value_now = values[burn - 1 + r].
        windows = sliding_window_view(values[burn - w : burn - 1 + spec.m], w)
        columns += [windows.min(axis=1), windows.max(axis=1),
                    windows.mean(axis=1), windows.var(axis=1)]
    # values[i + 1] was computed as values[i] * ratios[i], so the label
    # identity main == sub * value_now holds bit for bit.
    labels = np.column_stack([values[burn : burn + spec.m], ratios[burn - 1 : burn - 1 + spec.m]])
    return RawTable(np.column_stack(columns), labels, tuple(names), ("next_value", "next_ratio"))
