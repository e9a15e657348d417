"""Evaluation metrics: RMSE, MAPE and rank-based ROC-AUC."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LabelOverflow, LengthMismatch, SingleClass, ZeroLabelInMape

METRIC_NAMES = ("rmse", "mape", "auc")


@dataclass(frozen=True)
class MetricReport:
    """One metric evaluated per task and (optionally) per fold."""

    metric: str
    task_values: tuple[tuple[str, float], ...]
    fold_values: tuple[float, ...]
    mean: float


def _check_lengths(y, p):
    y = np.asarray(y, dtype=np.float64).ravel()
    p = np.asarray(p, dtype=np.float64).ravel()
    if y.shape != p.shape:
        raise LengthMismatch(f"{y.shape} labels vs {p.shape} predictions")
    return y, p


def _finite(value: float, metric: str) -> float:
    if not math.isfinite(value):
        raise LabelOverflow(f"{metric} overflows float64")
    return value


@np.errstate(over="ignore", invalid="ignore")
def rmse(y, p) -> float:
    """Root mean squared error; raises LabelOverflow when it is not finite."""
    y, p = _check_lengths(y, p)
    return _finite(float(np.sqrt(np.mean((y - p) ** 2))), "rmse")


@np.errstate(over="ignore", invalid="ignore")
def mape(y, p) -> float:
    """Mean absolute percentage error; raises LabelOverflow when it is not
    finite and ZeroLabelInMape when a label is zero."""
    y, p = _check_lengths(y, p)
    if np.any(y == 0.0):
        raise ZeroLabelInMape("MAPE undefined: a true label is zero")
    return _finite(float(np.mean(np.abs(y - p) / np.abs(y))), "mape")


def roc_auc(labels, scores) -> float:
    """Probability a random positive outranks a random negative.

    Computed from average ranks (Mann-Whitney), so tied scores earn half
    credit. Invariant under any strictly increasing transform of scores.
    """
    y, s = _check_lengths(labels, scores)
    if not np.isin(y, (0.0, 1.0)).all():
        raise ValueError("labels must be 0/1")
    n_pos = int(np.sum(y == 1.0))
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise SingleClass("need at least one positive and one negative label")
    uniq, inverse, counts = np.unique(s, return_inverse=True, return_counts=True)
    first_rank = np.cumsum(counts) - counts + 1
    avg_rank = first_rank + (counts - 1) / 2.0
    ranks = avg_rank[inverse]
    pos_rank_sum = float(ranks[y == 1.0].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def compute_metric(name: str, labels, predictions) -> float:
    if name == "rmse":
        return rmse(labels, predictions)
    if name == "mape":
        return mape(labels, predictions)
    if name == "auc":
        return roc_auc(labels, predictions)
    raise ValueError(f"unknown metric {name!r}; expected one of {METRIC_NAMES}")
