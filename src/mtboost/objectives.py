"""Per-task loss functions and their derivatives w.r.t. raw scores.

Two objectives are supported: squared error for regression and negative
log-likelihood (with a sigmoid link) for binary classification. Derivatives
are taken with respect to the raw additive score, which keeps the hessian
well defined and matches standard second-order boosting; the L2 gradient
uses the half-scaled convention g = p - y, h = 1 (any constant rescaling is
cancelled later by gradient normalization, so splitting is unaffected).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, LengthMismatch, ShapeMismatch

REGRESSION_L2 = "regression_l2"
BINARY_LOGLOSS = "binary_logloss"
OBJECTIVE_KINDS = (REGRESSION_L2, BINARY_LOGLOSS)

# Sigmoid outputs are clamped here before any log to avoid infinities.
PROB_EPS = 1e-15


def validate_objectives(kinds) -> tuple[str, ...]:
    kinds = tuple(kinds)
    for kind in kinds:
        if kind not in OBJECTIVE_KINDS:
            raise InvalidParameter(
                f"unknown objective {kind!r}; expected one of {OBJECTIVE_KINDS}"
            )
    return kinds


def sigmoid(raw):
    # exp may overflow to inf for extreme raw scores; the result still
    # saturates correctly to 0, so the warning is noise.
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(raw, dtype=np.float64)))


def transform_score(raw, kind: str):
    """Map raw scores to the prediction scale of the objective.

    Identity for regression; a clamped sigmoid for binary log-loss.
    """
    raw = np.asarray(raw, dtype=np.float64)
    if kind == REGRESSION_L2:
        return raw
    if kind == BINARY_LOGLOSS:
        return np.clip(sigmoid(raw), PROB_EPS, 1.0 - PROB_EPS)
    raise ValueError(f"unknown objective {kind!r}")


def loss(labels, scores, kind: str) -> float:
    """Mean loss of one task given raw scores."""
    labels = np.asarray(labels, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.shape != scores.shape:
        raise LengthMismatch(f"labels {labels.shape} vs scores {scores.shape}")
    p = transform_score(scores, kind)
    if kind == REGRESSION_L2:
        # Labels or scores past about 1e154 overflow the square; the loss is
        # then inf, which train() reports as LabelOverflow.
        with np.errstate(over="ignore"):
            return float(np.mean((labels - p) ** 2))
    return float(-np.mean(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p)))


@dataclass(eq=False)
class GradHess:
    """First and second derivatives of the loss, per sample per task."""

    g: np.ndarray  # (m, n)
    h: np.ndarray  # (m, n), nonnegative

    @property
    def m(self) -> int:
        return self.g.shape[0]

    @property
    def n(self) -> int:
        return self.g.shape[1]


def grad_hess(labels, raw_scores, objectives, out=None) -> GradHess:
    """Compute per-task gradients and hessians at the current raw scores.

    regression_l2: g = p - y, h = 1. binary_logloss: with q = sigmoid(raw),
    g = q - y, h = q (1 - q). ``out`` is an optional (g, h) pair of arrays
    of the labels' shape to write them into.
    """
    labels = np.asarray(labels, dtype=np.float64)
    raw_scores = np.asarray(raw_scores, dtype=np.float64)
    if labels.shape != raw_scores.shape:
        raise ShapeMismatch(f"labels {labels.shape} vs scores {raw_scores.shape}")
    objectives = validate_objectives(objectives)
    if labels.shape[1] != len(objectives):
        raise ShapeMismatch(
            f"{labels.shape[1]} label columns but {len(objectives)} objectives"
        )
    g, h = (np.empty_like(labels), np.empty_like(labels)) if out is None else out
    for t, kind in enumerate(objectives):
        if kind == REGRESSION_L2:
            g[:, t] = raw_scores[:, t] - labels[:, t]
            h[:, t] = 1.0
        else:
            q = sigmoid(raw_scores[:, t])
            g[:, t] = q - labels[:, t]
            h[:, t] = q * (1.0 - q)
    return GradHess(g=g, h=h)
