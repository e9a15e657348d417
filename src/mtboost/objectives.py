"""Per-task objectives: what each one means, in the one module that knows.

Two objectives are supported: squared error for regression and negative
log-likelihood (with a sigmoid link) for binary classification. For each,
this module holds the label rule (check_labels), the starting score
(base_scores), the output link (transform_score), the loss and the
gradients (grad_hess), and the metric run_kfold scores it by when none is
named (DEFAULT_METRIC); no other module branches on an objective. Derivatives
are taken with respect to the raw additive score, which keeps the hessian
well defined and matches standard second-order boosting; the L2 gradient
uses the half-scaled convention g = p - y, h = 1 (any constant rescaling is
cancelled later by gradient normalization, so splitting is unaffected).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParameter, LabelOverflow, LengthMismatch, NonNumericLabel, ShapeMismatch

REGRESSION_L2 = "regression_l2"
BINARY_LOGLOSS = "binary_logloss"
# Each objective and the metric of its main task when run_kfold is given none.
DEFAULT_METRIC = {REGRESSION_L2: "rmse", BINARY_LOGLOSS: "auc"}
OBJECTIVE_KINDS = tuple(DEFAULT_METRIC)

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


def check_labels(labels, objectives, what: str) -> None:
    """Check each task's column of the (m, n) ``labels``: raise
    NonNumericLabel unless every label is finite, then InvalidParameter
    unless every binary_logloss label is 0 or 1. ``what`` names the set in
    the message ("labels", "validation labels")."""
    for t, kind in enumerate(objectives):
        column = labels[:, t]
        if not np.isfinite(column).all():
            raise NonNumericLabel(f"task {t} {what} must all be finite")
        if kind == BINARY_LOGLOSS and not np.isin(column, (0.0, 1.0)).all():
            raise InvalidParameter(f"task {t} {what} must all be 0 or 1 for {kind}")


def base_scores(labels, objectives) -> np.ndarray:
    """Per-task starting raw score: the label mean, or for binary_logloss the
    log-odds of the mean clamped to [PROB_EPS, 1 - PROB_EPS]. Raises
    LabelOverflow when a mean overflows."""
    base = np.empty(labels.shape[1], dtype=np.float64)
    for t, kind in enumerate(objectives):
        with np.errstate(over="ignore"):
            mean = float(np.mean(labels[:, t]))
        if not math.isfinite(mean):
            raise LabelOverflow(f"task {t}: the label mean overflows float64")
        if kind == BINARY_LOGLOSS:
            p = min(max(mean, PROB_EPS), 1.0 - PROB_EPS)
            mean = math.log(p / (1.0 - p))
        base[t] = mean
    return base


def sigmoid(raw):
    # exp may overflow to inf for extreme raw scores; the result still
    # saturates correctly to 0, so the warning is noise.
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(raw, dtype=np.float64)))


def transform_score(raw, kind: str):
    """Map raw scores to the prediction scale of the objective.

    Identity for regression; a clamped sigmoid for binary log-loss.
    """
    validate_objectives((kind,))
    raw = np.asarray(raw, dtype=np.float64)
    if kind == REGRESSION_L2:
        return raw
    return np.clip(sigmoid(raw), PROB_EPS, 1.0 - PROB_EPS)


def loss(labels, scores, kind: str) -> float:
    """Mean loss of one task given raw scores. A binary_logloss label must be
    0 or 1, as train() checks."""
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
    # For y in {0, 1}, |p - (1 - y)| is p or 1 - p (p - 1 is -(1 - p)
    # exactly), the probability given to the label, and its one log equals
    # y log p + (1 - y) log(1 - p) bit for bit.
    q = p - (1.0 - labels)
    np.abs(q, out=q)
    np.log(q, out=q)
    return float(-np.mean(q))


def grad_hess(labels, raw_scores, objectives, out=None) -> tuple[np.ndarray, np.ndarray]:
    """Per-task gradients and hessians at the current raw scores, as a
    (g, h) pair of (m, n) arrays; every hessian is nonnegative.

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
    return g, h
