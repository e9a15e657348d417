"""Scoring a model by a metric, and cross-validation of the main task's."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import booster as bt
from .data import DEFAULT_MAX_BINS, RawTable, apply_bins, fit_bins
from .errors import InvalidParameter, MtboostError, TooFewSamples
from .metrics import MetricReport, metric_function
from .objectives import DEFAULT_METRIC

# The metrics scored on predict_proba's scale; auc ranks rows by the raw
# scores (predict) instead, which the sigmoid's order keeps.
_ON_PROBABILITIES = ("rmse", "mape")


def _subset(table: RawTable, idx: np.ndarray) -> RawTable:
    return RawTable(
        table.features[idx],
        table.labels[idx],
        table.feature_names,
        table.task_names,
    )


def score_model(model: bt.BoosterModel, features, labels, metric: str,
                task: int | None = None) -> list[float]:
    """The ``metric`` of every task's predictions of ``features``, or of
    ``task``'s alone, against its column of the (k, n) ``labels``.

    rmse and mape score predict_proba, so a binary_logloss task's are on the
    probability scale; auc scores predict's raw scores. The predictions come
    from one call of bt.predict or bt.predict_proba, looked up in the booster
    module. An unknown metric raises InvalidParameter before any
    prediction, and a task's MtboostError is raised again, of its type,
    with the task's name in front.
    """
    score = metric_function(metric)
    predict = bt.predict_proba if metric in _ON_PROBABILITIES else bt.predict
    preds = predict(model, features, task)
    preds = preds.reshape(preds.shape[0], -1)  # one column per scored task
    values = []
    for column, t in enumerate(range(model.n_tasks) if task is None else [task]):
        try:
            values.append(score(labels[:, t], preds[:, column]))
        except MtboostError as exc:
            raise type(exc)(f"task {model.task_names[t]!r}: {exc}") from None
    return values


def run_kfold(table: RawTable, k: int, params: bt.BoosterParams,
              metric: str = "auto", chronological: bool = False,
              max_bins: int = DEFAULT_MAX_BINS) -> MetricReport:
    """Train k models on rotating folds and report the main-task metric.

    Fold assignment is a seeded permutation, so reports are reproducible;
    each fold trains with the base seed offset by its fold index. In
    chronological mode the last 20% of rows (by row order) form a single
    hold-out instead, mirroring time-series evaluation. Each fold's hold-out
    rows are scored by score_model, on the scales ``mtboost eval`` uses;
    ``metric="auto"`` picks the main task's objective's DEFAULT_METRIC, and
    an unknown metric raises InvalidParameter before any fold trains.
    """
    main = params.main_task_index
    if metric == "auto":
        metric = DEFAULT_METRIC[params.objectives[main]]
    metric_function(metric)  # an unknown name fails before any fold trains

    if chronological:
        cut = int(table.m * 0.8)
        if cut < 1 or table.m - cut < 1:
            raise TooFewSamples(f"{table.m} rows cannot form an 80/20 split")
        splits = [(np.arange(cut), np.arange(cut, table.m))]
    else:
        if k < 2:
            raise InvalidParameter("k must be >= 2")
        if table.m < 2 * k:
            raise TooFewSamples(f"{table.m} rows are too few for {k} folds")
        rng = np.random.default_rng([params.seed, 0xF01D])
        perm = rng.permutation(table.m)
        fold_chunks = np.array_split(perm, k)
        splits = []
        for i, chunk in enumerate(fold_chunks):
            valid_idx = np.sort(chunk)
            train_idx = np.sort(np.concatenate([c for j, c in enumerate(fold_chunks) if j != i]))
            splits.append((train_idx, valid_idx))

    fold_values = []
    for i, (train_idx, valid_idx) in enumerate(splits):
        train_table = _subset(table, train_idx)
        valid_table = _subset(table, valid_idx)
        mapper = fit_bins(train_table, max_bins)
        train_ds = apply_bins(train_table, mapper)
        valid_ds = apply_bins(valid_table, mapper)
        fold_params = replace(params, seed=params.seed + i)
        model = bt.train(train_ds, fold_params, valid_ds)
        fold_values += score_model(model, valid_table.features, valid_table.labels, metric, main)

    return MetricReport(metric=metric, fold_values=tuple(fold_values),
                        mean=float(np.mean(fold_values)))
