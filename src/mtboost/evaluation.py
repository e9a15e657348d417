"""Cross-validation orchestration for the main task's metric."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .booster import BoosterParams, predict, train
from .data import DEFAULT_MAX_BINS, RawTable, apply_bins, fit_bins
from .errors import InvalidParameter, TooFewSamples
from .metrics import MetricReport, compute_metric
from .objectives import BINARY_LOGLOSS


def _subset(table: RawTable, idx: np.ndarray) -> RawTable:
    return RawTable(
        table.features[idx],
        table.labels[idx],
        table.feature_names,
        table.task_names,
    )


def default_metric(params: BoosterParams) -> str:
    kind = params.objectives[params.main_task_index]
    return "auc" if kind == BINARY_LOGLOSS else "rmse"


def run_kfold(table: RawTable, k: int, params: BoosterParams,
              metric: str = "auto", chronological: bool = False,
              max_bins: int = DEFAULT_MAX_BINS) -> MetricReport:
    """Train k models on rotating folds and report the main-task metric.

    Fold assignment is a seeded permutation, so reports are reproducible;
    each fold trains with the base seed offset by its fold index. In
    chronological mode the last 20% of rows (by row order) form a single
    hold-out instead, mirroring time-series evaluation.
    """
    if metric == "auto":
        metric = default_metric(params)
    main = params.main_task_index

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
        model = train(train_ds, fold_params, valid_ds)
        raw = predict(model, valid_table.features, task=main)
        fold_values.append(compute_metric(metric, valid_table.labels[:, main], raw))

    return MetricReport(metric=metric, fold_values=tuple(fold_values),
                        mean=float(np.mean(fold_values)))
