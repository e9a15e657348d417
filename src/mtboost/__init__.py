"""Histogram-based gradient boosting with shared multi-task trees.

One tree structure serves every task: node splits are chosen from a
weighted per-sample ensemble of all tasks' gradients, while each leaf
stores one Newton-step value per task. See the README for the full tour.
"""

from .booster import (
    BoosterModel,
    BoosterParams,
    IterationLog,
    extract_task,
    load_model,
    predict,
    predict_proba,
    save_model,
    train,
)
from .data import (
    BinMapper,
    Dataset,
    RawTable,
    apply_bins,
    fit_bins,
    load_csv,
    log_transform,
    write_csv,
)
from .evaluation import run_kfold
from .gradients import MTConfig
from .metrics import MetricReport, mape, rmse, roc_auc
from .objectives import BINARY_LOGLOSS, REGRESSION_L2, transform_score
from .synthetic import SyntheticSpec, gen_synthetic
from .tree import MultiOutputTree

__version__ = "0.1.0"

__all__ = [
    "BINARY_LOGLOSS",
    "BinMapper",
    "BoosterModel",
    "BoosterParams",
    "Dataset",
    "IterationLog",
    "MTConfig",
    "MetricReport",
    "MultiOutputTree",
    "REGRESSION_L2",
    "RawTable",
    "SyntheticSpec",
    "apply_bins",
    "extract_task",
    "fit_bins",
    "gen_synthetic",
    "load_csv",
    "load_model",
    "log_transform",
    "mape",
    "predict",
    "predict_proba",
    "rmse",
    "roc_auc",
    "run_kfold",
    "save_model",
    "train",
    "transform_score",
    "write_csv",
]
