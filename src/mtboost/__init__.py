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
from .gradients import (
    MTConfig,
    ensemble_grad_hess,
    normalize_weights,
    select_tasks,
    updating_grad_hess,
)
from .metrics import MetricReport, mape, rmse, roc_auc
from .objectives import (
    BINARY_LOGLOSS,
    REGRESSION_L2,
    grad_hess,
    loss,
    transform_score,
)
from .synthetic import SyntheticSpec, gen_synthetic
from .tree import (
    MultiOutputTree,
    build_histograms,
    find_best_split,
    fit_leaf_values,
    grow_tree,
    route_binned,
    subtract_histograms,
)

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
    "build_histograms",
    "ensemble_grad_hess",
    "extract_task",
    "find_best_split",
    "fit_bins",
    "fit_leaf_values",
    "gen_synthetic",
    "grad_hess",
    "grow_tree",
    "load_csv",
    "load_model",
    "log_transform",
    "loss",
    "mape",
    "normalize_weights",
    "predict",
    "predict_proba",
    "rmse",
    "roc_auc",
    "route_binned",
    "run_kfold",
    "save_model",
    "select_tasks",
    "subtract_histograms",
    "train",
    "transform_score",
    "updating_grad_hess",
    "write_csv",
]
