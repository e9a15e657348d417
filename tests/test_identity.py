"""Byte identity of every output against digests recorded in the past.

Each problem below is small and fixed. Its outputs (model file, `predict`
and `predict(task=t)` score bytes, training-log CSV, and for the CLI every
file and printed line) are hashed with sha256 and compared with
``identity_digests.json``. A change that moves any output bit fails here;
one that means to must rewrite the digests in the same diff and say why.

The digests hold for the numpy version they were recorded on, which the
file names: on another version the tests skip and say so. To record them
afresh, run ``PYTHONPATH=src python tests/test_identity.py``.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from mtboost import cli
from mtboost.booster import BoosterParams, extract_task, load_model, predict, save_model, train
from mtboost.data import RawTable, apply_bins, fit_bins
from mtboost.gradients import MTConfig
from mtboost.objectives import BINARY_LOGLOSS, REGRESSION_L2

DIGESTS = Path(__file__).with_name("identity_digests.json")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _table(seed, m, d, objectives, nan_rate=0.0):
    """Rows whose labels share a signal: a regression label near a linear
    function of the first features, or a noisy 0/1 cut of it."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(m, d))
    signal = 2.0 * x[:, 0] - x[:, 1] + 0.5 * x[:, 1] * x[:, -1]
    labels = []
    for t, kind in enumerate(objectives):
        noisy = signal * (1.0 + 0.3 * t) + rng.normal(scale=0.5, size=m)
        labels.append((noisy > 0).astype(np.float64) if kind == BINARY_LOGLOSS else noisy)
    x[rng.random((m, d)) < nan_rate] = np.nan
    return RawTable(x, np.column_stack(labels), tuple(f"f{j}" for j in range(d)),
                    tuple(f"y{t}" for t in range(len(objectives))))


def _model_outputs(model, x, path, has_valid) -> dict[str, str]:
    """Digests of a model's file, training log and scores on ``x``; the
    model loaded back from its file must predict the same bytes."""
    save_model(model, path)
    log = path.with_suffix(".log.csv")
    cli._write_training_log(model, log, has_valid)
    scores = predict(model, x)
    out = {"model": _sha(path.read_bytes()), "log": _sha(log.read_bytes()),
           "predict": _sha(scores.tobytes())}
    for t in range(model.n_tasks):
        out[f"predict_task_{t}"] = _sha(predict(model, x, task=t).tobytes())
    assert predict(load_model(path), x).tobytes() == scores.tobytes()
    return out


def _trained(seed, objectives, m=300, nan_rate=0.0, valid=False, **kw):
    table = _table(seed, m, 4, objectives, nan_rate)
    mapper = fit_bins(table, 32)
    valid_ds = None
    if valid:
        valid_ds = apply_bins(_table(seed + 1, m, 4, objectives, nan_rate), mapper)
    defaults = dict(objectives=objectives, num_iterations=12, learning_rate=0.2,
                    min_samples_leaf=5, max_leaves=8, seed=seed)
    params = BoosterParams(**(defaults | kw))
    x = _table(seed + 2, 200, 4, objectives, nan_rate).features
    return train(apply_bins(table, mapper), params, valid_ds), x


def _early_stopped(tmp):
    # Regression with NaN features and a validation set; a high learning
    # rate overfits, so early stopping cuts the model back.
    model, x = _trained(11, (REGRESSION_L2,) * 3, nan_rate=0.2, valid=True,
                        num_iterations=60, learning_rate=0.9, max_leaves=16,
                        min_samples_leaf=2, early_stopping_rounds=3)
    assert len(model.trees) < 60
    out = _model_outputs(model, x, tmp / "es.txt", True)
    for t in range(3):
        single = _model_outputs(extract_task(model, t), x, tmp / f"es{t}.txt", True)
        out |= {f"extract_{t}/{key}": value for key, value in single.items()}
    return out


def _mixed_uniform(tmp):
    model, x = _trained(21, (BINARY_LOGLOSS, REGRESSION_L2, BINARY_LOGLOSS), nan_rate=0.1,
                        mt=MTConfig(task_select="uniform_random", n_selected=2,
                                    corr_mode="constant_one"))
    return _model_outputs(model, x, tmp / "mixed.txt", False)


def _weighted(tmp):
    model, x = _trained(31, (REGRESSION_L2, BINARY_LOGLOSS, REGRESSION_L2),
                        mt=MTConfig(task_select="weighted", task_weights=(0.5, 0.2, 0.3),
                                    n_selected=2, corr_mode="pearson_to_main"),
                        main_task_index=1)
    return _model_outputs(model, x, tmp / "weighted.txt", False)


def _main_last(tmp):
    # The last task is main: always_main boosts it and pearson_to_main
    # damps by the others' correlation with it.
    model, x = _trained(71, (REGRESSION_L2, BINARY_LOGLOSS, REGRESSION_L2),
                        mt=MTConfig(task_select="always_main", n_selected=2,
                                    corr_mode="pearson_to_main"),
                        main_task_index=2)
    return _model_outputs(model, x, tmp / "main_last.txt", False)


def _clipped(tmp):
    # max_delta_step far below the Newton steps clips most leaf values.
    model, x = _trained(41, (BINARY_LOGLOSS, BINARY_LOGLOSS), learning_rate=1.0,
                        lambda_reg=0.0, max_delta_step=0.05)
    values = np.concatenate([tree.leaf_values for tree in model.trees])
    assert (np.abs(values) == 0.05).mean() > 0.5
    out = _model_outputs(model, x, tmp / "clipped.txt", False)
    single = _model_outputs(extract_task(model, 1), x, tmp / "clipped1.txt", False)
    return out | {f"extract_1/{key}": value for key, value in single.items()}


def _wide_trees(tmp):
    # Trees of more than 128 leaves route in three 64-bit words.
    model, x = _trained(51, (REGRESSION_L2, REGRESSION_L2), m=600, nan_rate=0.1,
                        num_iterations=4, max_leaves=150, max_depth=12, min_samples_leaf=1)
    assert max(tree.n_leaves for tree in model.trees) > 128
    return _model_outputs(model, x, tmp / "wide.txt", False)


def _many_trees(tmp):
    # More trees than one chunk of routing tables holds.
    model, x = _trained(61, (REGRESSION_L2, BINARY_LOGLOSS), m=200, num_iterations=140,
                        learning_rate=0.05, max_leaves=4)
    assert len(model.chunks) == 2
    return _model_outputs(model, x, tmp / "many.txt", False)


CLI_CONFIG = """\
label_columns = y_main, y_aux
objectives = binary_logloss, binary_logloss
num_iterations = 30
learning_rate = 0.8
max_leaves = 16
min_samples_leaf = 2
max_bins = 16
early_stopping_rounds = 4
seed = 5
task_select = uniform_random
"""


def _cli(tmp):
    # In-process synth, train --valid (early stopping keeps 7 of 30 trees),
    # predict (all tasks and one) and eval.
    files = ("train.csv", "valid.csv", "model.txt", "model.txt.train_log.csv", "pred.csv",
             "pred1.csv")
    (tmp / "cfg.txt").write_text(CLI_CONFIG)
    commands = [
        ["synth", "--scenario", "noisy_tasks", "--m", "300", "--d", "3", "--seed", "6",
         "--out", tmp / "train.csv"],
        ["synth", "--scenario", "noisy_tasks", "--m", "200", "--d", "3", "--seed", "7",
         "--out", tmp / "valid.csv"],
        ["train", "--config", tmp / "cfg.txt", "--data", tmp / "train.csv",
         "--valid", tmp / "valid.csv", "--out", tmp / "model.txt"],
        ["predict", "--model", tmp / "model.txt", "--data", tmp / "valid.csv",
         "--out", tmp / "pred.csv"],
        ["predict", "--model", tmp / "model.txt", "--data", tmp / "valid.csv", "--task", "1",
         "--out", tmp / "pred1.csv"],
        ["eval", "--model", tmp / "model.txt", "--data", tmp / "valid.csv", "--metric", "auc"],
        ["eval", "--model", tmp / "model.txt", "--data", tmp / "valid.csv", "--metric", "rmse"],
    ]
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        for argv in commands:
            assert cli.main([str(a) for a in argv]) == 0, argv
    printed = stdout.getvalue().replace(str(tmp), "<dir>")
    out = {name: _sha((tmp / name).read_bytes()) for name in files}
    return out | {"stdout": _sha(printed.encode())}


PROBLEMS = {
    "early_stopped": _early_stopped,
    "mixed_uniform": _mixed_uniform,
    "weighted": _weighted,
    "main_last": _main_last,
    "clipped": _clipped,
    "wide_trees": _wide_trees,
    "many_trees": _many_trees,
    "cli": _cli,
}


def digests(name: str, tmp: Path) -> dict[str, str]:
    return {f"{name}/{key}": value for key, value in PROBLEMS[name](tmp).items()}


@pytest.fixture(scope="module")
def recorded():
    stored = json.loads(DIGESTS.read_text())
    if stored["numpy"] != np.__version__:
        pytest.skip(f"digests were recorded on numpy {stored['numpy']}; "
                    f"this is numpy {np.__version__}")
    return stored["digests"]


@pytest.mark.parametrize("name", PROBLEMS)
def test_outputs_match_recorded_digests(recorded, name, tmp_path):
    want = {key: value for key, value in recorded.items() if key.startswith(name + "/")}
    assert digests(name, tmp_path) == want


if __name__ == "__main__":
    everything = {}
    with tempfile.TemporaryDirectory() as tmp:
        for problem in PROBLEMS:
            everything |= digests(problem, Path(tmp))
    DIGESTS.write_text(json.dumps({"numpy": np.__version__, "digests": everything},
                                  indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(everything)} digests -> {DIGESTS}", file=sys.stderr)
