"""The four benchmark workloads: inputs, one operation, and its checks.

Every input is drawn from ``--seed``; the program only sees the generated
tables. Each operation lasts seconds, so a median over a few of them is not
decided by scheduler noise. The program is always called through module
attributes (``booster.train``, ``cli.main``) so that the traced run's
wrappers see every call.
"""

from __future__ import annotations

import hashlib
import io
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mtboost import booster, cli, data, synthetic
from mtboost.data import RawTable

import checks

BINARY = "binary_logloss"
L2 = "regression_l2"
WALK_STRIDE = 50  # every 50th held-out row goes through the tree walk
CHECK_CHUNK = 25_000  # rows per predict() in checks, so checks never set peak_rss_mb


def _names(prefix: str, k: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(k))


def _bernoulli(rng, logit) -> np.ndarray:
    return (rng.random(len(logit)) < 1.0 / (1.0 + np.exp(-logit))).astype(np.float64)


def wide_table(rng, m: int) -> RawTable:
    """20 mixed-scale features, 5 of them 5% missing; 2 related binary tasks."""
    x = np.empty((m, 20))
    x[:, :8] = rng.standard_normal((m, 8))
    x[:, 8:14] = rng.lognormal(0.0, 1.0, (m, 6))
    x[:, 14:18] = rng.uniform(0.0, 1.0, (m, 4))
    x[:, 18:] = rng.integers(0, 10, (m, 2))
    for f in (1, 5, 9, 15, 18):
        x[rng.random(m) < 0.05, f] = np.nan
    x9 = np.nan_to_num(x[:, 9], nan=1.0)
    shared = 1.2 * x[:, 0] + np.sin(2.0 * x[:, 2]) + 0.6 * np.log(x9) - 1.5 * (x[:, 14] > 0.5)
    main = shared + 0.8 * x[:, 3] * (x[:, 16] > 0.3)
    aux = shared + 0.8 * x[:, 4] + 0.1 * x[:, 19]
    labels = np.column_stack([_bernoulli(rng, main), _bernoulli(rng, aux)])
    return RawTable(x, labels, _names("x", 20), ("y_main", "y_aux"))


TASK_KINDS = (L2, BINARY) * 4
TASK_MIX = np.array([  # per task: weights of x0, sin(3 x1), x2*x3, x3
    [1.0, 0.8, 0.5, 0.0], [1.0, 0.6, 0.0, 0.5], [0.8, 1.0, 0.3, 0.2], [0.6, 0.0, 1.0, 0.4],
    [1.0, 0.5, 0.5, 0.5], [0.3, 1.0, 0.0, 1.0], [0.9, 0.2, 0.8, 0.0], [0.5, 0.5, 0.5, 0.5],
])


def tasks_table(rng, m: int) -> RawTable:
    """4 features; 8 tasks, alternately regression and binary, sharing terms."""
    x = rng.standard_normal((m, 4))
    terms = np.column_stack([x[:, 0], np.sin(3.0 * x[:, 1]), x[:, 2] * x[:, 3], x[:, 3]])
    signal = terms @ TASK_MIX.T
    labels = np.empty((m, 8))
    for t, kind in enumerate(TASK_KINDS):
        if kind == L2:
            labels[:, t] = signal[:, t] + 0.5 * rng.standard_normal(m)
        else:
            labels[:, t] = _bernoulli(rng, signal[:, t])
    return RawTable(x, labels, _names("x", 4), _names("task", 8))


def batch_table(rng, m: int) -> RawTable:
    """6 features, x3 10% missing; 4 tasks, regression and binary."""
    x = rng.standard_normal((m, 6))
    x[rng.random(m) < 0.1, 3] = np.nan
    x3 = np.nan_to_num(x[:, 3], nan=-1.0)
    base = x[:, 0] + 0.7 * np.sin(2.0 * x[:, 1]) + 0.5 * x3
    labels = np.column_stack([
        base + rng.standard_normal(m),
        _bernoulli(rng, base + x[:, 4]),
        0.5 * base - x[:, 5] + 0.3 * rng.standard_normal(m),
        _bernoulli(rng, x[:, 2] - x3),
    ])
    return RawTable(x, labels, _names("x", 6), ("y_main", "y_bin", "y_reg", "y_side"))


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class State:
    """Inputs built by set-up, plus what the checks carry between operations."""

    workdir: Path
    train: RawTable
    valid: RawTable
    train_ds: object = None
    valid_ds: object = None
    params: object = None
    model: object = None
    extra: dict = field(default_factory=dict)
    first: object = None  # fingerprint of the run's first operation's output


def _same_as_first(state: State, fingerprint, what: str) -> list[str]:
    if state.first is None:
        state.first = fingerprint
        return []
    return [] if fingerprint == state.first else [f"{what} differs from the first operation's"]


def _check_model(state: State, model, train_features, valid_features, with_valid_log: bool):
    """Every check on a trained model; returns (problems, held-out scores)."""
    problems = checks.check_structure(model, state.train.m)
    train_scores = _predict_chunked(model, train_features)
    problems += checks.check_log(model, train_scores, state.train.labels, "train")
    valid_scores = _predict_chunked(model, valid_features)
    if with_valid_log:
        problems += checks.check_log(model, valid_scores, state.valid.labels, "valid")
    problems += checks.check_beats_base(model, valid_scores, state.valid.labels)
    problems += checks.check_walk(
        model, valid_features[::WALK_STRIDE], valid_scores[::WALK_STRIDE]
    )
    return problems, valid_scores


def _predict_chunked(model, features) -> np.ndarray:
    return np.concatenate([booster.predict(model, features[i:i + CHECK_CHUNK])
                           for i in range(0, len(features), CHECK_CHUNK)])


def _main_loss(model, scores, labels) -> float:
    t = model.params.main_task_index
    return checks.own_loss(labels[:, t], scores[:, t], model.params.objectives[t])


class TrainWorkload:
    """One ``train()`` call on pre-binned data."""

    def __init__(self, name, make_table, m_train, m_valid, params, pass_valid):
        self.name = name
        self.make_table = make_table
        self.m_train = m_train
        self.m_valid = m_valid
        self.params = params
        self.pass_valid = pass_valid

    def setup(self, seed: int, workdir: Path) -> State:
        rng = np.random.default_rng([seed, 1])
        train, valid = self.make_table(rng, self.m_train), self.make_table(rng, self.m_valid)
        mapper = data.fit_bins(train, 255)
        state = State(workdir, train, valid, train_ds=data.apply_bins(train, mapper))
        if self.pass_valid:
            state.valid_ds = data.apply_bins(valid, mapper)
        state.params = booster.BoosterParams(seed=seed, **self.params)
        return state

    def op(self, state: State):
        return booster.train(state.train_ds, state.params, state.valid_ds)

    def check(self, state: State, model):
        problems, valid_scores = _check_model(
            state, model, state.train.features, state.valid.features, self.pass_valid
        )
        path = state.workdir / "model.txt"
        booster.save_model(model, path)
        problems += _same_as_first(state, _digest(path), "save_model output")
        return problems, _main_loss(model, valid_scores, state.valid.labels)


class PredictWorkload:
    """One ``predict()`` of a held-out batch through a model built in set-up."""

    name = "predict_batch"
    m_train = 5_000
    m_batch = 200_000
    params = dict(objectives=(L2, BINARY, L2, BINARY), num_iterations=100,
                  learning_rate=0.1, max_leaves=15, max_depth=6)

    def setup(self, seed: int, workdir: Path) -> State:
        rng = np.random.default_rng([seed, 2])
        train, batch = batch_table(rng, self.m_train), batch_table(rng, self.m_batch)
        train_ds = data.apply_bins(train, data.fit_bins(train, 255))
        state = State(workdir, train, batch)
        state.model = booster.train(train_ds, booster.BoosterParams(seed=seed, **self.params))
        return state

    def op(self, state: State):
        return booster.predict(state.model, state.valid.features)

    def check(self, state: State, scores):
        model = state.model
        problems = []
        if not state.extra.get("model_checked"):  # check each set-up's model once
            state.extra["model_checked"] = True
            problems += checks.check_structure(model, state.train.m)
            problems += checks.check_log(
                model, _predict_chunked(model, state.train.features), state.train.labels, "train"
            )
        problems += checks.check_beats_base(model, scores, state.valid.labels)
        problems += checks.check_walk(
            model, state.valid.features[::WALK_STRIDE], scores[::WALK_STRIDE]
        )
        problems += _same_as_first(state, hashlib.sha256(scores.tobytes()).hexdigest(),
                                   "predict() output")
        return problems, _main_loss(model, scores, state.valid.labels)


CLI_CONFIG = """\
# timeseries_ratio: the next/current ratio is the main task, the next value
# the auxiliary one; both regression. The ratio is mostly noise (its signal
# explains about 2% of its variance), so small trees with large leaves keep
# the held-out loss below the base score's on every seed
label_columns = {labels}
objectives = regression_l2, regression_l2
num_iterations = {iterations}
learning_rate = 0.2
max_leaves = 4
min_samples_leaf = 400
max_bins = 255
seed = {seed}
log_transform_features = {log_features}
"""
LABELS = ("next_ratio", "next_value")
LOG_FEATURES = ("value_now", "var_3", "var_7", "var_14", "var_30")
EVAL_METRICS = ("rmse", "mape")


class CliWorkload:
    """In-process ``mtboost.cli.main``: synth, synth, train, predict, eval, eval."""

    name = "cli_pipeline"
    m_train = 4_000
    m_valid = 8_000
    iterations = 10

    def _spec(self, seed: int, m: int):
        return synthetic.SyntheticSpec("timeseries_ratio", m=m, seed=seed)

    def setup(self, seed: int, workdir: Path) -> State:
        # The same tables the CLI will write, made in-process for the checks,
        # with the label columns in the config's order.
        train = _relabel(synthetic.gen_synthetic(self._spec(seed, self.m_train)))
        valid = _relabel(synthetic.gen_synthetic(self._spec(seed + 1, self.m_valid)))
        indices = [train.feature_names.index(name) for name in LOG_FEATURES]
        state = State(workdir, train, valid)
        state.extra["train_features"] = data.log_transform(train, indices).features
        state.extra["valid_features"] = data.log_transform(valid, indices).features
        (workdir / "config.txt").write_text(CLI_CONFIG.format(
            labels=", ".join(LABELS), iterations=self.iterations, seed=seed,
            log_features=", ".join(LOG_FEATURES)))
        w = str(workdir)
        synth = ["synth", "--scenario", "timeseries_ratio"]
        state.extra["commands"] = [
            synth + ["--m", str(self.m_train), "--seed", str(seed), "--out", f"{w}/train.csv"],
            synth + ["--m", str(self.m_valid), "--seed", str(seed + 1), "--out", f"{w}/valid.csv"],
            ["train", "--config", f"{w}/config.txt", "--data", f"{w}/train.csv",
             "--valid", f"{w}/valid.csv", "--out", f"{w}/model.txt"],
            ["predict", "--model", f"{w}/model.txt", "--data", f"{w}/valid.csv",
             "--out", f"{w}/preds.csv"],
        ] + [["eval", "--model", f"{w}/model.txt", "--data", f"{w}/valid.csv",
              "--metric", metric] for metric in EVAL_METRICS]
        return state

    def op(self, state: State):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            codes = [cli.main(argv) for argv in state.extra["commands"]]
        return codes, out.getvalue(), err.getvalue()

    def check(self, state: State, result):
        codes, out, err = result
        if any(codes):
            return [f"exit codes {codes}: {err.strip()}"], math.nan
        w = state.workdir
        model = booster.load_model(w / "model.txt")
        problems, valid_scores = _check_model(
            state, model, state.extra["train_features"], state.extra["valid_features"], True
        )
        written = np.loadtxt(w / "preds.csv", delimiter=",", skiprows=1, ndmin=2)
        if not np.array_equal(written[:, 1:], valid_scores):
            problems.append("predictions CSV differs from predict() on the same rows")
        problems += _check_eval(out, model, valid_scores, state.valid.labels)
        problems += _same_as_first(state, _digest(w / "model.txt"), "model file")
        return problems, _main_loss(model, written[:, 1:], state.valid.labels)


def _relabel(table: RawTable) -> RawTable:
    order = [table.task_names.index(name) for name in LABELS]
    return RawTable(table.features, table.labels[:, order], table.feature_names, LABELS)


def _check_eval(out: str, model, scores, labels) -> list[str]:
    """Each metric line that ``eval`` printed equals our own computation."""
    printed = {}
    for line in out.splitlines():
        parts = line.split(" ")
        if len(parts) == 3 and parts[1] in EVAL_METRICS:
            printed[(parts[0], parts[1])] = float(parts[2])
    problems = []
    for t, name in enumerate(model.task_names):
        y, p = labels[:, t], scores[:, t]
        ours = {"rmse": float(np.sqrt(np.mean((y - p) ** 2))),
                "mape": float(np.mean(np.abs(y - p) / np.abs(y)))}
        for metric in EVAL_METRICS:
            got = printed.get((name, metric))
            if got is None or not math.isclose(got, ours[metric], rel_tol=1e-12):
                problems.append(f"eval {metric} of {name}: printed {got!r}, ours {ours[metric]!r}")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        TrainWorkload(
            "train_wide", wide_table, 200_000, 50_000,
            dict(objectives=(BINARY, BINARY), num_iterations=6, learning_rate=0.2,
                 max_leaves=31, max_depth=8),
            pass_valid=True,
        ),
        TrainWorkload(
            "train_tasks", tasks_table, 200_000, 50_000,
            dict(objectives=TASK_KINDS, num_iterations=7, learning_rate=0.2,
                 max_leaves=7, max_depth=6),
            pass_valid=False,
        ),
        PredictWorkload(),
        CliWorkload(),
    )
}

