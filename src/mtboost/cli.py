"""Command-line interface: train, predict, eval, synth and extract.

The training config is plain ``key = value`` text ('#' starts a comment).
Unknown keys are rejected outright so hyperparameter typos cannot pass
silently; errors name the file, line and key. The full schema is listed in
the README.

On failure every subcommand prints a single line ``error: <Kind>: <detail>``
to stderr and exits nonzero.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import booster as bt
from .data import (
    apply_bins,
    fit_bins,
    format_row,
    load_csv,
    log_transform,
    log_transform_columns,
    read_feature_matrix,
    write_csv,
)
from .errors import (
    ConfigError,
    FeatureCountMismatch,
    FormatVersionMismatch,
    LabelOverflow,
    MtboostError,
)
from .gradients import MTConfig
from .metrics import METRIC_NAMES, compute_metric
from .synthetic import SCENARIOS, SyntheticSpec, gen_synthetic

# Config keys that differ from the field they set, per target section.
_RENAMED = {("params", "lambda_reg"): ("lambda", "lambda_l1"), ("mt", "seed"): ("mt_seed",)}
_PARAM_RENAMES = {key: name for (_, name), keys in _RENAMED.items() for key in keys}


def _make_schema() -> dict:
    """key -> (type tag, target): the data options, then every field of
    BoosterParams and MTConfig under its config key."""
    schema = {
        "label_columns": ("strlist", "data"),
        "missing_token": ("str", "data"),
        "max_bins": ("int", "data"),
        "log_transform_features": ("strlist", "data"),
    }
    for target, cls in (("params", bt.BoosterParams), ("mt", MTConfig)):
        for name, tag in bt.param_types(cls).items():
            for key in _RENAMED.get((target, name), (name,)):
                schema[key] = (tag, target)
    return schema


_SCHEMA = _make_schema()


def parse_config(path) -> dict:
    """Read a key=value config file into {'data': ..., 'params': ..., 'mt': ...}."""
    sections = {"data": {}, "params": {}, "mt": {}}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})", path=str(path)) from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(
                f"{path}:{lineno}: expected 'key = value'", path=str(path), line=lineno
            )
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SCHEMA:
            raise ConfigError(
                f"{path}:{lineno}: unknown config key {key!r}",
                path=str(path), line=lineno, key=key,
            )
        type_tag, target = _SCHEMA[key]
        try:
            parsed = _convert(value, type_tag)
        except ValueError:
            raise ConfigError(
                f"{path}:{lineno}: key {key!r}: cannot parse {value!r} as {type_tag}",
                path=str(path), line=lineno, key=key,
            ) from None
        sections[target][_PARAM_RENAMES.get(key, key)] = parsed
    return sections


def _convert(value: str, type_tag: str):
    if type_tag == "int":
        return int(value)
    if type_tag == "float":
        return float(value)
    if type_tag == "str":
        return value
    items = [v.strip() for v in value.split(",") if v.strip()]
    if type_tag == "floatlist":
        return tuple(float(v) for v in items)
    return tuple(items)


def build_params(sections: dict) -> bt.BoosterParams:
    if "objectives" not in sections["params"]:
        raise ConfigError("config must set 'objectives'", key="objectives")
    return bt.BoosterParams(mt=MTConfig(**sections["mt"]), **sections["params"])


def _load_table(csv_path, data_opts):
    labels = data_opts.get("label_columns")
    if not labels:
        raise ConfigError("config must set 'label_columns'", key="label_columns")
    table = load_csv(csv_path, labels, data_opts.get("missing_token", ""))
    transform = data_opts.get("log_transform_features") or ()
    if transform:
        indices = []
        for name in transform:
            if name not in table.feature_names:
                raise ConfigError(f"log_transform_features: no feature named {name!r}",
                                  key="log_transform_features")
            index = table.feature_names.index(name)
            if index in indices:
                raise ConfigError(f"log_transform_features: {name!r} is listed twice",
                                  key="log_transform_features")
            indices.append(index)
        table = log_transform(table, indices)
    return table


def cmd_train(args) -> int:
    sections = parse_config(args.config)
    data_opts = sections["data"]
    params = build_params(sections)
    table = _load_table(args.data, data_opts)
    if len(params.objectives) != table.n:
        raise ConfigError(
            f"{len(params.objectives)} objectives but {table.n} label columns",
            key="objectives",
        )
    mapper = fit_bins(table, data_opts.get("max_bins", 255))
    train_ds = apply_bins(table, mapper)
    valid_ds = None
    if args.valid:
        valid_table = _load_table(args.valid, data_opts)
        valid_ds = apply_bins(valid_table, mapper)
    model = bt.train(train_ds, params, valid_ds)
    model.extra["data_options"] = {
        "label_columns": list(data_opts.get("label_columns")),
        "missing_token": data_opts.get("missing_token", ""),
        "max_bins": data_opts.get("max_bins", 255),
        "log_transform_features": list(data_opts.get("log_transform_features") or ()),
    }
    bt.save_model(model, args.out)
    log_path = args.log if args.log else args.out + ".train_log.csv"
    _write_training_log(model, log_path, valid_ds is not None)
    print(f"trained {len(model.trees)} trees -> {args.out}")
    return 0


def _write_training_log(model, path, has_valid: bool) -> None:
    names = model.task_names
    header = ["iteration"] + [f"train_{t}" for t in names]
    if has_valid:
        header += [f"valid_{t}" for t in names]
    lines = [",".join(header)]
    for row in model.training_log:
        cells = [str(row.iteration)] + [repr(v) for v in row.train]
        if has_valid:
            cells += [repr(v) for v in (row.valid or ())]
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _data_options(model):
    """The missing token and the log-transformed feature indices recorded in
    the model's ``extra.data_options`` at training time."""
    opts = model.extra.get("data_options", {})
    if type(opts) is not dict:
        raise FormatVersionMismatch("model extra.data_options is not a JSON object")
    token = opts.get("missing_token", "")
    if type(token) is not str:
        raise FormatVersionMismatch("model extra.data_options.missing_token is not a string")
    names = opts.get("log_transform_features", [])
    if (type(names) is not list or not all(name in model.feature_names for name in names)
            or len(set(names)) != len(names)):
        raise FormatVersionMismatch(
            "model extra.data_options.log_transform_features is not a list of "
            "distinct feature names of the model"
        )
    return token, [model.feature_names.index(name) for name in names]


def _model_features(model, matrix, header, log_features):
    """Pick the model's feature columns (by name) out of a parsed CSV,
    replaying the log transform recorded at training time."""
    for name in model.feature_names:
        if name not in header:
            raise FeatureCountMismatch(f"input CSV lacks feature column {name!r}")
    features = matrix[:, [header.index(name) for name in model.feature_names]]
    log_transform_columns(features, log_features, model.feature_names)
    return features


def cmd_predict(args) -> int:
    model = bt.load_model(args.model)
    missing_token, log_features = _data_options(model)
    matrix, header = read_feature_matrix(args.data, missing_token)
    features = _model_features(model, matrix, header, log_features)
    if args.task is not None:
        scores = bt.predict(model, features, task=args.task)[:, None]
        names = [f"task_{args.task}"]
    else:
        scores = bt.predict(model, features)
        names = [f"task_{t}" for t in range(model.n_tasks)]
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("row," + ",".join(names) + "\n")
        for i, row in enumerate(scores.tolist()):
            fh.write(format_row([i, *row]) + "\n")
    print(f"wrote {features.shape[0]} predictions -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    model = bt.load_model(args.model)
    missing_token, log_features = _data_options(model)
    labeled = load_csv(args.data, list(model.task_names), missing_token)
    raw = bt.predict(
        model, _model_features(model, labeled.features, labeled.feature_names, log_features)
    )
    use_probability = args.metric in ("rmse", "mape")
    values = []
    for t, name in enumerate(model.task_names):
        pred = raw[:, t]
        if use_probability:
            from .objectives import transform_score

            pred = transform_score(pred, model.params.objectives[t])
        try:
            value = compute_metric(args.metric, labeled.labels[:, t], pred)
        except LabelOverflow as exc:
            raise LabelOverflow(f"task {name!r}: {exc}") from None
        values.append(value)
        print(f"{name} {args.metric} {value!r}")
    print(f"mean {args.metric} {float(np.mean(values))!r}")
    return 0


def cmd_synth(args) -> int:
    spec = SyntheticSpec(
        scenario=args.scenario,
        m=args.m,
        d=args.d,
        noise_rate=args.noise_rate,
        subclass_prevalence=args.subclass_prevalence,
        seed=args.seed,
    )
    table = gen_synthetic(spec)
    write_csv(table, args.out)
    print(f"wrote {table.m} rows ({args.scenario}) -> {args.out}")
    return 0


def cmd_extract(args) -> int:
    model = bt.load_model(args.model)
    single = bt.extract_task(model, args.task)
    bt.save_model(single, args.out)
    print(f"extracted task {args.task} ({model.task_names[args.task]}) -> {args.out}")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mtboost",
                                     description="multi-task gradient boosting")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a config and CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--valid")
    p.add_argument("--out", required=True)
    p.add_argument("--log", help="training-log CSV path (default <out>.train_log.csv)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="write per-task prediction CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--task", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="score a model against a labeled CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--metric", required=True, choices=METRIC_NAMES)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="generate a synthetic dataset CSV")
    p.add_argument("--scenario", required=True, choices=SCENARIOS)
    p.add_argument("--m", type=int, default=5000)
    p.add_argument("--d", type=int, default=6)
    p.add_argument("--noise-rate", type=float, default=0.15, dest="noise_rate")
    p.add_argument("--subclass-prevalence", type=float, default=0.035,
                   dest="subclass_prevalence")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("extract", help="save a single task's sub-model")
    p.add_argument("--model", required=True)
    p.add_argument("--task", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_extract)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MtboostError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
