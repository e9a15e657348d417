"""Command-line interface: train, predict, eval, synth and extract.

The training config is plain ``key = value`` text ('#' starts a comment).
Unknown keys, and keys that set a field already set, are rejected outright
so hyperparameter typos cannot pass silently; errors name the file, line
and key. The full schema is listed in the README.

On failure every subcommand prints a single line ``error: <Kind>: <detail>``
to stderr and exits nonzero.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, dataclass, fields, replace
from functools import partial

import numpy as np

from . import booster as bt
from .data import (
    DEFAULT_MAX_BINS,
    RawTable,
    apply_bins,
    column_indices,
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
    InvalidParameter,
    MtboostError,
)
from .evaluation import score_model
from .gradients import MTConfig, check_fields, param_types
from .metrics import METRIC_NAMES
from .synthetic import SCENARIOS, SyntheticSpec, gen_synthetic

# Config keys that differ from the field they set.
_RENAMED = {"lambda_reg": ("lambda", "lambda_l1")}
_PARAM_RENAMES = {key: name for name, keys in _RENAMED.items() for key in keys}


@dataclass(frozen=True)
class DataOptions:
    """How train reads and bins its CSVs, the config's data keys. A model
    keeps them in ``extra["data_options"]``, so predict and eval read new
    CSVs as training did."""

    label_columns: tuple[str, ...] = ()
    missing_token: str = ""
    max_bins: int = DEFAULT_MAX_BINS
    log_transform_features: tuple[str, ...] = ()

    def __post_init__(self):
        check_fields(self)


def _make_schema() -> dict:
    """key -> (type tag, target): every field of DataOptions, BoosterParams
    and MTConfig under its config key."""
    schema = {}
    for target, cls in (("data", DataOptions), ("params", bt.BoosterParams), ("mt", MTConfig)):
        for name, tag in param_types(cls).items():
            for key in _RENAMED.get(name, (name,)):
                schema[key] = (tag, target)
    return schema


_SCHEMA = _make_schema()


def parse_config(path) -> dict:
    """Read a key=value config file into {'data': ..., 'params': ..., 'mt': ...}."""
    sections = {"data": {}, "params": {}, "mt": {}}
    try:
        with open(path, encoding="utf-8-sig") as fh:
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
        name = _PARAM_RENAMES.get(key, key)
        if name in sections[target]:
            raise ConfigError(f"{path}:{lineno}: key {key!r} sets {name!r} a second time",
                              path=str(path), line=lineno, key=key)
        sections[target][name] = parsed
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


def _load_table(csv_path, opts: DataOptions, feature_names=None) -> RawTable:
    """A labeled CSV as train reads it: the label columns ``opts`` names and
    the features ``feature_names`` names (every other column when None),
    both by name, with ``opts``' log transform applied."""
    if not opts.label_columns:
        raise ConfigError("config must set 'label_columns'", key="label_columns")
    table = load_csv(csv_path, opts.label_columns, opts.missing_token)
    if feature_names is not None:
        picked = column_indices(feature_names, table.feature_names, "feature_names",
                                FeatureCountMismatch)
        table = RawTable(table.features[:, picked], table.labels, feature_names, table.task_names)
    if opts.log_transform_features:
        table = log_transform(table, column_indices(
            opts.log_transform_features, table.feature_names, "log_transform_features",
            partial(ConfigError, key="log_transform_features")))
    return table


def cmd_train(args) -> int:
    sections = parse_config(args.config)
    opts = DataOptions(**sections["data"])
    params = build_params(sections)
    table = _load_table(args.data, opts)
    if len(params.objectives) != table.n:
        raise ConfigError(
            f"{len(params.objectives)} objectives but {table.n} label columns",
            key="objectives",
        )
    mapper = fit_bins(table, opts.max_bins)
    train_ds = apply_bins(table, mapper)
    valid_ds = (apply_bins(_load_table(args.valid, opts, table.feature_names), mapper)
                if args.valid else None)
    model = replace(bt.train(train_ds, params, valid_ds),
                    extra={"data_options": asdict(opts)})
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
    lines += [format_row([i, *row.train, *(row.valid or ())])
              for i, row in enumerate(model.training_log)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _data_options(model):
    """The DataOptions recorded in the model's ``extra.data_options`` at
    training time, with the model's tasks as label columns, and the indices
    of its log-transformed features among the model's: a field left out
    takes its default, a key that is no field is ignored."""
    recorded = model.extra.get("data_options", {})
    if type(recorded) is not dict:
        raise FormatVersionMismatch("model extra.data_options is not a JSON object")
    try:
        opts = DataOptions(**{k: v for k, v in recorded.items() if k in param_types(DataOptions)})
    except InvalidParameter as exc:
        raise FormatVersionMismatch(f"model extra.data_options: {exc}") from None
    log_features = column_indices(opts.log_transform_features, model.feature_names,
                                  "model extra.data_options.log_transform_features",
                                  FormatVersionMismatch)
    return replace(opts, label_columns=model.task_names), log_features


def cmd_predict(args) -> int:
    model = bt.load_model(args.model)
    opts, log_features = _data_options(model)
    matrix, header = read_feature_matrix(args.data, opts.missing_token)
    features = matrix[:, column_indices(model.feature_names, header, "feature_names",
                                        FeatureCountMismatch)]
    log_transform_columns(features, log_features, model.feature_names)
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
    labeled = _load_table(args.data, _data_options(model)[0], model.feature_names)
    # Every task's metric is computed before any is printed, so a failing
    # task prints only its error line.
    values = score_model(model, labeled.features, labeled.labels, args.metric)
    for name, value in zip(model.task_names, values):
        print(f"{name} {args.metric} {value!r}")
    print(f"mean {args.metric} {float(np.mean(values))!r}")
    return 0


def cmd_synth(args) -> int:
    spec = SyntheticSpec(**{f.name: getattr(args, f.name) for f in fields(SyntheticSpec)})
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
    for f in fields(SyntheticSpec)[1:]:  # every field after the scenario has a default
        p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), default=f.default)
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
