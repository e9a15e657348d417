import hashlib
import io
import json
import re
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mtboost.booster import load_model, predict
from mtboost.cli import _SCHEMA, main, parse_config
from mtboost.errors import ConfigError

CONFIG = """\
# smoke-test training config
label_columns = y_main, y_aux
objectives = binary_logloss, binary_logloss
num_iterations = 8
learning_rate = 0.15
min_samples_leaf = 5
max_bins = 32
seed = 3
task_select = uniform_random
n_selected = 2
"""


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "cfg.txt").write_text(CONFIG)
    return tmp_path


def run(args):
    return main([str(a) for a in args])


class TestConfigParsing:
    def test_unknown_key(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("definitely_not_a_key = 5\n")
        with pytest.raises(ConfigError) as excinfo:
            parse_config(p)
        assert "definitely_not_a_key" in str(excinfo.value)
        assert excinfo.value.line == 1

    def test_bad_value_reports_key_and_line(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("# comment\nnum_iterations = soon\n")
        with pytest.raises(ConfigError) as excinfo:
            parse_config(p)
        assert excinfo.value.line == 2
        assert excinfo.value.key == "num_iterations"

    def test_lambda_alias(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("lambda_l1 = 0.25\nobjectives = regression_l2\n")
        sections = parse_config(p)
        assert sections["params"]["lambda_reg"] == 0.25

    def test_comments_and_blanks_ignored(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("\n# note\nseed = 4  # trailing\n\n")
        assert parse_config(p)["params"]["seed"] == 4


    def test_readme_config_table_lists_every_key(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        table = readme.split("### Config file", 1)[1].split("###", 1)[0]
        keys = set()
        for row in table.splitlines():
            if row.startswith("| `"):
                keys.update(re.findall(r"`([^`]+)`", row.split("|")[1]))
        assert keys == set(_SCHEMA)


class TestPipeline:
    def test_full_pipeline(self, workdir, capsys):
        data = workdir / "data.csv"
        model = workdir / "model.txt"
        preds = workdir / "preds.csv"
        assert run(["synth", "--scenario", "noisy_tasks", "--m", "400",
                    "--d", "3", "--seed", "5", "--out", data]) == 0
        assert run(["train", "--config", workdir / "cfg.txt", "--data", data,
                    "--out", model]) == 0
        assert model.exists()
        assert (workdir / "model.txt.train_log.csv").exists()
        assert run(["predict", "--model", model, "--data", data, "--out", preds]) == 0
        header = preds.read_text().splitlines()[0]
        assert header == "row,task_0,task_1"
        assert run(["eval", "--model", model, "--data", data, "--metric", "auc"]) == 0
        out = capsys.readouterr().out
        assert "y_main auc" in out

    def test_single_task_prediction_column(self, workdir):
        data = workdir / "data.csv"
        model = workdir / "model.txt"
        preds = workdir / "p0.csv"
        run(["synth", "--scenario", "noisy_tasks", "--m", "300", "--d", "3",
             "--seed", "5", "--out", data])
        run(["train", "--config", workdir / "cfg.txt", "--data", data, "--out", model])
        assert run(["predict", "--model", model, "--data", data,
                    "--task", "1", "--out", preds]) == 0
        assert preds.read_text().splitlines()[0] == "row,task_1"

    def test_extract_round_trip(self, workdir):
        data = workdir / "data.csv"
        model = workdir / "model.txt"
        single = workdir / "single.txt"
        run(["synth", "--scenario", "noisy_tasks", "--m", "300", "--d", "3",
             "--seed", "5", "--out", data])
        run(["train", "--config", workdir / "cfg.txt", "--data", data, "--out", model])
        assert run(["extract", "--model", model, "--task", "0", "--out", single]) == 0
        p_full = workdir / "pf.csv"
        p_sub = workdir / "ps.csv"
        run(["predict", "--model", model, "--data", data, "--task", "0", "--out", p_full])
        run(["predict", "--model", single, "--data", data, "--task", "0", "--out", p_sub])
        full_rows = p_full.read_text().splitlines()[1:]
        sub_rows = p_sub.read_text().splitlines()[1:]
        assert [r.split(",")[1] for r in full_rows] == [r.split(",")[1] for r in sub_rows]

    def test_synth_byte_deterministic(self, workdir):
        a, b = workdir / "a.csv", workdir / "b.csv"
        for out in (a, b):
            assert run(["synth", "--scenario", "noisy_tasks", "--m", "200",
                        "--d", "3", "--seed", "7", "--out", out]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("scenario,digest", [
        ("noisy_tasks", "2b1dc624ee982a38f116c988867af867d6b8b5d497fdc64ff3c59bc3796e2a3d"),
        ("sub_tasks", "327d6c9b3b72e6d5701b64b5f132e294d9cb025c00a909ad52fcf541b39162e7"),
        ("timeseries_ratio", "a9929d0cf8af092b05714e83ffa3a10e1688043db146bd39d044c71235592483"),
    ])
    def test_synth_bytes_pinned(self, workdir, scenario, digest):
        # Digests of `mtboost synth --m 300 --seed 4`: repr floats, empty NaN
        # cells and the csv module's CRLF line endings.
        out = workdir / "s.csv"
        assert run(["synth", "--scenario", scenario, "--m", "300", "--seed", "4",
                    "--out", out]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_train_byte_deterministic(self, workdir):
        data = workdir / "data.csv"
        run(["synth", "--scenario", "noisy_tasks", "--m", "300", "--d", "3",
             "--seed", "5", "--out", data])
        m1, m2 = workdir / "m1.txt", workdir / "m2.txt"
        run(["train", "--config", workdir / "cfg.txt", "--data", data, "--out", m1])
        run(["train", "--config", workdir / "cfg.txt", "--data", data, "--out", m2])
        assert m1.read_bytes() == m2.read_bytes()

    def test_unknown_config_key_exit_code(self, workdir, capsys):
        bad = workdir / "bad.txt"
        bad.write_text("mystery_knob = 1\n")
        data = workdir / "data.csv"
        run(["synth", "--scenario", "noisy_tasks", "--m", "200", "--d", "3",
             "--seed", "5", "--out", data])
        code = run(["train", "--config", bad, "--data", data,
                    "--out", workdir / "nope.txt"])
        assert code != 0
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # single-line error
        assert "mystery_knob" in err

    def test_ragged_csv_is_one_line_error(self, workdir, capsys):
        data = workdir / "ragged.csv"
        data.write_text("a,b,y\n1,2,3\n4,5\n")
        cfg = workdir / "ragged_cfg.txt"
        cfg.write_text("label_columns = y\nobjectives = regression_l2\n")
        code = run(["train", "--config", cfg, "--data", data, "--out", workdir / "m.txt"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: ShapeError: row 3 has 2 cells, header has 3\n"
        )

    def test_missing_file_is_clean_error(self, workdir, capsys):
        code = run(["predict", "--model", workdir / "ghost.txt",
                    "--data", workdir / "ghost.csv", "--out", workdir / "o.csv"])
        assert code != 0
        assert capsys.readouterr().err.startswith("error: ")

    def test_log_transform_applied_at_predict_time(self, workdir):
        # Train with a log transform; predictions must replay it.
        data = workdir / "ts.csv"
        run(["synth", "--scenario", "timeseries_ratio", "--m", "300",
             "--seed", "2", "--out", data])
        cfg = workdir / "ts_cfg.txt"
        cfg.write_text(
            "label_columns = next_value, next_ratio\n"
            "objectives = regression_l2, regression_l2\n"
            "num_iterations = 5\nlearning_rate = 0.1\nmin_samples_leaf = 5\n"
            "log_transform_features = value_now\n"
        )
        model = workdir / "ts_model.txt"
        assert run(["train", "--config", cfg, "--data", data, "--out", model]) == 0
        preds = workdir / "ts_preds.csv"
        assert run(["predict", "--model", model, "--data", data, "--out", preds]) == 0
        rows = preds.read_text().splitlines()
        assert len(rows) == 301

    @pytest.mark.parametrize("extra", [
        "learning_rate = 2\n",
        "max_bins = 1\n",
        "task_select = weighted\ntask_weights = 1.5, -0.5\n",
        "task_select = weighted\ntask_weights = 1.0, 0.0\nn_selected = 2\n",
        "task_select = weighted\ntask_weights = nan, 1\nn_selected = 1\n",
        "gamma_boost = nan\n",
        "min_hess_leaf = nan\n",
        "g_target_mean = nan\n",
        "lambda = inf\n",
        "gamma_reg = inf\n",
        "max_delta_step = -inf\n",
        "max_delta_step = -1\n",
        "max_delta_step = 0\n",
        "g_target_mean = 0\n",
        "g_target_mean = -1\n",
        "h_target_mean = -1\n",
        "h_target_mean = 0\n",
    ])
    def test_invalid_parameter_is_one_line_error(self, workdir, capsys, extra):
        data = workdir / "data.csv"
        run(["synth", "--scenario", "noisy_tasks", "--m", "200", "--d", "3",
             "--seed", "5", "--out", data])
        bad = workdir / "bad.txt"
        bad.write_text(CONFIG + extra)  # later lines override CONFIG's
        capsys.readouterr()
        code = run(["train", "--config", bad, "--data", data, "--out", workdir / "m.txt"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: InvalidParameter: ")

    def test_log_feature_listed_twice_is_one_line_error(self, workdir, capsys):
        data = workdir / "ts.csv"
        run(["synth", "--scenario", "timeseries_ratio", "--m", "200",
             "--seed", "2", "--out", data])
        cfg = workdir / "ts_cfg.txt"
        cfg.write_text(
            "label_columns = next_value, next_ratio\n"
            "objectives = regression_l2, regression_l2\n"
            "num_iterations = 3\nmin_samples_leaf = 5\n"
            "log_transform_features = value_now, var_3, value_now\n"
        )
        capsys.readouterr()
        code = run(["train", "--config", cfg, "--data", data, "--out", workdir / "m.txt"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: ConfigError: log_transform_features: 'value_now' is listed twice\n"
        )
        assert not (workdir / "m.txt").exists()

    def test_negative_log_feature_at_predict_time(self, workdir, capsys):
        data = workdir / "ts.csv"
        run(["synth", "--scenario", "timeseries_ratio", "--m", "300",
             "--seed", "2", "--out", data])
        cfg = workdir / "ts_cfg.txt"
        cfg.write_text(
            "label_columns = next_value, next_ratio\n"
            "objectives = regression_l2, regression_l2\n"
            "num_iterations = 3\nmin_samples_leaf = 5\n"
            "log_transform_features = value_now\n"
        )
        model = workdir / "ts_model.txt"
        assert run(["train", "--config", cfg, "--data", data, "--out", model]) == 0
        lines = data.read_text().splitlines()
        col = lines[0].split(",").index("value_now")
        cells = lines[5].split(",")
        cells[col] = "-3.5"
        lines[5] = ",".join(cells)
        negative = workdir / "ts_negative.csv"
        negative.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        for args in (["predict", "--out", workdir / "p.csv"], ["eval", "--metric", "rmse"]):
            code = run([args[0], "--model", model, "--data", negative, *args[1:]])
            assert code == 1
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            assert err.startswith("error: NegativeInput: ")
            assert "value_now" in err
        assert not (workdir / "p.csv").exists()


GOLDEN = Path(__file__).parent / "golden_model_v1.txt"  # features a, b, c; tasks y_cls, y_reg


@pytest.mark.parametrize("data_options", [
    [],
    {"log_transform_features": ["nope"]},
    {"log_transform_features": "a"},
    {"log_transform_features": None},
    {"missing_token": 5},
    {"log_transform_features": ["a", "c", "a"]},
], ids=["not-object", "unknown-name", "bare-string", "null", "int-token", "repeated-name"])
@pytest.mark.parametrize("command", ["predict", "eval"])
def test_corrupt_data_options_is_one_line_error(tmp_path, capsys, data_options, command):
    lines = GOLDEN.read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith("extra "))
    lines[i] = "extra " + json.dumps({"data_options": data_options})
    model = tmp_path / "model.txt"
    model.write_text("\n".join(lines) + "\n")
    data = tmp_path / "rows.csv"
    data.write_text("a,b,c,y_cls,y_reg\n0.5,,1.5,1,2.0\n-0.5,1.0,0.0,0,1.0\n")
    args = {"predict": ["--out", tmp_path / "p.csv"], "eval": ["--metric", "rmse"]}[command]
    code = run([command, "--model", model, "--data", data, *args])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: FormatVersionMismatch: model extra.data_options")


def test_predict_csv_holds_library_scores(tmp_path):
    # predict() returns a column-major view; the CSV writer reads its columns.
    data = tmp_path / "rows.csv"
    data.write_text("a,b,c\n0.5,,1.5\n-0.5,1.0,0.0\n2.0,-1.0,\n")
    out = tmp_path / "p.csv"
    assert run(["predict", "--model", GOLDEN, "--data", data, "--out", out]) == 0
    x = np.array([[0.5, np.nan, 1.5], [-0.5, 1.0, 0.0], [2.0, -1.0, np.nan]])
    expected = predict(load_model(GOLDEN), x)
    rows = out.read_text().splitlines()
    assert rows[0] == "row,task_0,task_1"
    assert [row.split(",") for row in rows[1:]] == [
        [str(i)] + [repr(float(v)) for v in scores] for i, scores in enumerate(expected)
    ]


def test_non_utf8_csv_is_one_line_error(workdir, capsys):
    data = workdir / "latin1.csv"
    data.write_bytes(b"a,y\n1,0\n\xe9,1\n")
    cfg = workdir / "cfg1.txt"
    cfg.write_text("label_columns = y\nobjectives = regression_l2\n")
    commands = [["train", "--config", cfg, "--data", data, "--out", workdir / "m.txt"],
                ["predict", "--model", GOLDEN, "--data", data, "--out", workdir / "p.csv"],
                ["eval", "--model", GOLDEN, "--data", data, "--metric", "rmse"]]
    for command in commands:
        assert run(command) == 1
        assert capsys.readouterr().err == (
            f"error: MalformedCsv: {data}: not UTF-8 text (invalid continuation byte)\n")


def test_non_utf8_config_is_one_line_error(workdir, capsys):
    cfg = workdir / "latin1.txt"
    cfg.write_bytes(b"label_columns = y\n# caf\xe9\n")
    data = workdir / "d.csv"
    data.write_text("a,y\n1,0\n")
    assert run(["train", "--config", cfg, "--data", data, "--out", workdir / "m.txt"]) == 1
    assert capsys.readouterr().err == (
        f"error: ConfigError: {cfg}: not UTF-8 text (invalid continuation byte)\n")


def test_non_utf8_model_is_one_line_error(tmp_path, capsys):
    model = tmp_path / "model.txt"
    model.write_bytes(GOLDEN.read_bytes().replace(b'"a"', b'"\xff"', 1))
    data = tmp_path / "rows.csv"
    data.write_text("a,b,c,y_cls,y_reg\n0.5,,1.5,1,2.0\n")
    commands = [["predict", "--model", model, "--data", data, "--out", tmp_path / "p.csv"],
                ["eval", "--model", model, "--data", data, "--metric", "rmse"],
                ["extract", "--model", model, "--task", "0", "--out", tmp_path / "one.txt"]]
    for command in commands:
        assert run(command) == 1
        assert capsys.readouterr().err == (
            f"error: FormatVersionMismatch: {model}: not UTF-8 text (invalid start byte)\n")


# Values a fuzzed config line may carry: zero, both signs, the edges of the
# float range, non-finite and empty values, lists, repeated names and
# integers past every fixed-width type.
HUGE_INTS = [str(2**64), str(-2**63 - 1), str(10**30)]
FUZZ_VALUES = [
    "0", "1", "-1", "1e308", "-1e308", "1e300", "nan", "inf", "-inf", "",
    "0.5, 0.5", "1, 2, 3", "y_main, y_main", "x0, x0",
    "binary_logloss, binary_logloss, binary_logloss", *HUGE_INTS,
]
FUZZ_CONFIG = """\
label_columns = y_main, y_aux
objectives = binary_logloss, binary_logloss
num_iterations = 3
min_samples_leaf = 5
"""


@pytest.fixture(scope="module")
def fuzz_data(tmp_path_factory):
    data = tmp_path_factory.mktemp("fuzz") / "data.csv"
    assert run(["synth", "--scenario", "noisy_tasks", "--m", "200", "--d", "3",
                "--seed", "5", "--out", data]) == 0
    return data


# A huge num_iterations asks for that many boosting rounds; the run is
# valid but does not end within a test.
fuzz_lines = st.lists(
    st.tuples(st.sampled_from(sorted(_SCHEMA)), st.sampled_from(FUZZ_VALUES)).filter(
        lambda line: not (line[0] == "num_iterations" and line[1] in HUGE_INTS)),
    min_size=1, max_size=4,
)


@settings(max_examples=300, deadline=None)
@given(fuzz_lines)
@example([("g_target_mean", "1e300")])  # overflowing split gains
@example([("gamma_boost", "1e300")])
@example([("g_target_mean", "1e308")])  # overflowing weights
def test_fuzzed_config_exits_cleanly_or_with_one_error_line(tmp_path_factory, fuzz_data,
                                                            lines):
    work = tmp_path_factory.mktemp("fuzz_run")
    cfg = work / "cfg.txt"
    cfg.write_text(FUZZ_CONFIG + "".join(f"{key} = {value}\n" for key, value in lines))
    model = work / "model.txt"
    err = io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(io.StringIO()), redirect_stderr(err):
        warnings.simplefilter("error")  # a numpy warning is output too
        code = run(["train", "--config", cfg, "--data", fuzz_data, "--out", model])
        if code == 0:
            code = run(["predict", "--model", model, "--data", fuzz_data,
                        "--out", work / "p.csv"])
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert re.fullmatch(r"error: [A-Za-z]+: [^\n]*\n", err.getvalue())


def _overflow_csv(path, rng, huge):
    """200 rows: features x0, x1; label y_aux cycles through ``huge``, or is
    small noise when ``huge`` is None; y_main is always small noise."""
    y_aux = np.resize(huge, 200) if huge is not None else rng.normal(size=200)
    table = np.column_stack([rng.normal(size=(200, 3)), y_aux]).tolist()
    rows = [",".join(map(repr, row)) + "\n" for row in table]
    path.write_text("x0,x1,y_main,y_aux\n" + "".join(rows))
    return path


# Labels whose mean or squared error overflows float64 pass load_csv; training
# must stop with one typed error line and no numpy warning.
@pytest.mark.parametrize("labels, train_huge, valid_huge, detail", [
    ("y_aux", (1e308, 1.5e308), None, "task 0: the label mean overflows"),
    ("y_aux", (1e160, -1e160), None, "task 0: the training loss overflows"),
    ("y_main, y_aux", (1e160, -1e160), None, "task 1: the training loss overflows"),
    ("y_aux", None, (1e160, -1e160), "task 0: the validation loss overflows"),
])
def test_overflowing_labels_give_one_error_line(tmp_path, rng, labels, train_huge,
                                               valid_huge, detail):
    n = labels.count(",") + 1
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"label_columns = {labels}\n"
                   f"objectives = {', '.join(['regression_l2'] * n)}\n"
                   "num_iterations = 3\nmin_samples_leaf = 5\n")
    data = _overflow_csv(tmp_path / "train.csv", rng, train_huge)
    valid = _overflow_csv(tmp_path / "valid.csv", rng, valid_huge)
    err = io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(io.StringIO()), redirect_stderr(err):
        warnings.simplefilter("error")
        code = run(["train", "--config", cfg, "--data", data, "--valid", valid,
                    "--out", tmp_path / "model.txt"])
    assert code != 0
    assert re.fullmatch(r"error: LabelOverflow: [^\n]*\n", err.getvalue())
    assert detail in err.getvalue()
    assert not (tmp_path / "model.txt").exists()


# Finite labels whose metric overflows float64: eval stops with one typed
# error line naming the task and the metric, and no numpy warning.
@pytest.mark.parametrize("metric, rows", [
    ("rmse", "0.5,,1.5,1,1e160\n-0.5,1.0,0.0,0,-1e160\n"),
    ("mape", "0.5,,1.5,1,1e-310\n-0.5,1.0,0.0,1,-1e-310\n"),
], ids=["rmse", "mape"])
def test_overflowing_metric_gives_one_error_line(tmp_path, metric, rows):
    data = tmp_path / "rows.csv"
    data.write_text("a,b,c,y_cls,y_reg\n" + rows)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")
        code = run(["eval", "--model", GOLDEN, "--data", data, "--metric", metric])
    assert code != 0
    assert err.getvalue() == f"error: LabelOverflow: task 'y_reg': {metric} overflows float64\n"
    assert "inf" not in out.getvalue()
