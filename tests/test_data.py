import csv
import io
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mtboost.booster import BoosterParams, load_model, predict, save_model, train
from mtboost.data import (
    RawTable,
    apply_bins,
    fit_bins,
    load_csv,
    log_transform,
    read_feature_matrix,
    write_csv,
)
from mtboost.errors import (
    DimensionMismatch,
    EmptyFile,
    MissingLabelColumn,
    NegativeInput,
    NonNumericLabel,
    ShapeError,
)

from oracles import parse_cells_oracle, quantile_boundaries_oracle


def make_table(features, labels):
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    return RawTable(
        features,
        labels,
        tuple(f"f{j}" for j in range(features.shape[1])),
        tuple(f"y{j}" for j in range(labels.shape[1])),
    )


class TestLoadCsv:
    def test_basic_shapes(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b,y\n1,2,0\n3,4,1\n5,6,0\n")
        table = load_csv(p, ["y"])
        assert (table.m, table.d, table.n) == (3, 2, 1)
        assert table.feature_names == ("a", "b")
        assert table.task_names == ("y",)
        assert table.labels[:, 0].tolist() == [0.0, 1.0, 0.0]

    def test_missing_token_becomes_nan(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,y\nNA,1\n2,0\n")
        table = load_csv(p, ["y"], missing_token="NA")
        assert math.isnan(table.features[0, 0])
        assert table.features[1, 0] == 2.0

    def test_unparsable_feature_is_nan(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,y\nwhat,1\n3,0\n")
        table = load_csv(p, ["y"])
        assert math.isnan(table.features[0, 0])

    def test_non_numeric_label(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,y\n1,abc\n")
        with pytest.raises(NonNumericLabel):
            load_csv(p, ["y"])

    def test_missing_label_column(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(MissingLabelColumn):
            load_csv(p, ["y"])

    def test_empty_file(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("")
        with pytest.raises(EmptyFile):
            load_csv(p, ["y"])
        p.write_text("a,y\n")
        with pytest.raises(EmptyFile):
            load_csv(p, ["y"])

    def test_write_round_trip(self, tmp_path):
        table = make_table([[1.25, math.nan], [3.5, -0.75]], [[1.0], [0.0]])
        p = tmp_path / "out.csv"
        write_csv(table, p)
        back = load_csv(p, ["y0"])
        assert np.array_equal(back.features, table.features, equal_nan=True)
        assert np.array_equal(back.labels, table.labels)

    def test_read_feature_matrix(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n,4\n")
        matrix, names = read_feature_matrix(p)
        assert names == ("a", "b")
        assert math.isnan(matrix[1, 0]) and matrix[1, 1] == 4.0


def write_cells(path, header, columns):
    """Write cell columns under a header with the csv module's quoting."""
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows([header, *zip(*columns)])
    path.write_text(buf.getvalue(), newline="")


def as_bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


# Feature cells: float reprs, Python float syntax, the tokens below (one of
# them, -999, parses as a number), the empty string and garbage.
CELL_TOKENS = ["", "-999", "NA", "nan"]
cells = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["1_0", " 2 ", "inf", "-inf", "nan", "NaN", "-nan", "1e999",
                     "0x10", "1__0", "--1", *CELL_TOKENS]),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00\r\n"),
            max_size=5),
)


class TestParseCells:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 12).flatmap(
        lambda m: st.lists(st.lists(cells, min_size=m, max_size=m), min_size=1, max_size=4)),
        st.sampled_from(CELL_TOKENS))
    def test_features_match_per_cell_rule(self, tmp_path_factory, columns, token):
        path = tmp_path_factory.mktemp("cells") / "t.csv"
        names = [f"f{j}" for j in range(len(columns))]
        labels = [repr(float(i)) for i in range(len(columns[0]))]
        write_cells(path, names + ["y"], columns + [labels])
        expected = np.column_stack([parse_cells_oracle(col, token) for col in columns])
        table = load_csv(path, ["y"], missing_token=token)
        assert np.array_equal(as_bits(table.features), as_bits(expected))
        assert table.labels[:, 0].tolist() == list(map(float, labels))
        matrix, header = read_feature_matrix(path, missing_token=token)
        assert header == (*names, "y")
        assert np.array_equal(as_bits(matrix[:, :-1]), as_bits(expected))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(cells, min_size=1, max_size=12))
    def test_labels_parse_or_name_first_bad_cell(self, tmp_path_factory, column):
        path = tmp_path_factory.mktemp("labels") / "t.csv"
        write_cells(path, ["a", "y"], [["1"] * len(column), column])
        expected = None
        for i, cell in enumerate(column):
            try:
                value = float(cell)
            except ValueError:
                expected = f"row {i + 2}, column 'y': {cell!r} is not a number"
                break
            if not math.isfinite(value):
                expected = f"row {i + 2}, column 'y': non-finite label"
                break
        if expected is None:
            assert load_csv(path, ["y"]).labels[:, 0].tolist() == list(map(float, column))
        else:
            with pytest.raises(NonNumericLabel) as excinfo:
                load_csv(path, ["y"])
            assert str(excinfo.value) == expected

    def test_blank_lines_give_zero_columns(self, tmp_path):
        p = tmp_path / "blank.csv"
        p.write_text("\n\n\n")
        matrix, names = read_feature_matrix(p)
        assert matrix.shape == (2, 0) and names == ()

    def test_fault_order(self, tmp_path):
        # Ragged rows come before label columns and label cells.
        p = tmp_path / "t.csv"
        p.write_text("a,y\n1,abc\n2\n")
        for read in (lambda: load_csv(p, ["y", "z"]), lambda: read_feature_matrix(p)):
            with pytest.raises(ShapeError, match="row 3 has 1 cells, header has 2"):
                read()
        # Label cells are checked label column by label column.
        p.write_text("a,y1,y2\n1,0,abc\n2,inf,0\n")
        with pytest.raises(NonNumericLabel, match="row 3, column 'y1': non-finite label"):
            load_csv(p, ["y1", "y2"])
        with pytest.raises(NonNumericLabel, match="row 2, column 'y2': 'abc' is not a number"):
            load_csv(p, ["y2", "y1"])


class TestLogTransform:
    @pytest.mark.parametrize("x,expected", [(0.0, 0.0), (9.0, 1.0), (99.0, 2.0)])
    def test_values(self, x, expected):
        table = make_table([[x]], [[0.0]])
        out = log_transform(table, {0})
        assert out.features[0, 0] == pytest.approx(expected, abs=1e-15)

    def test_nan_preserved_labels_untouched(self):
        table = make_table([[math.nan, 9.0]], [[5.0]])
        out = log_transform(table, {0, 1})
        assert math.isnan(out.features[0, 0])
        assert out.labels[0, 0] == 5.0

    def test_negative_raises(self):
        table = make_table([[-1.0]], [[0.0]])
        with pytest.raises(NegativeInput):
            log_transform(table, {0})

    def test_untouched_features_stay(self):
        table = make_table([[9.0, 7.0]], [[0.0]])
        out = log_transform(table, {0})
        assert out.features[0, 1] == 7.0


class TestFitBins:
    def test_distinct_values_get_singleton_bins(self):
        table = make_table([[1.0], [2.0], [3.0], [4.0]], [[0.0]] * 4)
        mapper = fit_bins(table, max_bins=4)
        assert mapper.finite_bin_counts[0] == 4
        ds = apply_bins(table, mapper)
        assert sorted(ds.binned[:, 0].tolist()) == [0, 1, 2, 3]

    def test_quantile_between_infinities_dropped(self):
        # 21 non-missing values; the quartile positions 5, 10 and 15 hold 0,
        # 5 and a point between two +inf, whose inf - inf cut is NaN.
        col = [-math.inf] * 5 + list(range(10)) + [math.inf] * 6 + [math.nan] * 2
        table = make_table(np.array(col, dtype=np.float64).reshape(-1, 1), [[0.0]] * len(col))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mapper = fit_bins(table, max_bins=4)
        assert mapper.boundaries[0].tolist() == [0.0, 5.0]

        # With at most max_bins distinct values, -inf is a boundary.
        table = make_table([[-math.inf], [1.0], [2.0], [math.inf], [math.nan]], [[0.0]] * 5)
        assert fit_bins(table, max_bins=8).boundaries[0].tolist() == [-math.inf, 1.0, 2.0]

    def test_constant_feature_single_bin(self):
        table = make_table([[5.0]] * 3, [[0.0]] * 3)
        mapper = fit_bins(table, max_bins=8)
        assert mapper.finite_bin_counts[0] == 1
        assert mapper.bin_counts[0] == 2  # finite bin + missing bin

    def test_uniform_quantile_oracle(self):
        values = np.arange(1.0, 1001.0)
        table = make_table(values.reshape(-1, 1), np.zeros((1000, 1)))
        mapper = fit_bins(table, max_bins=10)
        expected = quantile_boundaries_oracle(values, 10)
        assert mapper.finite_bin_counts[0] == 10
        np.testing.assert_allclose(mapper.boundaries[0], expected, rtol=1e-12)
        ds = apply_bins(table, mapper)
        counts = np.bincount(ds.binned[:, 0], minlength=10)
        assert counts[:10].tolist() == [100] * 10

    def test_max_bins_validation(self):
        table = make_table([[1.0]], [[0.0]])
        with pytest.raises(ValueError):
            fit_bins(table, max_bins=1)


class TestApplyBins:
    def test_clamp_below_and_above(self):
        fit = make_table([[1.0], [2.0], [3.0]], [[0.0]] * 3)
        mapper = fit_bins(fit, max_bins=3)
        fresh = make_table([[-10.0], [99.0]], [[0.0]] * 2)
        ds = apply_bins(fresh, mapper)
        assert ds.binned[0, 0] == 0
        assert ds.binned[1, 0] == 2

    def test_nan_goes_to_missing_bin(self):
        fit = make_table([[1.0], [2.0]], [[0.0]] * 2)
        mapper = fit_bins(fit, max_bins=4)
        ds = apply_bins(make_table([[math.nan]], [[0.0]]), mapper)
        assert ds.binned[0, 0] == mapper.finite_bin_counts[0]

    def test_boundary_value_right_closed(self):
        fit = make_table([[1.0], [2.0], [3.0]], [[0.0]] * 3)
        mapper = fit_bins(fit, max_bins=3)
        # boundaries are [1, 2]; the value 2.0 belongs to the bin it tops.
        ds = apply_bins(make_table([[2.0]], [[0.0]]), mapper)
        assert ds.binned[0, 0] == 1

    def test_dimension_mismatch(self):
        fit = make_table([[1.0, 2.0]], [[0.0]])
        mapper = fit_bins(fit, max_bins=4)
        with pytest.raises(DimensionMismatch):
            apply_bins(make_table([[1.0]], [[0.0]]), mapper)

    def test_labels_copied_column_major(self):
        table = make_table([[1.0], [2.0], [3.0]], np.arange(9.0).reshape(3, 3))
        labels = apply_bins(table, fit_bins(table, max_bins=4)).labels
        assert labels.flags.f_contiguous
        assert not np.shares_memory(labels, table.labels)
        assert np.array_equal(labels, table.labels)


finite_floats = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)

mixed_floats = st.one_of(finite_floats, st.sampled_from([math.inf, -math.inf, math.nan]))


class TestBinningProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(finite_floats, min_size=2, max_size=40), st.integers(2, 12))
    def test_monotone_binning(self, values, max_bins):
        col = np.array(values).reshape(-1, 1)
        table = make_table(col, np.zeros((len(values), 1)))
        ds = apply_bins(table, fit_bins(table, max_bins))
        order = np.argsort(col[:, 0], kind="stable")
        bins_sorted = ds.binned[order, 0]
        assert (np.diff(bins_sorted.astype(int)) >= 0).all()

    @settings(max_examples=40, deadline=None)
    @given(st.lists(finite_floats, min_size=2, max_size=30), st.integers(2, 8))
    def test_fit_then_apply_never_missing(self, values, max_bins):
        col = np.array(values).reshape(-1, 1)
        table = make_table(col, np.zeros((len(values), 1)))
        mapper = fit_bins(table, max_bins)
        ds = apply_bins(table, mapper)
        assert (ds.binned[:, 0] < mapper.finite_bin_counts[0]).all()
        assert (ds.binned[:, 0] < mapper.bin_counts[0]).all()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(mixed_floats, min_size=2, max_size=2), min_size=1, max_size=40),
           st.integers(2, 8))
    @example(  # a quantile between two +inf
        rows=[[v, v] for v in [-math.inf] * 5 + list(range(10)) + [math.inf] * 6 + [math.nan] * 2],
        max_bins=4,
    )
    def test_infinite_features(self, rows, max_bins):
        features = np.array(rows, dtype=np.float64)
        table = make_table(features, (np.arange(len(rows)) % 3).reshape(-1, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning from inf - inf
            mapper = fit_bins(table, max_bins)
        ds = apply_bins(table, mapper)
        for f, cuts in enumerate(mapper.boundaries):
            col, bins = features[:, f], ds.binned[:, f]
            assert (bins[col == math.inf] == len(cuts)).all()  # top finite bin
            assert (bins[col == -math.inf] == 0).all()
            assert (bins[np.isnan(col)] == len(cuts) + 1).all()  # missing bin
        params = BoosterParams(objectives=("regression_l2",), num_iterations=2,
                               learning_rate=0.5, min_samples_leaf=1)
        model = train(ds, params)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.txt"
            save_model(model, path)
            loaded = load_model(path)  # checks that boundaries strictly ascend
        assert loaded.mapper == mapper
        np.testing.assert_array_equal(predict(loaded, features), predict(model, features))

    def test_binning_ignores_labels(self, rng):
        features = rng.normal(size=(50, 3))
        labels = rng.normal(size=(50, 2))
        t1 = make_table(features, labels)
        t2 = make_table(features, labels[rng.permutation(50)])
        d1 = apply_bins(t1, fit_bins(t1, 16))
        d2 = apply_bins(t2, fit_bins(t2, 16))
        assert np.array_equal(d1.binned, d2.binned)
