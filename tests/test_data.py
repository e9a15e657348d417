import contextlib
import csv
import math
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from mtboost import data
from mtboost.booster import BoosterParams, load_model, predict, save_model, train
from mtboost.data import (
    RawTable,
    _cells,
    apply_bins,
    bin_column,
    fit_bins,
    load_csv,
    log_transform,
    read_feature_matrix,
    write_csv,
)
from mtboost.errors import (
    DimensionMismatch,
    EmptyFile,
    MalformedCsv,
    MissingLabelColumn,
    MtboostError,
    NegativeInput,
    NonNumericLabel,
    ShapeError,
)

from oracles import (
    bin_column_oracle,
    fit_bins_oracle,
    parse_cells_oracle,
    quantile_boundaries_oracle,
    write_csv_oracle,
)

# NaN and infinities (features only), then finite values whose repr takes
# each form: signed zero, a subnormal, and both switches to exponent notation.
WRITE_EDGES = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-5, 1e15, 1e-4]


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


def as_bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def outcomes(read):
    """What ``read()`` gives with numpy's C reader allowed and with csv.reader
    forced: a value, or an error's type and message, for each path."""
    results = []
    for force_csv in (False, True):
        patch = mock.patch.object(data, "_loadtxt", return_value=None)
        with patch if force_csv else contextlib.nullcontext():
            try:
                results.append(read())
            except MtboostError as exc:
                results.append((type(exc), str(exc)))
    return results


# Feature cells: float reprs, Python float syntax, the tokens below (one of
# them, -999, parses as a number), the empty string and garbage.
CELL_TOKENS = ["", "-999", "NA", "nan"]
cells = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["1_0", " 2 ", "inf", "-inf", "nan", "NaN", "-nan", "1e999",
                     "0x10", "1__0", "--1", "\x1c1", "1\x1f", *CELL_TOKENS]),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00\r\n"),
            max_size=5),
)
# Cells numpy's C reader takes: numbers only, in Python float syntax.
number_cells = st.one_of(
    st.floats().map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["-999", "1e999", "-1e-400", "-0", ".5", "5.", "+1E3", " 2 ", "\t3",
                     "inf", "-Infinity", "-nan", "5e-324"]),
)
# Numbers with missing values, which numpy's C reader takes too.
sparse_cells = st.one_of(number_cells, st.just(""))
LINE_ENDS = ["\n", "\r", "\r\n"]


@st.composite
def csv_files(draw, label_cells=None):
    """(text, header, rows) of a CSV with 1 to 4 feature columns, optionally a
    label column ``y`` last, and the cell lists csv.reader gives back for its
    rows. Cells are any text, numbers only or numbers and empty cells; every
    cell may be quoted; one blank, whitespace-only or long row may sit
    anywhere; line ends are LF, CR, CRLF or mixed, the last one optional."""
    k = draw(st.integers(1, 4))
    cell = draw(st.sampled_from([cells, number_cells, sparse_cells]))
    rows = draw(st.lists(st.lists(cell, min_size=k, max_size=k), min_size=1, max_size=12))
    header = [f"f{j}" for j in range(k)]
    if label_cells is not None or draw(st.booleans()):
        header.append("y")
        if label_cells is None:
            label_cells = st.floats(allow_nan=False, allow_infinity=False).map(repr)
        labels = st.lists(label_cells, min_size=len(rows), max_size=len(rows))
        rows = [row + [y] for row, y in zip(rows, draw(labels))]
    odd = draw(st.none() | st.sampled_from([[], [" "], ["\t "], ["1"] * (len(header) + 1)]))
    if odd is not None:
        rows.insert(draw(st.integers(0, len(rows))), odd)
    quote_all = draw(st.integers(0, 3)) == 0

    def line(row):
        return ",".join(
            '"' + c.replace('"', '""') + '"'
            if quote_all or "," in c or '"' in c or row == [""] else c
            for c in row
        )

    lines = [",".join(header)] + [line(row) for row in rows]
    if draw(st.booleans()):
        ends = [draw(st.sampled_from(LINE_ENDS))] * len(lines)
    else:
        ends = draw(st.lists(st.sampled_from(LINE_ENDS), min_size=len(lines),
                             max_size=len(lines)))
    for i in range(1, len(lines)):
        if lines[i] == "" and ends[i - 1] == "\r":
            ends[i] = "\r"  # "\r" then "\n" would be one line end
    if lines[-1] != "" and not draw(st.booleans()):
        ends[-1] = ""  # no final line end
    return "".join(map(str.__add__, lines, ends)), header, rows


def expected_read(header, rows, token):
    """The first ragged row's error, or the oracle's matrix of every column."""
    for i, row in enumerate(rows):
        if len(row) != len(header):
            return ShapeError, f"row {i + 2} has {len(row)} cells, header has {len(header)}"
    return np.column_stack([parse_cells_oracle(col, token) for col in zip(*rows)])


class TestParseCells:
    @settings(max_examples=300, deadline=None)
    @given(csv_files(), st.sampled_from(CELL_TOKENS))
    def test_features_match_per_cell_rule(self, tmp_path_factory, file, token):
        text, header, rows = file
        path = tmp_path_factory.mktemp("cells") / "t.csv"
        path.write_text(text, newline="")
        event(f"numpy reader takes the file: {data._loadtxt(path, token) is not None}")
        want = expected_read(header, rows, token)
        for got in outcomes(lambda: read_feature_matrix(path, missing_token=token)):
            if isinstance(want, tuple):
                assert got == want
            else:
                matrix, names = got
                assert names == tuple(header)
                assert np.array_equal(as_bits(matrix), as_bits(want))
        if header[-1] != "y":
            return
        for got in outcomes(lambda: load_csv(path, ["y"], missing_token=token)):
            if isinstance(want, tuple):
                assert got == want
            else:
                assert got.feature_names == tuple(header[:-1])
                assert np.array_equal(as_bits(got.features), as_bits(want[:, :-1]))
                assert got.labels[:, 0].tolist() == [float(row[-1]) for row in rows]

    @settings(max_examples=150, deadline=None)
    @given(csv_files(label_cells=st.one_of(cells, number_cells)))
    def test_labels_parse_or_name_first_bad_cell(self, tmp_path_factory, file):
        text, header, rows = file
        path = tmp_path_factory.mktemp("labels") / "t.csv"
        path.write_text(text, newline="")
        want = expected_read(header, rows, "")
        if not isinstance(want, tuple):
            for i, row in enumerate(rows):
                try:
                    value = float(row[-1])
                except ValueError:
                    want = NonNumericLabel, f"row {i + 2}, column 'y': {row[-1]!r} is not a number"
                    break
                if not math.isfinite(value):
                    want = NonNumericLabel, f"row {i + 2}, column 'y': non-finite label"
                    break
        for got in outcomes(lambda: load_csv(path, ["y"])):
            if isinstance(want, tuple):
                assert got == want
            else:
                assert got.labels[:, 0].tolist() == [float(row[-1]) for row in rows]

    def test_blank_lines_give_zero_columns(self, tmp_path):
        p = tmp_path / "blank.csv"
        p.write_text("\n\n\n")
        for matrix, names in outcomes(lambda: read_feature_matrix(p)):
            assert matrix.shape == (2, 0) and names == ()

    def test_fault_order(self, tmp_path):
        # Ragged rows come before label columns and label cells.
        p = tmp_path / "t.csv"
        p.write_text("a,y\n1,abc\n2\n")
        for read in (lambda: load_csv(p, ["y", "z"]), lambda: read_feature_matrix(p)):
            with pytest.raises(ShapeError, match="row 3 has 1 cells, header has 2"):
                read()
        # Label cells are checked label column by label column, on both paths.
        for text in ("a,y1,y2\n1,0,abc\n2,inf,0\n", "a,y1,y2\n1,0,nan\n2,inf,0\n"):
            p.write_text(text)
            assert outcomes(lambda: load_csv(p, ["y1", "y2"])) == [
                (NonNumericLabel, "row 3, column 'y1': non-finite label")] * 2
        p.write_text("a,y1,y2\n1,0,abc\n2,inf,0\n")
        with pytest.raises(NonNumericLabel, match="row 2, column 'y2': 'abc' is not a number"):
            load_csv(p, ["y2", "y1"])

    @pytest.mark.parametrize("text,token", [
        ("a,y\n1,2\n3,4\n", ""), ("a,y\r\n1,2\r\n3,4\r\n", ""), ("a,y\r1,2\r3,4\r", ""),
        ("a,y\n1,2\r\n3,4\r", ""), ("a,y\n1,2\n3,4", ""), ("a\n1\n-2.5e3\n", ""),
        ("a,y\n 1 ,inf\n-nan,-0\n", ""), ("a,y\n,2\n", ""), ("a,b,y\n1,,2\n,,\n", ""),
        ("a,y\r\n1,2\r\n3,\r\n", ""), ("a,y\r1,2\r,4", ""), ("a,y\n1,2\n3,", ""),
        ("a,y\n,1\n2,3\n", "NA"),
    ], ids=["lf", "crlf", "cr", "mixed", "no-final-end", "one-column", "float-syntax",
            "empty-first-cell", "empty-cells", "crlf-empty-last-cell", "cr-empty-first-cell",
            "empty-last-cell-no-final-end", "empty-cell-other-token"])
    def test_numpy_reader_takes_plain_numbers(self, tmp_path, text, token):
        # Empty cells too: both paths make them NaN.
        p = tmp_path / "t.csv"
        p.write_text(text, newline="")
        header, matrix = data._loadtxt(p, token)
        fast, slow = outcomes(lambda: read_feature_matrix(p, token))
        assert np.array_equal(as_bits(fast[0]), as_bits(matrix))
        assert np.array_equal(as_bits(fast[0]), as_bits(slow[0]))
        assert fast[1] == slow[1] == tuple(header)

    @pytest.mark.parametrize("text,token,parsed", [
        ('a,y\n"1",2\n', "", False), ("a,y\n1,2\n\n3,4\n", "", False),
        ("a,y\n1,2\n\r3,4\n", "", False), ("a,y\r1,2\r\r3,4\r", "", False),
        ("a,y\r\n1,2\r\n\r\n", "", False), ("a,y\n1,2\n  \n", "", True),
        ("a\n1\n \n", "", True), ("a,y\n1,-999\n", "-999", False),
        ("a,y\n1,2\nNA,4\n", "NA", False), ("a,y\n1,,\n", "", True),
        ("a,y\n1,abc\n", "", False), ("a,y\n1_0,2\n", "", False),
        ("a,y\n\x1c1,2\n", "", False), ("a\n1\x0b2\n3\n", "", False),
        ("a\n1\u20282\n3\n", "", False), ("a,y\n", "", False), ("a\n", "", False),
        ("a,y\r\n\r\n", "", False), ("a,b\n,\n", "", False),
        ("a,y\n1," + "1" * 131073 + "\n", "", False), ("", "", False),
    ], ids=["quoted", "blank-line", "lf-cr-blank-line", "cr-blank-line", "crlf-blank-line",
            "whitespace-line", "whitespace-one-column", "numeric-token", "token", "ragged",
            "word", "underscore", "file-separator", "vertical-tab", "line-separator",
            "no-rows", "one-column-no-rows", "crlf-no-rows", "only-empty-cells",
            "past-field-limit", "empty"])
    def test_numpy_reader_declines(self, tmp_path, text, token, parsed):
        # csv.reader reads these, and both paths give its result. Only a file
        # that passes the scan of its bytes costs a parse by numpy first.
        p = tmp_path / "t.csv"
        p.write_text(text, newline="")
        with mock.patch.object(data.np, "loadtxt", wraps=np.loadtxt) as loadtxt:
            assert data._loadtxt(p, token) is None
        assert loadtxt.called == parsed
        fast, slow = outcomes(lambda: read_feature_matrix(p, token))
        if isinstance(fast, tuple) and isinstance(fast[0], np.ndarray):
            assert np.array_equal(as_bits(fast[0]), as_bits(slow[0])) and fast[1] == slow[1]
        else:
            assert fast == slow

    def test_no_feature_column_after_blank_header(self, tmp_path):
        p = tmp_path / "blank.csv"
        p.write_text("\n\n\n")
        assert outcomes(lambda: load_csv(p, [])) == [
            (ShapeError, "every column is a label; no features left")] * 2

    def test_cell_past_field_limit_names_row(self, tmp_path):
        limit = csv.field_size_limit()
        p = tmp_path / "long.csv"
        p.write_text("a,y\n1,0\n" + "1" * (limit + 1) + ",0\n")
        want = (MalformedCsv, f"{p}: row 3: field larger than field limit ({limit})")
        assert outcomes(lambda: load_csv(p, ["y"])) == [want, want]
        assert outcomes(lambda: read_feature_matrix(p)) == [want, want]
        # A cell of exactly the limit reads, and so does a long line of short cells.
        p.write_text("a,y\n" + "1" * limit + ",0\n")
        for table in outcomes(lambda: load_csv(p, ["y"])):
            assert table.features[:, 0].tolist() == [math.inf]
        p.write_text("a,y\n1,2\n" + "0," * (limit // 2) + "0\n")
        assert outcomes(lambda: read_feature_matrix(p)) == [
            (ShapeError, f"row 3 has {limit // 2 + 1} cells, header has 2")] * 2

    def test_non_utf8_is_malformed_csv(self, tmp_path):
        p = tmp_path / "latin1.csv"
        p.write_bytes(b"a,y\n1,0\n\xff,1\n")
        with pytest.raises(MalformedCsv, match="not UTF-8 text"):
            load_csv(p, ["y"])
        with pytest.raises(MalformedCsv, match="not UTF-8 text"):
            read_feature_matrix(p)


write_features = st.one_of(st.floats(), st.sampled_from(WRITE_EDGES))
write_labels = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                         st.sampled_from(WRITE_EDGES[3:]))


class TestWriteCsv:
    @settings(max_examples=100, deadline=None)
    @given(st.tuples(st.integers(1, 4), st.integers(1, 2)).flatmap(lambda dn: st.lists(
        st.tuples(st.lists(write_features, min_size=dn[0], max_size=dn[0]),
                  st.lists(write_labels, min_size=dn[1], max_size=dn[1])),
        min_size=1, max_size=10)))
    def test_bytes_match_oracle(self, tmp_path_factory, rows):
        table = make_table([x for x, _ in rows], [y for _, y in rows])
        out = tmp_path_factory.mktemp("write")
        write_csv(table, out / "new.csv")
        write_csv_oracle(table, out / "oracle.csv")
        assert (out / "new.csv").read_bytes() == (out / "oracle.csv").read_bytes()


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


# Zeros of both signs, infinities, NaN, subnormals, float32's largest finite
# value and the next float64 above its rounding range, and magnitudes past it.
EDGE_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
               2.2250738585072014e-308, 1.401298464324817e-45, 3.4028234663852886e38,
               3.4028235677973366e38, -3.4028235677973366e38, 1e39, -1e300, 1e300, 1000.0]
edge_floats = st.one_of(st.floats(), st.floats(-4, 4), st.sampled_from(EDGE_FLOATS))


def ulp_probes(values, cuts):
    """The values, every cut and the floats one ulp either side of each cut."""
    with np.errstate(over="ignore"):  # one ulp past the largest float is inf
        return np.concatenate([values, cuts, np.nextafter(cuts, math.inf),
                               np.nextafter(cuts, -math.inf)])


class TestBinColumn:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(edge_floats, max_size=60),
           st.lists(st.one_of(edge_floats, st.floats(1000, 1000.5)), max_size=300))
    @example(values=[-math.inf, -1.0, 0.0, 2.0], raw_cuts=[-math.inf, 0.0, 1.0])
    @example(values=[-0.0, 0.0, math.nan, math.inf], raw_cuts=[])
    @example(values=[-3.0, -2.0, -1.5, -0.5, 1.5, 3.0], raw_cuts=[-2.5, -1.0, 2.5])
    @example(values=[1.0], raw_cuts=[-1.7976931348623157e308, 1.7976931348623157e308])
    @example(values=[0.0, -0.0, 1e-320], raw_cuts=[-0.0, 5e-324])
    def test_matches_binary_search(self, values, raw_cuts):
        cuts = np.unique(np.array(raw_cuts, dtype=np.float64))
        cuts = cuts[~np.isnan(cuts)]  # strictly ascending, as a mapper holds them
        probes = ulp_probes(np.array(values, dtype=np.float64), cuts)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = bin_column(probes, cuts)
        want = bin_column_oracle(probes, cuts)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(edge_floats, max_size=60),
           st.lists(st.one_of(edge_floats, st.floats(1000, 1000.5)), max_size=300))
    @example(values=[1000.75], raw_cuts=[-1.0, 1.0, 1000.25, 1000.5])  # table, one crowded cell
    @example(values=[1000.75], raw_cuts=[-1.0, 1000.0, 1000.25, 1000.5])  # whole column
    def test_searches_only_crowded_rows(self, values, raw_cuts):
        # A row is searched when two or more cuts of its own cell lie below
        # it, and every row is when more than half of the cuts share a cell
        # with a lower cut.
        cuts = np.unique(np.array(raw_cuts, dtype=np.float64))
        cuts = cuts[~np.isnan(cuts)]
        probes = ulp_probes(np.array(values, dtype=np.float64), cuts)
        with mock.patch.object(np, "searchsorted", wraps=np.searchsorted) as search:
            bin_column(probes, cuts)
        searched = sum(call.args[1].size for call in search.call_args_list
                       if call.args[0] is cuts)
        if 2 * np.unique(_cells(cuts)).size < cuts.size:
            assert searched == probes.size
        else:
            same_cell = _cells(probes)[:, None] == _cells(cuts)[None, :]
            crowded = (same_cell & (cuts[None, :] < probes[:, None])).sum(axis=1) >= 2
            assert searched == np.count_nonzero(crowded)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3000), st.integers(2, 300))
    def test_cuts_sharing_one_cell(self, seed, m, max_bins):
        # Every float in [1000, 1000.5] rounds into one cell, so rows with two
        # or more cuts of that cell below them take the searchsorted path.
        col = 1000 + np.random.default_rng(seed).uniform(0, 0.5, m)
        cuts = fit_bins(make_table(col[:, None], np.zeros((m, 1))), max_bins).boundaries[0]
        assert np.unique(_cells(cuts)).size == min(cuts.size, 1)
        probes = ulp_probes(col, cuts)
        assert np.array_equal(bin_column(probes, cuts), bin_column_oracle(probes, cuts))


class TestFitBinsOracle:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.one_of(st.integers(-4, 4).map(float), finite_floats,
                              st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -0.0])),
                    min_size=1, max_size=300),
           st.integers(2, 40))
    @example(values=[float(v) for v in range(200)] + [math.nan] * 3, max_bins=8)
    @example(values=[-math.inf] * 5 + list(range(10)) + [math.inf] * 6, max_bins=4)
    @example(values=[math.nan] * 4, max_bins=2)
    def test_matches_unsorted_quantiles(self, values, max_bins):
        col = np.array(values, dtype=np.float64)
        features = np.column_stack([col, col[::-1] * 3.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mapper = fit_bins(make_table(features, np.zeros((col.size, 1))), max_bins)
        for f, cuts in enumerate(mapper.boundaries):
            assert np.array_equal(cuts, fit_bins_oracle(features[:, f], max_bins))
