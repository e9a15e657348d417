"""CSV ingestion, preprocessing and per-feature histogram binning.

Raw feature values are discretized into small integer bin indices once, up
front; all split finding later works on bins. Binning is quantile based
(equal frequency), which is robust to the heavy-tailed monetary features
this engine is typically pointed at. Intervals are right-closed: a value
equal to a boundary belongs to the bin that boundary tops. Missing values
(NaN) get a dedicated bin per feature, one past the last finite bin.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import re
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyFile,
    InvalidParameter,
    MalformedCsv,
    MissingLabelColumn,
    NegativeInput,
    NonNumericLabel,
    ShapeError,
)

DEFAULT_MAX_BINS = 255


@dataclass(frozen=True, eq=False)
class RawTable:
    """In-memory tabular dataset: float features (NaN = missing) and labels,
    its feature and task names all distinct."""

    features: np.ndarray  # (m, d) float64
    labels: np.ndarray  # (m, n) float64, finite
    feature_names: tuple[str, ...]
    task_names: tuple[str, ...]

    def __post_init__(self):
        if self.features.ndim != 2 or self.labels.ndim != 2:
            raise ShapeError("features and labels must be 2-D")
        m, d = self.features.shape
        n = self.labels.shape[1]
        if m < 1 or d < 1 or n < 1:
            raise ShapeError("need at least one row, one feature and one task")
        if self.labels.shape[0] != m:
            raise ShapeError("features and labels disagree on row count")
        if len(self.feature_names) != d or len(self.task_names) != n:
            raise ShapeError("name lists disagree with matrix shapes")
        names = (*self.feature_names, *self.task_names)
        column_indices(names, names, "feature and task names", ShapeError)  # raises on a repeat
        if not np.isfinite(self.labels).all():
            raise NonNumericLabel("labels must be finite")

    @property
    def m(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def n(self) -> int:
        return self.labels.shape[1]


# Bytes of a CSV body that numpy's C reader and csv.reader + float() read
# alike: those of numbers in Python float syntax (but "_", which numpy
# rejects), the comma, space, tab, CR and LF.
_NUMBER_BYTES = b"0123456789+-.eEinfatyINFATY, \t\r\n"


def _loadtxt(path, missing_token: str):
    """Header and (m, k) float matrix of a CSV parsed whole by numpy's C
    reader, or None when that could differ from csv.reader and float(), or
    fail. Scans of the file's bytes come first, so a file the reader does
    not take costs a few passes over them, not a parse that fails: the
    missing token must not parse as a number nor occur in the body (the
    bytes from the header's line end on), and the body must hold only bytes
    of ``_NUMBER_BYTES`` and pass ``_empty_cells``. Empty cells are NaN on
    both paths (an empty label is not finite, so csv.reader reports it), and
    numpy's reader gets them as ``nan``. After the parse, a cell that does
    not parse or a row whose cell count differs from the header's still
    declines."""
    try:
        float(missing_token)
        return None  # cells equal to it are NaN, which loadtxt cannot tell
    except ValueError:
        pass
    with open(path, "rb") as fh:
        raw = fh.read()
    end = re.search(rb"[\r\n]", raw)
    if end is None:
        return None
    head = end.start()
    if raw.translate(None, _NUMBER_BYTES) != raw[:head].translate(None, _NUMBER_BYTES):
        return None
    if missing_token and raw.find(missing_token.encode(), head) >= 0:
        return None
    empty = _empty_cells(np.frombuffer(raw, np.uint8)[head:])
    if empty is None:
        return None
    try:
        header = next(csv.reader([raw[:head].decode("utf-8-sig")]))
    except (UnicodeDecodeError, csv.Error):
        return None  # csv.reader raises them, naming the row
    if empty.size:
        cuts = (empty + head).tolist()
        raw = b"nan".join([raw[i:j] for i, j in zip([0, *cuts], [*cuts, len(raw)])])
    try:
        matrix = np.loadtxt(
            io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8-sig"),
            delimiter=",", comments=None, skiprows=1, ndmin=2,
        )
    except ValueError:
        return None
    if matrix.shape[1] != len(header):
        return None
    return header, matrix


def _empty_cells(body: np.ndarray):
    """Offsets of the empty cells in a CSV body of number bytes (uint8),
    which starts with the header's line end; None when it holds no cell, a
    blank line or a cell longer than csv's field limit."""
    seps = body == ord(",")
    seps |= body == ord("\r")
    seps |= body == ord("\n")
    at = np.flatnonzero(seps)
    if at.size == body.size:
        return None  # no cell at all
    gaps = np.diff(at)
    if max(gaps.max(initial=0), body.size - at[-1]) - 1 > csv.field_size_limit():
        return None
    # A separator right after another starts an empty cell, unless both are
    # line ends: CRLF is one line end, any other pair a blank line.
    pairs = at[:-1][gaps == 1]
    first, second = body[pairs], body[pairs + 1]
    line_ends = (first != ord(",")) & (second != ord(","))
    if (line_ends & ((first != ord("\r")) | (second != ord("\n")))).any():
        return None
    empty = pairs[~line_ends] + 1
    return np.append(empty, body.size) if body[-1] == ord(",") else empty


# Rows that csv.reader reads before _read_columns parses them: only one
# chunk's cells are held as text. The parsed chunks take 8 bytes a cell,
# and joining them holds both them and the matrix, so a file of more than
# one chunk peaks at about 16 bytes a cell on return.
_CHUNK_ROWS = 1024


def _read_columns(path, missing_token: str, label_columns=None):
    """Header and (m, k) float matrix of a CSV with a header row, by
    csv.reader, parsed by ``_parse_columns`` _CHUNK_ROWS rows at a time
    (cells of the columns named in ``label_columns`` keep the missing
    token). Raises MalformedCsv when the file is not UTF-8 or a cell is past
    csv's field limit, then EmptyFile without a header or a data row, then
    ShapeError on the first row whose cell count differs from the header's."""
    header, m, ragged, rows, parsed = None, 0, None, [], []

    def parse():
        parsed.append(_parse_columns(list(zip(*rows)), len(rows), missing_token, labels))
        rows.clear()

    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is not None:
                labels = [header.index(name) for name in label_columns or () if name in header]
                for row in reader:
                    m += 1
                    if ragged is None and len(row) != len(header):
                        ragged = f"row {m + 1} has {len(row)} cells, header has {len(header)}"
                    if ragged is None:
                        rows.append(row)
                        if len(rows) == _CHUNK_ROWS:
                            parse()
    except UnicodeDecodeError as exc:
        raise MalformedCsv(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise MalformedCsv(f"{path}: row {m + 1 + (header is not None)}: {exc}") from None
    if header is None:
        raise EmptyFile(f"{path}: no header row")
    if not m:
        raise EmptyFile(f"{path}: no data rows")
    if ragged is not None:
        raise ShapeError(ragged)
    if rows:
        parse()
    # A file of blank lines has rows but no columns: the chunks count them.
    return header, parsed[0] if len(parsed) == 1 else np.concatenate(parsed)


def _cell(path, row: int, column: int) -> str:
    """A cell of a CSV that _read_columns has read: ``column`` of record
    ``row``, the header being record 0."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        return next(itertools.islice(csv.reader(fh), row, None))[column]


def _read_csv(path, missing_token: str, label_columns=None):
    """Header, label column indices and (m, k) float matrix of a CSV with a
    header row, columns in header order. Cells of the columns named in
    ``label_columns`` must parse as finite numbers; other cells equal to
    ``missing_token`` or rejected by ``float()`` become NaN. ``None`` names
    no label column and asks for no feature column either.

    The whole body goes through numpy's C reader when ``_loadtxt`` can take
    it and every label is finite. Otherwise csv.reader and ``_parse_columns``
    read the file and raise every error, so both give the same result.
    """
    fast = _loadtxt(path, missing_token)
    if fast is not None:
        header, matrix = fast
        label_idx = _label_indices(header, label_columns)
        if np.isfinite(matrix[:, label_idx]).all():
            return header, label_idx, matrix
        del fast, matrix
    header, matrix = _read_columns(path, missing_token, label_columns)
    label_idx = _label_indices(header, label_columns)
    bad = np.argwhere(~np.isfinite(matrix[:, label_idx].T))  # label column by label column
    if bad.size:
        t, i = bad[0]
        cell = _cell(path, i + 1, label_idx[t])
        try:
            float(cell)
            detail = "non-finite label"
        except ValueError:
            detail = f"{cell!r} is not a number"
        raise NonNumericLabel(f"row {i + 2}, column {label_columns[t]!r}: {detail}")
    return header, label_idx, matrix


def column_indices(names, columns, what: str, error) -> list[int]:
    """Index in ``columns`` of each of ``names``, in order: the one lookup
    from column names to columns. Raises ``error(message)``, the message
    led by ``what``, for a name listed twice, a name no column has, or a
    name that heads two columns. Takes time linear in the names and
    columns."""
    index = {}
    for j, column in enumerate(columns):
        index[column] = -1 if column in index else j  # -1: the name heads two columns
    seen = set()
    for name in names:
        if name in seen:
            raise error(f"{what}: {name!r} is listed twice")
        seen.add(name)
        if name not in index:
            raise error(f"{what}: no column named {name!r}")
        if index[name] < 0:
            raise error(f"{what}: {name!r} heads two columns")
    return [index[name] for name in names]


def _label_indices(header, label_columns) -> list[int]:
    """Header index of each of ``label_columns`` (none for ``None``). Raises
    MissingLabelColumn as ``column_indices`` does, and ShapeError when the
    labels leave no feature column."""
    label_idx = column_indices(label_columns or (), header, "label_columns", MissingLabelColumn)
    if label_columns is not None and len(label_idx) == len(header):
        raise ShapeError("every column is a label; no features left")
    return label_idx


def load_csv(path, label_columns, missing_token: str = "") -> RawTable:
    """Read an RFC-4180 CSV with header into a RawTable.

    Columns named in ``label_columns`` become the label matrix (in the given
    order); every other column becomes a feature, in header order. Each
    name must head one column and be listed once (``column_indices``). Feature
    cells equal to ``missing_token`` or unparsable as numbers turn into NaN.
    Label cells must parse as finite numbers.
    """
    header, label_idx, matrix = _read_csv(path, missing_token, label_columns)
    feat_idx = sorted(set(range(len(header))) - set(label_idx))
    return RawTable(
        features=matrix[:, feat_idx],
        labels=matrix[:, label_idx],
        feature_names=tuple(header[j] for j in feat_idx),
        task_names=tuple(label_columns),
    )


def _parse_columns(columns, m: int, missing_token, label_idx=()) -> np.ndarray:
    """(m, k) float matrix of k cell columns, parsed a column at a time. Cells
    equal to ``missing_token`` (never in the ``label_idx`` columns) or
    rejected by ``float()`` become NaN; the rest, in Python float syntax,
    their value."""
    matrix = np.empty((m, len(columns)), dtype=np.float64)
    for j, cells in enumerate(columns):
        token = None if j in label_idx else missing_token
        if token in cells:
            cells = ["nan" if cell == token else cell for cell in cells]
        try:
            matrix[:, j] = np.fromiter(map(float, cells), np.float64, m)
        except ValueError:
            matrix[:, j] = [_parse_feature(cell) for cell in cells]
    return matrix


def _parse_feature(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        return math.nan


def read_feature_matrix(path, missing_token: str = ""):
    """Read a whole CSV as a float feature matrix (no label columns).

    Returns (matrix, column_names). Unparsable cells become NaN; used for
    prediction inputs where extra columns are simply ignored downstream.
    """
    header, _, matrix = _read_csv(path, missing_token)
    return matrix, tuple(header)


def format_row(values) -> str:
    """One CSV line, without its line end, of Python numbers: the ``repr`` of
    each, so floats round-trip exactly, and an empty cell for NaN."""
    return ",".join(map(repr, values)).replace("nan", "")  # no other number's repr holds "nan"


def write_csv(table: RawTable, path) -> None:
    """Write a RawTable back to CSV (features first, then label columns).

    Floats are rendered with ``repr`` so the file is byte-deterministic and
    round-trips exactly; NaN is an empty cell. Lines end in CRLF.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow([*table.feature_names, *table.task_names])
        for features, labels in zip(table.features, table.labels):
            fh.write(format_row(features.tolist() + labels.tolist()) + "\r\n")


def log_transform(table: RawTable, feature_indices) -> RawTable:
    """Replace selected feature values x with log10(x + 1); NaN passes through."""
    features = table.features.copy()
    log_transform_columns(features, feature_indices, table.feature_names)
    return RawTable(features, table.labels, table.feature_names, table.task_names)


def log_transform_columns(features: np.ndarray, feature_indices, feature_names) -> None:
    """In place, replace the listed columns x with log10(x + 1); NaN passes
    through. Raises NegativeInput when a listed column holds a negative value.
    """
    for f in sorted(feature_indices):
        col = features[:, f]
        if np.any(col < 0):
            raise NegativeInput(f"feature {feature_names[f]!r} has negative values")
        mask = ~np.isnan(col)
        features[mask, f] = np.log10(col[mask] + 1.0)


def read_only(array, dtype=None, name="array") -> np.ndarray:
    """A read-only view of ``array`` (converted to ``dtype`` when given). A
    caller's array behind the view keeps its own flags. A value that does
    not convert (past int64, NaN to an int, a string that is no number, a
    ragged list) raises InvalidParameter led by ``name``."""
    try:
        with np.errstate(invalid="raise"):
            view = np.asarray(array, dtype=dtype).view()
    except (TypeError, ValueError, OverflowError, FloatingPointError) as exc:
        raise InvalidParameter(f"{name}: {exc}") from None
    view.flags.writeable = False
    return view


def rebuilt_by_init(self):
    """__reduce__ of a frozen dataclass whose __post_init__ makes its arrays
    read-only: pickle and copy rebuild it from its init fields through
    __init__, so the copy's arrays are read-only too."""
    return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)


@dataclass(frozen=True)
class BinMapper:
    """Per-feature bin boundaries fitted on a training table.

    ``boundaries[f]`` holds the strictly increasing upper boundaries of the
    finite bins (length = finite_bins - 1; the topmost finite bin has no upper
    boundary and catches everything above), in read-only arrays. The missing
    bin sits at index ``finite_bins``, so total bins per feature is
    ``finite_bins + 1``. Construction raises InvalidParameter unless
    ``max_bins`` is an integer of at least 2 and every boundary array is
    1-D, NaN-free, strictly ascending and at most ``max_bins - 1`` long (as
    fit_bins writes them), however the mapper is made.

    Computed once, read-only: ``finite_bin_counts``; ``n_bins_max``, the
    most bins of any feature, missing bin included, which is the width of
    every histogram row; and ``splittable``, the (d, n_bins_max) mask of the
    bins b after which a split may fall (bins <= b go left). The last finite
    bin, the missing bin and the padding past a feature's bins are not.
    """

    boundaries: tuple[np.ndarray, ...]
    max_bins: int
    finite_bin_counts: np.ndarray = field(init=False, repr=False, compare=False)
    n_bins_max: int = field(init=False, repr=False, compare=False)
    splittable: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if isinstance(self.max_bins, bool) or not hasattr(self.max_bins, "__index__"):
            raise InvalidParameter(f"max_bins must be an integer, got {self.max_bins!r}")
        if self.max_bins < 2:
            raise InvalidParameter("max_bins must be >= 2")
        boundaries = tuple(read_only(cuts, np.float64, f"feature {f} boundaries")
                           for f, cuts in enumerate(self.boundaries))
        for f, cuts in enumerate(boundaries):
            if cuts.ndim != 1 or np.isnan(cuts).any() or not (cuts[1:] > cuts[:-1]).all():
                raise InvalidParameter(f"feature {f} boundaries must be 1-D and ascend strictly")
            if cuts.size >= self.max_bins:
                raise InvalidParameter(f"feature {f} has more finite bins than max_bins")
        finite = np.array([len(b) + 1 for b in boundaries], dtype=np.int64)
        n_bins_max = int(finite.max(initial=0)) + 1
        vars(self).update(  # frozen: set past __setattr__
            boundaries=boundaries, finite_bin_counts=read_only(finite), n_bins_max=n_bins_max,
            splittable=read_only(np.arange(n_bins_max) < finite[:, None] - 1))

    __reduce__ = rebuilt_by_init

    @property
    def n_features(self) -> int:
        return len(self.boundaries)

    @property
    def bin_counts(self) -> np.ndarray:
        """Total bins per feature, missing bin included."""
        return self.finite_bin_counts + 1

    def empty_binned(self, m: int) -> np.ndarray:
        """Uninitialised (m, d) bin matrix in the one layout every reader
        expects: column-major, so each feature's bins are contiguous, in the
        narrowest unsigned dtype that holds every bin index."""
        dtype = np.uint8 if self.n_bins_max <= 256 else np.uint32
        return np.empty((m, self.n_features), dtype=dtype, order="F")

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinMapper):
            return NotImplemented
        return self.max_bins == other.max_bins and len(self.boundaries) == len(
            other.boundaries
        ) and all(np.array_equal(a, b) for a, b in zip(self.boundaries, other.boundaries))


def fit_bins(table: RawTable, max_bins: int = DEFAULT_MAX_BINS) -> BinMapper:
    """Fit quantile bin boundaries per feature over the non-NaN values.

    Each feature costs one sort of its column. A feature with k <= max_bins
    distinct values gets exactly k bins, one per value. Otherwise boundaries
    are the (j / max_bins)-quantiles for j = 1..max_bins-1, read off the
    sorted values with numpy's ``'linear'`` rule (``_sorted_quantiles``),
    deduplicated, and trimmed below the feature maximum so the top bin is
    never empty on the fitting data. A constant (or all-missing) feature
    yields a single finite bin. A zero boundary is always +0.0, whichever
    zeros the column holds.
    """
    mapper = BinMapper(boundaries=(), max_bins=max_bins)  # checks max_bins before any sort
    probs = np.arange(1, max_bins) / max_bins
    boundaries = []
    for f in range(table.d):
        vals = np.sort(table.features[:, f])
        vals = vals[:np.searchsorted(vals, np.nan)]  # NaN sorts last
        # run_ends[i]: vals[i] ends a run of equal values. The largest
        # value's run is left out, so there are count + 1 distinct values.
        run_ends = vals[1:] != vals[:-1]
        if np.count_nonzero(run_ends) < max_bins:
            cuts = vals[:-1][run_ends]  # every distinct value but the largest
        else:
            # A quantile between two infinities interpolates through
            # inf - inf = NaN. A NaN cut would break the ascending order;
            # it fails ``cuts < vals[-1]`` and is dropped.
            cuts = np.unique(_sorted_quantiles(vals, probs))
            cuts = cuts[cuts < vals[-1]]
        # Which zero a run or a quantile ends on depends on how the sort
        # orders equal keys; + 0.0 folds -0.0 into +0.0.
        boundaries.append(cuts + 0.0)
    return replace(mapper, boundaries=tuple(boundaries))


def _sorted_quantiles(vals: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """``np.quantile(vals, probs)`` of ascending, NaN-free ``vals`` (at least
    two of them) for ``probs`` in [0, 1), bit for bit but the sign of a
    zero: numpy's ``'linear'`` rule read straight off the sorted values, with
    neither its copy nor its partition. Since q < 1, (n - 1) * q stays below
    n - 1, so ``lo + 1`` indexes a value."""
    pos = (vals.size - 1) * probs
    lo = np.floor(pos)
    t = pos - lo
    lo = lo.astype(np.intp)
    a, b = vals[lo], vals[lo + 1]
    with np.errstate(invalid="ignore"):  # inf - inf, and inf * 0
        diff = b - a
        return np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)


@dataclass(frozen=True, eq=False)
class Dataset:
    """A table after binning: integer bin matrix plus untouched labels.

    Computed once, read-only: ``rows_per_bin``, the (d, n_bins_max) float64
    count of the rows in each (feature, bin), which is the count row of a
    histogram over every row. ``dataclasses.replace``, pickle and copy
    compute it anew.
    """

    binned: np.ndarray  # (m, d), laid out as BinMapper.empty_binned makes it
    labels: np.ndarray  # (m, n) float64, column-major after apply_bins
    mapper: BinMapper
    feature_names: tuple[str, ...]
    task_names: tuple[str, ...]
    rows_per_bin: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n_bins = self.mapper.n_bins_max
        rows = np.empty((self.d, n_bins))
        for f in range(self.d):
            rows[f] = np.bincount(self.binned[:, f], minlength=n_bins)
        vars(self).update(rows_per_bin=read_only(rows))  # frozen: set past __setattr__

    __reduce__ = rebuilt_by_init

    @property
    def m(self) -> int:
        return self.binned.shape[0]

    @property
    def d(self) -> int:
        return self.binned.shape[1]

    @property
    def n(self) -> int:
        return self.labels.shape[1]


_CELLS = 1 << 16  # cells of bin_column's lookup table


def _cells(values: np.ndarray) -> np.ndarray:
    """Cell in [0, 2**16) of each value: the top 16 bits of the
    order-preserving key of float32(value) + 0.0.

    The map never decreases as the value grows: rounding to float32 is
    monotone (magnitudes past its range become +-inf), + 0.0 folds -0.0 into
    +0.0, and the key orders float32 bit patterns like their values. So a
    value below another never lands in a higher cell.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        x32 = values.astype(np.float32)
    x32 += 0.0
    key = x32.view(np.int32)
    flip = key >> 31  # all ones for negative floats, which count down
    flip &= 0x7FFFFFFF
    key ^= flip
    key >>= 16
    cells = key.astype(np.intp)
    cells += _CELLS // 2
    return cells


def bin_column(values: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """Map raw values of one feature to bin indices (right-closed intervals).

    Finite values below every boundary clamp to bin 0, values above every
    boundary clamp to the top finite bin; NaN maps to the missing bin
    (= number of finite bins).

    The bin is the number of cuts below the value. Since ``_cells`` never
    decreases, every cut in a lower cell than the value's is below it and
    every cut in a higher cell is not; ``below[c]`` counts the cuts in cells
    under ``c``, and one comparison with the next cut adds the cut of the
    value's own cell. Rows with a second cut of their cell below them go
    through searchsorted; only when some cell holds two cuts can there be
    any, so only then does a second comparison look for them.

    Cuts are quantiles, so about as many rows fall above each cut. When more
    than half of the cuts share a cell with a lower cut, most rows would go
    through searchsorted after paying for the table, and the whole column
    goes through searchsorted instead.
    """
    values = np.ascontiguousarray(values)  # read up to four times below
    cut_cells, first = np.unique(_cells(cuts), return_index=True)
    if 2 * len(cut_cells) < len(cuts):
        bins = np.searchsorted(cuts, values, side="left")
    else:
        # below[c] is first[k] for c in (cut_cells[k-1], cut_cells[k]], and
        # len(cuts) past the last cut's cell.
        below = np.repeat(
            np.append(first, len(cuts)), np.diff(cut_cells, prepend=-1, append=_CELLS - 1)
        )
        padded = np.append(cuts, np.inf)  # bins never pass len(cuts)
        bins = below.take(_cells(values))
        bins += padded.take(bins) < values
        if len(cut_cells) < len(cuts):  # else the next cut is in a higher cell
            crowded = padded.take(bins) < values
            if crowded.any():
                bins[crowded] = np.searchsorted(cuts, values[crowded], side="left")
    bins[np.isnan(values)] = len(cuts) + 1
    return bins


def apply_bins(table: RawTable, mapper: BinMapper) -> Dataset:
    """Bin every feature of ``table`` with a fitted mapper."""
    if table.d != mapper.n_features:
        raise DimensionMismatch(
            f"table has {table.d} features, mapper was fitted on {mapper.n_features}"
        )
    binned = mapper.empty_binned(table.m)
    for f in range(table.d):
        binned[:, f] = bin_column(table.features[:, f], mapper.boundaries[f])
    return Dataset(
        binned=binned,
        labels=table.labels.copy(order="F"),
        mapper=mapper,
        feature_names=table.feature_names,
        task_names=table.task_names,
    )
