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
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyFile,
    InvalidParameter,
    MissingLabelColumn,
    NegativeInput,
    NonNumericLabel,
    ShapeError,
)

DEFAULT_MAX_BINS = 255


@dataclass(frozen=True, eq=False)
class RawTable:
    """In-memory tabular dataset: float features (NaN = missing) and labels."""

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


def _read_columns(path):
    """Header, row count and cell columns of a CSV with a header row. Raises
    EmptyFile without a header or a data row, and ShapeError on the first
    row whose cell count differs from the header's."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise EmptyFile(f"{path}: no header row")
    header = rows.pop(0)
    if not rows:
        raise EmptyFile(f"{path}: no data rows")
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise ShapeError(f"row {i + 2} has {len(row)} cells, header has {len(header)}")
    # A file of blank lines has rows but no columns, so count the rows.
    return header, len(rows), list(zip(*rows))


def load_csv(path, label_columns, missing_token: str = "") -> RawTable:
    """Read an RFC-4180 CSV with header into a RawTable.

    Columns named in ``label_columns`` become the label matrix (in the given
    order); every other column becomes a feature, in header order. Feature
    cells equal to ``missing_token`` or unparsable as numbers turn into NaN.
    Label cells must parse as finite numbers.
    """
    header, m, columns = _read_columns(path)
    for name in label_columns:
        if name not in header:
            raise MissingLabelColumn(f"label column {name!r} not in header")
    label_idx = [header.index(name) for name in label_columns]
    feat_idx = [j for j in range(len(header)) if j not in set(label_idx)]
    if not feat_idx:
        raise ShapeError("every column is a label; no features left")

    labels = _parse_columns([columns[j] for j in label_idx], m, None)
    bad = np.argwhere(~np.isfinite(labels.T))  # label column by label column
    if bad.size:
        t, i = bad[0]
        cell = columns[label_idx[t]][i]
        try:
            float(cell)
            detail = "non-finite label"
        except ValueError:
            detail = f"{cell!r} is not a number"
        raise NonNumericLabel(f"row {i + 2}, column {label_columns[t]!r}: {detail}")
    return RawTable(
        features=_parse_columns([columns[j] for j in feat_idx], m, missing_token),
        labels=labels,
        feature_names=tuple(header[j] for j in feat_idx),
        task_names=tuple(label_columns),
    )


def _parse_columns(columns, m: int, missing_token) -> np.ndarray:
    """(m, k) float matrix of k cell columns, parsed a column at a time. Cells
    equal to ``missing_token`` (``None`` matches none) or rejected by
    ``float()`` become NaN; the rest, in Python float syntax, their value."""
    matrix = np.empty((m, len(columns)), dtype=np.float64)
    for j, cells in enumerate(columns):
        if missing_token not in cells:
            try:
                matrix[:, j] = np.fromiter(map(float, cells), np.float64, m)
                continue
            except ValueError:
                pass
        matrix[:, j] = [_parse_feature(cell, missing_token) for cell in cells]
    return matrix


def _parse_feature(cell: str, missing_token: str) -> float:
    if cell == missing_token:
        return math.nan
    try:
        return float(cell)
    except ValueError:
        return math.nan


def read_feature_matrix(path, missing_token: str = ""):
    """Read a whole CSV as a float feature matrix (no label columns).

    Returns (matrix, column_names). Unparsable cells become NaN; used for
    prediction inputs where extra columns are simply ignored downstream.
    """
    header, m, columns = _read_columns(path)
    return _parse_columns(columns, m, missing_token), tuple(header)


def write_csv(table: RawTable, path) -> None:
    """Write a RawTable back to CSV (features first, then label columns).

    Floats are rendered with ``repr`` so the file is byte-deterministic and
    round-trips exactly; NaN is an empty cell.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([*table.feature_names, *table.task_names])
        for features, labels in zip(table.features, table.labels):
            row = features.tolist() + labels.tolist()
            writer.writerow(["" if math.isnan(v) else repr(v) for v in row])


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


@dataclass(frozen=True)
class BinMapper:
    """Per-feature bin boundaries fitted on a training table.

    ``boundaries[f]`` holds the strictly increasing upper boundaries of the
    finite bins (length = finite_bins - 1; the topmost finite bin has no upper
    boundary and catches everything above). The missing bin sits at index
    ``finite_bins``, so total bins per feature is ``finite_bins + 1``.
    """

    boundaries: tuple[np.ndarray, ...]
    max_bins: int

    @property
    def n_features(self) -> int:
        return len(self.boundaries)

    @property
    def finite_bin_counts(self) -> np.ndarray:
        return np.array([len(b) + 1 for b in self.boundaries], dtype=np.int64)

    @property
    def bin_counts(self) -> np.ndarray:
        """Total bins per feature, missing bin included."""
        return self.finite_bin_counts + 1

    def empty_binned(self, m: int) -> np.ndarray:
        """Uninitialised (m, d) bin matrix in the one layout every reader
        expects: column-major, so each feature's bins are contiguous, in the
        narrowest unsigned dtype that holds every bin index."""
        dtype = np.uint8 if int(self.bin_counts.max(initial=0)) <= 256 else np.uint32
        return np.empty((m, self.n_features), dtype=dtype, order="F")

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinMapper):
            return NotImplemented
        return self.max_bins == other.max_bins and len(self.boundaries) == len(
            other.boundaries
        ) and all(np.array_equal(a, b) for a, b in zip(self.boundaries, other.boundaries))


def fit_bins(table: RawTable, max_bins: int = DEFAULT_MAX_BINS) -> BinMapper:
    """Fit quantile bin boundaries per feature over the non-NaN values.

    A feature with k <= max_bins distinct values gets exactly k bins, one per
    value. Otherwise boundaries are the (j / max_bins)-quantiles for
    j = 1..max_bins-1, linearly interpolated, deduplicated, and trimmed below
    the feature maximum so the top bin is never empty on the fitting data.
    A constant (or all-missing) feature yields a single finite bin.
    """
    if max_bins < 2:
        raise InvalidParameter("max_bins must be >= 2")
    boundaries = []
    for f in range(table.d):
        col = table.features[:, f]
        vals = col[~np.isnan(col)]
        if vals.size == 0:
            boundaries.append(np.empty(0, dtype=np.float64))
            continue
        distinct = np.unique(vals)
        if distinct.size <= max_bins:
            cuts = distinct[:-1]
        else:
            probs = np.arange(1, max_bins) / max_bins
            # A quantile between two infinities interpolates through
            # inf - inf = NaN. A NaN cut would break the ascending order;
            # it fails ``cuts < distinct[-1]`` and is dropped below.
            with np.errstate(invalid="ignore"):
                cuts = np.unique(np.quantile(vals, probs))
            cuts = cuts[cuts < distinct[-1]]
        boundaries.append(np.ascontiguousarray(cuts, dtype=np.float64))
    return BinMapper(boundaries=tuple(boundaries), max_bins=max_bins)


@dataclass(frozen=True, eq=False)
class Dataset:
    """A table after binning: integer bin matrix plus untouched labels."""

    binned: np.ndarray  # (m, d), laid out as BinMapper.empty_binned makes it
    labels: np.ndarray  # (m, n) float64, column-major after apply_bins
    mapper: BinMapper
    feature_names: tuple[str, ...]
    task_names: tuple[str, ...]

    @property
    def m(self) -> int:
        return self.binned.shape[0]

    @property
    def d(self) -> int:
        return self.binned.shape[1]

    @property
    def n(self) -> int:
        return self.labels.shape[1]


def bin_column(values: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """Map raw values of one feature to bin indices (right-closed intervals).

    Finite values below every boundary clamp to bin 0, values above every
    boundary clamp to the top finite bin; NaN maps to the missing bin
    (= number of finite bins).
    """
    bins = np.searchsorted(cuts, values, side="left")
    missing = np.isnan(values)
    bins[missing] = len(cuts) + 1
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
