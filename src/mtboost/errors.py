"""Exception types raised by the library.

Every error is a subclass of :class:`MtboostError`, so callers can catch the
whole family with one clause. Most also inherit ``ValueError`` because they
signal bad inputs rather than internal failures.
"""


class MtboostError(Exception):
    """Base class for all library errors."""


class MissingLabelColumn(MtboostError, KeyError):
    """A requested label column is absent from the CSV header."""


class NonNumericLabel(MtboostError, ValueError):
    """A label cell failed to parse as a finite number."""


class EmptyFile(MtboostError, ValueError):
    """The CSV has no header or no data rows."""


class MalformedCsv(MtboostError, ValueError):
    """A CSV is not UTF-8 text, or a cell is longer than csv's field limit."""


class NegativeInput(MtboostError, ValueError):
    """A value outside the domain of the log transform."""


class ShapeError(MtboostError, ValueError):
    """A table's rows, columns or name lists disagree, e.g. a ragged CSV row."""


class DimensionMismatch(MtboostError, ValueError):
    """Feature count of a table does not match the fitted bin mapper."""


class LengthMismatch(MtboostError, ValueError):
    """Label and score vectors have different lengths."""


class ShapeMismatch(MtboostError, ValueError):
    """Label and score matrices have different shapes."""


class NonFiniteGradient(MtboostError, ValueError):
    """Gradients, hessians or their weighted combination are not finite."""


class LabelOverflow(MtboostError, ValueError):
    """A task's label mean or loss overflows float64: the labels are too large."""


class EmptyLeaf(MtboostError, RuntimeError):
    """A leaf received no samples; indicates a routing bug."""


class EmptyDataset(MtboostError, ValueError):
    """Training was asked to run on zero rows."""


class MapperMismatch(MtboostError, ValueError):
    """Validation data was binned with a different mapper than training data."""


class FeatureCountMismatch(MtboostError, ValueError):
    """Prediction input does not provide the model's feature columns."""


class TaskIndexOutOfRange(MtboostError, IndexError):
    """Requested task index is not within [0, n_tasks)."""


class FormatVersionMismatch(MtboostError, ValueError):
    """Model file has an unknown version marker or is truncated/corrupt."""


class ZeroLabelInMape(MtboostError, ValueError):
    """MAPE is undefined when a true label is zero."""


class SingleClass(MtboostError, ValueError):
    """ROC-AUC needs at least one positive and one negative label."""


class InvalidSpec(MtboostError, ValueError):
    """Synthetic dataset specification violates its invariants."""


class TooFewSamples(MtboostError, ValueError):
    """Not enough rows to form the requested folds."""


class InvalidParameter(MtboostError, ValueError):
    """A training parameter, or its combination with the data, is invalid."""


class ConfigError(MtboostError, ValueError):
    """Config file problem; message carries file, line and key."""

    def __init__(self, message: str, *, path: str = "", line: int = 0, key: str = ""):
        super().__init__(message)
        self.path = path
        self.line = line
        self.key = key
