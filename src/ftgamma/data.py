"""Sample container, dataset file parsing, and the bundled example data."""

from __future__ import annotations

import io
import math
import warnings
from array import array
from dataclasses import dataclass
from importlib import resources

import numpy as np


class DataError(ValueError):
    """Input data could not be parsed or violates basic requirements."""


def _refused(v: np.ndarray) -> np.ndarray:
    """The entries no Sample holds: NaN, infinities and negatives."""
    return ~np.isfinite(v) | (v < 0.0)


@dataclass(frozen=True)
class Sample:
    """Nonnegative exceedance observations: the one container for every
    dataset, whether bundled, read from a file, resampled or simulated. The
    values are a read-only 1-d float copy.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise DataError("sample must be a nonempty 1-d collection")
        refused = _refused(v)
        if refused.any():
            what = "negative" if np.isfinite(v[refused]).all() else "non-finite"
            raise DataError(f"sample contains {what} values")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @classmethod
    def coerce(cls, x) -> "Sample":
        if isinstance(x, Sample):
            return x
        return cls(np.asarray(x, dtype=float))

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def mean(self) -> float:
        return float(self.values.mean())

    def sorted(self) -> np.ndarray:
        return np.sort(self.values)

    def resample(self, gen: np.random.Generator) -> "Sample":
        idx = gen.integers(0, len(self), size=len(self))
        return Sample(self.values[idx])


def _try_float(token: str) -> float | None:
    try:
        return float(token)
    except ValueError:
        return None


def _scan(fh, path, start: int, col: int | None) -> Sample:
    """Read the file again one line at a time with float(), for a file that
    NumPy's reader or Sample refused: either name its bad lines or return
    the values of tokens only float() reads (``1_000``, non-ASCII digits).
    """
    fh.seek(0)
    values, linenos = array("d"), array("q")
    for lineno, line in enumerate(fh, 1):
        if lineno <= start or not line.strip():
            continue
        if col is not None:
            fields = line.split(",")
            # a row without the column gives "", which float() rejects
            line = fields[col] if -len(fields) <= col < len(fields) else ""
        v = _try_float(line)
        values.append(math.nan if v is None else v)  # unparseable: a NaN, refused
        linenos.append(lineno)
    if not values:
        raise DataError(f"{path}: no parseable values")
    bad = np.frombuffer(linenos, dtype=np.int64)[_refused(np.frombuffer(values))]
    if bad.size:
        head = ", ".join(map(str, bad[:10]))
        raise DataError(
            f"{path}: {bad.size} unparseable/non-finite/negative entries "
            f"(lines {head}{', ...' if bad.size > 10 else ''})"
        )
    return Sample(np.frombuffer(values))


def read_dataset(path: str, column: int | str | None = None) -> Sample:
    """Parse a plain or CSV loss file into a Sample of nonnegative values.

    Plain files hold one number per line; CSV files one column of numbers
    (selected by index or header name, default first). Blank lines are
    skipped. Unparseable, non-finite or negative entries, and CSV rows
    without the column, are rejected with their line numbers; lines end at
    newlines, read in universal-newline mode (\\n, \\r\\n or \\r).

    NumPy's text reader parses the open file a line at a time, and a number
    it reads has the bits float() gives. Only a file that it or Sample
    refuses is read again, line by line with float(), to name the bad lines
    or to read the tokens that only float() reads. A file that is not
    UTF-8 text is refused.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            if not fh.seekable():
                # a pipe cannot be rewound after the sniff or for the line scan
                fh = io.StringIO(fh.read())
            # the CSV sniff reads the first five lines
            head = [fh.readline() for _ in range(5)]
            is_csv = str(path).lower().endswith(".csv") or any("," in ln for ln in head)
            col, start = None, 0
            if is_csv:
                col = column if isinstance(column, int) else 0
                header = [t.strip() for t in head[0].split(",")] if head[0] else []
                if isinstance(column, str):
                    if column not in header:
                        raise DataError(f"column {column!r} not found in {path}")
                    col = header.index(column)
                    start = 1
                elif header and _try_float(header[min(col, len(header) - 1)]) is None:
                    start = 1  # unnamed numeric column under a header row
            fh.seek(0)
            try:
                with warnings.catch_warnings():
                    # NumPy warns of a file without data rows; it is refused below
                    warnings.simplefilter("ignore", UserWarning)
                    # the handle, not the path: NumPy would open a path itself,
                    # decompressing .gz/.bz2/.xz and fetching URLs; squeeze(1)
                    # refuses rows of several whitespace-split fields, where
                    # ndmin=1 would read a lone row "1 2" as the values 1 and 2
                    values = np.loadtxt(fh, delimiter=None if col is None else ",",
                                        usecols=col, skiprows=start, comments=None,
                                        ndmin=2).squeeze(1)
                return Sample(values)
            # DataError is a ValueError; a column index past any int64 overflows
            except (ValueError, OverflowError):
                return _scan(fh, path, start, col)
    # a ValueError, which would pass for a bad request rather than bad data
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None


def load_external_fraud() -> Sample:
    """The bundled example dataset: 40 operational-loss exceedances
    (corporate-finance business line, external-fraud event type), scaled to
    threshold zero and sample mean 100."""
    data = resources.files("ftgamma").joinpath("data/external_fraud.txt")
    with resources.as_file(data) as path:
        return read_dataset(path)
