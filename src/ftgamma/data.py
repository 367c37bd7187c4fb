"""Sample container, dataset file parsing, and the bundled example data."""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources

import numpy as np


class DataError(ValueError):
    """Input data could not be parsed or violates basic requirements."""


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
        if not np.all(np.isfinite(v)):
            raise DataError("sample contains non-finite values")
        if np.any(v < 0.0):
            raise DataError("sample contains negative values")
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


def _csv_field(line: str, col: int) -> str:
    fields = line.split(",")
    # a row without the column yields "", which float() rejects
    return fields[col].strip() if -len(fields) <= col < len(fields) else ""


# lines per block: readlines stops once a block passes this many characters
_BLOCK_HINT = 1 << 16


def _parse_block(block: list[str], first_line: int, csv_col: int | None):
    """Values of one block of lines and the line numbers of its bad entries.

    The whole block goes through float() in one call, which ignores the
    whitespace and line end around each number. Only a block that fails
    there (a blank line, a bad token or a CSV row without the column) is
    parsed line by line; blank lines are skipped, and unparseable,
    non-finite or negative entries are reported by their line numbers
    (counted from first_line).
    """
    tokens = block if csv_col is None else [_csv_field(ln, csv_col) for ln in block]
    linenos = range(first_line, first_line + len(block))
    try:
        # float() on every token in one call: the same bits as a Python loop
        values = np.array(tokens, dtype=np.float64)
    except ValueError:
        kept = [(i, t) for i, ln, t in zip(linenos, block, tokens) if ln.strip()]
        linenos = [i for i, _ in kept]
        # NaN marks the unparseable tokens for the mask below
        values = np.array([math.nan if v is None else v
                           for v in (_try_float(t) for _, t in kept)], dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(values) | (values < 0.0))
    return values, [linenos[i] for i in bad]


def read_dataset(path: str, column: int | str | None = None) -> Sample:
    """Parse a plain or CSV loss file into a Sample of nonnegative values.

    Plain files hold one number per line; CSV files one column of numbers
    (selected by index or header name, default first). Blank lines are
    skipped. Unparseable, non-finite or negative entries, and CSV rows
    without the column, are rejected with their line numbers; lines end at
    newlines, read in universal-newline mode (\\n, \\r\\n or \\r).

    The file is read in blocks of about 64 KiB of lines, each converted in
    one NumPy call, so no list of every line is ever held.
    """
    with open(path, "r", encoding="utf-8") as fh:
        block = fh.readlines(_BLOCK_HINT)
        while 0 < len(block) < 5:
            # the CSV sniff below reads the first five lines
            more = fh.readlines(_BLOCK_HINT)
            if not more:
                break
            block += more
        is_csv = str(path).lower().endswith(".csv") or any("," in ln for ln in block[:5])
        col_idx = 0
        start = 0
        if is_csv:
            if isinstance(column, int):
                col_idx = column
            header = [t.strip() for t in block[0].split(",")] if block else []
            if isinstance(column, str):
                if column not in header:
                    raise DataError(f"column {column!r} not found in {path}")
                col_idx = header.index(column)
                start = 1
            elif header and _try_float(header[min(col_idx, len(header) - 1)]) is None:
                start = 1  # unnamed numeric column under a header row
        parts, bad_lines, n_bad = [], [], 0
        block, lineno = block[start:], start + 1
        while block:
            values, bad = _parse_block(block, lineno, col_idx if is_csv else None)
            parts.append(values)
            n_bad += len(bad)
            bad_lines += bad[:10 - len(bad_lines)]
            lineno += len(block)
            block = fh.readlines(_BLOCK_HINT)
    values = np.concatenate(parts) if parts else np.empty(0)
    if not values.size:
        raise DataError(f"{path}: no parseable values")
    if n_bad:
        head = ", ".join(map(str, bad_lines))
        raise DataError(
            f"{path}: {n_bad} unparseable/non-finite/negative entries "
            f"(lines {head}{', ...' if n_bad > 10 else ''})"
        )
    return Sample(values)


def load_external_fraud() -> Sample:
    """The bundled example dataset: 40 operational-loss exceedances
    (corporate-finance business line, external-fraud event type), scaled to
    threshold zero and sample mean 100."""
    text = resources.files("ftgamma").joinpath("data/external_fraud.txt").read_text()
    vals = [float(tok) for tok in text.split()]
    return Sample(np.asarray(vals))
