"""Datasets, CSV parsing, and atomic file output.

CSV conventions: UTF-8 (a leading BOM is allowed), comma separated,
optional single header row (auto-detected: a first row with any cell that
does not parse as a number is treated as headers). A cell takes any syntax
``float()`` accepts. Parse errors report 1-based row and column positions,
counting the header row as row 1 when present.

A plain numeric file (no header, no quotes, ASCII cells) is parsed by
numpy's C reader, which converts each cell with the same correctly rounded
parser ``float()`` uses and so gives the same bits. Whatever it refuses goes
through the csv module, the one place that detects headers, accepts the
rest of ``float()``'s syntax (``1_000``, non-ASCII digits, quoted cells)
and locates bad cells. A file that is not UTF-8, or a JSON input that does
not parse, is a ``DataValidationError`` naming the path.

Floats are written with 17 significant digits so that write -> read is
bit-exact for every finite double. All file writes go through a temp file
in the target directory followed by an atomic rename, so readers never see
a partially written artifact.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataValidationError
from .families import GlmFamily, validate_response


@dataclass
class Dataset:
    """A design matrix x (n x p) and response matrix y (n x M)."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.x = np.ascontiguousarray(np.asarray(self.x, dtype=float))
        self.y = np.ascontiguousarray(np.asarray(self.y, dtype=float))
        if self.x.ndim != 2 or self.y.ndim != 2:
            raise DataValidationError("x and y must both be 2-dimensional")
        if self.x.shape[0] != self.y.shape[0]:
            raise DataValidationError(
                f"x has {self.x.shape[0]} rows but y has {self.y.shape[0]}"
            )
        if self.x.shape[0] < 2:
            raise DataValidationError("need at least 2 observations")
        if self.x.shape[1] < 1 or self.y.shape[1] < 1:
            raise DataValidationError("x and y must each have at least one column")
        if not np.all(np.isfinite(self.x)):
            raise DataValidationError("x contains non-finite entries")
        if not np.all(np.isfinite(self.y)):
            raise DataValidationError("y contains non-finite entries")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    @property
    def m_dim(self) -> int:
        return self.y.shape[1]


def read_csv_table(path) -> np.ndarray:
    """Read a numeric CSV as a float matrix, skipping an auto-detected header row."""
    try:
        with open(path, encoding="utf-8-sig") as fh, warnings.catch_warnings():
            # an empty file is reported by the csv path below, not as a warning
            warnings.simplefilter("ignore", UserWarning)
            table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        if table.size:
            return table
    except ValueError:  # header, quotes, non-ASCII cells, bad cells, not UTF-8
        pass
    return _read_csv_rows(path)


def _read_csv_rows(path) -> np.ndarray:
    """The csv-module reader: header detection, float() syntax, bad cells located."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            raw = [row for row in csv.reader(fh) if row]
    except UnicodeDecodeError as exc:
        raise DataValidationError(
            f"{path}: not UTF-8 text (cannot decode byte 0x{exc.object[exc.start]:02x})"
        ) from None
    if not raw:
        raise DataValidationError(f"{path}: file is empty")

    headers = None
    start = 0
    first = [c.strip() for c in raw[0]]
    try:
        [float(c) for c in first]
    except ValueError:
        headers = first
        start = 1
        if len(raw) == 1:
            raise DataValidationError(f"{path}: no data rows after header")

    rows = raw[start:]
    width = len(rows[0])
    for i, row in enumerate(rows, start + 1):
        if len(row) != width:
            raise DataValidationError(f"{path}: row {i} has {len(row)} cells, expected {width}")
    if headers is not None and len(headers) != width:
        raise DataValidationError(
            f"{path}: header has {len(headers)} cells, data rows have {width}"
        )
    try:
        # the cast parses each cell with float(), so it accepts what float() does
        return np.asarray(rows, dtype=float)
    except ValueError:
        for i, row in enumerate(rows, start + 1):
            for j, cell in enumerate(row, 1):
                try:
                    float(cell)
                except ValueError:
                    raise DataValidationError(
                        f"{path}: row {i}, column {j}: could not parse {cell.strip()!r} "
                        "as a number"
                    ) from None
        raise


def load_dataset(x_path, y_path, family: GlmFamily) -> Dataset:
    """Load x and y CSVs into a validated Dataset."""
    x = read_csv_table(x_path)
    y = read_csv_table(y_path)
    if x.shape[0] != y.shape[0]:
        raise DataValidationError(
            f"{x_path} has {x.shape[0]} data rows but {y_path} has {y.shape[0]}"
        )
    data = Dataset(x, y)
    validate_response(family, data.y)
    return data


# ---------------------------------------------------------------------------
# writing


def _format_float(v) -> str:
    return format(float(v), ".17g")


def atomic_write_text(path, text: str) -> None:
    """Write text to ``path`` via temp-file-then-rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_matrix_csv(path, matrix) -> None:
    """Write a matrix as CSV with 17-significant-digit floats, atomically."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    lines = [",".join(_format_float(v) for v in row) for row in matrix]
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_csv_rows(path, fieldnames, rows) -> None:
    """Write dict rows as CSV atomically; floats get 17 significant digits."""
    import io as _io

    buf = _io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        formatted = {
            k: _format_float(v) if isinstance(v, float) else v for k, v in row.items()
        }
        writer.writerow(formatted)
    atomic_write_text(path, buf.getvalue())


def write_json_atomic(path, obj) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def read_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise DataValidationError(f"{path}: not valid UTF-8 JSON ({exc})") from None


# ---------------------------------------------------------------------------
# JSON matrix encoding: row-major nested lists with explicit dimensions


def matrix_to_json(matrix) -> dict:
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim == 1:
        matrix = matrix[None, :]
    return {
        "dims": [int(matrix.shape[0]), int(matrix.shape[1])],
        "data": [[float(v) for v in row] for row in matrix],
    }


def matrix_from_json(obj, name="matrix") -> np.ndarray:
    try:
        dims = obj["dims"]
        data = obj["data"]
    except (TypeError, KeyError):
        raise DataValidationError(f"{name}: expected an object with dims and data")
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 2 or list(arr.shape) != [int(dims[0]), int(dims[1])]:
        raise DataValidationError(
            f"{name}: declared dims {dims} do not match data shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise DataValidationError(f"{name}: contains non-finite entries")
    return arr
