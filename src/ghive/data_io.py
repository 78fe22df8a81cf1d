"""Datasets, CSV parsing, and atomic file output.

CSV conventions: UTF-8 (a leading BOM is allowed), comma separated,
optional single header row (auto-detected: a first row with any cell that
does not parse as a number is treated as headers). A cell takes any syntax
``float()`` accepts. Parse errors report 1-based row and column positions,
counting the header row as row 1 when present.

A plain numeric file is parsed by orjson, in chunks of whole lines of about
32 KiB (some 1,600 cells of 17-digit numbers), each passed to
``orjson.loads`` as one JSON array of rows. orjson's number parser is
correctly rounded, as ``float()`` is, so the two give the same bits. A chunk
takes this path only if it holds nothing but ASCII digits, ``+-.eE``,
commas, spaces, tabs and line ends; has no integer ``-0`` cell (orjson reads
it as the int 0 and drops the sign); and its rows, like every other chunk's,
hold the same number of cells. Lines left empty by LF, CRLF or CR endings
are skipped, as ``csv.reader`` skips them. Any file with a chunk that fails
goes through the csv module instead, the one place that detects headers,
accepts the rest of ``float()``'s syntax (``1_000``, ``.5``, ``+1``,
non-ASCII digits, quoted cells) and locates bad cells. A file that is not
UTF-8, or a JSON input that does not parse, is a ``DataValidationError``
naming the path.

Floats are written with 17 significant digits so that write -> read is
bit-exact for every finite double. All file writes go through a temp file
in the target directory followed by an atomic rename, so readers never see
a partially written artifact.

JSON documents (fits, intervals, configs, oracle summaries) are written and
read by orjson, whose output stdlib ``json`` reads to the same values, floats
bit for bit. The stdlib codec takes over only where orjson cannot represent a
document exactly. A writer hands it an object holding a non-finite float
(orjson would write ``null``; the stdlib writes ``Infinity`` or ``NaN``, which
Python reads back but strict parsers refuse) or an integer beyond 64 bits
(orjson raises). A reader hands it a file orjson refuses (the ``NaN`` and
``Infinity`` tokens among them, and a leading BOM, which it skips) or one
holding an integer literal of 19 or more digits, which orjson may return as
a float. Writers never write a BOM.
"""

from __future__ import annotations

import codecs
import csv
import io
import json
import os
import re
import tempfile
from dataclasses import dataclass

import numpy as np
import orjson

from .errors import DataValidationError, require_finite_array


@dataclass
class Dataset:
    """A design matrix x (n x p) and response matrix y (n x M)."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.x = np.ascontiguousarray(require_finite_array("x", self.x))
        self.y = np.ascontiguousarray(require_finite_array("y", self.y))
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
    table = _read_plain_numbers(path)
    return _read_csv_rows(path) if table is None else table


# what a chunk may hold to take the orjson path: no quotes, no letters that
# could spell true/false/null, nothing non-ASCII
_PLAIN_BYTES = b"0123456789+-.eE, \t\r\n"
# an integer -0 cell, which orjson returns as the int 0
_INTEGER_MINUS_ZERO = re.compile(rb"-0(?![.eE\d])")
# larger chunks parse no faster and hold more memory while they do
_CHUNK_BYTES = 1 << 15


def _line_chunks(fh):
    """Yield a binary file's bytes, a leading BOM dropped, in chunks of whole
    lines of about _CHUNK_BYTES each."""
    tail = fh.read(len(codecs.BOM_UTF8)).removeprefix(codecs.BOM_UTF8)
    while True:
        # read at least as much as the unfinished line holds, so that a line
        # longer than a chunk is copied a bounded number of times
        data = fh.read(max(_CHUNK_BYTES, len(tail)))
        chunk = tail + data
        cut = max(chunk.rfind(b"\n"), chunk.rfind(b"\r")) + 1 if data else len(chunk)
        yield chunk[:cut]
        if not data:
            return
        tail = chunk[cut:]


def _read_plain_numbers(path):
    """The orjson path: the table, or None if any chunk is not plain numbers
    in rows of one width."""
    out, rows = None, 0
    with open(path, "rb") as fh:
        for chunk in _line_chunks(fh):
            if chunk.translate(None, _PLAIN_BYTES):
                return None
            lines = list(filter(None, chunk.splitlines()))  # as csv.reader skips them
            if not lines:
                continue
            try:
                block = np.array(orjson.loads(b"[[" + b"],[".join(lines) + b"]]"), dtype=float)
            except ValueError:  # not JSON numbers, or rows of different widths
                return None
            # only a chunk with a zero cell can hold an integer -0
            if not block.all() and _INTEGER_MINUS_ZERO.search(chunk):
                return None
            if out is None:
                out = np.empty((0, block.shape[1]))
            if block.shape[1] != out.shape[1] or not block.size:
                return None
            end = rows + len(block)
            if end > len(out):  # grow in place, doubling
                out.resize((max(end, 2 * len(out)), out.shape[1]), refcheck=False)
            out[rows:end] = block
            rows = end
    if out is not None:
        out.resize((rows, out.shape[1]), refcheck=False)
    return out


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

    try:
        [float(c) for c in raw[0]]
        start = 0
    except ValueError:  # a header row
        start = 1
        if len(raw) == 1:
            raise DataValidationError(f"{path}: no data rows after header")
    rows = raw[start:]
    width = len(rows[0])
    for i, row in enumerate(rows, start + 1):
        if len(row) != width:
            raise DataValidationError(f"{path}: row {i} has {len(row)} cells, expected {width}")
    if start and len(raw[0]) != width:
        raise DataValidationError(f"{path}: header has {len(raw[0])} cells, data rows have {width}")
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


def load_dataset(x_path, y_path) -> Dataset:
    """Load x and y CSVs into a Dataset; fits and intervals check the family support."""
    x = read_csv_table(x_path)
    y = read_csv_table(y_path)
    if x.shape[0] != y.shape[0]:
        raise DataValidationError(
            f"{x_path} has {x.shape[0]} data rows but {y_path} has {y.shape[0]}"
        )
    return Dataset(x, y)


# ---------------------------------------------------------------------------
# writing


def _format_float(v) -> str:
    return format(float(v), ".17g")


def atomic_write_text(path, text) -> None:
    """Write text, a str or its UTF-8 bytes, to ``path`` via temp-file-then-rename."""
    data = text.encode("utf-8") if isinstance(text, str) else text
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
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
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        formatted = {
            k: _format_float(v) if isinstance(v, float) else v for k, v in row.items()
        }
        writer.writerow(formatted)
    atomic_write_text(path, buf.getvalue())


def write_json_atomic(path, obj) -> None:
    """Write ``obj`` as JSON, two-space indented with sorted keys, atomically:
    by orjson, unless it refuses ``obj`` (an integer beyond 64 bits) or its
    output does not read back to ``obj`` (a non-finite float becomes
    ``null``), where the stdlib encoder writes it."""
    try:
        data = orjson.dumps(
            obj, option=orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY
        )
    except orjson.JSONEncodeError:
        data = None
    if data is None or orjson.loads(data) != obj:
        data = json.dumps(obj, indent=2, sort_keys=True).encode("utf-8")
    atomic_write_text(path, data + b"\n")


def read_json(path):
    """The JSON document at ``path``: read by orjson, unless it refuses the
    bytes or they hold an integer literal of 19 or more digits, where the
    stdlib decoder reads them. A leading UTF-8 BOM, which orjson refuses, is
    skipped (RFC 8259 lets a parser ignore one, and the CSV readers do). Bad
    JSON or UTF-8 is a DataValidationError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    # every digit read as 0, whitespace dropped: a run of 19 zeros not preceded
    # by "." is an integer literal orjson may return as a float (from
    # -9223372036854775809 down, and from 2**64 up); fraction digits may run long
    zeros, run = raw.translate(bytes.maketrans(b"123456789", b"0" * 9), b" \t\r\n"), b"0" * 19
    if zeros.count(run) == zeros.count(b"." + run):
        try:
            return orjson.loads(raw)
        except orjson.JSONDecodeError:
            pass
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return json.load(fh)
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise DataValidationError(f"{path}: not valid UTF-8 JSON ({exc})") from None


# ---------------------------------------------------------------------------
# JSON matrix encoding: row-major nested lists with explicit dimensions


def matrix_to_json(matrix: np.ndarray) -> dict:
    return {"dims": list(matrix.shape), "data": matrix.tolist()}


def matrix_from_json(obj, name="matrix", shape=None) -> np.ndarray:
    """The finite matrix an object of :func:`matrix_to_json` holds, of
    ``shape`` where given; anything else is a DataValidationError naming it."""
    try:
        dims = obj["dims"]
        data = obj["data"]
    except (TypeError, KeyError):
        raise DataValidationError(f"{name}: expected an object with dims and data")
    if not (isinstance(dims, list) and len(dims) == 2 and all(type(d) is int for d in dims)
            and min(dims) >= 0):  # a bool is not an int here
        raise DataValidationError(f"{name}: dims must be two non-negative integers: {dims!r}")
    arr = require_finite_array(name, data)
    if arr.ndim != 2 or list(arr.shape) != dims:
        raise DataValidationError(
            f"{name}: declared dims {dims} do not match data shape {arr.shape}"
        )
    if shape is not None and arr.shape != shape:
        raise DataValidationError(f"{name} has shape {arr.shape}, expected {shape}")
    return arr
