"""Datasets, CSV parsing, and atomic file output.

CSV conventions: UTF-8 (a leading BOM is allowed), comma separated,
optional single header row (auto-detected: a first row with any cell that
does not parse as a number is treated as headers). A cell takes any syntax
``float()`` accepts. Parse errors report 1-based row and column positions,
counting the header row as row 1 when present.

A plain numeric file is parsed by orjson, in chunks of whole lines of about
32 KiB (some 1,600 cells of 17-digit numbers), each passed to
``orjson.loads`` as one JSON array of rows. orjson's number parser is
correctly rounded, as ``float()`` is, so the two give the same bits. One
``np.array(rows, dtype=float)`` call turns the parsed rows (Python floats,
and ints, which it converts as ``float()`` does) into the chunk's block, and
refuses rows of different widths. A chunk holding a ``"``, ``[``, ``]`` or
``{``, or a ``u`` or an ``a``, goes straight to the csv module: these are
the bytes of a JSON string, array or object and of every ``true``, ``false``
and ``null``, which orjson would read where ``float()`` does not. Any other
byte outside JSON numbers, commas and JSON whitespace makes orjson raise,
and the chunk goes there too. Otherwise its CRLF and CR line ends become LF
(only if it holds a CR), and one ``replace`` of LF with ``],[`` frames its
lines as rows. Lines left empty are skipped, as ``csv.reader`` skips them: a
row that parses empty is dropped if its line is empty, while a
whitespace-only line stays an empty row, which numpy refuses. A chunk also
needs no integer ``-0`` cell (orjson reads it as the int 0 and drops the
sign), and rows that, like every other chunk's, hold the same number of
cells. Any file with a chunk that fails goes through the csv module instead,
the one place that detects headers (so a file with a header row is read
whole by it), accepts the rest of ``float()``'s syntax (``1_000``, ``.5``,
``+1``, non-ASCII digits, quoted cells) and locates bad cells. A file that
is not UTF-8, or a JSON input that does not parse, is a
``DataValidationError`` naming the path.

Floats are written with 17 significant digits so that write -> read is
bit-exact for every finite double. All file writes go through a temp file
in the target directory followed by an atomic rename, so readers never see
a partially written artifact.

JSON documents (fits, intervals, configs, oracle summaries) are strict
RFC 8259 JSON, written and read by orjson, whose output stdlib ``json``
reads to the same values, floats bit for bit. A document that orjson cannot
write exactly is refused, with nothing written: one holding a non-finite
float (orjson would write ``null``) or an integer outside [-2**63, 2**64)
(orjson raises). The callers check every integer that can reach a document
against 64 bits where it enters. A reader hands the stdlib decoder only the
files orjson refuses: a leading BOM, which it skips, and the ``NaN`` and
``Infinity`` tokens of older builds' documents. orjson reads an integer
literal outside 64 bits as its correctly rounded float, which the integer
check it meets refuses. Writers never write a BOM.
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

from .errors import DataValidationError, NumericalError, require_finite_array


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
    in rows of one width.

    Per chunk: six single-byte searches turn away what orjson could read
    that ``float()`` would not read the same way; line ends become LF when a
    CR is in the chunk; one ``replace`` frames the lines as JSON rows. Only
    when the parse holds an empty row are the lines split, to drop the rows
    of empty lines; a whitespace-only line keeps its empty row, so numpy
    refuses the block and the file goes to the csv module."""
    out, rows = None, 0
    with open(path, "rb") as fh:
        for chunk in _line_chunks(fh):
            if any(byte in chunk for byte in b'"[]{ua'):  # JSON that float() reads otherwise
                return None
            if b"\r" in chunk:
                chunk = chunk.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            body = chunk.strip(b"\n")
            if not body:
                continue
            try:
                cells = orjson.loads(b"[[" + body.replace(b"\n", b"],[") + b"]]")
                if not all(cells):  # drop the rows of empty lines, as csv.reader skips them
                    cells = [row for row, line in zip(cells, body.split(b"\n")) if line]
                block = np.array(cells, dtype=float)
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
    """Write ``obj`` as JSON, two-space indented with sorted keys, atomically,
    by orjson. An object it cannot write exactly, one holding a non-finite
    float (which it writes as ``null``) or an integer beyond 64 bits, is a
    NumericalError naming ``path``, and nothing is written."""
    try:
        data = orjson.dumps(
            obj, option=orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY
        )
    except orjson.JSONEncodeError as exc:  # an integer beyond 64 bits among them
        raise NumericalError(f"{path}: not written: {exc}") from None
    if orjson.loads(data) != obj:  # orjson wrote a non-finite float as null
        raise NumericalError(f"{path}: not written: a non-finite number has no JSON form")
    atomic_write_text(path, data + b"\n")


def read_json(path):
    """The JSON document at ``path``, read by orjson, or by the stdlib decoder
    where orjson refuses the bytes: a leading UTF-8 BOM, which it skips
    (RFC 8259 lets a parser ignore one, and the CSV readers do), or an older
    build's ``NaN`` or ``Infinity`` token. Bad JSON or UTF-8 is a
    DataValidationError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return orjson.loads(raw)
    except orjson.JSONDecodeError:
        try:
            return json.loads(raw.decode("utf-8-sig"))
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
