"""CSV reading: the accepted syntax, bit-exact values, and where errors go.
JSON documents: strict JSON written by orjson, read by orjson or the stdlib
decoder to the same values bit for bit."""

import csv
import json
import re
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import json_bits, strict_json
from ghive import data_io
from ghive.data_io import read_csv_table, save_matrix_csv
from ghive.errors import DataValidationError, NumericalError


def _reference_read(path):
    """The contract spelled out: csv rows, blank rows skipped, a first row
    with any non-number is a header, every other cell goes through float()."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if len({len(row) for row in rows}) != 1:
        raise ValueError("empty, or rows of different widths")
    try:
        [float(c) for c in rows[0]]
    except ValueError:
        rows = rows[1:]
    if not rows:
        raise ValueError("no data rows")
    return np.array([[float(c) for c in row] for row in rows])


# One cell, placed inside a file and in its first row.
CELLS = [
    "0", "-0", "+1", "1.5", ".5", "5.", "1e5", "1E-5",
    "-1.2345678901234567e+300", "9.8765432109876543e-300",
    "4.9406564584124654e-324", "2.2250738585072014e-308", "1.7976931348623157e308",
    "0.30000000000000004", "123456789012345678901234567890",
    " 2.5", "2.5 ", "\t3", "nan", "-nan", "-inf", "Infinity", "1e999", "1e-400",
    "1_000", "\xa01.5\xa0", "\u0661\u0662\u0663", "\uff11\uff12", '"7"', '" 8 "',
    "0x10", "abc", "", "1.2.3", "1e", "--1", "1 2", "true", "null",
    # JSON that orjson would parse (or, for the colon, refuse) inside a row
    "1],[2", "[1]", "{}", "false", '"1"', "1:2",
]

STRUCTURES = {
    "plain": "1,2\n3,4\n",
    "no-final-newline": "1,2\n3,4",
    "header": "a,b\n1,2\n3,4\n",
    "quoted-header": '"a","b"\n1,2\n',
    "header-only": "a,b\n",
    "header-too-wide": "a,b,c\n1,2\n",
    "bad-cell-under-header": "a,b\n1,2\n3,x\n",
    "blank-lines": "\n1,2\n\n3,4\n\n",
    "whitespace-line": "1,2\n  \n3,4\n",
    "cr": "1,2\r3,4\r",
    "crlf": "1,2\r\n3,4\r\n",
    "quoted-newline": '"1\n",2\n3,4\n',
    "bom": "\ufeff1,2\n3,4\n5,6\n",
    "bom-header": "\ufeffa,b\n1,2\n",
    "ragged-short": "1,2\n3\n",
    "ragged-long": "1,2\n3,4,5\n",
    "trailing-comma": "1,2,\n3,4,\n",
    "one-row": "1,2,3\n",
    "one-column": "1\n2\n3\n",
    "one-cell": "7\n",
    "empty": "",
    "blank-only": "\n\n",
    "whitespace-only": " \n",
    "semicolons": "1;2\n3;4\n",
    "comment-line": "# note\n1,2\n",
    "padded": " 1 , 2 \n 3 , 4 \n",
    "tabs": "1\t,\t2\n3,4\n",
    "17-digits": "-1.2345678901234567e-300,9.8765432109876543e+300\n"
    "2.2250738585072009e-308,-4.9406564584124654e-324\n",
    "latin-1": b"1,2\n3,\xe9\n",
    "boolean-header": "true,false\n1,2\n",
    "blank-line-inside": "1,2\n3,4\n\n5,6\n",
    "blank-and-whitespace-lines": "1,2\n\n3,4\n \n5,6\n",
}

CORPUS = {
    **STRUCTURES,
    **{f"cell{i}-inside": f"1,2\n3,{c}\n5,6\n" for i, c in enumerate(CELLS)},
    **{f"cell{i}-first-row": f"{c},2\n3,4\n5,6\n" for i, c in enumerate(CELLS)},
}


def _write(tmp_path, name):
    content = CORPUS[name]
    path = tmp_path / f"{name}.csv"
    path.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
    return path


@pytest.mark.parametrize("name", list(CORPUS))
def test_reader_matches_the_reference_bit_for_bit_or_rejects(tmp_path, name):
    path = _write(tmp_path, name)
    try:
        want = _reference_read(path)
    except ValueError:
        with pytest.raises(DataValidationError, match=re.escape(str(path))):
            read_csv_table(path)
        return
    got = read_csv_table(path)
    assert got.dtype == np.float64 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_corpus_takes_both_readers(tmp_path, monkeypatch):
    csv_path = set()
    read_rows = data_io._read_csv_rows

    def spy(path):
        csv_path.add(path)
        return read_rows(path)

    monkeypatch.setattr(data_io, "_read_csv_rows", spy)
    paths = {name: _write(tmp_path, name) for name in CORPUS}
    paths["17-digits-2000x50"] = tmp_path / "17-digits-2000x50.csv"
    np.savetxt(paths["17-digits-2000x50"], np.random.default_rng(0).standard_normal((2000, 50)),
               fmt="%.17g", delimiter=",")
    for path in paths.values():
        try:
            read_csv_table(path)
        except DataValidationError:
            pass
    # plain ASCII numbers, BOM or not, go through the orjson reader ...
    plain = ("plain", "bom", "crlf", "cr", "one-column", "17-digits", "blank-lines")
    for name in plain + ("17-digits-2000x50",):
        assert paths[name] not in csv_path, name
    # ... and anything it refuses through the csv module.
    for name in ("header", "quoted-newline", "empty", "latin-1", "ragged-short"):
        assert paths[name] in csv_path, name
    assert 0 < len(csv_path) < len(paths)


def test_bom_keeps_the_first_data_row(tmp_path):
    path = _write(tmp_path, "bom")
    assert read_csv_table(path).tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]


def test_empty_file_is_an_error_not_a_warning(tmp_path):
    path = _write(tmp_path, "empty")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataValidationError, match="file is empty"):
            read_csv_table(path)


def test_undecodable_file_names_the_path_and_the_byte(tmp_path):
    path = _write(tmp_path, "latin-1")
    with pytest.raises(DataValidationError, match=r"latin-1\.csv: not UTF-8 text.*0xe9"):
        read_csv_table(path)


def test_a_failed_rename_raises_and_leaves_no_temp_file(tmp_path):
    target = tmp_path / "out.csv"
    target.mkdir()  # os.replace cannot put a file over a directory
    with pytest.raises(OSError):
        data_io.atomic_write_text(target, "1,2\n")
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"] and target.is_dir()


def test_save_then_read_is_bit_exact_down_to_subnormals(tmp_path):
    rng = np.random.default_rng(8)
    values = rng.standard_normal((40, 6)) * 10.0 ** rng.integers(-300, 301, (40, 6))
    values[0] = [5e-324, -2.5e-310, np.finfo(float).tiny, np.finfo(float).max, -0.0, 0.0]
    path = tmp_path / "m.csv"
    save_matrix_csv(path, values)
    back = read_csv_table(path)
    assert back.shape == values.shape and back.tobytes() == values.tobytes()


# Cell writers for the generated files: every float syntax the program's own
# writers and common tools produce, and the two signed zeros.
CELL_WRITERS = [
    lambda v: "%.17g" % v,
    repr,
    lambda v: "%.6e" % v,
    lambda v: str(int(v)),
    lambda v: "-0",
    lambda v: "-0.0",
]


@settings(max_examples=200)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 40),
    width=st.integers(1, 60),
    writers=st.sets(st.sampled_from(range(len(CELL_WRITERS))), min_size=1),
    ending=st.sampled_from(["\n", "\r\n", "\r"]),
    bom=st.booleans(),
    blanks=st.lists(st.integers(0, 40), max_size=4),
    final_newline=st.booleans(),
    chunk_bytes=st.integers(16, 2048),
)
def test_generated_files_read_as_the_reference_bit_for_bit(
    seed, rows, width, writers, ending, bom, blanks, final_newline, chunk_bytes
):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((rows, width)) * 10.0 ** rng.integers(-320, 300, (rows, width))
    kinds = rng.choice(sorted(writers), (rows, width))
    lines = [
        ",".join(CELL_WRITERS[k](v) for k, v in zip(*row))
        for row in zip(kinds.tolist(), values.tolist())
    ]
    for i in sorted(blanks, reverse=True):  # a blank line before row i
        lines.insert(min(i, rows), "")
    text = ending.join(lines) + (ending if final_newline else "")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "generated.csv"
        path.write_bytes(b"\xef\xbb\xbf" * bom + text.encode("ascii"))
        want = _reference_read(path)
        # small chunks put many chunk boundaries, and lines longer than a
        # chunk, inside one file
        with mock.patch.object(data_io, "_CHUNK_BYTES", chunk_bytes):
            got = read_csv_table(path)
    assert got.dtype == np.float64 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "tail, message",
    [
        # every later row, whole chunks of them, with one cell
        (["1"] * 40000, "row 3001 has 1 cells, expected 3"),
        (["1,1.2.3,3"], "row 3001, column 2: could not parse '1.2.3' as a number"),
    ],
    ids=["ragged", "bad-cell"],
)
def test_an_error_after_the_first_chunk_names_its_row_and_column(tmp_path, tail, message):
    path = tmp_path / "late-error.csv"
    lines = ["%.17g,%.17g,%.17g" % tuple(r) for r in np.random.default_rng(2).random((4000, 3))]
    lines[3000:3000 + len(tail)] = tail
    text = "\n".join(lines) + "\n"
    path.write_text(text)
    assert len("\n".join(lines[:3000])) > data_io._CHUNK_BYTES
    with pytest.raises(DataValidationError) as exc:
        read_csv_table(path)
    assert str(exc.value) == f"{path}: {message}"


def test_a_chunk_of_narrower_rows_is_a_ragged_file(tmp_path):
    path = tmp_path / "narrower.csv"
    path.write_text("1,2\n3,4\n5\n6\n")
    # one line per chunk: the one-cell rows would broadcast to the table's width
    with mock.patch.object(data_io, "_CHUNK_BYTES", 2):
        with pytest.raises(DataValidationError, match=r"row 3 has 1 cells, expected 2$"):
            read_csv_table(path)


# Rows inside one chunk: orjson parses ragged rows, and numpy refuses to
# make them one float block, so a short, long or whitespace-only row sends
# the file to the csv module; integer cells stay on the orjson path.
@pytest.mark.parametrize(
    "text, csv_module, message",
    [
        ("1,2\n3\n5,6\n", True, "row 2 has 1 cells, expected 2"),
        ("1,2\n3,4,5\n5,6\n", True, "row 2 has 3 cells, expected 2"),
        ("a,b\n1,2\n3,4,5\n", True, "row 3 has 3 cells, expected 2"),
        ("1,2\n  \n3,4\n", True, "row 2 has 1 cells, expected 2"),
        ("1\n \n3\n", True, "row 2, column 1: could not parse '' as a number"),
        ("1,-2\n30,0\n", False, None),
        ("12345678901234567890,-12345678901234567890\n18446744073709551617,1\n", False, None),
    ],
    ids=["short-row", "long-row", "long-row-under-header", "whitespace-line",
         "whitespace-line-one-column", "integers", "20-digit-integers"],
)
def test_rows_of_one_chunk_take_the_path_and_give_the_result_of_the_csv_contract(
    tmp_path, monkeypatch, text, csv_module, message
):
    path = tmp_path / "chunk.csv"
    path.write_text(text)
    read_rows, calls = data_io._read_csv_rows, []
    monkeypatch.setattr(data_io, "_read_csv_rows", lambda p: calls.append(p) or read_rows(p))
    if message:
        with pytest.raises(DataValidationError) as exc:
            read_csv_table(path)
        assert str(exc.value) == f"{path}: {message}"
    else:
        got, want = read_csv_table(path), _reference_read(path)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert calls == [path] * csv_module


def _reads_as_the_reference(path, monkeypatch):
    """Read ``path`` as the reference does, its bits or its error, and
    return the paths the csv module read."""
    read_rows, calls = data_io._read_csv_rows, []
    monkeypatch.setattr(data_io, "_read_csv_rows", lambda p: calls.append(p) or read_rows(p))
    try:
        want = _reference_read(path)
    except ValueError:
        with pytest.raises(DataValidationError, match=re.escape(str(path))):
            read_csv_table(path)
    else:
        got = read_csv_table(path)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    return calls


# A chunk that holds a quote, a bracket, a brace, or a u or an a (every
# true, false and null holds one) goes to the csv module before orjson sees
# it; what else orjson cannot parse as rows of numbers, as 1:2, goes there
# after. A blank line inside a chunk keeps it on the orjson path; a
# whitespace-only line reads as an empty row, which numpy refuses.
JSON_CELLS = {"brackets": "1],[2", "array": "[1]", "object": "{}", "false": "false",
              "string": '"1"', "colon": "1:2"}


@pytest.mark.parametrize(
    "text, csv_module",
    [
        *[(f"1,2\n3,{cell}\n5,6\n", True) for cell in JSON_CELLS.values()],
        *[(f"{cell},2\n3,4\n", True) for cell in JSON_CELLS.values()],
        (CORPUS["blank-line-inside"], False),
        (CORPUS["blank-and-whitespace-lines"], True),
        ("1,2\n\t\n3,4\n", True),
    ],
    ids=[*(f"{name}-{at}" for at in ("inside", "first-row") for name in JSON_CELLS),
         "blank-line", "blank-and-whitespace-lines", "tab-line"],
)
def test_json_cells_and_empty_lines_take_the_reader_the_chunk_rule_gives(
    tmp_path, monkeypatch, text, csv_module
):
    path = tmp_path / "guard.csv"
    path.write_text(text)
    assert _reads_as_the_reference(path, monkeypatch) == [path] * csv_module


def test_a_crlf_split_across_two_chunks_is_one_line_end(tmp_path, monkeypatch):
    path = tmp_path / "split.csv"
    path.write_bytes(b"1,2\r\n3,4\r\n5,6\r\n")
    monkeypatch.setattr(data_io, "_CHUNK_BYTES", 6)
    with open(path, "rb") as fh:
        assert list(data_io._line_chunks(fh)) == [b"1,2\r\n3,4\r", b"\n5,6\r\n", b""]
    assert _reads_as_the_reference(path, monkeypatch) == []


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_a_read_holds_the_table_and_a_few_chunks_not_the_file(tmp_path, ending):
    values = np.random.default_rng(3).standard_normal((2000, 50))
    path = tmp_path / "table.csv"
    path.write_bytes(ending.join(",".join("%.17g" % v for v in row) for row in values).encode())
    assert path.stat().st_size > 2 * values.nbytes
    tracemalloc.start()
    try:
        table = read_csv_table(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.tobytes() == values.tobytes()
    assert peak < values.nbytes + 16 * data_io._CHUNK_BYTES


# documents orjson writes exactly
JSON_DOCUMENTS = {
    "floats": {"f": [4.44986361714994e-05, 1.2345678901234567e-05, 0.1, 1e16, 1e22, 5e-324,
                     -0.0, 1.7976931348623157e308], "k": None, "ok": True},
    "numpy-scalars": {"bias1": np.float64(0.1), "bias2": np.float64(-2.5e-7)},
    "64-bit-integers": {"high": 2**64 - 1, "low": -(2**63), "text": "é\u2028"},
}
# and ones it cannot: a non-finite float (orjson writes null) and integers
# beyond 64 bits (orjson raises)
REFUSED_DOCUMENTS = {
    "non-finite": {"grad_norm": [float("inf"), 1.5], "nan": float("nan")},
    "long-integer": {"seed": 2**70},
    "low-integer": {"low": -(2**63) - 1},  # 19 digits
}


@pytest.mark.parametrize("name", list(JSON_DOCUMENTS))
def test_json_documents_read_as_the_stdlib_encoding_bit_for_bit(tmp_path, name):
    obj, path = JSON_DOCUMENTS[name], tmp_path / "doc.json"
    data_io.write_json_atomic(path, obj)
    want = json_bits(json.loads(json.dumps(obj, indent=2, sort_keys=True)))
    text = path.read_text()
    assert json_bits(strict_json(text)) == want
    assert json_bits(data_io.read_json(path)) == want


@pytest.mark.parametrize("name", list(REFUSED_DOCUMENTS))
def test_json_documents_orjson_cannot_write_exactly_are_refused(tmp_path, name):
    path = tmp_path / "doc.json"
    with pytest.raises(NumericalError, match=f"^{re.escape(str(path))}: not written: "):
        data_io.write_json_atomic(path, REFUSED_DOCUMENTS[name])
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("name", list(JSON_DOCUMENTS))
def test_json_documents_saved_with_a_utf8_bom_read_as_without_it(tmp_path, name):
    obj, path = JSON_DOCUMENTS[name], tmp_path / "doc.json"
    data_io.write_json_atomic(path, obj)
    want = json_bits(data_io.read_json(path))
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert json_bits(data_io.read_json(path)) == want


@pytest.mark.parametrize(
    "text",
    [
        "[9223372036854775807, -9223372036854775808, 18446744073709551615]",
        "[0.0000444986361714994, 12345678901234567890.5, 1e-400]",  # positional floats
        '{"a": NaN, "b": -Infinity}',
        "[1e400]",
        '{"a": 1, "a": 2}',
    ],
)
def test_json_text_reads_as_the_stdlib_decoder_reads_it(tmp_path, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert json_bits(data_io.read_json(path)) == json_bits(json.loads(text))


def test_json_integers_beyond_64_bits_read_as_their_correctly_rounded_floats(tmp_path):
    rng = np.random.default_rng(0)
    literals = ["-9223372036854775809", "18446744073709551616", "18446744073709551615"]
    for digits in rng.integers(19, 41, 2000):
        literal = "".join(map(str, rng.integers(0, 10, digits))).lstrip("0") or "0"
        literals.append(("-" if rng.random() < 0.5 else "") + literal)
    path = tmp_path / "doc.json"
    path.write_text("[" + ",".join(literals) + "]")
    got = data_io.read_json(path)
    for literal, value in zip(literals, got, strict=True):
        exact = -(2**63) <= int(literal) < 2**64
        assert (type(value), value) == ((int, int(literal)) if exact else (float, float(int(literal))))


def test_plain_json_documents_never_touch_the_stdlib_codec(tmp_path, monkeypatch):
    monkeypatch.setattr(data_io, "json", None)
    path = tmp_path / "doc.json"
    obj = {**JSON_DOCUMENTS["floats"], "ints": list(range(0, 10**18, 10**16))}
    data_io.write_json_atomic(path, obj)
    assert "0.0000444986361714994" in path.read_text()  # a 19-digit fraction
    assert json_bits(data_io.read_json(path)) == json_bits(obj)
