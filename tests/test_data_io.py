"""CSV reading: the accepted syntax, bit-exact values, and where errors go."""

import csv
import re
import warnings

import numpy as np
import pytest

from ghive import data_io
from ghive.data_io import read_csv_table, save_matrix_csv
from ghive.errors import DataValidationError


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
    "0x10", "abc", "", "1.2.3", "1e", "--1", "1 2",
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
    for path in paths.values():
        try:
            read_csv_table(path)
        except DataValidationError:
            pass
    # plain ASCII numbers, BOM or not, go through numpy's reader ...
    for name in ("plain", "bom", "crlf", "cr", "one-column", "17-digits", "blank-lines"):
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


def test_save_then_read_is_bit_exact_down_to_subnormals(tmp_path):
    rng = np.random.default_rng(8)
    values = rng.standard_normal((40, 6)) * 10.0 ** rng.integers(-300, 301, (40, 6))
    values[0] = [5e-324, -2.5e-310, np.finfo(float).tiny, np.finfo(float).max, -0.0, 0.0]
    path = tmp_path / "m.csv"
    save_matrix_csv(path, values)
    back = read_csv_table(path)
    assert back.shape == values.shape and back.tobytes() == values.tobytes()
