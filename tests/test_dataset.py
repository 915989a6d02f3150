import contextlib
import csv
import gzip
import io
import mmap
import os
import re
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcde import (
    Dataset,
    ParseError,
    StructureError,
    ValidationError,
    load_csv,
    read_csv,
    select_subspace,
)
from mcde import dataset as dataset_module
from mcde.dataset import _BLOCK_LINES as _B
from mcde.dataset import _plain_values, write_csv
from oracles import csv_string, read_csv_oracle


def test_parse_with_header():
    ds = read_csv(io.StringIO("a,b\n0.1,0.2\n0.3,0.4"))
    assert ds.n == 2 and ds.d == 2
    assert ds.column_names == ("a", "b")
    assert ds.values[0, 0] == 0.1 and ds.values[1, 1] == 0.4


def test_parse_without_header_autodetect():
    ds = read_csv(io.StringIO("1.5,2.5\n3.5,4.5"))
    assert ds.n == 2 and ds.column_names == ("col0", "col1")


def test_explicit_header_flags():
    text = "1,2\n3,4"
    assert read_csv(io.StringIO(text), has_header=False).n == 2
    ds = read_csv(io.StringIO(text), has_header=True)
    assert ds.n == 1 and ds.column_names == ("1", "2")


def test_non_numeric_cell_names_location():
    with pytest.raises(ParseError, match="line 2"):
        read_csv(io.StringIO("a,b\nabc,0.2\n"))


_ROW_ERRORS = [
    ("a,b\n1,2\n\n3,x\n", ParseError, "line 4, column 2"),
    ("a,b\n1,2\n\n3,4,5\n", StructureError, "ragged row at line 4:"),
    ("\n\na,b\n1,2\nx,3\n", ParseError, "line 5, column 1"),
    ("a,b\n\"1\n\",2\n3,x\n", ParseError, "line 4, column 2"),
    ("1,2\n\n\n3,4\n5,inf\n", ValidationError, "line 5, column 2"),
    # of two row faults the earlier one is reported; the header width is checked last
    ("1,2\n3,inf\n4,x\n", ValidationError, "line 2, column 2"),
    ("1,2\n3,x\n4,5,6\n", ParseError, "line 2, column 2"),
    ("1,2\n3, \tx  \n", ParseError, "cannot parse 'x' as a number at line 2, column 2"),
    ("a,b,c\n1,2\n3,x\n", ParseError, "line 3, column 2"),
    ("a,b\n\n\n", StructureError, "no data rows after the header"),
]


@pytest.mark.parametrize("text, error, where", _ROW_ERRORS)
def test_errors_name_file_lines_past_blank_and_multiline_rows(text, error, where):
    with pytest.raises(error, match=where):
        read_csv(io.StringIO(text))


def _after_first_data_row(text, added):
    """``text`` with the ``added`` lines after its first numeric row, or
    after its first line if it has none."""
    reader = csv.reader(io.StringIO(text))
    end = 1
    for row in reader:
        if row and all(re.fullmatch(r"[-+.\de]+", cell.strip()) for cell in row):
            end = reader.line_num
            break
    lines = text.splitlines(keepends=True)
    return "".join(lines[:end] + added + lines[end:])


def _raising_after(lines):
    yield from lines
    raise RuntimeError("the source failed")


@pytest.mark.parametrize("odd", [False, True])
@pytest.mark.parametrize("text, error, where", _ROW_ERRORS)
def test_errors_name_file_lines_past_a_plain_block(text, error, where, odd):
    # one and a half blocks of plain rows (blank lines where the case has no
    # data row), so the fault sits in the second block, which is otherwise
    # plain; a quoted first row makes numpy reject the first block and
    # resume at the second
    shift = _B + _B // 2
    filler = ["0.5,-2.5e-3\n"] if "no data rows" not in where else ["\n"]
    added = filler * shift
    if odd:
        added[0] = added[0].replace("0.5", '"0.5"')
    shifted = _after_first_data_row(text, added)
    where = re.sub(r"line (\d+)", lambda m: f"line {int(m.group(1)) + shift}", where)
    for read in (read_csv, read_csv_oracle):
        with pytest.raises(error, match=where):
            read(io.StringIO(shifted))
        if "no data rows" not in where:
            # a source that fails after the fault's block: the fault comes first
            with pytest.raises(error, match=where):
                read(_raising_after(shifted.splitlines(keepends=True)))


def _plain_rows(count):
    return [f"{i}.25,-{i}e-3\n" for i in range(count)]


# with line 1 the first data row, block k holds lines 2 + k*_B to 1 + (k+1)*_B
@pytest.mark.parametrize("line, handoff", [
    (2, None), (1 + _B, None), (2 + _B, None), (1 + 2 * _B, None), (3 * _B, None),
    # a CRLF line before the fault's is plain too
    (_B // 2 + 2, "crlf"), (2 + 2 * _B, "crlf"),
    # a line before the fault's is not plain: numpy resumes at the next block,
    # which may be the fault's
    (_B // 2 + 2, "padded"), (2 + _B, "quoted"), (1 + 2 * _B, "padded"),
    (2 + 2 * _B, "padded"), (3 * _B, "quoted"),
])
@pytest.mark.parametrize("fault, error, message", [
    ("7,1e400", ValidationError, "non-finite value '1e400' at line {}, column 2"),
    ("7, 1e400 ", ValidationError, "non-finite value '1e400' at line {}, column 2"),
    ("7,x", ParseError, "cannot parse 'x' as a number at line {}, column 2"),
    ("7,1e", ParseError, "cannot parse '1e' as a number at line {}, column 2"),
    ("7,", ParseError, "cannot parse '' as a number at line {}, column 2"),
    ("7,2,3", StructureError, "ragged row at line {}: expected 2 cells, got 3"),
    ("7,2,", StructureError, "ragged row at line {}: expected 2 cells, got 3"),
    ("7", StructureError, "ragged row at line {}: expected 2 cells, got 1"),
])
def test_faults_in_plain_blocks_raise_from_the_strict_loop(line, handoff, fault, error, message):
    lines = ["1,2\n"] + _plain_rows(3 * _B + 5)
    lines[line - 1] = fault + "\n"
    if handoff is not None:
        lines[_B // 2] = {"crlf": "3,4\r\n", "padded": "3, 4\n", "quoted": '"3",4\n'}[handoff]
    expected = f"^{re.escape(message.format(line))}$"
    for source in (io.StringIO("".join(lines)), lines):
        with pytest.raises(error, match=expected):
            read_csv(source)


@pytest.mark.parametrize("cell, value", [("1_0", 10.0), (" 2.5 ", 2.5), ("\t-0", -0.0)])
@pytest.mark.parametrize("line", [2, 1 + _B, 2 + _B])
def test_cells_only_float_reads_leave_the_fast_path_with_the_same_value(cell, value, line):
    lines = ["1,2\n"] + _plain_rows(2 * _B + 3)
    lines[line - 1] = f"7,{cell}\n"
    ds = read_csv(io.StringIO("".join(lines)))
    assert ds.values[line - 1, 1] == value
    assert np.signbit(ds.values[line - 1, 1]) == np.signbit(value)
    assert ds == read_csv_oracle(io.StringIO("".join(lines)))


def _same_dataset(make_source, **kwargs):
    got = read_csv(make_source(), **kwargs)
    want = read_csv_oracle(make_source(), **kwargs)
    assert got.column_names == want.column_names
    assert got.values.shape == want.values.shape
    assert got.values.dtype == want.values.dtype
    assert got.values.flags.f_contiguous and not got.values.flags.writeable
    assert got.values.tobytes() == want.values.tobytes()
    return got


def _mixed_lines(kind, delimiter=","):
    """Three blocks and more of plain rows with ``kind`` mixed in."""
    rows = [line.replace(",", delimiter) for line in _plain_rows(4 * _B)]
    if kind == "blank":
        for at in (5, _B + 1, 2 * _B - 3):
            rows.insert(at, "\n")
    elif kind == "blank block":
        rows[_B:_B] = ["\n"] * (2 * _B)
    elif kind == "crlf":
        rows = [row[:-1] + "\r\n" if i % 3 == 0 or i > 2 * _B else row
                for i, row in enumerate(rows)]
    elif kind == "cr":
        rows[_B + 7] = rows[_B + 7][:-1] + "\r"
        rows[3 * _B:] = [row[:-1] + "\r" for row in rows[3 * _B:]]
    elif kind == "quoted":
        rows[_B + 9] = f'"0.125"{delimiter}-7\n'
        rows[2 * _B + 4] = f'"1.5\n"{delimiter}"\n2"\n'
    return rows


@pytest.mark.parametrize("kind", ["plain", "blank", "blank block", "crlf", "cr", "quoted"])
@pytest.mark.parametrize("delimiter", [",", ";", "\t"])
@pytest.mark.parametrize("header, has_header", [
    ("x,y\n", None), ("x,y\n", True), ("", None), ("", False), ("3,4\n", True),
])
def test_plain_blocks_give_the_strict_loops_dataset(kind, delimiter, header, has_header):
    text = header.replace(",", delimiter) + "".join(_mixed_lines(kind, delimiter))
    ds = _same_dataset(lambda: io.StringIO(text, newline=""),
                       has_header=has_header, delimiter=delimiter)
    assert ds.n >= 4 * _B - 1


def _outcome(read, make_source, **kwargs):
    """What ``read`` makes of the source: the dataset's names, shape and
    value bytes, or the error's type and message."""
    source = make_source()
    try:
        ds = read(source, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)
    finally:
        if hasattr(source, "close"):
            source.close()
    assert ds.values.flags.f_contiguous and not ds.values.flags.writeable
    return ds.column_names, ds.values.shape, ds.values.dtype, ds.values.tobytes()


# blocks 0 and 2 of five hold lines numpy rejects: at the end of block 0,
# inside block 2
@pytest.mark.parametrize("odd, calls", [
    (['"3",4\n'], [_B, _B, _B, _B, _B]),
    (['"3",4\r\n'], [_B, _B, _B, _B, _B]),
    (["7, 2.5 \n"], [_B, _B, _B, _B, _B]),
    # a quoted cell from the last line of block 0 into block 1: numpy
    # resumes on the line after it
    (['"1.5\n', '",2\n'], [_B, _B, _B, _B, _B - 1]),
])
def test_numpy_resumes_after_a_block_it_rejects(monkeypatch, odd, calls):
    lines = ["1,2\n"] + _plain_rows(5 * _B)
    for at in (_B, 1 + 2 * _B + _B // 2):
        lines[at:at + len(odd)] = odd
    seen = []

    def spy(block, width, delimiter):
        values = _plain_values(block, width, delimiter)
        seen.append((len(block), values is not None))
        return values

    monkeypatch.setattr(dataset_module, "_plain_values", spy)
    for make_source in (lambda: list(lines), lambda: io.StringIO("".join(lines), newline="")):
        seen.clear()
        assert _outcome(read_csv, make_source) == _outcome(read_csv_oracle, make_source)
        assert seen == list(zip(calls, [False, True, False, True, True]))
    # a source that fails inside the last block, after a data row
    assert _outcome(read_csv, lambda: _raising_after(lines[:-7])) == (
        RuntimeError, "the source failed")


_ENDINGS = {"crlf": ("\r\n",), "cr": ("\r",), "mixed": ("\n", "\r\n", "\r")}


@pytest.mark.parametrize("ending", sorted(_ENDINGS))
@pytest.mark.parametrize("delimiter", [",", ";", "\t"])
@pytest.mark.parametrize("header, has_header", [
    ("x,y", None), ("x,y", True), ("", None), ("3,4", True),
])
@pytest.mark.parametrize("fault, message", [
    (None, None),
    ("7,x", "cannot parse 'x' as a number at line {}, column 2"),
    ("7,1e400", "non-finite value '1e400' at line {}, column 2"),
    ("7,2,3", "ragged row at line {}: expected 2 cells, got 3"),
])
def test_crlf_and_cr_input_gives_the_strict_loops_result(
        tmp_path, ending, delimiter, header, has_header, fault, message):
    # four blocks of rows and blank lines, the fault in the second block
    body = [row[:-1] for row in _plain_rows(4 * _B)]
    for at in (3, _B + 1, 2 * _B - 3, 3 * _B):
        body.insert(at, "")
    if fault is not None:
        body[_B + 40] = fault
    rows = ([header] if header else []) + body
    ends = _ENDINGS[ending]
    lines = [row.replace(",", delimiter) + ends[i % len(ends)] for i, row in enumerate(rows)]
    path = tmp_path / "data.csv"
    path.write_bytes("".join(lines).encode())
    # a list element is one line; in text, a "\r" line and a blank "\n" one
    # after it are one "\r\n" line break
    before = lines[:rows.index(fault)] if fault is not None else []
    text_line = len(re.findall(r"\r\n|\r|\n", "".join(before))) + 1
    sources = [
        (lambda: list(lines), len(before) + 1),
        (lambda: io.StringIO("".join(lines), newline=""), text_line),
        (lambda: open(path, encoding="utf-8-sig", newline=""), text_line),
    ]
    for make_source, line in sources:
        got = _outcome(read_csv, make_source, has_header=has_header, delimiter=delimiter)
        assert got == _outcome(read_csv_oracle, make_source,
                               has_header=has_header, delimiter=delimiter)
        if fault is None:
            assert got[:2] == (tuple(header.split(",")) if header else ("col0", "col1"),
                               (4 * _B, 2))
        else:
            assert got[1] == message.format(line)


@pytest.mark.parametrize("block, values", [
    (["1,2\r\n", "3,4\r\n"], [[1, 2], [3, 4]]),
    (["1,2\r", "3,4\r"], [[1, 2], [3, 4]]),
    (["1,2\n", "\r\n", "3,4\r", "\r", "5,6"], [[1, 2], [3, 4], [5, 6]]),
    (["\r\n", "\r", "\n"], []),
    # the csv module reads these alike, numpy rejects them: the strict loop parses
    (["1,2\r\r\n"], None),
    (["1,2\r\n\r\n"], None),
    # the csv module rejects these too
    (["1\r,2\n"], None),
    (["1,2\r3,4\n"], None),
])
def test_crlf_and_cr_blocks_take_the_fast_path(block, values):
    got = _plain_values(block, 2, ",")
    if values is None:
        assert got is None
    else:
        assert got.reshape(-1, 2).tolist() == values


def test_a_block_of_another_width_is_ragged_at_its_first_line():
    lines = ["1,2\n"] + ["3,4,5\n"] * (2 * _B)
    with pytest.raises(StructureError, match="^ragged row at line 2: expected 2 cells, got 3$"):
        read_csv(lines)


def test_a_plain_cell_over_the_csv_field_limit_is_parse_error():
    lines = ["1,2\n"] + _plain_rows(2 * _B)
    lines[_B + 20] = "3," + "0" * 200_000 + "1\n"  # finite, so numpy reads it
    with pytest.raises(ParseError, match=rf"field limit \(131072\) at line {_B + 21}$"):
        read_csv(lines)


def test_a_block_of_long_lines_of_short_cells_is_parsed_by_numpy(monkeypatch):
    # the csv module limits each field, not each line
    values = np.random.default_rng(2).normal(size=(6, 7_000))
    lines = [",".join(map(repr, row)) + "\n" for row in values.tolist()]
    assert min(map(len, lines)) > csv.field_size_limit()
    parsed = []

    def spy(block, width, delimiter):
        got = _plain_values(block, width, delimiter)
        parsed.append(got is not None)
        return got

    monkeypatch.setattr(dataset_module, "_plain_values", spy)
    assert _outcome(read_csv, lambda: lines) == _outcome(read_csv_oracle, lambda: lines)
    assert parsed == [True]  # the lines after the first data row


def test_an_element_that_is_no_string_raises_the_csv_error():
    lines = ["1,2\n"] + _plain_rows(2 * _B)
    lines[_B + 20] = b"3,4\n"
    with pytest.raises(ParseError, match=rf"^iterator should return strings, not bytes .* at line {_B + 21}$"):
        read_csv(lines)


@pytest.mark.parametrize("terminated", [True, False])
def test_list_sources_give_the_strict_loops_dataset(terminated):
    lines = ["a,b\n"] + _plain_rows(3 * _B) + ["\n"]
    if not terminated:
        lines = [line.rstrip("\n") for line in lines]
    ds = _same_dataset(lambda: list(lines))
    assert ds.n == 3 * _B


@pytest.mark.parametrize("at", [3, _B + 1, 2 * _B + 2])
def test_list_element_with_an_inner_line_break_raises_the_csv_error(at):
    lines = ["a,b\n"] + _plain_rows(3 * _B)
    lines[at] = "5,6\n" + lines[at]
    with pytest.raises(ParseError) as got:
        read_csv(lines)
    with pytest.raises(ParseError) as want:
        read_csv_oracle(lines)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("new-line character seen in unquoted field")
    assert str(got.value).endswith(f" at line {at + 1}")


def test_read_csv_peak_memory_is_a_small_multiple_of_the_values():
    values = np.random.default_rng(5).random((20_000, 3))
    text = io.StringIO(csv_string(Dataset(values)))
    tracemalloc.start()
    try:
        ds = read_csv(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(ds.values, values)
    if isinstance(ds.values.base, mmap.mmap):  # a split load's, which tracemalloc does not trace
        peak += ds.values.nbytes
    assert peak <= 4 * ds.values.nbytes, peak / ds.values.nbytes


def test_empty_file_is_structure_error():
    with pytest.raises(StructureError):
        read_csv(io.StringIO(""))


def test_header_only_is_structure_error():
    with pytest.raises(StructureError):
        read_csv(io.StringIO("a,b\n"))


def test_ragged_rows_rejected():
    with pytest.raises(StructureError, match="ragged"):
        read_csv(io.StringIO("1,2\n3,4,5\n"))


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
def test_non_finite_cells_rejected(cell):
    with pytest.raises(ValidationError):
        read_csv(io.StringIO(f"1,2\n3,{cell}\n"))


def test_scientific_notation_and_crlf():
    ds = read_csv(io.StringIO("1e-3,2.5E+2\r\n-4e0,0\r\n"))
    assert ds.values[0, 0] == 1e-3
    assert ds.values[0, 1] == 250.0


def test_semicolon_delimiter():
    ds = read_csv(io.StringIO("x;y\n1;2\n"), delimiter=";")
    assert ds.column_names == ("x", "y")


def test_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    values = np.concatenate([
        rng.random(50),
        rng.normal(scale=1e-300, size=10),
        rng.normal(scale=1e300, size=10),
        np.array([0.1 + 0.2, 1 / 3, -0.0]),
    ])
    ds = Dataset(values.reshape(-1, 1))
    path = tmp_path / "round.csv"
    path.write_text(csv_string(ds))
    again = load_csv(str(path))
    assert np.array_equal(ds.values, again.values)
    assert ds == again


def test_select_subspace_projects_in_order():
    ds = Dataset(np.arange(15.0).reshape(5, 3))
    sub = select_subspace(ds, [2, 0])
    assert sub.d == 2 and sub.n == 5
    assert sub.column_names == ("col2", "col0")
    assert np.array_equal(sub.values[:, 0], ds.values[:, 2])


def test_select_subspace_rejects_duplicates_and_range():
    ds = Dataset(np.ones((2, 3)))
    with pytest.raises(ValueError):
        select_subspace(ds, [1, 1])
    with pytest.raises(ValueError):
        select_subspace(ds, [0, 3])


def test_select_subspace_rejects_a_non_integral_column_index():
    ds = Dataset(np.arange(6.0).reshape(2, 3))
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        select_subspace(ds, [0, 2.9])
    # a bool would select column 0 or 1
    with pytest.raises(TypeError, match="a column index must be an integer, not a bool"):
        select_subspace(ds, [True, 0])
    assert select_subspace(ds, [np.int64(2), np.int32(0)]).column_names == ("col2", "col0")


def test_select_all_columns_is_identity():
    ds = Dataset(np.random.default_rng(1).random((4, 3)))
    assert select_subspace(ds, [0, 1, 2]) == ds


def test_dataset_rejects_non_finite_and_empty():
    with pytest.raises(ValidationError):
        Dataset(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError):
        Dataset(np.empty((0, 2)))


def test_values_column_major_and_readonly():
    ds = Dataset(np.ones((3, 2)))
    assert ds.values.flags.f_contiguous
    with pytest.raises(ValueError):
        ds.values[0, 0] = 2.0


@pytest.mark.parametrize("delimiter", [",", ";"])
def test_write_csv_writes_each_value_as_its_repr(delimiter):
    special = [-0.0, 5e-324, 1.7976931348623157e308, 3.0, -42.0, 0.1 + 0.2, 1e22, 1e16]
    values = np.random.default_rng(2).normal(size=(2 * _B + 5, 2))
    values[:len(special), 0] = special
    values[-len(special):, 1] = special
    ds = Dataset(values, ["u", "v"])
    buf = io.StringIO()
    write_csv(ds, buf, delimiter=delimiter)
    rows = [delimiter.join(repr(float(v)) for v in row) + "\n" for row in values]
    assert buf.getvalue() == f"u{delimiter}v\n" + "".join(rows)


def test_csv_string_has_header_and_lf():
    ds = Dataset(np.array([[0.5, 1.5]]), ["u", "v"])
    assert csv_string(ds) == "u,v\n0.5,1.5\n"


@pytest.mark.parametrize("data, line", [
    (b"x,y\n1,2\n3,\xff4\n5,6\n", 3),
    # past the first chunk a text stream decodes, with CRLF and a BOM
    (b"\xef\xbb\xbfx,y\r\n" + b"1.5,2.25\r\n" * 3000 + b"3,4\xc3\r\n5,6\r\n", 3002),
    # inside a plain block
    (b"x,y\n" + b"1.5,2.25\n" * 3000 + b"3,4\xc3\n5,6\n", 3002),
])
def test_undecodable_byte_is_parse_error_naming_its_line(tmp_path, data, line):
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    with pytest.raises(ParseError, match=f"as utf-8 at line {line}$"):
        load_csv(str(path))


def test_row_fault_before_an_undecodable_byte_in_its_block_is_reported_first(tmp_path):
    path = tmp_path / "bad.csv"
    # the block of lines 3 + _B to 2 + 2 * _B holds both, in text chunks
    # of 8 KiB decoded apart
    row = b"0.5" + b"0" * 28 + b",2.25" + b"0" * 27 + b"\n"
    assert (_B - 4) * len(row) > 12 * 1024
    path.write_bytes(b"x,y\n" + row * (_B + 3) + b"3,q\n" + row * (_B - 4) + b"\xff\n")
    with pytest.raises(ParseError, match=f"^cannot parse 'q' as a number at line {_B + 5}, column 2$"):
        load_csv(str(path))


def test_field_over_the_csv_limit_is_parse_error_naming_its_line(tmp_path):
    path = tmp_path / "long.csv"
    path.write_text('x,y\n1,2\n3,"' + "9" * 200_000 + '"\n5,6\n')
    with pytest.raises(ParseError, match=r"field limit \(131072\) at line 3$"):
        load_csv(str(path))


# ---------------------------------------------------------------------------
# load_csv: numpy parses a regular file from its path, or read_csv reads it
# ---------------------------------------------------------------------------


def _strict_load(path, **kwargs):
    """``read_csv`` of the file's lines: what ``load_csv`` must give."""
    return _outcome(read_csv, lambda: open(path, "r", encoding="utf-8-sig", newline=""),
                    **kwargs)


def _no_block_loop(monkeypatch):
    def failing(*args, **kwargs):
        raise AssertionError("read_csv was called")

    monkeypatch.setattr(dataset_module, "read_csv", failing)


def _file_values(rows, d):
    """``rows`` x ``d`` values, among them signed zeros, a subnormal, the
    largest double and values of 17 significant digits."""
    values = np.random.default_rng(rows).normal(scale=1e3, size=(rows, d))
    special = [-0.0, 0.0, 5e-324, 1.7976931348623157e308, 0.1 + 0.2, -1e-300, 1e22]
    values.flat[:len(special)] = special[:values.size]
    return values


def _file_text(values, delimiter=",", ending="\n", header=None):
    lines = [delimiter.join(map(repr, row)) for row in values.tolist()]
    if header is not None:
        lines.insert(0, delimiter.join(header))
    return "".join(line + ending for line in lines)


_FILES = {
    "header": (_file_text(_file_values(50, 3), header="abc"), {}),
    "no header": (_file_text(_file_values(50, 3)), {}),
    "has_header True": (_file_text(_file_values(50, 3)), {"has_header": True}),
    "has_header False": (_file_text(_file_values(50, 3)), {"has_header": False}),
    "numeric header": (_file_text(_file_values(50, 3), header="123"), {"has_header": True}),
    "crlf": (_file_text(_file_values(50, 3), ending="\r\n", header="abc"), {}),
    # past a block of half the csv field limit, each of which holds a line break
    "cr": (_file_text(_file_values(3000, 3), ending="\r", header="abc"), {}),
    "bom": ("\ufeff" + _file_text(_file_values(50, 3), header="abc"), {}),
    "bom, no header": ("\ufeff" + _file_text(_file_values(50, 3)), {}),
    "blank lines": ("\n\r\n\n" + _file_text(_file_values(50, 2), header="ab")
                    .replace("\n", "\n\n", 3) + "\r\n\n\r", {}),
    "blank lines, no header": ("\n\n" + _file_text(_file_values(50, 2)) + "\n\n", {}),
    "semicolon": (_file_text(_file_values(50, 3), ";", header="abc"), {"delimiter": ";"}),
    "tab": (_file_text(_file_values(50, 3), "\t", header="abc"), {"delimiter": "\t"}),
    "single row": (_file_text(_file_values(1, 3), header="abc"), {}),
    "single row, no header": (_file_text(_file_values(1, 3)), {}),
    "single column": (_file_text(_file_values(50, 1), header="a"), {}),
    "single cell": ("7", {}),
    "no final line break": (_file_text(_file_values(50, 3), header="abc").rstrip("\n"), {}),
    "padded cells": ("a, b\n 1 ,\t2\xa0\n3,4\n", {}),
    "quoted header": ('"a\nb",c\n' + _file_text(_file_values(50, 2)), {}),
    # numpy reads past its first chunks
    "many rows": (_file_text(_file_values(60_000, 3), header="abc"), {}),
}


@pytest.mark.parametrize("name", sorted(_FILES))
def test_load_csv_parses_a_plain_file_with_numpy_as_read_csv_reads_it(tmp_path, monkeypatch, name):
    text, kwargs = _FILES[name]
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode())
    want = _strict_load(path, **kwargs)
    assert isinstance(want[0], tuple)  # a dataset
    _no_block_loop(monkeypatch)
    assert _outcome(load_csv, lambda: str(path), **kwargs) == want


def test_load_csv_parses_lines_past_the_field_limit_with_numpy(tmp_path, monkeypatch):
    # a whole block of half the field limit may hold no line break, as long
    # as it holds a delimiter
    path = tmp_path / "wide.csv"
    path.write_text(_file_text(_file_values(10, 8_000)))
    with open(path) as fh:
        assert min(map(len, fh)) > csv.field_size_limit()
    want = _strict_load(path)
    assert isinstance(want[0], tuple)  # a dataset
    _no_block_loop(monkeypatch)
    assert _outcome(load_csv, lambda: str(path)) == want


_FIELD_LIMIT = "field larger than field limit (131072) at line 3"

_STRICT_FILES = {
    "whitespace line": ("a,b\n1,2\n  \n3,4\n",
                        "ragged row at line 3: expected 2 cells, got 1"),
    "whitespace line, one column": ("a\n1\n \t\n2\n",
                                    "cannot parse '' as a number at line 3, column 1"),
    "form feed line": ("1,2\n\x0c\n", "ragged row at line 2: expected 2 cells, got 1"),
    "quoted cells": ('a,b\n"1",2\n3,"4\n"\n5,6\n', None),
    "nan": ("a,b\n1,2\n3,nan\n", "non-finite value 'nan' at line 3, column 2"),
    "overflow": ("a,b\n1,2\n3,4\n5,-1e999\n", "non-finite value '-1e999' at line 4, column 2"),
    "underscore": ("1,2\n3,1_0\n", None),
    "cell over the field limit": ("x,y\n1,2\n3," + "0" * 200_000 + "1\n5,6\n", _FIELD_LIMIT),
    "cell over the field limit, cr": ("x,y\r1,2\r3," + "0" * 200_000 + "1\r5,6\r",
                                      _FIELD_LIMIT),
    "header only": ("a,b\n", "no data rows after the header"),
    "header and blank lines": ("a,b\n\n\r\n", "no data rows after the header"),
    "empty file": ("", "empty input: no rows found"),
    "blank lines only": ("\n\n", "empty input: no rows found"),
    "wide header": ("a,b,c\n1,2\n3,4\n", "header has 3 names but rows have 2 cells"),
    "ragged": ("a,b\n1,2\n3,4\n5,6,7\n", "ragged row at line 4: expected 2 cells, got 3"),
    "not numeric": ("a,b\n1,2\n3,x\n", "cannot parse 'x' as a number at line 3, column 2"),
    "has_header False": ("a,b\n1,2\n", "cannot parse 'a' as a number at line 1, column 1"),
}


@pytest.mark.parametrize("name", sorted(_STRICT_FILES))
def test_load_csv_gives_read_csvs_result_where_numpy_may_read_otherwise(tmp_path, name):
    text, message = _STRICT_FILES[name]
    kwargs = {"has_header": False} if name == "has_header False" else {}
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode())
    got = _outcome(load_csv, lambda: str(path), **kwargs)
    assert got == _strict_load(path, **kwargs)
    if message is None:
        assert isinstance(got[0], tuple)  # a dataset, read twice
    else:
        assert got[1] == message


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_load_csv_reads_a_compressed_name_as_text(tmp_path, suffix):
    # numpy would decompress a file by these suffixes
    path = tmp_path / f"data.csv{suffix}"
    path.write_bytes(b"a,b\n1,2\n")
    got = _outcome(load_csv, lambda: str(path))
    assert got == _strict_load(path)
    assert got[0] == ("a", "b")


def test_load_csv_does_not_decompress_a_gzip_file(tmp_path):
    path = tmp_path / "data.csv.gz"
    path.write_bytes(gzip.compress(b"a,b\n1,2\n"))
    got = _outcome(load_csv, lambda: str(path))
    assert got == _strict_load(path)
    assert got == (ParseError, "cannot decode byte b'\\x8b' as utf-8 at line 1")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_load_csv_reads_a_fifo_once(tmp_path):
    path = tmp_path / "pipe.csv"
    os.mkfifo(path)
    text = _file_text(_file_values(3 * _B, 2), header="ab")
    got = []

    def feed():
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)

    # a reader that opened the pipe twice would wait for a second writer
    threads = [threading.Thread(target=feed, daemon=True),
               threading.Thread(target=lambda: got.append(load_csv(str(path))), daemon=True)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert len(got) == 1
    want = read_csv(io.StringIO(text))
    assert got[0].column_names == want.column_names
    assert got[0].values.tobytes() == want.values.tobytes()


def test_load_csv_peak_memory_is_a_small_multiple_of_the_values(tmp_path, monkeypatch):
    values = np.random.default_rng(5).random((20_000, 3))
    path = tmp_path / "data.csv"
    path.write_text(csv_string(Dataset(values)))
    _no_block_loop(monkeypatch)
    tracemalloc.start()
    try:
        ds = load_csv(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(ds.values, values)
    if isinstance(ds.values.base, mmap.mmap):  # a split load's, which tracemalloc does not trace
        peak += ds.values.nbytes
    assert peak <= 4 * ds.values.nbytes, peak / ds.values.nbytes


# ---------------------------------------------------------------------------
# load_csv: a file split across forked numpy workers
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _split_forced(parts=3):
    """``load_csv`` splits every file it can into ``parts`` parts, however
    small; yields the pids of the workers it forks."""
    forked = []
    fork = os.fork

    def spy():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataset_module, "_MIN_PART", 1)
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(parts)), raising=False)
        patch.setattr(os, "fork", spy)
        yield forked


# the files of _FILES that load_csv parses in one part, and why
_UNSPLIT = {
    "crlf": "a \\r before every split point",
    "cr": "a \\r before every split point",
    "blank lines": "a \\r before every split point",
    "quoted header": 'a " before every split point',
    "single cell": "one line",
    "single row": "no line past the first data row to split at",
    "single row, no header": "one line",
    "padded cells": "the last split point would end the file",
}


@pytest.mark.parametrize("name", sorted(_FILES))
def test_a_split_load_parses_a_plain_file_as_read_csv_reads_it(tmp_path, monkeypatch, name):
    text, kwargs = _FILES[name]
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode())
    want = _strict_load(path, **kwargs)
    _no_block_loop(monkeypatch)
    with _split_forced() as forked:
        assert _outcome(load_csv, lambda: str(path), **kwargs) == want
    assert bool(forked) == (name not in _UNSPLIT)


@pytest.mark.parametrize("name", sorted(_STRICT_FILES))
def test_a_split_load_gives_read_csvs_result_where_numpy_may_read_otherwise(tmp_path, name):
    text, _ = _STRICT_FILES[name]
    kwargs = {"has_header": False} if name == "has_header False" else {}
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode())
    with _split_forced():
        assert _outcome(load_csv, lambda: str(path), **kwargs) == _strict_load(path, **kwargs)


def _rows_text(faults=None):
    """A header and 30 rows of three cells, row ``i`` (1-based, on line
    ``i + 1``) replaced by ``faults[i]``: a whole line with its end, or a
    number of cells that fill the row's line to its length."""
    lines = ["a,b,c\n"] + [f"{i},{i / 7!r},-{i}e-3\n" for i in range(1, 31)]
    for i, line in (faults or {}).items():
        if isinstance(line, int):  # so the split points stay where they were
            line = "1," * (line - 1) + "2" * (len(lines[i]) - 2 * line + 1) + "\n"
        lines[i] = line
    return "".join(lines)


# Three parts of _rows_text() start on lines 12 and 22: row 3 lies before
# the first split point, row 15 in the middle worker's part and rows 21 to
# 30 in the last one's.  Each case names the rows it replaces, whether
# the file is split, and who reads a valid file or the error read_csv gives.
_SPLIT_CASES = {
    "empty line before a split": ({3: "\n"}, False, "numpy"),
    # both split points fall in the header or the first data row
    "long header": ({0: "a" * 2000 + ",b,c\n"}, False, "numpy"),
    "cr before a split": ({3: "3,4,5\r\n"}, False, "numpy"),
    "quote before a split": ({3: '"3",4,5\n'}, False, "read_csv"),
    "empty line after the last split": ({28: "\n"}, True, "numpy"),
    "cr after the last split": ({28: "3,4,5\r\n"}, True, "numpy"),
    # numpy ends a line at a lone \r, and reads a blank \r\n line as empty
    "lone cr after the last split": ({28: "3,4,5\r"}, False, "numpy"),
    "blank crlf line after the last split": ({28: "\r\n"}, True, "numpy"),
    "line of spaces after the last split": (
        {28: "   \n"}, True, "ragged row at line 29: expected 3 cells, got 1"),
    "trailing empty lines": ({30: "30,31,32\n\n\n\n"}, True, "numpy"),
    "no final line break": ({30: "30,31,32"}, True, "numpy"),
    "bad cell in the middle part": (
        {15: "1,x,2\n"}, True, "cannot parse 'x' as a number at line 16, column 2"),
    "bad cell in the last part": (
        {28: "1,2,x\n"}, True, "cannot parse 'x' as a number at line 29, column 3"),
    "quoted cell in the last part": ({28: '1,"2",3\n'}, True, "read_csv"),
    "nan in the last part": ({28: "1,nan,3\n"}, True, "non-finite value 'nan' at line 29, column 2"),
    "overflow in the middle part": (
        {15: "1e999,2,3\n"}, True, "non-finite value '1e999' at line 16, column 1"),
    "ragged row in the last part": (
        {28: "1,2\n"}, True, "ragged row at line 29: expected 3 cells, got 2"),
    "narrow last part": (
        dict.fromkeys(range(21, 31), 2), True, "ragged row at line 22: expected 3 cells, got 2"),
    "wide last part": (
        dict.fromkeys(range(21, 31), 6), True, "ragged row at line 22: expected 3 cells, got 6"),
}


@pytest.mark.parametrize("name", sorted(_SPLIT_CASES))
def test_a_split_load_gives_read_csvs_result(tmp_path, monkeypatch, name):
    faults, splits, result = _SPLIT_CASES[name]
    path = tmp_path / "data.csv"
    path.write_bytes(_rows_text(faults=faults).encode())
    want = _strict_load(path)
    loads, whole = [], []
    monkeypatch.setattr(dataset_module, "read_csv", lambda *a, **k: loads.append(1) or read_csv(*a, **k))
    caller, loadtxt = os.getpid(), np.loadtxt

    def spy(*args, **kwargs):
        # a parse of the file by its path, not of read_csv's blocks
        if os.getpid() == caller and "skiprows" in kwargs and kwargs.get("max_rows") is None:
            whole.append(kwargs["skiprows"])
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    with _split_forced() as forked:
        assert _outcome(load_csv, lambda: str(path)) == want
    assert bool(forked) == splits
    if result in ("numpy", "read_csv"):
        assert isinstance(want[0], tuple)
        # where numpy reads the file, no part failed: no worker warned
        assert bool(loads) == (result == "read_csv")
        if splits and result == "numpy":
            # every part's counted rows are numpy's, so no whole-file parse followed
            assert whole == []
    else:
        assert want[1] == result


def test_a_split_load_assembles_one_fortran_array_read_csv_equals(tmp_path):
    values = _file_values(3000, 4)
    path = tmp_path / "data.csv"
    path.write_bytes(_file_text(values, header="abcd").encode())
    with _split_forced(parts=4) as forked:
        ds = load_csv(str(path))
    assert len(forked) == 4
    assert ds.values.flags.f_contiguous and ds.values.tobytes() == values.tobytes()
    assert ds == read_csv(io.StringIO(path.read_text()))


def test_split_workers_print_nothing(tmp_path, monkeypatch, capfd):
    good = tmp_path / "good.csv"
    good.write_bytes(_rows_text().encode())
    bad = tmp_path / "bad.csv"
    bad.write_bytes(_rows_text(faults={15: "1,x,2\n", 28: "1,nan,2\n"}).encode())
    caller, loadtxt = os.getpid(), np.loadtxt

    def warning(*args, **kwargs):
        if os.getpid() != caller:
            warnings.warn("a worker's warning")
        return loadtxt(*args, **kwargs)

    with _split_forced() as forked, warnings.catch_warnings():
        # shown as outside the test suite, on the standard error's descriptor
        warnings.simplefilter("always")
        monkeypatch.setattr(warnings, "showwarning", lambda *a, **k: os.write(2, b"warned\n"))
        load_csv(str(good))
        with pytest.raises(ParseError):
            load_csv(str(bad))
        monkeypatch.setattr(np, "loadtxt", warning)
        assert load_csv(str(good)) == read_csv(io.StringIO(good.read_text()))
    assert len(forked) == 9
    assert capfd.readouterr() == ("", "")


def test_a_worker_that_exits_non_zero_gives_the_whole_files_result(tmp_path, monkeypatch):
    path = tmp_path / "data.csv"
    path.write_bytes(_rows_text().encode())
    want = _strict_load(path)
    caller, exit_ = os.getpid(), os._exit
    # a worker that sent all its values, then failed
    monkeypatch.setattr(os, "_exit", lambda code: exit_(3 if os.getpid() != caller else code))
    whole = []
    loadtxt = np.loadtxt

    def spy(*args, **kwargs):
        # a parse of the file by its path, not of read_csv's blocks
        if os.getpid() == caller and "skiprows" in kwargs and kwargs.get("max_rows") is None:
            whole.append(kwargs["skiprows"])
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    with _split_forced() as forked:
        assert _outcome(load_csv, lambda: str(path)) == want
    assert len(forked) == 3
    assert whole == [1]  # one np.loadtxt of all data lines, as without a split


def test_a_split_load_parses_no_part_in_the_caller(tmp_path, monkeypatch):
    path = tmp_path / "data.csv"
    path.write_bytes(_rows_text().encode())
    want = _strict_load(path)
    _no_block_loop(monkeypatch)
    caller, loadtxt = os.getpid(), np.loadtxt
    calls = []

    def spy(*args, **kwargs):
        if os.getpid() == caller:
            calls.append(kwargs)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    with _split_forced() as forked:
        assert _outcome(load_csv, lambda: str(path)) == want
    assert len(forked) == 3
    assert calls == []


def test_an_interrupt_in_the_callers_wait_kills_and_reaps_the_workers(tmp_path, monkeypatch):
    path = tmp_path / "data.csv"
    path.write_bytes(_rows_text().encode())
    waitpid = os.waitpid
    interrupts = [KeyboardInterrupt]

    def interrupted(*args):
        if interrupts:  # the caller's first wait
            raise interrupts.pop()
        return waitpid(*args)

    # a worker that would outlive its caller
    monkeypatch.setattr(np, "loadtxt", lambda *args, **kwargs: time.sleep(60))
    monkeypatch.setattr(os, "waitpid", interrupted)
    start = time.monotonic()
    with _split_forced() as forked, pytest.raises(KeyboardInterrupt):
        load_csv(str(path))
    assert time.monotonic() - start < 30
    assert len(forked) == 3
    for pid in forked:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@pytest.mark.parametrize("threads, parts", [(False, 3), (True, 1)])
def test_a_caller_with_other_threads_parses_in_one_part(threads, parts):
    release = threading.Event()
    other = threading.Thread(target=release.wait, daemon=True)
    if threads:
        other.start()
    try:
        with _split_forced():
            assert dataset_module._part_count(1 << 20) == parts
    finally:
        release.set()
        if threads:
            other.join(timeout=30)
            assert not other.is_alive()


@pytest.mark.parametrize("tasks, parts", [(["7"], 3), (["7", "8"], 1), (None, 1)])
def test_a_newer_python_splits_only_in_a_process_of_one_os_thread(tasks, parts):
    def listdir(path):
        assert path == "/proc/self/task"
        if tasks is None:
            raise FileNotFoundError(path)
        return tasks

    # such a Python warns on a fork in a process of several OS threads
    with _split_forced(), pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "version_info", (3, 12, 0))
        patch.setattr(os, "listdir", listdir)
        parts_made = dataset_module._part_count(1 << 20)
    assert parts_made == parts


# cells numpy and the csv module may read alike or not; plain ones weigh more
_FUZZ_CELLS = ["0", "1", "-0.0", "2.5", "1e-3", "-7E+2", ".5", "5.", "123456789.125"] * 10 + [
    " 3 ", "\t4", "4\xa0", "1_0", "nan", "-inf", "1e999", "", '"6"', '"7,8"', '"9\n"', "x",
    "\x0c", "\x00", "\ufeff1", "0x1", "\u0661", "#2",
]


@st.composite
def _fuzz_files(draw):
    delimiter = draw(st.sampled_from([",", ";", "\t", " "]))
    width = draw(st.integers(1, 3))
    row = st.lists(st.sampled_from(_FUZZ_CELLS), min_size=width, max_size=width)
    line = st.one_of(row.map(delimiter.join), row.map(delimiter.join), st.sampled_from(["", " "]))
    ending = st.sampled_from(["\n", "\r\n", "\r"])
    body = draw(st.lists(st.tuples(line, ending), max_size=8))
    header = draw(st.sampled_from(["", "a", "a,b", "a,b,c", "1,2"])).replace(",", delimiter)
    text = draw(st.sampled_from(["", "\ufeff"])) + header + draw(ending)
    text += "".join(cells + end for cells, end in body)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text, delimiter, draw(st.sampled_from([None, True, False]))


@settings(max_examples=300, deadline=None)
@given(case=_fuzz_files())
def test_load_csv_gives_read_csvs_result_for_any_file(tmp_path_factory, case):
    text, delimiter, has_header = case
    path = tmp_path_factory.mktemp("fuzz") / "data.csv"
    path.write_bytes(text.encode())
    kwargs = {"delimiter": delimiter, "has_header": has_header}
    assert _outcome(load_csv, lambda: str(path), **kwargs) == _strict_load(path, **kwargs)


@settings(max_examples=300, deadline=None)
@given(case=_fuzz_files())
def test_a_split_load_gives_read_csvs_result_for_any_file(tmp_path_factory, case):
    text, delimiter, has_header = case
    path = tmp_path_factory.mktemp("fuzz") / "data.csv"
    path.write_bytes(text.encode())
    kwargs = {"delimiter": delimiter, "has_header": has_header}
    with _split_forced():
        assert _outcome(load_csv, lambda: str(path), **kwargs) == _strict_load(path, **kwargs)



@st.composite
def _numeric_files(draw):
    """Numeric rows of one width among blank lines, with every kind of line
    end, and the last line's end perhaps left out: files numpy reads.  At
    least the first half of the lines are rows that end in ``\\n``, so that
    the file may split before the others."""
    width = draw(st.integers(1, 3))
    kinds = draw(st.lists(st.sampled_from(["row", "row", "row", "blank"]), min_size=1, max_size=30))
    ends = draw(st.lists(st.sampled_from(["\n", "\n", "\r\n", "\r"]),
                         min_size=len(kinds), max_size=len(kinds)))
    plain = draw(st.integers(len(kinds) // 2, len(kinds)))
    kinds[:plain], ends[:plain] = ["row"] * plain, ["\n"] * plain
    lines = [",".join([str(i)] * width) if kind == "row" else "" for i, kind in enumerate(kinds)]
    text = "".join(line + end for line, end in zip(lines, ends))
    return text.rstrip("\r\n") if draw(st.booleans()) else text


@settings(max_examples=300, deadline=None)
@given(text=_numeric_files(), skip=st.integers(0, 2), parts=st.integers(2, 3))
def test_a_split_counts_the_rows_numpy_reads_in_each_part(tmp_path_factory, text, skip, parts):
    path = str(tmp_path_factory.mktemp("split") / "data.csv")
    with open(path, "wb") as fh:
        fh.write(text.encode())
    split = dataset_module._split_lines(path, os.path.getsize(path), skip, parts)
    if split is None:
        return
    options = {"delimiter": ",", "comments": None, "ndmin": 2, "encoding": "utf-8-sig"}
    got = [np.loadtxt(path, skiprows=lo, max_rows=None if k == len(split) else rows, **options)
           for k, (lo, rows) in enumerate(split, 1)]
    assert [len(part) for part in got] == [rows for _, rows in split]
    assert np.concatenate(got).tobytes() == np.loadtxt(path, skiprows=skip, **options).tobytes()
