import io
import tracemalloc

import numpy as np
import pytest

from mcde import (
    Dataset,
    ParseError,
    StructureError,
    ValidationError,
    load_csv,
    read_csv,
    save_csv,
    select_subspace,
)
from mcde.dataset import csv_string


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


@pytest.mark.parametrize("text, error, where", [
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
])
def test_errors_name_file_lines_past_blank_and_multiline_rows(text, error, where):
    with pytest.raises(error, match=where):
        read_csv(io.StringIO(text))


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
    save_csv(ds, str(path))
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


def test_csv_string_has_header_and_lf():
    ds = Dataset(np.array([[0.5, 1.5]]), ["u", "v"])
    assert csv_string(ds) == "u,v\n0.5,1.5\n"


@pytest.mark.parametrize("data, line", [
    (b"x,y\n1,2\n3,\xff4\n5,6\n", 3),
    # past the first chunk a text stream decodes, with CRLF and a BOM
    (b"\xef\xbb\xbfx,y\r\n" + b"1.5,2.25\r\n" * 3000 + b"3,4\xc3\r\n5,6\r\n", 3002),
])
def test_undecodable_byte_is_parse_error_naming_its_line(tmp_path, data, line):
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    with pytest.raises(ParseError, match=f"as utf-8 at line {line}$"):
        load_csv(str(path))


def test_field_over_the_csv_limit_is_parse_error_naming_its_line(tmp_path):
    path = tmp_path / "long.csv"
    path.write_text('x,y\n1,2\n3,"' + "9" * 200_000 + '"\n5,6\n')
    with pytest.raises(ParseError, match=r"field limit \(131072\) at line 3$"):
        load_csv(str(path))
