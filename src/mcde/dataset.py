"""Numerical datasets: validation, CSV input/output, column projection.

CSV text is parsed into one flat buffer of floats, so no per-row object
outlives its row.  Once the first data row has fixed the width, the lines
are read in blocks of ``_BLOCK_LINES``.  A plain block (digits, ``eE+-.``,
the delimiter and one line break at the end of each line) is parsed by
numpy in one call.  Only the other blocks go through the strict loop, which
parses a row as the csv module yields it and is the only path that raises:
numpy and ``float`` read plain cells alike, so a block numpy rejects is
replayed through the strict loop, which reports the error at its line, and
numpy resumes at the first row end past that block.  Values are held
column-major (Fortran order) because every downstream pass walks single
columns.  Datasets are immutable after construction; the backing array is
marked read-only so they can be shared across threads.
"""

from __future__ import annotations

import csv
import math
import re
from array import array
from itertools import chain, islice
from typing import Iterable, Iterator, Sequence

import numpy as np


class DataError(Exception):
    """Base class for problems with input data."""


class ParseError(DataError):
    """A cell could not be parsed as a number."""


class ValidationError(DataError):
    """A parsed value violates dataset invariants (NaN or infinity)."""


class StructureError(DataError):
    """The file shape is wrong: empty input or ragged rows."""


class Dataset:
    """An n x d matrix of finite real numbers with named columns."""

    __slots__ = ("values", "column_names")

    def __init__(self, values, column_names: Sequence[str] | None = None):
        arr = np.asfortranarray(values, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got ndim={arr.ndim}")
        n, d = arr.shape
        if n < 1 or d < 1:
            raise ValueError(f"dataset must have n >= 1 and d >= 1, got {n}x{d}")
        if not np.all(np.isfinite(arr)):
            bad = np.argwhere(~np.isfinite(arr))[0]
            raise ValidationError(
                f"non-finite value at row {bad[0]}, column {bad[1]}"
            )
        if column_names is None:
            column_names = tuple(f"col{j}" for j in range(d))
        else:
            column_names = tuple(str(name) for name in column_names)
            if len(column_names) != d:
                raise ValueError(
                    f"got {len(column_names)} column names for {d} columns"
                )
        arr.setflags(write=False)
        self.values = arr
        self.column_names = column_names

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]

    def column(self, j: int) -> np.ndarray:
        """Contiguous read-only view of column ``j``."""
        return self.values[:, j]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.column_names == other.column_names
            and self.values.shape == other.values.shape
            and bool(np.array_equal(self.values, other.values))
        )

    def __repr__(self) -> str:
        return f"Dataset(n={self.n}, d={self.d}, columns={list(self.column_names)})"


def check_dims(dims: Sequence[int], d: int) -> tuple[int, ...]:
    """Validate a column-index selection: distinct, each in [0, d)."""
    dims = tuple(int(j) for j in dims)
    if len(set(dims)) != len(dims):
        raise ValueError(f"duplicate column indices in {list(dims)}")
    for j in dims:
        if not 0 <= j < d:
            raise ValueError(f"column index {j} out of range for d={d}")
    if not dims:
        raise ValueError("at least one column index is required")
    return dims


def select_subspace(ds: Dataset, dims: Sequence[int]) -> Dataset:
    """Project onto the given columns, keeping their order."""
    dims = check_dims(dims, ds.d)
    return Dataset(ds.values[:, dims], [ds.column_names[j] for j in dims])


def _parse_cell(cell: str, line_no: int, col_no: int) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise ParseError(
            f"cannot parse {cell!r} as a number at line {line_no}, column {col_no}"
        ) from None
    if not math.isfinite(value):
        raise ValidationError(
            f"non-finite value {cell!r} at line {line_no}, column {col_no}"
        )
    return value


def _looks_numeric(row: Sequence[str]) -> bool:
    for cell in row:
        try:
            float(cell)
        except ValueError:
            return False
    return True


def _decode_error_line(exc: UnicodeDecodeError, lines_read: int) -> int:
    """1-based line of the byte a text stream failed to decode.

    A text stream decodes its input in chunks, ``exc.object`` being the one
    that failed, and decodes the next chunk only once no line ending is left
    in the text decoded so far: the failing chunk starts inside the line
    after the ``lines_read`` the reader has taken.
    """
    before = exc.object[:exc.start]
    return lines_read + 1 + len(re.findall(rb"\r\n|\r|\n", before))


def _input_error(
    exc: csv.Error | UnicodeDecodeError, row_line: int, lines_read: int
) -> ParseError:
    """The error for input the csv module or the text decoder rejects.

    ``row_line`` is the line the failing row starts on, ``lines_read`` the
    number of lines taken from the source before the failure.
    """
    if isinstance(exc, UnicodeDecodeError):
        return ParseError(
            f"cannot decode byte {exc.object[exc.start:exc.start + 1]!r} as "
            f"{exc.encoding} at line {_decode_error_line(exc, lines_read)}"
        )
    return ParseError(f"{exc} at line {row_line}")


def csv_rows(source: Iterable[str], delimiter: str = ",") -> Iterator[tuple[int, list[str]]]:
    """The rows of CSV text lines, as the csv module splits them, each with
    the 1-based line it starts on.

    Input the csv module or the text decoder rejects raises
    :class:`ParseError` naming its line, as in :func:`read_csv`.
    """
    reader = csv.reader(source, delimiter=delimiter)
    last_line = 0
    try:
        for row in reader:
            # a row starts on the line after the previous one ended
            line, last_line = last_line + 1, reader.line_num
            yield line, row
    except (csv.Error, UnicodeDecodeError) as exc:
        raise _input_error(exc, last_line + 1, reader.line_num) from None


# Lines per block, in the fast path of read_csv and in write_csv.  The
# allocator keeps some of a block's freed text, which larger blocks add to
# the peak memory of a whole estimate, and they parse no faster.
_BLOCK_LINES = 1 << 8

# The characters of a plain cell.  ``float`` and numpy's text reader both
# convert with ``PyOS_string_to_double``, so they accept and read such a
# cell alike; ``_`` stays out, because only ``float`` reads ``1_0``.
_PLAIN = "0123456789eE+-."


def _plain_values(block: list[str], width: int, delimiter: str) -> np.ndarray | None:
    """The values of a plain block of lines, as an array of ``width`` columns.

    None when the block is not plain, when numpy rejects it, or when it
    holds a row of another width or a non-finite value: the strict loop
    then parses the block.
    """
    try:
        text = "".join(block)
    except TypeError:  # an element that is no string, which the csv module names
        return None
    plain = (_PLAIN + "\r\n" + delimiter).encode()
    if not text.isascii() or text.encode("ascii").translate(None, plain):
        return None
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, block)) > limit:
        return None  # a cell may pass the csv module's field size limit
    if not text.lstrip("\r\n"):
        return np.empty((0, width))  # blank lines only, which hold no row
    try:
        # numpy rejects a list element with a line break before its end,
        # a ``\r`` included, unless it begins a final ``\r\n``
        values = np.loadtxt(block, delimiter=delimiter, comments=None, ndmin=2)
    except ValueError:
        return None
    if values.shape[1] != width or not np.isfinite(values).all():
        return None
    return values


def _raising(exc: Exception) -> Iterator[str]:
    """A generator whose first ``next`` raises ``exc``, as the source did."""
    raise exc
    yield


def read_csv(
    source: Iterable[str],
    has_header: bool | None = None,
    delimiter: str = ",",
) -> Dataset:
    """Parse CSV text lines into a Dataset.

    ``has_header=None`` auto-detects: the first row is treated as a header
    when any of its cells is non-numeric.  After the first data row, numpy
    parses blocks of plain lines: numbers in ``[0-9eE+-.]`` and the
    delimiter, each line a source element that ends in its only line break.
    Only the other blocks go through the strict loop over the csv module's
    rows, each up to the first row end past it, and so does every error.
    Errors carry 1-based file line numbers and column numbers; input the csv
    module or the text decoder rejects raises :class:`ParseError` too.
    """
    lines = iter(source)
    # a delimiter that can occur inside a plain cell, or a line break, takes no fast path
    fast = delimiter not in _PLAIN + "\r\n"
    names: list[str] | None = None
    width = 0
    cells = array("d")
    block: list[str] = []  # lines numpy rejected, which the strict loop parses first
    base = 0  # lines read before the reader's first
    last_line = 0
    try:
        while True:
            reader = csv.reader(chain(block, lines), delimiter=delimiter)
            for row in reader:
                # a row starts on the line after the previous one ended, which
                # counts blank lines and quoted multi-line cells
                line_no, last_line = last_line + 1, base + reader.line_num
                if not row:
                    continue
                if not width:
                    if names is None and (
                        not _looks_numeric(row) if has_header is None else has_header
                    ):
                        names = [cell.strip() for cell in row]
                        continue
                    width = len(row)
                elif len(row) != width:
                    raise StructureError(
                        f"ragged row at line {line_no}: expected {width} cells, got {len(row)}"
                    )
                for j, cell in enumerate(row, 1):
                    cells.append(_parse_cell(cell.strip(), line_no, j))
                # numpy takes over at the first row end past ``block``, which a
                # quoted cell may cross; ``block`` is empty at the first data row
                if fast and reader.line_num >= len(block):
                    break
            else:
                break
            # numpy parses the plain blocks that follow, up to the next other one
            base = last_line
            while True:
                block = []
                try:
                    # extend keeps the lines it took before the source raised
                    block.extend(islice(lines, _BLOCK_LINES))
                except Exception as exc:  # raised again after the lines read before it
                    lines = _raising(exc)
                    break
                values = _plain_values(block, width, delimiter) if block else None
                if values is None:
                    break
                cells.frombytes(values.tobytes())
                base = last_line = base + len(block)
    except (csv.Error, UnicodeDecodeError) as exc:
        raise _input_error(exc, last_line + 1, base + reader.line_num) from None
    if not width:
        if names is None:
            raise StructureError("empty input: no rows found")
        raise StructureError("no data rows after the header")
    if names is not None and len(names) != width:
        raise StructureError(
            f"header has {len(names)} names but rows have {width} cells"
        )
    return Dataset(np.frombuffer(cells).reshape(-1, width), names)


def load_csv(
    path: str,
    has_header: bool | None = None,
    delimiter: str = ",",
) -> Dataset:
    """Load a dataset from a CSV file (UTF-8, LF or CRLF)."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        return read_csv(fh, has_header=has_header, delimiter=delimiter)


def write_csv(ds: Dataset, fh, delimiter: str = ",") -> None:
    """Write a dataset as CSV, a header of its column names first, with
    shortest round-trip decimal values."""
    writer = csv.writer(fh, delimiter=delimiter, lineterminator="\n")
    writer.writerow(ds.column_names)
    # the csv module writes a float as its repr
    for lo in range(0, ds.n, _BLOCK_LINES):
        writer.writerows(ds.values[lo:lo + _BLOCK_LINES].tolist())


def save_csv(ds: Dataset, path: str, delimiter: str = ",") -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_csv(ds, fh, delimiter=delimiter)
