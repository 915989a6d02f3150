"""Numerical datasets: validation, CSV input/output, column projection.

:func:`load_csv` hands a regular file to numpy's text reader by its path,
so numpy reads it in large chunks and splits its lines in C.  The header is
decided first, as :func:`read_csv` decides it, from the file's first rows;
numpy then parses the lines from the first data row on.  The file falls
back to :func:`read_csv` wherever numpy may read it otherwise: when it is
no regular file (a pipe can be read only once), when its name ends in a
suffix numpy decompresses, when the delimiter takes no fast path, when no
data row follows the header or the header's width differs from the first
row's, when a line passes the csv module's field size limit, and when
numpy rejects the file or reads a non-finite value.
So every file gives the dataset or the error, with its line and column,
that :func:`read_csv` gives, and a valid file numpy rejects, such as one
with quoted cells, is read twice.

``np.loadtxt`` holds the interpreter lock, so a large file is parsed in
processes: its data lines are split at line ends into one part per CPU,
each of at least ``_MIN_PART`` bytes.  One scan of the file first counts
each part's rows, and the dataset's Fortran-order array is allocated in an
anonymous shared mapping.  The caller parses the first part with
``max_rows``, and a forked worker each other part with ``skiprows``, by the
same path and with the same arguments, so numpy reads every line as it
would in one call; each writes its rows into its own rows of the array,
which the dataset keeps without a copy.  The file is split only where the
lines before the last split point hold no ``\r``, no ``"`` and no empty
data line, because ``max_rows`` skips an empty line that ``skiprows``
counts.  The last part is read to its end, so its rows are its lines less
its empty ones; a ``\r`` in it outside a ``\r\n``, which numpy reads as a
line end, keeps the file whole.  A small file, a platform without
``os.fork``, a caller with other Python threads, and on Python 3.12 or
later a process with other OS threads (numpy's BLAS starts them at import
unless ``OPENBLAS_NUM_THREADS=1``) parse the file in one call.  So does a
split that fails, where numpy rejects a part, a part's shape differs from
its counted rows and the first data row's width, or a worker fails; a
non-finite value in any part sends the file to :func:`read_csv`, as above.
Workers write nothing but their rows, leave by ``os._exit``, and are always
reaped, on an interrupt too.

:func:`read_csv` parses any source of lines, stdin among them, into one
flat buffer of floats, so no per-row object outlives its row.  Once the
first data row has fixed the width, the lines are read in blocks of
``_BLOCK_LINES``.  A plain block (digits, ``eE+-.``, the delimiter and one
line break at the end of each line) is parsed by numpy in one call.  Only
the other blocks go through the strict loop, which parses a row as the csv
module yields it and is the only path that raises: numpy and ``float`` read
plain cells alike, so a block numpy rejects is replayed through the strict
loop, which reports the error at its line, and numpy resumes at the first
row end past that block.  Values are held column-major (Fortran order)
because every downstream pass walks single columns.  Datasets are immutable
after construction; the backing array is marked read-only so they can be
shared across threads.

:func:`csv_blocks` gives the rows of a binary stream, a pipe from a
followed file among them, in blocks: the rows of the complete lines one
``read1`` returned, decoded and split as a text file opened with
``newline=""`` is.  A read returns what the stream holds and waits only
when it holds nothing, so a caller can act on the rows in hand before the
next read waits for more.
"""

from __future__ import annotations

import codecs
import csv
import math
import operator
import os
import re
import stat
import sys
import threading
import warnings
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


def check_index(j: int) -> int:
    """A column index as an ``int``: any integer but a bool, which would
    select column 0 or 1."""
    if isinstance(j, bool):
        raise TypeError("a column index must be an integer, not a bool")
    return operator.index(j)


def check_dims(dims: Sequence[int], d: int) -> tuple[int, ...]:
    """Validate a column-index selection: distinct integers, each in [0, d)."""
    dims = tuple(map(check_index, dims))
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


def _is_header(row: Sequence[str], has_header: bool | None) -> bool:
    """Whether the first non-blank row is a header: as ``has_header`` says,
    or, when it is None, when any of its cells is non-numeric."""
    return not _looks_numeric(row) if has_header is None else bool(has_header)


def _decode_error_line(exc: UnicodeDecodeError, lines_read: int) -> int:
    """1-based line of the byte a line source failed to decode.

    ``exc.object`` starts inside the line after the ``lines_read`` the
    reader has taken, so the line ends in ``exc.object[:exc.start]`` are
    those of lines the reader was not handed.  A text stream decodes its
    input in chunks, ``exc.object`` being the one that failed, and decodes
    the next chunk only once no line ending is left in the text decoded so
    far; :func:`_read_lines` hands over every line before the byte and
    raises with ``exc.object`` starting at it.
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


# The most bytes one read of csv_blocks takes.  The monitor scores a block's
# windows in stacks of one draw pass whatever its size, so larger reads score
# no faster and only hold more rows at once: `mcde monitor` over 3,000 rows
# from a file peaked at 33.2 MiB RSS with 16 KiB reads and at 33.8 MiB with
# 64 KiB, in the same time (2-vCPU x86_64 host).
_READ_SIZE = 1 << 14

# a line with its end, which open(..., newline="") splits at \n, \r and \r\n,
# or a last line without one
_LINE = re.compile(r"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+")


def _read_lines(binary, left: list[str]) -> Iterator[str]:
    """The lines of a binary stream, as ``open(path, "r",
    encoding="utf-8-sig", newline="")`` yields them, taken one ``read1`` at
    a time: what the file or pipe holds, which waits only when it holds
    nothing.

    ``left`` holds the complete lines of the last read not yet yielded, last
    first.  A partial last line, or a last ``\\r`` that a ``\\n`` may follow,
    waits for the next read.  The lines before an undecodable byte are
    yielded before the error is raised, with its ``object`` starting at that
    byte, so :func:`_decode_error_line` counts no line twice.
    """
    decoder = codecs.getincrementaldecoder("utf-8-sig")()
    held = ""
    while True:
        data = binary.read1(_READ_SIZE)
        error = None
        try:
            text = held + decoder.decode(data, final=not data)
        except UnicodeDecodeError as exc:
            text = held + exc.object[:exc.start].decode("utf-8")
            error = UnicodeDecodeError(exc.encoding, exc.object[exc.start:], 0,
                                       exc.end - exc.start, exc.reason)
        if error is not None:  # a last \r before the undecodable byte ends its line
            end = max(text.rfind("\n"), text.rfind("\r")) + 1
        elif data:  # a last \r may begin a \r\n
            end = max(text.rfind("\n"), text.rfind("\r", 0, -1)) + 1
        else:
            end = len(text)
        held = text[end:]
        left[:] = reversed(_LINE.findall(text, 0, end))
        while left:
            yield left.pop()
        if error is not None:
            raise error
        if not data:
            return


def csv_blocks(binary, delimiter: str = ",") -> Iterator[list[tuple[int, list[str]]]]:
    """The rows of CSV bytes, as :func:`csv_rows` gives the lines a text
    file of them holds, in blocks: a block is the rows of the complete lines
    one read returned, blank lines left out.

    A row that continues past the lines of a read, in a quoted cell, joins
    the block of the read that completes it.  The rows before an error are
    yielded as a block before it is raised.
    """
    left: list[str] = []
    block: list[tuple[int, list[str]]] = []
    try:
        for line, row in csv_rows(_read_lines(binary, left), delimiter):
            if row:
                block.append((line, row))
            if block and not left:  # the reader has taken every line of the read
                yield block
                block = []
    except (DataError, OSError):
        if block:
            yield block
        raise


# Lines per block, in the fast path of read_csv and in write_csv.  The
# allocator keeps some of a block's freed text, which larger blocks add to
# the peak memory of a whole estimate, and they parse no faster.
_BLOCK_LINES = 1 << 8

# The characters of a plain cell.  ``float`` and numpy's text reader both
# convert with ``PyOS_string_to_double``, so they accept and read such a
# cell alike; ``_`` stays out, because only ``float`` reads ``1_0``.
_PLAIN = "0123456789eE+-."


def _fast(delimiter: str) -> bool:
    """Whether numpy may parse lines of this delimiter: not one that can
    occur inside a plain cell, nor a line break."""
    return delimiter not in _PLAIN + "\r\n"


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
    fast = _fast(delimiter)
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
                    if names is None and _is_header(row, has_header):
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


# numpy opens a path through ``np.lib._datasource``, which decompresses a
# file by these suffixes; read_csv reads such a file as text
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")

# the bytes _short_lines reads first from each block
_LINE_PROBE = 4096


def _short_lines(path: str) -> bool:
    """Whether every line of the file is shorter than the csv module's
    field size limit, which :func:`read_csv` enforces and numpy does not.

    Each whole block of half the limit must hold a line break: a stretch
    with no line break then spans no whole block, so it is shorter than the
    limit in bytes and in characters.  Only a block's first ``_LINE_PROBE``
    bytes are read unless they hold no line break, so the scan reads a
    small part of a file of short lines; a memory map of the file would
    add its pages to the peak resident size.
    """
    half = max(csv.field_size_limit() // 2, 1)
    with open(path, "rb", buffering=0) as raw:
        for lo in range(0, os.fstat(raw.fileno()).st_size - half + 1, half):
            for size in (min(half, _LINE_PROBE), half):  # the block's head, then all of it
                raw.seek(lo)
                block = raw.read(size)
                if b"\n" in block or b"\r" in block:
                    break
            else:
                return False
    return True


# A file is parsed in parts only where each part holds at least this many
# bytes: below it, the fork and the line count cost more than the part's
# share of the parse saves.  On a 2-vCPU x86_64 host two parts break even
# near 0.3 MB each (a 0.6 MB file of three columns: 14.2 ms split, 14.8 ms
# whole), and a 1 MB file split in two takes 0.87x the time.
_MIN_PART = 1 << 19

# the bytes of each read of _split_lines
_CHUNK = 1 << 18


def _part_count(size: int) -> int:
    """How many parts a file of ``size`` bytes is parsed in at once: one
    per CPU of this process, each at least ``_MIN_PART`` bytes, and one
    where a fork is missing or may be unsafe."""
    parts = size // _MIN_PART
    if parts < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    if sys.version_info >= (3, 12):
        # such a Python warns on a fork in a process of several OS threads
        try:
            if len(os.listdir("/proc/self/task")) != 1:
                return 1
        except OSError:
            return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return min(parts, cpus)


def _split_lines(path: str, size: int, skip: int, parts: int) -> list[tuple[int, int]] | None:
    """The ``parts`` parts of about equal size that the file's lines after
    the first ``skip`` are split into, each as the number of lines before
    it and the number of rows it holds; None where the file cannot be split.

    Each part but the last ends after a ``\\n``, and each holds a row.  The
    bytes before the last part hold no ``\\r``, no ``"`` and no empty line
    after the first ``skip``: a part is read up to its end with numpy's
    ``max_rows``, which skips empty lines, and the next from there with
    ``skiprows``, which counts them.  The last part is read to the end of
    the file, so its rows are its lines less its empty ones, which hold
    nothing or a ``\\r\\n`` only; a ``\\r`` in it outside a ``\\r\\n`` ends a
    line for numpy, so it keeps the file whole.  The lines are counted in
    reads of ``_CHUNK`` bytes, so the file is never held in memory.
    """
    points: list[int] = []  # the first byte of each part after the first
    with open(path, "rb", buffering=0) as raw:
        for k in range(1, parts):
            # the first line end at or past the point's target
            at = max(size * k // parts, points[-1] if points else 0)
            raw.seek(at)
            while block := raw.read(_LINE_PROBE):
                end = block.find(b"\n")
                if end >= 0:
                    points.append(at + end + 1)
                    break
                at += len(block)
            else:
                return None
        raw.seek(0)
        buf = bytearray(_CHUNK)
        view = memoryview(buf)
        counts: list[int] = []  # the lines before each point
        base = lines = 0  # the bytes and the line ends before the chunk
        blank = 0  # the empty lines of the last part
        after_end = True  # whether a line end precedes the chunk, as the file's start
        # no read crosses the last point, so a chunk lies before it or in the last part
        while got := raw.readinto(view[:min(_CHUNK, points[-1] - base)] if base < points[-1] else view):
            last = base >= points[-1]
            cr = buf.find(b"\r", 0, got) >= 0
            if not last and (cr or buf.find(b'"', 0, got) >= 0):
                return None
            if cr and buf.count(b"\r", 0, got) != buf.count(b"\r\n", 0, got):
                return None  # a \r that numpy reads as a line end
            data = np.frombuffer(buf, np.uint8, got)
            ends = data == ord("\n")
            if cr or (after_end and ends[0]) or (ends[1:] & ends[:-1]).any():
                # a line end right after another, or after a \r right after
                # another, ends an empty line, which is the line of its index
                # among the line ends
                at = np.flatnonzero(ends)
                gap = np.diff(at, prepend=-1 if after_end else -3)
                empty = (gap == 1) | (gap == 2) & (data[at - 1] == ord("\r"))
                if last:
                    blank += int(np.count_nonzero(empty))
                elif lines + np.flatnonzero(empty)[-1] >= skip:
                    return None
            while len(counts) < len(points) and points[len(counts)] <= base + got:
                counts.append(lines + int(np.count_nonzero(ends[:points[len(counts)] - base])))
            lines += int(np.count_nonzero(ends))
            after_end = bool(ends[-1])
            base += got
    if len(counts) < len(points) or counts[0] <= skip:
        return None
    # the last part's rows, a last line without its end among them
    rows = lines + (not after_end) - counts[-1] - blank
    if rows < 1:
        return None
    starts = [skip, *counts]
    return [(lo, hi - lo) for lo, hi in zip(starts, counts)] + [(counts[-1], rows)]


def _fork_part(path: str, skip: int, max_rows: int | None, out: np.ndarray, options: dict) -> int:
    """Fork a worker that parses ``max_rows`` rows of the file (all where
    None) after its first ``skip`` lines into the shared array ``out``:
    the worker's pid.  It exits 0 only where their shape is ``out``'s.

    The worker writes nothing else, where numpy raises or warns included,
    and leaves by ``os._exit``, so it runs none of its parent's exit code.
    """
    pid = os.fork()
    if pid == 0:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                part = np.loadtxt(path, skiprows=skip, max_rows=max_rows, **options)
            if part.shape == out.shape:
                out[...] = part
                os._exit(0)
        finally:
            os._exit(1)
    return pid


def _parse_parts(path: str, parts: list[tuple[int, int]], d: int, options: dict) -> np.ndarray | None:
    """The values of the file's ``parts`` (see :func:`_split_lines`), of
    ``d`` columns each, parsed by numpy into one Fortran-order array; None
    where a part fails or its shape differs from its rows and ``d``.

    The array lives in an anonymous shared mapping, allocated before the
    first fork.  Each part after the first is parsed by a forked worker,
    which writes it straight into its rows; the caller parses the first and
    copies it in.  Every worker is reaped before this returns or raises.
    """
    import mmap  # here, so that importing mcde loads no more modules
    import signal

    n = sum(rows for _, rows in parts)
    values = np.ndarray((n, d), order="F", buffer=mmap.mmap(-1, 8 * n * d))
    workers: list[int] = []  # until each is reaped
    try:
        lo = parts[0][1]  # the caller's rows come first
        try:
            for k, (skip, rows) in enumerate(parts[1:], 2):
                # the last part is read to its end: under max_rows numpy
                # warns at an empty line
                max_rows = None if k == len(parts) else rows
                workers.append(_fork_part(path, skip, max_rows, values[lo:lo + rows], options))
                lo += rows
        except OSError:  # no process to be had
            return None
        skip, rows = parts[0]
        try:
            first = np.loadtxt(path, skiprows=skip, max_rows=rows, **options)
        except ValueError:
            return None
        if first.shape != (rows, d):
            return None
        values[:rows] = first
        del first
        while workers:
            status = os.waitpid(workers[-1], 0)[1]
            workers.pop()
            if status:
                return None
        return values
    finally:
        for pid in workers:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _numpy_file(path, has_header: bool | None, delimiter: str) -> Dataset | None:
    """The dataset of a regular CSV file, its lines parsed by numpy from
    its path, or None where :func:`read_csv` must read the file (see the
    module docstring)."""
    path = os.fspath(path)
    if not isinstance(path, str) or path.endswith(_COMPRESSED) or not _fast(delimiter):
        return None
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):
            return None
    except OSError:
        return None  # raised again by load_csv's open
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        names = None
        try:
            # the header and the first data row, as read_csv decides them
            for line, row in csv_rows(fh, delimiter):
                if not row:
                    continue
                if names is None and _is_header(row, has_header):
                    names = [cell.strip() for cell in row]
                    continue
                break
            else:
                return None  # no data row, of which numpy only warns
        except ParseError:
            return None
    if (names is not None and len(names) != len(row)) or not _short_lines(path):
        return None
    path = os.path.abspath(path)  # which numpy cannot take for a URL
    options = {"delimiter": delimiter, "comments": None, "ndmin": 2, "encoding": "utf-8-sig"}
    size = os.path.getsize(path)
    parts = _part_count(size)
    split = _split_lines(path, size, line - 1, parts) if parts > 1 else None
    values = _parse_parts(path, split, len(row), options) if split else None
    if values is None:  # the file in one part
        try:
            values = np.loadtxt(path, skiprows=line - 1, **options)
        except ValueError:  # UnicodeDecodeError included
            return None
    try:
        return Dataset(values, names)
    except ValidationError:  # a non-finite value, which read_csv locates
        return None


def load_csv(
    path: str,
    has_header: bool | None = None,
    delimiter: str = ",",
) -> Dataset:
    """Load a dataset from a CSV file (UTF-8, LF, CRLF or CR line ends).

    A regular file is parsed by numpy from its path; a file numpy does not
    read exactly as :func:`read_csv` would goes through :func:`read_csv`,
    so a valid file numpy rejects, such as one with quoted cells, is read
    twice.  Either way the dataset and every error are :func:`read_csv`'s.
    """
    ds = _numpy_file(path, has_header, delimiter)
    if ds is not None:
        return ds
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
