"""Sliding-window dependency monitoring over a row stream.

The monitor keeps only the last ``width`` rows of the watched columns and,
every ``step`` accepted rows once the window is full, indexes the window and
scores it.  Memory stays at O(width * d).  Each window's score is seeded
from ``(master seed, window end row)`` so the emission for a given window
equals an offline :func:`~mcde.contrast.contrast` call on the same rows.

The ring buffer is column-major: row j holds the last ``width`` values of
monitored column j, each checked finite as its stream row was read.  At a
step of at most ``_CARRY_MAX_STEP`` the monitor also carries the sorted
order of each tie-free column forward (:class:`_SortedColumn`, in the
spirit of the stream MCDE of Fouché, Mazankiewicz, Kalinke & Böhm, "A
framework for dependency estimation in heterogeneous data streams", DAPD
2021): every accepted row bisects the leaving value out of the sorted
values and the new value in, in O(w) memmove, so the column's window is
indexed with no sort at all.  A tie-free column has exactly one sorted
order, so its index is array for array the one a rebuild gives and scores
do not change.  A tied column is not carried, because the order inside its
tie runs follows window-relative row ids, which shift with every row: a
column drops its carry when a new value equals one still in the window.
Every window rebuilds each column without a carry.  A rebuild rotates the
buffer's row to put the oldest value first and runs the per-column build
of :func:`~mcde.ranking.construct_index`, with the column's tie-break
vector drawn at its first rebuild that finds ties and kept for the
monitor's later ones.  A rebuilt column that is tie-free, at a
step that carries, seeds the carry: so does every column of the first
window, and a tied column rejoins the carry at its first tie-free rebuild.

Carrying costs about 2 µs per column per accepted row, and a window's
index then costs a copy of its row ids; a rebuild costs about 16 µs per
column per window at width 900.  In process, over 20,000 rows at width
900, M=50 and d=2 on a 2-vCPU x86_64 host, carrying took 0.80 s against
0.89 s for rebuilding at step 4, 0.52 s against 0.54 s at step 7, 0.46 s
against 0.49 s at step 8 (0.47 s against 0.47 s in another run), 0.41 s
against 0.41 s at step 10 and 0.23 s against 0.19 s at step 20.  So
carrying stops at step 7, the largest step it won in every run.

A window's random integers depend only on its shape, the estimator settings
and its seed, never on its rows.  So the monitor draws them ahead, for the
end rows of the next ``LANES // m`` windows in one vectorised pass (see
:mod:`mcde._rng`), their seeds derived in one pass too, predicting that no
row will be skipped.  A window whose end row was not predicted, as after a
malformed row in lenient mode, draws a new block from its own end row on,
so every emission stays exact.

A window scored alone pays all of an estimate's fixed numpy bookkeeping,
which :func:`~mcde.contrast._estimate` pays once for a stack of windows of
one width.  So the rows in hand are scored as a block: the monitor loop
takes its rows in blocks, each window keeps its index, seed and draws
until its block ends or one draw-ahead block of windows waits, and the
waiting windows are scored in one call and yielded in row order, their
drift flags set as they go.  Reading ahead to fill a block would delay
every window of a live source, such as a followed file, that holds back
its next row: so the public :func:`monitor` takes one-row blocks and
yields each window before it asks for the next row, since an iterable has
no rows "in hand".  ``mcde monitor`` makes a block of the rows of each
read of its input (:func:`~mcde.dataset.csv_blocks`), which returns what
the file or pipe holds and waits only when it holds nothing, and flushes
its output after each block: a live source that writes one row at a time
gives one-row blocks, each window printed before the next row is read,
and a burst of rows is scored in stacks.  A window's score does not
depend on the stack it is scored in, so the blocks change no emission,
and a file, a pipe and stdin give the same bytes.  A block pairs each row
with the file line it starts on, which :func:`monitor` does not know: a
malformed row's :class:`StreamFormatError`, raised in strict mode and
yielded as an item in lenient mode, names its ``line`` where it is known.

A drift layer flags windows whose score stays below a threshold
for a run of consecutive emissions.  It is a plain heuristic convenience,
not part of the estimator.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from ._rng import LANES, check_seed, derive_seed, derive_seeds
from .contrast import ContrastEstimate, _draw, _estimate
from .dataset import check_index
from .ranking import DimensionIndex, RankIndex, _build_dimension, _tie_free, _tiebreak
from .slicing import check_alpha, check_count

# the largest step at which the monitor carries a tie-free column's sorted
# order forward row by row; larger steps rebuild every window (see the module
# docstring for the measurement)
_CARRY_MAX_STEP = 7


class StreamFormatError(Exception):
    """A stream row could not be used; carries the 0-based row index, the
    1-based column of a bad cell and the 1-based file line of the row,
    where they are known."""

    def __init__(self, row_index: int, reason: str, column: int | None = None,
                 line: int | None = None):
        where = ", ".join(f"{name} {at}" for name, at in (("line", line), ("column", column))
                          if at is not None)
        super().__init__(f"row {row_index}: {reason}" + (f" at {where}" if where else ""))
        self.row_index = row_index
        self.reason = reason
        self.column = column
        self.line = line


@dataclass(frozen=True)
class WindowConfig:
    """Sliding-window and estimator settings."""

    width: int
    dims: tuple[int, ...]
    step: int = 1
    m: int = 50
    alpha: float = 0.5
    seed: int = 0
    drift_threshold: float = 0.55
    drift_patience: int = 3

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(map(check_index, self.dims)))
        for count, least in (("width", 2), ("step", 1), ("m", 1), ("drift_patience", 1)):
            object.__setattr__(self, count, check_count(getattr(self, count), count, least))
        if len(self.dims) < 2:
            raise ValueError(f"need at least 2 monitored columns, got {self.dims}")
        if len(set(self.dims)) != len(self.dims):
            raise ValueError(f"duplicate monitored columns in {self.dims}")
        for j in self.dims:
            if j < 0:
                raise ValueError(f"column index {j} out of range")
        object.__setattr__(self, "alpha", check_alpha(self.alpha))
        if isinstance(self.drift_threshold, (bool, np.bool_)):
            raise TypeError("drift_threshold must be a number, not a bool")
        if not math.isfinite(self.drift_threshold):
            raise ValueError(f"drift_threshold must be finite, got {self.drift_threshold}")
        check_seed(self.seed)


@dataclass(frozen=True)
class WindowScore:
    """One emission: the stream index of the window's last row, its score,
    and whether the drift layer flags it."""

    row_index: int
    estimate: ContrastEstimate
    flag: bool


def window_seed(master_seed: int, end_row: int) -> int:
    """Seed used for the window ending at stream row ``end_row``."""
    return derive_seed(master_seed, end_row)


def _extract(row: Sequence, dims: tuple[int, ...], row_index: int,
             line: int | None) -> list[float]:
    """The row's values in the monitored columns, each checked finite; a
    malformed row raises its error at its file ``line``."""
    values = []
    for j in dims:
        try:
            cell = row[j]
        except IndexError:
            raise StreamFormatError(
                row_index, f"row has {len(row)} cells, need columns {list(dims)}", line=line
            ) from None
        try:
            value = float(cell)
        except (ValueError, TypeError):
            raise StreamFormatError(row_index, f"cannot parse {cell!r} as a number",
                                    j + 1, line) from None
        if not math.isfinite(value):
            raise StreamFormatError(row_index, f"non-finite value {cell!r}", j + 1, line)
        values.append(value)
    return values


class _SortedColumn:
    """One tie-free monitored column's window values in sorted order, with
    the accepted-row number of each, carried forward one row at a time.

    ``values`` is a list, so a value is found and placed by bisection and
    moved by the list's own insert and delete; ``rows`` moves with it.  A
    tie-free column has one sorted order, so its index is ``rows`` shifted
    to window-relative row ids, array for array what
    :func:`~mcde.ranking._build_dimension` builds.  A column that gains a
    tie is not carried on: :meth:`replace` says so.
    """

    __slots__ = ("values", "rows")

    def __init__(self, column: np.ndarray, order: np.ndarray, first: int):
        # a window whose oldest row is accepted row ``first``, sorted by ``order``
        self.values = column[order].tolist()
        self.rows = order + first

    def replace(self, leaving: float, value: float, row: int) -> bool:
        """Drop the row of value ``leaving``, which is unique, and add
        ``row`` of ``value``.  Returns False, leaving the column unusable,
        when ``value`` equals a value that stays."""
        values, rows = self.values, self.rows
        p = bisect_left(values, leaving)
        del values[p]
        at = bisect_left(values, value)
        if at < len(values) and values[at] == value:
            return False
        values.insert(at, value)
        if at > p:
            rows[p:at] = rows[p + 1:at + 1]
        elif at < p:
            rows[at + 1:p + 1] = rows[at:p]
        rows[at] = row
        return True

    def index(self, first: int) -> DimensionIndex:
        """The index of the window whose oldest row is ``first``."""
        return _tie_free(self.rows - first)  # a copy no later row changes


def monitor(
    source: Iterable[Sequence],
    cfg: WindowConfig,
    strict: bool = True,
) -> Iterator[WindowScore | StreamFormatError]:
    """Yield one :class:`WindowScore` per evaluated window, in row order.

    ``source`` yields rows (any sequences of numbers or numeric strings)
    covering the monitored columns.  Malformed rows raise
    :class:`StreamFormatError` when ``strict``; otherwise they are skipped
    and reported as :class:`StreamFormatError` items, whose ``line`` is
    None.  A stream shorter than the window width produces no scores.  Each
    window is yielded as soon as its last row is read, before the next row
    is asked for, so a live source, such as a followed file, is never read
    ahead.
    """
    yield from _monitor(([(None, row)] for row in source), cfg, strict)  # one-row blocks


def _monitor(
    blocks: Iterable[Sequence[tuple[int | None, Sequence]]],
    cfg: WindowConfig,
    strict: bool,
) -> Iterator[WindowScore | StreamFormatError]:
    """:func:`monitor` over rows that come in blocks of ``(line, row)``
    pairs, as :func:`~mcde.dataset.csv_blocks` gives them, numbered across
    the blocks; a malformed row's error carries its ``line``.

    The windows that end in a block are scored together, in one
    :func:`~mcde.contrast._estimate` stack each time ``LANES // m`` of them
    wait and once more at the block's end, and yielded in row order, with
    the skipped rows' :class:`StreamFormatError` items among them, before
    the next block is asked for.  In strict mode a malformed row is raised
    after the windows before it are yielded.  Scores and flags do not
    depend on the blocks.
    """
    width, step, d = cfg.width, cfg.step, len(cfg.dims)
    ahead = max(1, LANES // cfg.m)
    drawn: dict[int, tuple[int, np.ndarray]] = {}  # end row -> (seed, draws)
    buffer = np.empty((d, width), dtype=np.float64)
    tiebreak = functools.cache(_tiebreak)  # drawn once per tied column
    carried: list[_SortedColumn | None] = [None] * d  # seeded by tie-free rebuilds
    accepted = 0
    below_run = 0
    row_index = -1
    # windows (end row, index, seed, draws) and skipped rows, in row order
    pending: list[tuple[int, RankIndex, int, np.ndarray] | StreamFormatError] = []
    waiting = 0  # the windows in pending

    def scored() -> Iterator[WindowScore | StreamFormatError]:
        """The pending events in row order, their windows scored in one
        stack and flagged."""
        nonlocal pending, waiting, below_run
        events, pending, waiting = pending, [], 0
        windows = [event for event in events if not isinstance(event, StreamFormatError)]
        if windows:
            _, indexes, seeds, draws = zip(*windows)
            estimates = iter(_estimate(indexes, cfg.alpha, seeds, np.array(draws)))
        for event in events:
            if isinstance(event, StreamFormatError):
                yield event
                continue
            estimate = next(estimates)
            below_run = below_run + 1 if estimate.score < cfg.drift_threshold else 0
            yield WindowScore(event[0], estimate, below_run >= cfg.drift_patience)

    for block in blocks:
        for line, row in block:
            row_index += 1
            try:
                values = _extract(row, cfg.dims, row_index, line)
            except StreamFormatError as exc:
                if strict:
                    yield from scored()
                    raise
                pending.append(exc.with_traceback(None))  # an item holds no frames
                continue

            slot = accepted % width
            if any(carried):
                for j, leaving in enumerate(buffer[:, slot].tolist()):
                    if carried[j] and not carried[j].replace(leaving, values[j], accepted):
                        carried[j] = None
            buffer[:, slot] = values
            accepted += 1
            if accepted < width or (accepted - width) % step != 0:
                continue

            first = accepted - width
            pivot = accepted % width
            dims = []
            for j, sorted_column in enumerate(carried):
                if sorted_column is not None:
                    dims.append(sorted_column.index(first))
                    continue
                # unroll the ring buffer into window order (oldest row first)
                column = (np.concatenate((buffer[j, pivot:], buffer[j, :pivot])) if pivot
                          else buffer[j])
                dim = _build_dimension(column, j, tiebreak)
                if dim.adjusted_ranks is None and step <= _CARRY_MAX_STEP:
                    carried[j] = _SortedColumn(column, dim.row_ids, first)
                dims.append(dim)

            if row_index not in drawn:
                ends = range(row_index, row_index + ahead * step, step)
                seeds = derive_seeds(cfg.seed, [(end,) for end in ends])  # each window_seed
                block_draws = _draw(seeds, width, d, cfg.m, cfg.alpha)
                drawn = dict(zip(ends, zip(seeds, block_draws)))
            seed, draws = drawn.pop(row_index)
            pending.append((row_index, RankIndex(tuple(dims), width), seed, draws))
            waiting += 1
            if waiting == ahead:
                yield from scored()
        if pending:
            yield from scored()
