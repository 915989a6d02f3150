"""Per-dimension rank index: sorted row ids and tie-averaged ranks.

One unstable sort per column, then a single pass that averages the 0-based
ranks of tied values and records where each tie group starts and how long
it is.  Tie groups are detected by exact value equality (so ``-0.0`` ties
with ``0.0``); discretised data is expected to produce exact duplicates.
The test reads each window's ``t**3 - t`` tie correction from these runs,
clipped to the window, so a column stores one start and one length per tie
group of two or more rows.  A tie-free column's rank is its sorted
position, so it stores its row ids and nothing else: 8 bytes per row.

Within a tie group the row order is pseudorandom: rows are ordered by a
tie-break vector drawn from a fixed salt and the column's position, and by
row id where two draws are equal.  Tied rows carry identical ranks either
way, but slicing later keeps contiguous runs of sorted positions, so the
order in which tied rows appear decides which of them a run catches.  A
structured order (e.g. by row number) would repeat across columns and make
slices of heavily tied but independent columns look dependent; a per-column
random order keeps such slices statistically neutral.  The unstable sort
leaves only the order inside tie groups open, so the tie-break is drawn and
applied only for a column with tie groups, and only their rows are
re-sorted.  The order is a pure function of the data, so index
construction stays deterministic.

That order is the one ``lexsort((tiebreak, column))`` gives, taken with one
unstable sort of one uint64 key per tied row: the tie group's number in the
top bits, the row id in the low bits, and the leading bits of the row's
draw between them.  A draw in [0, 1) is a non-negative double, whose bit
pattern orders like its value, so keys that differ above the row bits are
in the exact order.  Where two neighbouring keys agree above the row bits,
their draws may still differ below the bits the key kept, or be equal; the
rows of every such clash are re-sorted by full draw, then by row id.  With
continuous draws clashes are rare and small.  The key is built and checked
in slices of ``_CHUNK`` rows, so the sort's temporaries stay small.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _kernels
from ._rng import iteration_rng
from .dataset import Dataset, check_dims

# salt for the within-tie ordering streams; arbitrary but frozen, changing
# it changes scores of tied data
_TIE_ORDER_SALT = 0x5B5E_1ED0

# tied rows keyed and checked per slice: the temporaries stay small, and
# 2**12 rows built a 10-level column of 1e5 rows fastest (1.8 ms against
# 2.5 ms at 2**14 on a 2-vCPU x86_64 host)
_CHUNK = 2**12


@dataclass(frozen=True)
class DimensionIndex:
    """Sorted view of one column.

    ``row_ids[j]`` is the row holding the j-th smallest value and
    ``adjusted_ranks[j]`` its 0-based rank with ties averaged.  Every tie
    group of two or more rows occupies the sorted positions
    ``[run_starts[k], run_starts[k] + run_lengths[k])``.  A tie-free column,
    whose rank at position j is j, stores ``None`` for its ranks and two
    empty run arrays.
    """

    row_ids: np.ndarray
    adjusted_ranks: np.ndarray | None
    run_starts: np.ndarray
    run_lengths: np.ndarray

    @property
    def n(self) -> int:
        return self.row_ids.shape[0]


@dataclass(frozen=True)
class RankIndex:
    """One DimensionIndex per column; immutable and shareable."""

    dims: tuple[DimensionIndex, ...]
    n: int

    @property
    def d(self) -> int:
        return len(self.dims)

    def project(self, dims: Sequence[int]) -> "RankIndex":
        """Subspace view reusing the per-dimension structures untouched."""
        dims = check_dims(dims, self.d)
        return RankIndex(tuple(self.dims[j] for j in dims), self.n)


# the run arrays of a tie-free column, shared by every tie-free index
_NO_RUNS = np.empty(0, dtype=np.intp)
_NO_RUNS.setflags(write=False)


def _tie_free(row_ids: np.ndarray) -> DimensionIndex:
    """The index of a tie-free column whose sorted rows are ``row_ids``,
    which become read-only."""
    row_ids.setflags(write=False)
    return DimensionIndex(row_ids, None, _NO_RUNS, _NO_RUNS)


def _tiebreak(position: int, n: int) -> np.ndarray:
    """The tie-break draws of the n rows of the column at ``position``."""
    return iteration_rng(_TIE_ORDER_SALT, position).random(n)


def _build_dimension(column: np.ndarray, position: int,
                     tiebreak: np.ndarray | None = None) -> DimensionIndex:
    """The index of one column of finite values at ``position``.  A caller
    that builds many columns of one length at one position, as the stream
    monitor does, may pass the column's tie-break vector, drawn once."""
    column = np.ascontiguousarray(column, dtype=np.float64)
    order = np.argsort(column)
    adjusted, run_starts, run_lengths = _kernels.rank_scan(column, order)
    if adjusted is None:
        return _tie_free(order)
    if tiebreak is None:
        tiebreak = _tiebreak(position, column.shape[0])
    _order_ties(order, tiebreak, run_starts, run_lengths)
    for arr in (order, adjusted, run_starts, run_lengths):
        arr.setflags(write=False)
    return DimensionIndex(order, adjusted, run_starts, run_lengths)


def _order_ties(order, tiebreak, run_starts, run_lengths) -> None:
    """Reorder the rows inside every tie run of the sorted ``order``, in place,
    by tie-break draw, then by row id.  The runs and ranks do not move."""
    n = order.shape[0]
    # the tied positions: each run, after a gap of untied ones, maybe empty
    spans = np.empty(2 * run_starts.size + 1, dtype=np.intp)
    spans[0::2] = np.append(run_starts, n) - np.append(0, run_starts + run_lengths)
    spans[1::2] = run_lengths
    tied = np.repeat(np.arange(spans.size) % 2 == 1, spans)
    # the key: the run number, the draw's bit pattern, whose top two bits
    # are 0 below 1.0, and the row id.  Below 2**32 rows the run and row bits
    # leave the draw at least one bit.
    run_bits = (run_starts.size - 1).bit_length()
    row_bits = (n - 1).bit_length()
    dropped = max(run_bits + row_bits - 2, 0)
    key = np.repeat(np.arange(run_starts.size, dtype=np.uint64) << (64 - run_bits), run_lengths)
    filled = 0
    for lo in range(0, n, _CHUNK):
        rows = order[lo:lo + _CHUNK][tied[lo:lo + _CHUNK]]
        bits = tiebreak[rows].view(np.uint64)
        bits >>= dropped
        bits <<= row_bits
        bits |= rows.view(np.uint64)
        key[filled:filled + rows.size] |= bits
        filled += rows.size
    key.sort()
    # the positions whose key agrees with the next one's above the row bits
    same = []
    for lo in range(0, key.size - 1, _CHUNK):
        pair = key[lo:lo + _CHUNK + 1]
        same.append(np.flatnonzero((pair[1:] ^ pair[:-1]) >> row_bits == 0) + lo)
    same = np.concatenate(same)
    row_mask = (1 << row_bits) - 1
    if same.size:
        # the stable lexsort keeps the keys of equal draws in their order,
        # which is by row id
        clash = np.union1d(same, same + 1)
        keys = key[clash]
        rows = (keys & row_mask).view(np.intp)
        key[clash] = keys[np.lexsort((tiebreak[rows], keys >> row_bits))]
    key &= row_mask
    order[tied] = key.view(np.intp)


def construct_index(ds: Dataset) -> RankIndex:
    """Build the rank index for every column of ``ds``."""
    # the column-major values, transposed, hold one contiguous column per row
    return RankIndex(tuple(_build_dimension(column, j) for j, column in enumerate(ds.values.T)),
                     ds.n)
