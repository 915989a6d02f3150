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
    if run_starts.size:
        # the order lexsort((tiebreak, column)) gives: inside each tie run,
        # rows by tiebreak, then by row id; the runs and ranks do not move
        n = column.shape[0]
        if tiebreak is None:
            tiebreak = _tiebreak(position, n)
        tied = int(run_lengths.sum())
        if tied == n:
            order = np.lexsort((tiebreak, column))
        else:
            # the tied positions; the stable lexsort of their rows, taken in
            # ascending row id, falls back to row id on equal draws
            offsets = np.cumsum(run_lengths) - run_lengths
            at = np.repeat(run_starts - offsets, run_lengths) + np.arange(tied)
            rows = np.sort(order[at])
            order[at] = rows[np.lexsort((tiebreak[rows], column[rows]))]
    for arr in (order, adjusted, run_starts, run_lengths):
        if arr is not None:
            arr.setflags(write=False)
    return DimensionIndex(order, adjusted, run_starts, run_lengths)


def construct_index(ds: Dataset) -> RankIndex:
    """Build the rank index for every column of ``ds``."""
    # the column-major values, transposed, hold one contiguous column per row
    return RankIndex(tuple(_build_dimension(column, j) for j, column in enumerate(ds.values.T)),
                     ds.n)
