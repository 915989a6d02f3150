"""Sliding-window dependency monitoring over a row stream.

The monitor keeps only the last ``width`` rows of the watched columns and,
every ``step`` accepted rows once the window is full, rebuilds the rank
index on the window and scores it.  Rebuilding from scratch keeps memory at
O(width * d) and costs O(w log w + M w) per emission, which is cheap at
typical window sizes.  Each window's score is seeded from
``(master seed, window end row)`` so the emission for a given window equals
an offline :func:`~mcde.contrast.contrast` call on the same rows.

The ring buffer is column-major: row j holds the last ``width`` values of
monitored column j, each checked finite as its stream row was read.  A
window's columns are the buffer's rows rotated to put the oldest value
first, and each is indexed by the same per-column build that
:func:`~mcde.ranking.construct_index` runs, with no ``Dataset`` in between.

A window's random integers depend only on its shape, the estimator settings
and its seed, never on its rows.  So the monitor draws them ahead, for the
end rows of the next ``LANES // m`` windows in one vectorised pass (see
:mod:`mcde._rng`), their seeds derived in one pass too, predicting that no
row will be skipped.  A window whose end row was not predicted, as after a
malformed row in lenient mode, draws a new block from its own end row on,
so every emission stays exact.

A drift layer flags windows whose score stays below a threshold
for a run of consecutive emissions.  It is a plain heuristic convenience,
not part of the estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from ._rng import LANES, check_seed, derive_seed, derive_seeds
from .contrast import ContrastEstimate, _draw, _estimate
from .ranking import _index_columns
from .slicing import check_alpha


class StreamFormatError(Exception):
    """A stream row could not be used; carries the 0-based row index and,
    for a bad cell, its 1-based column."""

    def __init__(self, row_index: int, reason: str, column: int | None = None):
        where = "" if column is None else f" at column {column}"
        super().__init__(f"row {row_index}: {reason}{where}")
        self.row_index = row_index
        self.reason = reason
        self.column = column


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
        object.__setattr__(self, "dims", tuple(int(j) for j in self.dims))
        if self.width < 2:
            raise ValueError(f"width must be >= 2, got {self.width}")
        if self.step < 1:
            raise ValueError(f"step must be >= 1, got {self.step}")
        if len(self.dims) < 2:
            raise ValueError(f"need at least 2 monitored columns, got {self.dims}")
        if len(set(self.dims)) != len(self.dims):
            raise ValueError(f"duplicate monitored columns in {self.dims}")
        for j in self.dims:
            if j < 0:
                raise ValueError(f"column index {j} out of range")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        object.__setattr__(self, "alpha", check_alpha(self.alpha))
        if not math.isfinite(self.drift_threshold):
            raise ValueError(f"drift_threshold must be finite, got {self.drift_threshold}")
        if self.drift_patience < 1:
            raise ValueError(f"drift_patience must be >= 1, got {self.drift_patience}")
        check_seed(self.seed)


@dataclass(frozen=True)
class WindowScore:
    """One emission: the stream index of the window's last row, its score,
    and whether the drift layer flags it."""

    row_index: int
    estimate: ContrastEstimate
    flag: bool


@dataclass(frozen=True)
class RowError:
    """A skipped malformed row (lenient mode only); ``column`` is the
    1-based column of a bad cell."""

    row_index: int
    reason: str
    column: int | None = None


def window_seed(master_seed: int, end_row: int) -> int:
    """Seed used for the window ending at stream row ``end_row``."""
    return derive_seed(master_seed, end_row)


def _extract(row: Sequence, dims: tuple[int, ...], row_index: int) -> list[float]:
    """The row's values in the monitored columns, each checked finite."""
    values = []
    for j in dims:
        try:
            cell = row[j]
        except IndexError:
            raise StreamFormatError(
                row_index, f"row has {len(row)} cells, need columns {list(dims)}"
            ) from None
        try:
            value = float(cell)
        except (ValueError, TypeError):
            raise StreamFormatError(row_index, f"cannot parse {cell!r} as a number",
                                    j + 1) from None
        if not math.isfinite(value):
            raise StreamFormatError(row_index, f"non-finite value {cell!r}", j + 1)
        values.append(value)
    return values


def monitor(
    source: Iterable[Sequence],
    cfg: WindowConfig,
    strict: bool = True,
) -> Iterator[WindowScore | RowError]:
    """Yield one :class:`WindowScore` per evaluated window, in row order.

    ``source`` yields rows (any sequences of numbers or numeric strings)
    covering the monitored columns.  Malformed rows raise
    :class:`StreamFormatError` when ``strict``; otherwise they are skipped
    and reported as :class:`RowError` items.  A stream shorter than the
    window width produces no scores.
    """
    width, step = cfg.width, cfg.step
    ahead = max(1, LANES // cfg.m)
    drawn: dict[int, tuple[int, np.ndarray]] = {}  # end row -> (seed, draws)
    buffer = np.empty((len(cfg.dims), width), dtype=np.float64)
    accepted = 0
    below_run = 0

    for row_index, row in enumerate(source):
        try:
            values = _extract(row, cfg.dims, row_index)
        except StreamFormatError as exc:
            if strict:
                raise
            yield RowError(exc.row_index, exc.reason, exc.column)
            continue

        buffer[:, accepted % width] = values
        accepted += 1
        if accepted < width or (accepted - width) % step != 0:
            continue

        # unroll the ring buffer into window order (oldest row first)
        pivot = accepted % width
        columns = (np.concatenate((buffer[:, pivot:], buffer[:, :pivot]), axis=1) if pivot
                   else buffer)
        if row_index not in drawn:
            ends = range(row_index, row_index + ahead * step, step)
            seeds = derive_seeds(cfg.seed, [(end,) for end in ends])  # each window_seed
            block = _draw(seeds, width, len(cfg.dims), cfg.m, cfg.alpha)
            drawn = dict(zip(ends, zip(seeds, block)))
        seed, draws = drawn.pop(row_index)
        estimate, = _estimate([_index_columns(columns)], cfg.alpha, [seed], draws[None])

        below_run = below_run + 1 if estimate.score < cfg.drift_threshold else 0
        yield WindowScore(row_index, estimate, below_run >= cfg.drift_patience)
