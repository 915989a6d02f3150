"""Hot numeric kernels, vectorized with numpy.

The three inner loops that dominate runtime: per-column construction of
tie-averaged ranks, masking rows outside a sorted-order window, and locally
re-ranking a window while summing member ranks and the window's tie
correction.  Rank sums are multiples of 0.5 far below 2**52 and tie
corrections are exact integers, so the results do not depend on summation
order.
"""

from __future__ import annotations

import numpy as np

# below this width every window's sum of g**3 - g is at most
# width**3 - width < 2**63, so it is exact in int64
_INT64_SAFE_WIDTH = 2**21


def _tie_runs(keys: np.ndarray):
    """Runs of equal values in the sorted sequence ``keys``.

    Returns ``(gid, starts, counts)``: the run number of every position, and
    the first position and length of every run.
    """
    n = keys.shape[0]
    first = np.empty(n, dtype=np.bool_)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    gid = np.cumsum(first) - 1
    starts = np.flatnonzero(first)
    counts = np.diff(np.append(starts, n))
    return gid, starts, counts


def _tie_correction(counts: np.ndarray, width: int) -> int:
    """Exact ``sum(g**3 - g)`` over the group sizes ``counts`` of a window."""
    if width < _INT64_SAFE_WIDTH:
        return int((counts * counts * counts - counts).sum())
    # groups below the safe width have terms < 2**63; their 32-bit halves
    # sum without overflow.  At most width / 2**21 groups are larger.
    big = counts >= _INT64_SAFE_WIDTH
    small = counts[~big]
    terms = small * small * small - small
    total = (int((terms >> 32).sum()) << 32) + int((terms & 0xFFFFFFFF).sum())
    return total + sum(g**3 - g for g in counts[big].tolist())


def rank_scan(values: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Walk a sorted column once and average the ranks of tied values.

    ``order`` must sort ``values`` ascending.  Returns the 0-based average
    rank at each sorted position.
    """
    gid, starts, counts = _tie_runs(values[order])
    ends = starts + counts - 1
    return ((starts + ends) / 2.0)[gid]


def mask_outside(member: np.ndarray, order: np.ndarray, start: int, end: int) -> None:
    """Clear ``member`` for rows whose sorted position falls outside [start, end)."""
    member[order[:start]] = False
    member[order[end:]] = False


def window_stats(member, order, group_ids, start, end):
    """Rank the window [start, end) locally and sum member ranks.

    Positions share a tie group when their ``group_ids`` entries are equal.
    Each group contributes its window-local 0-based average rank to the
    members inside it; groups cut off by the window boundary are ranked
    among window rows only.  Returns ``(rank_sum, member_count,
    tie_correction)`` with the correction as an exact integer sum of
    ``g**3 - g`` over window-local group sizes, at any window width.
    """
    width = end - start
    w_member = member[order[start:end]]
    gid, starts, counts = _tie_runs(group_ids[start:end])
    local_mean = starts + (counts - 1) / 2.0
    per_group = np.bincount(gid[w_member], minlength=starts.size)
    r1 = float((per_group * local_mean).sum())
    n1 = int(np.count_nonzero(w_member))
    corr = _tie_correction(counts.astype(np.int64), width)
    return r1, n1, corr


def backend_name() -> str:
    """Kernel backend reported in the benchmark manifest (``perfbench/worker.py``)."""
    return "numpy"
