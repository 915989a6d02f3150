"""Hot numeric kernels, vectorized with numpy.

The two inner loops that dominate runtime: one pass per column that
averages the ranks of tied values and records the column's tie runs, and
the window statistics of the Mann-Whitney test over a batch of iterations.
The rank pass returns as soon as it finds no two equal neighbours: a
tie-free column's rank is its sorted position, so it stores no ranks.
The window statistics take each iteration's slice membership over its
window, one row per iteration, and pack each row into bytes, eight window
positions to a byte.  A row's member count is the popcount of its bytes.  In
a tie-free column a position's local rank is the position itself, so a
row's rank sum is the sum of its set-bit positions: byte k adds ``8k`` per
set bit plus the positions of its bits within the byte, read from a
256-entry table, all in exact int64.  A column with ties sums the membership
against its global tie-averaged ranks in one 2-D pass.  Those are already
the window-local ranks, shifted by the window start, everywhere except in
the at most two tie runs the window boundary cuts, which get an O(1) fix per
iteration.  The tie correction comes from the stored runs that overlap the
window, clipped to it.  Rank sums are multiples of 0.5 far below 2**52, and
each tie correction is summed as an exact integer and rounded once to
float64, so the results do not depend on summation order.
"""

from __future__ import annotations

import numpy as np

# below this width every window's sum of g**3 - g is at most
# width**3 - width < 2**63, so it is exact in int64
_INT64_SAFE_WIDTH = 2**21

# the sum of the set-bit positions of each byte value, bit 0 the lowest
_BIT_POSITIONS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1,
                               bitorder="little") @ np.arange(8, dtype=np.int64)


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


def rank_scan(values: np.ndarray, order: np.ndarray):
    """Walk a sorted column once, average the ranks of tied values and
    record its tie runs.

    ``order`` must sort ``values`` ascending.  Returns ``(adjusted_ranks,
    run_starts, run_lengths)``: the 0-based average rank at each sorted
    position, and the first position and length of every tie run of two or
    more positions, ascending.  A tie-free column returns ``None`` for its
    ranks, which equal its positions, and two empty run arrays.
    """
    keys = values[order]
    n = keys.shape[0]
    first = np.empty(n, dtype=np.bool_)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    if first.all():
        return None, np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    starts = np.flatnonzero(first)
    counts = np.diff(starts, append=n)
    extra = counts - 1
    adjusted = (starts + extra / 2.0)[np.cumsum(first) - 1]
    tied = np.flatnonzero(extra)  # runs of two or more positions
    return adjusted, starts[tied], counts[tied]


def window_rows(member, ranks, starts, width, *, run_starts, run_lengths):
    """Rank each restriction window locally and sum its member ranks.

    Row i of ``member`` is the slice membership at the ``width`` sorted
    positions from ``starts[i]`` on, inside the column.  For a column with
    ties, row i of the 2-D ``ranks`` holds its :func:`rank_scan` ranks
    there, and every row is a window of that one column.  Tie-free columns
    pass ``ranks=None``, as the index stores them: the local rank of every
    window position is the position, so their rows may be windows of
    different columns, such as the reference columns of many estimates.  Each
    tie group contributes its window-local 0-based average rank to the
    members inside it; the at most two runs cut by a window boundary are
    ranked among window rows only.  Returns ``(rank_sums, member_counts,
    tie_corrections)``, the last the sums of ``g**3 - g`` over window-local
    group sizes, each exact at any window width and then rounded to float64.

    Each row is packed into bytes, bit b of byte k for position ``8k + b``,
    and counted by popcount.  A tie-free rank sum is the exact integer
    ``sum(8k * count[k] + _BIT_POSITIONS[byte[k]])``, rounded once.
    """
    packed = np.packbits(member, axis=1, bitorder="little")
    counts = np.bitwise_count(packed)
    n1 = counts.sum(axis=1, dtype=np.int64)
    if ranks is None:
        first_bits = np.arange(0, 8 * packed.shape[1], 8, dtype=np.int64)
        r1 = (counts @ first_bits + np.take(_BIT_POSITIONS, packed).sum(axis=1)).astype(np.float64)
    else:
        # global ranks shifted by the start are the local ranks of every
        # position outside a cut run; einsum keeps the sums off BLAS
        r1 = np.einsum("ij,ij->i", member, ranks) - n1 * starts
    corr = np.zeros(len(starts))
    if run_starts.size:  # per window, only for a column with tie runs
        for i, start in enumerate(starts.tolist()):
            r1[i], corr[i] = _clip_runs(member[i], r1[i], start, start + width,
                                        run_starts, run_lengths)
    return r1, n1, corr


def _clip_runs(w_member, r1, start, end, run_starts, run_lengths):
    """Rank sum ``r1`` with the cut runs of the window [start, end) re-ranked,
    and the window's exact tie correction rounded once to float."""
    # runs [first, last) overlap the window: the last run starting at or
    # before start, if it reaches into the window, through the last one
    # starting before end
    first = int(np.searchsorted(run_starts, start, "right"))
    if first and run_starts[first - 1] + run_lengths[first - 1] > start:
        first -= 1
    last = int(np.searchsorted(run_starts, end, "left"))
    if first == last:
        return r1, 0.0
    counts = run_lengths[first:last].copy()
    for i in {first, last - 1}:
        s = int(run_starts[i])
        e = s + int(run_lengths[i])
        a, b = max(s, start), min(e, end)
        if b - a < e - s:
            # cut run: its members move from the global mean rank
            # (s + e - 1) / 2 to the window-local one (a + b - 1) / 2
            counts[i - first] = b - a
            cut_members = int(np.count_nonzero(w_member[a - start:b - start]))
            r1 += cut_members * ((a + b) - (s + e)) / 2.0
    return r1, float(_tie_correction(counts, end - start))


def backend_name() -> str:
    """Kernel backend reported in the benchmark manifest (``perfbench/worker.py``)."""
    return "numpy"
