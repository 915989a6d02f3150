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
the at most two tie runs the window boundary cuts.  Which runs a window
cuts depends only on its start, so :func:`cut_runs` finds them for many
windows of a tied column at once: two ``searchsorted`` passes give each
window's head run, the last one starting at or before its start, and its
tail run, the last one starting before its end.  The head run's part of the window is
a prefix of its row and a cut tail run's part a suffix, each of one global
rank, so the 2-D pass sums only between a batch's cut parts, and the fix
needs only the members before five edges of each row, which
:func:`window_rows` reads from the row's 64-bit words and their prefix
popcounts, with no loop over windows.  A window's tie correction is the
``g**3 - g`` of its head and tail parts plus that of the runs between them,
a difference of prefix sums over the column's runs: below 2**21 positions
per window the difference is exact in int64 even where the prefix sums
wrap, and a wider window's prefix sums are exact Python ints.
Rank sums are multiples of 0.5 below 2**52 when the caller keeps
``16 * width`` times the column's length below 2**52, and each tie
correction is rounded once to float64, so the results do not depend on
summation order.
"""

from __future__ import annotations

import numpy as np

# below this width every window's sum of g**3 - g is at most
# width**3 - width < 2**63, so it is exact in int64
_INT64_SAFE_WIDTH = 2**21

# the sum of the set-bit positions of each byte value, bit 0 the lowest
_BIT_POSITIONS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1,
                               bitorder="little") @ np.arange(8, dtype=np.int64)

# the bits below bit b of a 64-bit word, for b in 0..64
_LOW_BITS = np.array([(1 << b) - 1 for b in range(65)], dtype=np.uint64)


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
    adjusted = np.repeat(starts + extra / 2.0, counts)
    tied = np.flatnonzero(extra)  # runs of two or more positions
    return adjusted, starts[tied], counts[tied]


def window_rows(member, ranks=None, cuts=None):
    """Rank each restriction window locally and sum its member ranks.

    Row i of ``member`` is the slice membership at the positions of window
    i, in sorted order.  For a column with ties, row i of the 2-D ``ranks``
    holds its :func:`rank_scan` ranks there, and ``cuts`` holds the
    windows' :func:`cut_runs`, found for the batches this one is read in
    and sliced to it.  The windows may lie in different columns laid end to
    end as one long column, as long as none crosses from one into the next.
    Tie-free columns pass ``ranks=None``, as the index stores them: the
    local rank of every window position is the position, so their rows may
    be windows of different columns, such as the reference columns of many
    estimates.  Each tie group contributes its window-local 0-based average
    rank to the members inside it; the at most two runs cut by a window
    boundary are ranked among window rows only.  Returns ``(rank_sums,
    member_counts, tie_corrections)``, the last the sums of ``g**3 - g``
    over window-local group sizes, each exact at any window width and then
    rounded to float64.

    Each row is packed into bytes, bit b of byte k for position ``8k + b``.
    A tie-free row is counted by the popcount of its bytes, and its rank sum
    is the exact integer ``sum(8k * count[k] + _BIT_POSITIONS[byte[k]])``,
    rounded once.  A tied row is read as 64-bit words, whose prefix
    popcounts give its member count and the members of its cut runs.
    """
    packed = np.packbits(member, axis=1, bitorder="little")
    if ranks is None:
        counts = np.bitwise_count(packed)
        n1 = counts.sum(axis=1, dtype=np.int64)
        first_bits = np.arange(0, 8 * packed.shape[1], 8, dtype=np.int64)
        r1 = (counts @ first_bits + np.take(_BIT_POSITIONS, packed).sum(axis=1)).astype(np.float64)
        return r1, n1, np.zeros(member.shape[0])
    edge, word, bits, weight, corr = cuts
    # words[i, k] holds bit b of row i's position 64k + b, and below[i, k]
    # counts the row's members in its first k words
    words = np.zeros((packed.shape[0], -(-packed.shape[1] // 8) * 8), dtype=np.uint8)
    words[:, :packed.shape[1]] = packed
    words = words.view("<u8")
    below = np.zeros((words.shape[0], words.shape[1] + 1), dtype=np.int64)
    np.add.accumulate(np.bitwise_count(words), axis=1, dtype=np.int64, out=below[:, 1:])
    # the members before each edge: bits ``bits`` of word ``word``
    rows = np.arange(member.shape[0])
    before = below[rows, word] + np.bitwise_count(words[rows, word] & bits)
    # the global ranks between the batch's two edges; einsum keeps the sums
    # off BLAS
    lo, hi = edge[3:, 0].tolist()
    r1 = np.einsum("ij,ij->i", member[:, lo:hi], ranks[:, lo:hi]) + (before * weight).sum(axis=0)
    return r1, before[2], corr


def cut_runs(starts, width, run_starts, run_lengths, batch):
    """Where the tie runs of one tied column, which has at least one run,
    meet each window ``[starts[i], starts[i] + width)``, as
    :func:`window_rows` reads it in batches of ``batch`` windows.  The
    column may be several laid end to end, row t's positions, ranks and
    runs shifted by the length of those before it: a run never crosses a
    seam and no window crosses one either, so each window finds only runs
    of its own row, and every weight below is a difference of its start
    and its runs' positions, in which the shift cancels, or pairs with
    ranks shifted alike.

    A window's head run is the last one starting at or before its start,
    and its tail run the last one starting before its end; every run
    between them lies inside the window.  The head run's part of the window
    is a prefix of its row, and a tail run that reaches the window's end
    fills a suffix; a run cut at both ends is the head run.  Every position
    of such a part has the run's global mean rank ``(s + e - 1) / 2``, and
    its local rank is the part's mean ``(a + b - 1) / 2``, where ``[a, b)``
    is the part; every other position's local rank is its global rank less
    the start.  So a row's rank sum is the sum of global ranks between two
    edges of its batch, the least prefix end and the greatest suffix start
    of its windows, plus at each of five edges the members before it times
    a weight: the row's prefix end, its suffix start and its end, and the
    batch's two edges.  A batch of one window sums global ranks only
    between its cut parts.  Edge j of window i is ``edge[j, i]``, before
    bits ``bits[j, i]`` of the row's 64-bit word ``word[j, i]``.  Returns
    ``(edge, word, bits, weight, tie_corrections)``, the first four of
    shape (5, windows), the last the windows' exact tie corrections rounded
    once to float64.
    """
    ends = starts + width
    head, tail = np.searchsorted(run_starts, np.add.outer((0, width - 1), starts), "right") - 1
    head_start, tail_start = run_starts[head], run_starts[tail]
    head_end = head_start + run_lengths[head]
    tail_end = tail_start + run_lengths[tail]
    # the head part, empty for a window with no head run (-1), and the tail
    # run's part, empty where the tail run is the head run
    head_g = np.maximum(np.minimum(head_end, ends) - starts, 0) * (head >= 0)
    tail_g = (np.minimum(tail_end, ends) - tail_start) * (tail > head)
    edge = np.empty((5, starts.size), dtype=np.int64)
    edge[0] = head_g
    edge[1] = width - tail_g * (tail_end >= ends)
    edge[2] = width
    first = np.arange(0, starts.size, batch)
    edge[3] = np.repeat(np.minimum.reduceat(edge[0], first), batch)[:starts.size]
    edge[4] = np.repeat(np.maximum.reduceat(edge[1], first), batch)[:starts.size]
    word = np.minimum(edge >> 6, (width - 1) >> 6)
    bits = _LOW_BITS[edge - 64 * word]
    # twice the weights, from twice the local mean ranks of the prefix and
    # the suffix and the global mean ranks of the head and tail runs.  The
    # garbage mean of an empty part meets no member or cancels.
    head_mean = head_start + head_end - 1
    tail_mean = tail_start + tail_end - 1
    twice = np.empty((5, starts.size), dtype=np.int64)
    twice[2] = edge[1] + width - 1
    twice[0] = edge[0] - 1 + 2 * starts - head_mean
    twice[1] = tail_mean - 2 * starts - twice[2]
    twice[3] = head_mean
    twice[4] = -tail_mean
    weight = twice / 2.0
    # the runs between the head and tail runs, [inner, outer)
    inner = head + 1
    outer = np.maximum(tail, inner)
    # every window's sum of g**3 - g, as differences of prefix sums: in
    # int64 below the safe width, where each window's sum is below 2**63 and
    # so exact even where the prefix sums wrap, and in Python ints above it
    exact = np.int64 if width < _INT64_SAFE_WIDTH else object
    lo, hi = int(inner.min()), int(outer.max())
    inside = run_lengths[lo:hi].astype(exact, copy=False)
    cubes = np.zeros(hi - lo + 1, dtype=exact)
    np.add.accumulate(inside * inside * inside - inside, out=cubes[1:])
    head_g, tail_g = head_g.astype(exact, copy=False), tail_g.astype(exact, copy=False)
    corr = (cubes[outer - lo] - cubes[inner - lo]
            + head_g * head_g * head_g - head_g + tail_g * tail_g * tail_g - tail_g)
    return edge, word, bits, weight, corr.astype(np.float64)


def backend_name() -> str:
    """Kernel backend reported in the benchmark manifest (``perfbench/worker.py``)."""
    return "numpy"
