"""The numpy kernels against brute-force oracles."""

import numpy as np
import pytest

import mcde
from mcde import _kernels
from mcde.slicing import window_view
from conftest import random_tied_column
from oracles import (
    column_window_rows,
    dimension_index_oracle,
    index_order_oracle,
    local_window_stats_oracle,
    window_stats,
)


def _sorted_order(rng, column):
    return index_order_oracle(column, rng.random(column.shape[0]))


def _window_stats(member, order, column, start, end):
    adj, run_starts, run_lengths = _kernels.rank_scan(column, order)
    return window_stats(member, order, adj, start, end,
                        run_starts=run_starts, run_lengths=run_lengths)


def test_rank_scan_of_tie_free_column_returns_no_ranks():
    rng = np.random.default_rng(7)
    for n in (1, 2, 1000):
        column = rng.random(n)
        ranks, run_starts, run_lengths = _kernels.rank_scan(column, np.argsort(column))
        assert ranks is None
        for runs in (run_starts, run_lengths):
            assert runs.shape == (0,) and runs.dtype == np.intp


@pytest.mark.parametrize("case", range(10))
def test_rank_scan_of_tied_column_keeps_ranks_and_runs(case):
    rng = np.random.default_rng(4000 + case)
    n = int(rng.integers(2, 300))
    column = np.floor(rng.random(n) * rng.integers(1, n)) if case else np.zeros(n)
    tiebreak = rng.random(n)
    order, ranks, starts, lengths = dimension_index_oracle(column, tiebreak)
    got = _kernels.rank_scan(column, order)
    for g, e in zip(got, (ranks, starts, lengths)):
        assert np.array_equal(g, e)


def test_backend_name_reports_active():
    assert mcde.backend_name() == "numpy"


@pytest.mark.parametrize("case", range(20))
def test_window_stats_matches_bruteforce(case):
    rng = np.random.default_rng(2000 + case)
    n = int(rng.integers(4, 120))
    column = random_tied_column(rng, n)
    order = _sorted_order(rng, column)
    member = rng.random(n) < 0.5
    start = int(rng.integers(0, n - 1))
    end = int(rng.integers(start + 1, n + 1))
    r1, n1, corr = _window_stats(member, order, column, start, end)
    er1, en1, ecorr = local_window_stats_oracle(member, order, column, start, end)
    assert r1 == pytest.approx(er1, abs=1e-9)
    assert n1 == en1
    assert int(corr) == ecorr


# sorted column with tie runs at positions [2, 6), [7, 10) and [12, 16)
_RUNS = np.array([0, 1, 2, 2, 2, 2, 3, 4, 4, 4, 5, 6, 7, 7, 7, 7, 8], dtype=float)


@pytest.mark.parametrize("column, start, end", [
    (_RUNS, 4, 9),      # each window edge cuts a run
    (_RUNS, 4, 7),      # the left edge cuts a run
    (_RUNS, 1, 9),      # the right edge cuts a run
    (_RUNS, 3, 14),     # both edges cut runs, a whole run between
    (_RUNS, 3, 5),      # strictly inside one run
    (_RUNS, 12, 16),    # exactly one run, uncut
    (_RUNS, 0, 17),     # the whole column
    (_RUNS, 6, 7),      # one row between runs
    (_RUNS, 8, 9),      # one row inside a run
    (np.arange(17.0), 3, 14),   # tie-free
    (np.arange(17.0), 5, 6),    # tie-free, one row
    (np.full(17, 2.0), 4, 11),  # one run spans the column
])
def test_window_stats_at_run_boundaries(column, start, end):
    order = np.arange(column.size)
    for seed in range(8):
        member = np.random.default_rng(seed).random(column.size) < 0.5
        got = _window_stats(member, order, column, start, end)
        assert got == local_window_stats_oracle(member, order, column, start, end)


def test_window_stats_cut_run_beyond_int64_width():
    # a 2.15M-row run cut by the window's left end, then triples, the last
    # one cut to a pair by the right end; g**3 - g of the cut run exceeds
    # int64 and the window is wider than 2**21
    head = 2_150_000
    column = np.concatenate([np.zeros(head), np.repeat(np.arange(1.0, 16_668), 3)])
    n = column.size
    order = np.arange(n)
    start, end = 10, n - 1
    member = np.random.default_rng(0).random(n) < 0.5
    r1, n1, corr = _window_stats(member, order, column, start, end)

    groups = [head - start] + [3] * ((n - head) // 3 - 1) + [2]
    assert sum(groups) == end - start and groups[0] > 2**21
    assert corr == float(sum(g**3 - g for g in groups))
    lengths = np.array(groups)
    local = np.repeat(np.cumsum(lengths) - lengths + (lengths - 1) / 2.0, lengths)
    window_member = member[start:end]
    assert n1 == int(window_member.sum())
    assert r1 == float(local[window_member].sum())


@pytest.mark.parametrize("counts", [
    [2**21 - 1] * 600 + [5, 1],       # every term fits in int64, the sum does not
    [3 * 2**21, 2**21, 7, 2**20],     # terms beyond int64
    [2, 3, 1],                        # small groups
    [0, 5],                           # an empty head part
])
def test_tie_correction_exact_beyond_int64(counts):
    # a window whose parts are ``counts`` in order: a head run cut at the
    # window's start, the runs of the groups of two or more between, and a
    # tail run cut at its end
    start, width = 10, sum(counts)
    lengths = [counts[0] + 3, *counts[1:-1], counts[-1] + 4]
    firsts = np.cumsum([start - 3, *lengths[:-1]])
    run = np.array(lengths) >= 2
    corr = _kernels.cut_runs(np.array([start]), width, firsts[run],
                             np.array(lengths)[run], 1)[-1]
    assert corr.tolist() == [float(sum(g**3 - g for g in counts))]


@pytest.mark.parametrize("case", range(10))
def test_window_rows_equal_one_window_at_a_time(case):
    """A batch of windows of one width inside the column gives each window's
    own statistics."""
    rng = np.random.default_rng(3000 + case)
    n = int(rng.integers(2, 200))
    column = random_tied_column(rng, n)
    order = _sorted_order(rng, column)
    adj, run_starts, run_lengths = _kernels.rank_scan(column, order)
    width = int(rng.integers(1, n + 1))
    starts = np.sort(rng.integers(0, n - width + 1, size=9))
    member = rng.random(n) < 0.5
    rows = np.array([member[order][s:s + width] for s in starts])
    r1, n1, corr = column_window_rows(rows, adj, starts, width, run_starts, run_lengths)
    for i, s in enumerate(starts.tolist()):
        expected = local_window_stats_oracle(member, order, column, s, s + width)
        assert (r1[i], n1[i], corr[i]) == expected


@pytest.mark.parametrize("width", [1, 2, 7, 300, 2**21 + 5])
def test_tie_free_window_rows_equal_explicit_ranks(width):
    """Tie-free windows (``ranks=None``) give the sums of their explicit
    ranks, the exact sums of their set-bit positions, also past 2**21 rows,
    and the brute-force window statistics."""
    rng = np.random.default_rng(width)
    n = width + 40
    starts = np.array([0, 40]) if width > 2**20 else rng.integers(0, n - width + 1, 9)
    member = rng.random((starts.size, width)) < 0.5
    r1, n1, corr = _kernels.window_rows(member)
    assert (r1.dtype, n1.dtype, corr.dtype) == (np.float64, np.int64, np.float64)
    exact = [int(np.flatnonzero(row).sum()) for row in member]
    assert r1.tolist() == exact
    assert n1.tolist() == member.sum(axis=1).tolist()
    assert not corr.any()
    if width > 2**20:
        return
    column = np.arange(n, dtype=np.float64)
    for i, s in enumerate(starts.tolist()):
        rows = np.zeros(n, dtype=bool)
        rows[s:s + width] = member[i]
        expected = local_window_stats_oracle(rows, np.arange(n), column, s, s + width)
        assert (r1[i], n1[i], corr[i]) == expected


def _member_vectors(rng, n):
    """Row memberships: no member, every member, and three random densities."""
    return [np.zeros(n, dtype=bool), np.ones(n, dtype=bool),
            *(rng.random(n) < p for p in (0.1, 0.5, 0.9))]


@pytest.mark.parametrize("tied", [False, True])
def test_packed_window_rows_equal_oracle_at_every_width(tied):
    """Packed counts and rank sums equal the brute-force window statistics at
    widths 1-70, so a window ends at every bit of its last byte, for rows
    with no member, every member and random members."""
    rng = np.random.default_rng(19 + tied)
    for width in range(1, 71):
        n = width + int(rng.integers(1, 12))
        column = (np.floor(rng.random(n) * max(1, width // 3)) if tied
                  else rng.permutation(n).astype(np.float64))
        order = _sorted_order(rng, column)
        adj, run_starts, run_lengths = _kernels.rank_scan(column, order)
        assert (adj is None) != tied
        members = _member_vectors(rng, n)
        starts = rng.integers(0, n - width + 1, size=len(members))
        rows = np.array([m[order][s:s + width] for m, s in zip(members, starts)])
        r1, n1, corr = column_window_rows(rows, adj, starts, width, run_starts, run_lengths)
        assert r1.dtype == np.float64 and n1.dtype == np.int64
        for i, (member, s) in enumerate(zip(members, starts.tolist())):
            expected = local_window_stats_oracle(member, order, column, s, s + width)
            assert (r1[i], n1[i], corr[i]) == expected, (width, i)


@pytest.mark.parametrize("tied", [False, True])
def test_packed_window_rows_exact_past_int64_safe_width(tied):
    """At width 2**21 + 5 the packed rank sums equal exact integer sums of the
    window-local ranks; the tied column's windows cut runs of three."""
    width = 2**21 + 5
    n = width + 7
    column = np.repeat(np.arange(n // 3 + 1.0), 3)[:n] if tied else np.arange(n, dtype=np.float64)
    order = np.arange(n)
    adj, run_starts, run_lengths = _kernels.rank_scan(column, order)
    rng = np.random.default_rng(5)
    starts = np.array([1, 7, 0, 2, 4])
    members = _member_vectors(rng, n)
    rows = np.array([m[s:s + width] for m, s in zip(members, starts)])
    r1, n1, corr = column_window_rows(rows, adj, starts, width, run_starts, run_lengths)
    for i, s in enumerate(starts.tolist()):
        if tied:
            head = 3 - s % 3
            lengths = np.array([head, *[3] * ((width - head) // 3), (width - head) % 3])
            lengths = lengths[lengths > 0]
        else:
            lengths = np.ones(width, dtype=np.int64)
        # twice each window-local average rank, an exact integer
        twice = np.repeat(2 * (np.cumsum(lengths) - lengths) + lengths - 1, lengths)
        window = rows[i]
        assert r1[i] == int(twice[window].sum()) / 2
        assert n1[i] == int(window.sum())
        assert corr[i] == float(sum(g**3 - g for g in lengths.tolist()))


def _check_batched_cuts(column, width, starts, seed):
    """A batch of windows of a sorted column gives each window's own
    statistics and the brute-force ones, also when the cut runs are found
    once for all windows and read in smaller batches, as contrast reads
    them."""
    order = np.arange(column.size)
    adj, run_starts, run_lengths = _kernels.rank_scan(column, order)
    starts = np.asarray(starts)
    members = np.random.default_rng(seed).random((starts.size, column.size)) < 0.5
    rows = np.array([m[s:s + width] for m, s in zip(members, starts)])
    ranks = window_view(adj, width)[starts]
    got = _kernels.window_rows(
        rows, ranks, _kernels.cut_runs(starts, width, run_starts, run_lengths, len(starts)))
    batch = max(1, starts.size // 2)
    cuts = _kernels.cut_runs(starts, width, run_starts, run_lengths, batch)
    for part in (slice(at, at + batch) for at in range(0, starts.size, batch)):
        read = _kernels.window_rows(rows[part], ranks[part], [c[..., part] for c in cuts])
        for g, r in zip(got, read):
            assert g[part].tobytes() == r.tobytes()
    for i, s in enumerate(starts.tolist()):
        one = _kernels.window_rows(rows[i:i + 1], ranks[i:i + 1],
                                   _kernels.cut_runs(starts[i:i + 1], width, run_starts, run_lengths, 1))
        expected = local_window_stats_oracle(members[i], order, column, s, s + width)
        assert (got[0][i], got[1][i], got[2][i]) == (one[0][0], one[1][0], one[2][0]) == expected, s


# sorted: a run of 260, 140 distinct values, a run of 200
_HEAD_TAIL = np.concatenate([np.zeros(260), np.arange(1.0, 141), np.full(200, 141.0)])


@pytest.mark.parametrize("width", [129, 192, 200])
def test_batched_cut_runs_at_byte_and_word_edges(width):
    """The head run's part ends, and the tail run's part starts, at local
    positions 8k - 1, 8k and 8k + 1, also where 8k is a 64-bit word edge."""
    edges = [p for k in (1, 2, 8, 16) for p in (8 * k - 1, 8 * k, 8 * k + 1) if p < width]
    heads = [260 - p for p in edges]          # head part of length p
    tails = [400 - p for p in edges]          # tail part from local position p
    starts = [s for s in heads + tails if 0 <= s <= _HEAD_TAIL.size - width]
    _check_batched_cuts(_HEAD_TAIL, width, starts, width)


@pytest.mark.parametrize("column, width, starts", [
    (np.full(40, 3.0), 17, [0, 5, 23]),                         # one run, cut at both ends
    (np.concatenate([np.full(17, 1.0), np.arange(2.0, 10)]), 17, [0, 0, 8]),  # the run is the window
    (np.concatenate([np.arange(5.0), np.full(30, 9.0)]), 17, [5, 10, 18]),    # a run from the start on
    (np.concatenate([np.full(30, 0.0), np.arange(1.0, 6)]), 17, [0, 8, 13]),  # a run to the end
])
def test_batched_cut_runs_one_run_covers_the_window(column, width, starts):
    _check_batched_cuts(column, width, starts, 1)


@pytest.mark.parametrize("width", [2, 3])
def test_batched_cut_runs_at_widths_2_and_3(width):
    # runs of 1 to 4 rows, so windows hold a whole run, a cut run or none
    column = np.repeat(np.arange(12.0), [1, 2, 3, 4, 1, 1, 2, 4, 3, 1, 2, 2])
    _check_batched_cuts(column, width, range(column.size - width + 1), width)


@pytest.mark.parametrize("case", range(6))
def test_batched_cut_runs_mix_cut_and_uncut_windows(case):
    """Random batches over runs and tie-free stretches: windows that cut two
    runs, one run or none, hold whole runs or no run at all."""
    rng = np.random.default_rng(600 + case)
    lengths = rng.choice([1, 1, 1, 2, 3, 9, 30], size=60)
    column = np.repeat(np.arange(lengths.size, dtype=np.float64), lengths)
    width = int(rng.integers(2, 90))
    starts = rng.integers(0, column.size - width + 1, size=25)
    _check_batched_cuts(column, width, starts, case)
