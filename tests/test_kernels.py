"""The numpy kernels against brute-force oracles."""

import numpy as np
import pytest

import mcde
from mcde import _kernels
from conftest import random_tied_column
from oracles import local_window_stats_oracle


def _sorted_order(rng, column):
    tiebreak = rng.random(column.shape[0])
    return np.lexsort((tiebreak, column))


def test_mask_outside_clears_exactly_the_rows_outside_the_window():
    n = 200
    order = np.random.default_rng(7).permutation(n)
    member = np.ones(n, dtype=np.bool_)
    _kernels.mask_outside(member, order, 30, 120)
    assert member.sum() == 90
    assert member[order[30:120]].all()


def test_backend_name_reports_active():
    assert mcde.backend_name() == "numpy"


@pytest.mark.parametrize("case", range(20))
def test_window_stats_matches_bruteforce(case):
    rng = np.random.default_rng(2000 + case)
    n = int(rng.integers(4, 120))
    column = random_tied_column(rng, n)
    order = _sorted_order(rng, column)
    adj = _kernels.rank_scan(column, order)
    member = rng.random(n) < 0.5
    start = int(rng.integers(0, n - 1))
    end = int(rng.integers(start + 1, n + 1))
    r1, n1, corr = _kernels.window_stats(member, order, adj, start, end)
    er1, en1, ecorr = local_window_stats_oracle(member, order, column, start, end)
    assert r1 == pytest.approx(er1, abs=1e-9)
    assert n1 == en1
    assert int(corr) == ecorr


@pytest.mark.parametrize("counts", [
    [2**21 - 1] * 600 + [5, 1],       # every term fits in int64, the sum does not
    [3 * 2**21, 2**21, 7, 2**20],     # terms beyond int64
])
def test_tie_correction_exact_beyond_int64(counts):
    expected = sum(g**3 - g for g in counts)
    assert _kernels._tie_correction(np.array(counts, dtype=np.int64), sum(counts)) == expected
