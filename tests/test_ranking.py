import dataclasses

import numpy as np
import pytest

from mcde import Dataset, construct_index, ranking
from mcde._rng import iteration_rng
from conftest import random_tied_column
from oracles import (
    average_ranks_oracle,
    dimension_index_oracle,
    ranks_of,
    tie_corrections_oracle,
    window_stats,
)


def _index_of(column):
    return construct_index(Dataset(np.asarray(column, float).reshape(-1, 1))).dims[0]


def _column_correction(dim):
    """Sum of t**3 - t over the column's tie groups, as the test reads it."""
    ones = np.ones(dim.n, dtype=bool)
    return window_stats(ones, dim.row_ids, dim.adjusted_ranks, 0, dim.n,
                        run_starts=dim.run_starts, run_lengths=dim.run_lengths)[2]


def _runs(dim):
    return list(zip(dim.run_starts.tolist(), dim.run_lengths.tolist()))


def test_distinct_values_sorted():
    dim = _index_of([0.3, 0.1, 0.2])
    assert list(dim.row_ids) == [1, 2, 0]
    assert dim.adjusted_ranks is None
    assert list(ranks_of(dim)) == [0.0, 1.0, 2.0]
    assert _runs(dim) == []
    assert _column_correction(dim) == 0


def test_single_tie_pair():
    dim = _index_of([0.5, 0.5, 0.1])
    assert dim.row_ids[0] == 2
    assert set(dim.row_ids[1:]) == {0, 1}
    assert list(dim.adjusted_ranks) == [0.0, 1.5, 1.5]
    assert _runs(dim) == [(1, 2)]
    assert _column_correction(dim) == 6


def test_constant_column():
    dim = _index_of([3.7] * 4)
    assert np.all(dim.adjusted_ranks == 1.5)
    assert _runs(dim) == [(0, 4)]
    assert _column_correction(dim) == 60


def test_tie_group_at_last_position():
    dim = _index_of([1.0, 2.0, 3.0, 3.0])
    assert list(dim.adjusted_ranks) == [0.0, 1.0, 2.5, 2.5]
    assert _runs(dim) == [(2, 2)]
    assert _column_correction(dim) == 6


def test_tie_free_column_stores_no_runs():
    dim = _index_of(np.random.default_rng(11).random(1000))
    assert [f.name for f in dataclasses.fields(dim)] == [
        "row_ids", "adjusted_ranks", "run_starts", "run_lengths"]
    assert dim.adjusted_ranks is None
    assert dim.run_starts.size == 0 and dim.run_lengths.size == 0


def test_tie_free_index_holds_8_bytes_per_row():
    # int64 row ids and nothing else; keeps the index from growing back
    n = 100_000
    index = construct_index(Dataset(np.random.default_rng(12).random((n, 2))))
    for dim in index.dims:
        arrays = [getattr(dim, f.name) for f in dataclasses.fields(dim)]
        assert sum(a.nbytes for a in arrays if a is not None) <= 8 * n
        assert dim.row_ids.dtype == np.int64


@pytest.mark.parametrize("omega", [1, 2, 10, 100])
def test_runs_of_discretised_column_carry_its_tie_correction(omega):
    rng = np.random.default_rng(omega)
    column = np.floor(rng.random(2000) * omega) / omega
    dim = _index_of(column)
    assert np.all(dim.run_lengths >= 2)
    assert np.all(np.diff(dim.run_starts) >= dim.run_lengths[:-1])
    sorted_values = column[dim.row_ids]
    for s, g in _runs(dim):
        assert np.all(sorted_values[s:s + g] == sorted_values[s])
    total = sum(g**3 - g for g in dim.run_lengths.tolist())
    assert total == tie_corrections_oracle(column)[-1]


@pytest.mark.parametrize("case", range(30))
def test_matches_quadratic_oracle(case):
    rng = np.random.default_rng(case)
    n = int(rng.integers(1, 260))
    column = random_tied_column(rng, n)
    dim = _index_of(column)
    by_row = np.empty(n)
    by_row[dim.row_ids] = ranks_of(dim)
    assert np.array_equal(by_row, average_ranks_oracle(column))
    assert _column_correction(dim) == tie_corrections_oracle(column)[-1]


def test_index_invariants():
    rng = np.random.default_rng(42)
    column = random_tied_column(rng, 500)
    dim = _index_of(column)
    n = 500
    assert sorted(dim.row_ids) == list(range(n))
    assert np.all(np.diff(column[dim.row_ids]) >= 0)
    assert ranks_of(dim).sum() == n * (n - 1) / 2


def test_row_order_does_not_matter():
    rng = np.random.default_rng(9)
    column = random_tied_column(rng, 300)
    perm = rng.permutation(300)
    a = _index_of(column)
    b = _index_of(column[perm])
    # position arrays depend only on the sorted multiset
    assert np.array_equal(ranks_of(a), ranks_of(b))
    assert _column_correction(a) == _column_correction(b)
    # per-row ranks map through the permutation
    ranks_a = np.empty(300)
    ranks_a[a.row_ids] = ranks_of(a)
    ranks_b = np.empty(300)
    ranks_b[b.row_ids] = ranks_of(b)
    assert np.array_equal(ranks_a[perm], ranks_b)


def test_tied_row_order_differs_between_columns():
    # identical tied columns must not share within-tie row order, otherwise
    # slices of tied data align across dimensions
    column = np.repeat(np.arange(10.0), 30)
    ds = Dataset(np.column_stack([column, column, column]))
    index = construct_index(ds)
    assert not np.array_equal(index.dims[0].row_ids, index.dims[1].row_ids)
    assert not np.array_equal(index.dims[1].row_ids, index.dims[2].row_ids)


def test_construction_deterministic():
    rng = np.random.default_rng(3)
    ds = Dataset(np.column_stack([random_tied_column(rng, 200) for _ in range(3)]))
    a = construct_index(ds)
    b = construct_index(ds)
    for da, db in zip(a.dims, b.dims):
        assert np.array_equal(da.row_ids, db.row_ids)


def test_projection_reuses_structures():
    ds = Dataset(np.random.default_rng(5).random((50, 4)))
    index = construct_index(ds)
    sub = index.project([3, 1])
    assert sub.d == 2 and sub.n == 50
    assert sub.dims[0] is index.dims[3]
    assert sub.dims[1] is index.dims[1]
    with pytest.raises(ValueError):
        index.project([0, 0])
    with pytest.raises(ValueError):
        index.project([4])


def test_projection_rejects_a_non_integral_column_index():
    index = construct_index(Dataset(np.random.default_rng(5).random((50, 4))))
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        index.project([0, 1.5])
    with pytest.raises(TypeError, match="a column index must be an integer, not a bool"):
        index.project([False, 2])
    sub = index.project([np.int64(3), np.int32(1)])
    assert sub.dims == (index.dims[3], index.dims[1])


# one column of each kind; signed zeros tie with each other
_COLUMN_KINDS = (
    lambda rng, n: rng.random(n),                                         # continuous
    lambda rng, n: np.floor(rng.random(n) * 10) / 10,                     # 10 levels
    lambda rng, n: np.where(rng.random(n) < 0.3, 0.0, rng.random(n)),    # 30% zeros
    lambda rng, n: np.full(n, 2.5),                                       # constant
    lambda rng, n: rng.choice([-0.0, 0.0, 1.0, 2.0], n) * (rng.random(n) < 0.8),  # +-0.0
)


class _CoarseDraws:
    """Tie-break draws on four levels, so most tied rows draw equal values."""

    def __init__(self, salt, position):
        self._rng = iteration_rng(salt, position)

    def random(self, n):
        return np.floor(self._rng.random(n) * 4) / 4


def _check_against_oracle(n, draws):
    rng = np.random.default_rng(n)
    _check_columns(np.column_stack([kind(rng, n) for kind in _COLUMN_KINDS]), draws)


def _check_columns(data, draws):
    n = data.shape[0]
    index = construct_index(Dataset(data))
    for j, dim in enumerate(index.dims):
        tiebreak = draws(ranking._TIE_ORDER_SALT, j).random(n)
        expected = dimension_index_oracle(data[:, j], tiebreak)
        got = (dim.row_ids, ranks_of(dim), dim.run_starts, dim.run_lengths)
        for g, e in zip(got, expected):
            assert np.array_equal(g, e), j
        # only a column with tie runs stores its ranks
        assert (dim.adjusted_ranks is None) == (dim.run_starts.size == 0), j


# small and large arrays take different paths through numpy's sorts
@pytest.mark.parametrize("n", [2, 11, 900, 100_000])
def test_index_equals_lexsort_oracle(n):
    _check_against_oracle(n, iteration_rng)


@pytest.mark.parametrize("n", [11, 900, 100_000])
def test_equal_tiebreak_draws_fall_back_to_row_id(n, monkeypatch):
    monkeypatch.setattr(ranking, "iteration_rng", _CoarseDraws)
    _check_against_oracle(n, _CoarseDraws)


class _LowBitDraws:
    """Tie-break draws on four levels that differ only in their lowest eight
    bits, so that a key keeping only the draws' leading bits sees many
    different draws as equal."""

    def __init__(self, salt, position):
        self._rng = iteration_rng(salt, position)

    def random(self, n):
        coarse = np.floor(self._rng.random(n) * 4) / 4
        low = self._rng.integers(0, 256, n, dtype=np.uint64)
        return (coarse.view(np.uint64) + low).view(np.float64)


@pytest.mark.parametrize("n", [11, 900, 100_000])
def test_truncated_keys_order_by_full_draw(n, monkeypatch):
    """Draws that agree in the bits a tie key keeps are ordered by their full
    value, then by row id.  A column of value pairs has n // 2 tie runs,
    50,000 at n = 1e5, far more than 2**11, so the key drops the draws' low
    bits there; so does a column of value triples."""
    monkeypatch.setattr(ranking, "iteration_rng", _LowBitDraws)
    rng = np.random.default_rng(n)
    pairs = rng.permutation(np.arange(n) // 2).astype(np.float64)
    triples = rng.permutation(np.arange(n) // 3).astype(np.float64)
    some_tied = np.where(rng.random(n) < 0.1, np.floor(rng.random(n) * 50), rng.random(n) + 50)
    _check_columns(np.column_stack([pairs, triples, some_tied, _COLUMN_KINDS[1](rng, n)]),
                   _LowBitDraws)
