import numpy as np
import pytest

from mcde import Dataset, construct_index
from mcde._rng import iteration_rng
from mcde.slicing import _slice_size, check_count, slice_windows, window_view
from numpy.lib.stride_tricks import sliding_window_view
from oracles import draw_slice


def test_slice_size_spec_values():
    assert _slice_size(1000, 2, 0.5) == 500
    assert _slice_size(1000, 3, 0.5) == 708


def test_slice_size_bounds():
    assert _slice_size(1000, 3, 1.0) == 1000
    assert _slice_size(10, 5, 1e-9) == 1
    assert 1 <= _slice_size(7, 4, 0.3) <= 7


@pytest.mark.parametrize("count, error", [
    (10.5, "'float' object cannot be interpreted as an integer"),
    (True, "a count must be an integer, not a bool"),
    (np.True_, "object cannot be interpreted as an integer"),
])
def test_check_count_rejects_a_non_integral_count(count, error):
    with pytest.raises(TypeError, match=error):
        check_count(count)
    with pytest.raises(TypeError, match=error):
        check_count(count, "n")


def test_check_count_takes_numpy_integers_and_checks_a_named_bound():
    got = check_count(np.int64(1000), "n")
    assert got == 1000 and type(got) is int
    assert check_count(np.int32(-3)) == -3  # an unnamed count has no bound
    assert check_count(2, "width", 2) == 2
    with pytest.raises(ValueError, match=r"^width must be >= 2, got 1$"):
        check_count(np.int8(1), "width", 2)
    with pytest.raises(ValueError, match=r"^m must be >= 1, got 0$"):
        check_count(0, "m")


def _index(n, d, seed=0):
    rng = np.random.default_rng(seed)
    return construct_index(Dataset(rng.random((n, d))))


def test_two_dim_slice_keeps_exactly_half():
    index = _index(4, 2)
    member = draw_slice(index, 0, 0.5, np.random.default_rng(1))
    assert member.sum() == 2


def test_full_alpha_keeps_all_rows():
    index = _index(25, 3)
    member = draw_slice(index, 1, 1.0, np.random.default_rng(2))
    assert member.all()


def test_exact_survivors_per_conditioning_dimension():
    n, d, alpha = 200, 3, 0.5
    index = _index(n, d, seed=3)
    size = _slice_size(n, d, alpha)
    rng = iteration_rng(77, 0)
    member = draw_slice(index, 1, alpha, rng)
    # replay the draws to recover each dimension's window
    replay = iteration_rng(77, 0)
    expected = np.ones(n, dtype=bool)
    for j in (0, 2):
        start = int(replay.integers(0, n - size))
        kept = np.zeros(n, dtype=bool)
        kept[index.dims[j].row_ids[start:start + size]] = True
        assert kept.sum() == size
        expected &= kept
    assert np.array_equal(member, expected)


def test_mean_member_count_calibrated():
    n, d, alpha = 1000, 3, 0.5
    index = _index(n, d, seed=4)
    rng = np.random.default_rng(5)
    total = 0
    draws = 10_000
    for _ in range(draws):
        total += draw_slice(index, 0, alpha, rng).sum()
    mean = total / draws
    assert 485 <= mean <= 515


def test_same_seed_same_mask():
    index = _index(120, 4, seed=6)
    a = draw_slice(index, 2, 0.5, np.random.default_rng(9))
    b = draw_slice(index, 2, 0.5, np.random.default_rng(9))
    assert np.array_equal(a, b)


def test_invalid_ref_dim():
    index = _index(10, 2)
    with pytest.raises(ValueError):
        draw_slice(index, 2, 0.5, np.random.default_rng(0))


@pytest.mark.parametrize("case", range(6))
def test_slice_windows_keep_exactly_the_rows_inside_every_condition(case):
    # a stack of three indexes of one shape; row i reads repetition reps[i]
    rng = np.random.default_rng(40 + case)
    n, d = int(rng.integers(2, 300)), int(rng.integers(2, 5))
    indexes = [_index(n, d, seed=10 * case + r) for r in range(3)]
    ref, size = int(rng.integers(0, d)), int(rng.integers(1, n + 1))
    width = int(rng.integers(1, n + 1))
    k = 7
    reps = rng.integers(0, len(indexes), size=k)
    window_starts = rng.integers(0, n - width + 1, size=k)
    others = [j for j in range(d) if j != ref]
    starts = rng.integers(0, n - size + 1, size=(k, len(others)))
    positions = np.empty((len(indexes), len(others), n), dtype=np.int32)
    for r, index in enumerate(indexes):
        pos = np.empty((d, n), dtype=np.int32)
        for j, dim in enumerate(index.dims):
            pos[j, dim.row_ids] = np.arange(n)
        positions[r] = pos[others][:, index.dims[ref].row_ids]
    windows = sliding_window_view(positions, width, axis=2)
    got = slice_windows(windows, reps, starts, size, window_starts)

    assert got.shape == (k, width)
    for i in range(k):
        index = indexes[reps[i]]
        member = np.ones(n, dtype=bool)
        for c, j in enumerate(others):
            kept = np.zeros(n, dtype=bool)
            kept[index.dims[j].row_ids[starts[i, c]:starts[i, c] + size]] = True
            member &= kept
        rows = index.dims[ref].row_ids[window_starts[i]:window_starts[i] + width]
        assert np.array_equal(got[i], member[rows])


def test_slice_windows_keep_the_positions_inside_each_slice():
    # positions in the conditioning dimension of the reference's sorted rows
    windows = sliding_window_view(np.array([[[3, 0, 4, 1, 2]]], dtype=np.int32), 3, axis=2)
    got = slice_windows(windows, np.zeros(4, dtype=np.intp), np.array([[0], [1], [2], [3]]), 2,
                        np.array([0, 1, 2, 0]))
    assert got.tolist() == [[False, True, False],   # [3, 0, 4] in [0, 2)
                            [False, False, True],   # [0, 4, 1] in [1, 3)
                            [False, False, True],   # [4, 1, 2] in [2, 4)
                            [True, False, True]]    # [3, 0, 4] in [3, 5)


@pytest.mark.parametrize("shape, width", [((1,), 1), ((9,), 4), ((3, 9), 1), ((3, 9), 9),
                                          ((2, 100), 37)])
def test_window_view_equals_sliding_window_view(shape, width):
    for dtype in (np.int32, np.int64, np.float64):
        a = np.arange(np.prod(shape), dtype=dtype).reshape(shape)
        got = window_view(a, width)
        expected = sliding_window_view(a, width, axis=-1)
        assert got.shape == expected.shape and got.dtype == a.dtype
        assert np.array_equal(got, expected)
        assert not got.flags.writeable


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_one_window_batch_equals_its_row_of_a_many_window_batch(dtype):
    """A batch of one window subtracts from the strided view and a batch of
    many gathers first; both give the same membership, bit for bit, also
    where a start lies past a position and the difference wraps."""
    rng = np.random.default_rng(int(np.dtype(dtype).itemsize))
    reps, others, n, width, size = 3, 2, 200, 61, 70
    positions = np.stack([np.stack([rng.permutation(n) for _ in range(others)])
                          for _ in range(reps)]).astype(dtype)
    windows = window_view(positions, width)
    k = 12
    rep = rng.integers(0, reps, size=k)
    starts = rng.integers(0, n - size + 1, size=(k, others))
    window_starts = rng.integers(0, n - width + 1, size=k)
    many = slice_windows(windows, rep, starts, size, window_starts)
    assert 0 < many.sum() < many.size
    for i in range(k):
        one = slice_windows(windows, rep[i:i + 1], starts[i:i + 1], size, window_starts[i:i + 1])
        assert one.shape == (1, width) and one.dtype == np.bool_
        assert one.tobytes() == many[i:i + 1].tobytes()
