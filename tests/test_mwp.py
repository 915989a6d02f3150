import math

import numpy as np
import pytest

from mcde import Dataset, construct_index, contrast
from mcde.mwp import confidences
from conftest import random_tied_column
from oracles import mann_whitney_pc_oracle, mwp_test


def _half_normal(z):
    """``confidences`` of one window of 8 rows, 2 of them in the slice and
    none tied, whose rank sum puts U1 ``z`` sigmas from its mean: mu = 6 and
    sigma = sqrt(2 * 6 / 12 * 9) = 3, so each test value is the half-normal
    CDF at |z|."""
    r1 = np.array([1.0 + 6.0 + 3.0 * z])
    p_c, tied, empty_full = confidences(r1, np.array([2]), np.zeros(1), 8)
    assert not (tied[0] or empty_full[0])
    return float(p_c[0])


def test_half_normal_cdf_at_zero():
    assert _half_normal(0.0) == 0.0


def test_half_normal_cdf_one_sigma():
    assert _half_normal(1.0) == pytest.approx(0.6826894921370859, abs=1e-12)


def test_half_normal_cdf_95th():
    assert _half_normal(1.959964) == pytest.approx(0.95, abs=1e-5)


def test_half_normal_cdf_monotone_to_one():
    # 200 of 400 rows in the slice, U1 from its mean up to n1 * n2, which
    # lies sqrt(3 * n1 * n2 / (n' + 1)) > 17 sigmas out
    n1, w = 200, 400
    u1 = np.linspace(n1 * (w - n1) / 2.0, n1 * (w - n1), 101)
    p_c, _, _ = confidences(u1 + n1 * (n1 - 1) / 2.0, np.full(101, n1), np.zeros(101), w)
    assert p_c[0] == 0.0
    assert all(b >= a for a, b in zip(p_c, p_c[1:]))
    assert p_c[-1] == pytest.approx(1.0, abs=1e-12)


def test_half_normal_cdf_folds_negative_deviation():
    # the test is two-sided: U1 below its mean scores as far above it
    for z in (0.5, 1.0, 1.959964, 2.5):
        assert _half_normal(-z) == _half_normal(z)


class _FixedStart:
    """rng stub that pins the restriction start."""

    def __init__(self, start=0):
        self.start = start

    def integers(self, lo, hi):
        return self.start


def _two_col(values):
    values = np.asarray(values, float)
    return construct_index(Dataset(np.column_stack([values, values[::-1]])))


def test_hand_computed_example():
    # n=4 distinct values, full restriction, slice holds ranks {2, 3}
    index = _two_col([0.1, 0.2, 0.3, 0.4])
    member = np.array([False, False, True, True])
    out = mwp_test(index, member, 0, alpha=1.0, rng=_FixedStart())
    u1, mu = 4.0, 2.0
    sigma = math.sqrt((2 * 2 / 12) * 5)
    expected = math.erf((u1 - mu) / sigma / math.sqrt(2))
    assert out.p_c == pytest.approx(expected, abs=1e-12)
    assert out.p_c == pytest.approx(0.87870, abs=5e-5)
    assert (out.n1, out.n_prime, out.degenerate) == (2, 4, False)


def test_empty_and_full_slices_return_one():
    index = _two_col(np.arange(20.0))
    for member in (np.zeros(20, bool), np.ones(20, bool)):
        out = mwp_test(index, member, 0, alpha=1.0, rng=_FixedStart())
        assert out.p_c == 1.0 and out.degenerate
    # a one-row restriction window (ceil(10 * 0.1) = 1) holds an empty or
    # full slice, even where its sum of g**3 - g equals n'**3 - n' = 0 on a
    # constant reference column
    for column in (np.arange(10.0), np.ones(10)):
        index = construct_index(Dataset(np.column_stack([column, np.arange(10.0)])))
        for member in (np.zeros(10, bool), np.ones(10, bool)):
            out = mwp_test(index, member, 0, alpha=0.1, rng=_FixedStart(4))
            assert out.n_prime == 1
            assert out.p_c == 1.0 and out.degenerate


def test_constant_reference_column_returns_zero():
    index = construct_index(
        Dataset(np.column_stack([np.ones(30), np.arange(30.0)]))
    )
    member = np.array([True] * 15 + [False] * 15)
    out = mwp_test(index, member, 0, alpha=1.0, rng=_FixedStart())
    assert out.p_c == 0.0 and out.degenerate


@pytest.mark.parametrize("n", [330_684, 2_200_000])
def test_constant_reference_column_returns_zero_at_scale(n):
    # iterations 0 and 3 take the constant column as reference.  At
    # n=330684 the float spread of an all-tied window rounds above 0; at
    # n=2.2M the group's g**3 - g does not fit in int64.
    data = np.column_stack([np.zeros(n), np.random.default_rng(0).random(n)])
    est = contrast(Dataset(data), m=4, alpha=1, seed=0, record_iterations=True)
    assert est.per_iteration.tolist() == [0, 1, 1, 0]


def test_all_tied_check_is_exact_on_float_corrections():
    # one group spanning the window against the largest sum short of it,
    # groups of w - 1 and 1, each rounded to float64 as window_rows gives it
    for w in (2**21 + 1, 2**31 - 1):
        n1 = np.array([w // 2, w // 2])
        r1 = n1 * (n1 - 1) / 2.0
        corr = np.array([float(w**3 - w), float((w - 1)**3 - (w - 1))])
        p_c, tied, empty_full = confidences(r1, n1, corr, w)
        assert tied.tolist() == [True, False]
        assert empty_full.tolist() == [False, False]
        assert p_c[0] == 0.0 and 0.0 < p_c[1] <= 1.0
    # in a one-row window both sums are 0, and the slice is empty or full
    p_c, tied, empty_full = confidences(np.zeros(2), np.array([0, 1]), np.zeros(2), 1)
    assert tied.tolist() == [False, False]
    assert empty_full.tolist() == [True, True]
    assert p_c.tolist() == [1.0, 1.0]


def test_tied_window_inside_larger_column_returns_zero():
    # the restriction window lands inside one big tie group
    column = np.concatenate([[0.0], np.ones(18), [2.0]])
    index = construct_index(Dataset(np.column_stack([column, np.arange(20.0)])))
    member = np.array([True, False] * 10)
    out = mwp_test(index, member, 0, alpha=0.5, rng=_FixedStart(5))
    assert out.p_c == 0.0 and out.degenerate


@pytest.mark.parametrize("case", range(200))
def test_matches_textbook_oracle(case):
    rng = np.random.default_rng(case)
    n = int(rng.integers(3, 51))
    column = random_tied_column(rng, n)
    member = rng.random(n) < rng.uniform(0.2, 0.8)
    pin = int(rng.integers(0, n))  # both samples non-empty
    member[pin] = True
    member[(pin + 1) % n] = False
    index = construct_index(Dataset(np.column_stack([column, rng.random(n)])))
    out = mwp_test(index, member, 0, alpha=1.0, rng=_FixedStart())
    expected = mann_whitney_pc_oracle(column[member], column[~member])
    assert out.p_c == pytest.approx(expected, abs=1e-9)


def test_oracle_agrees_with_scipy_when_applicable():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(123)
    for _ in range(50):
        n = int(rng.integers(8, 40))
        pooled = random_tied_column(rng, n)
        if len(set(pooled.tolist())) < 2:
            continue
        k = int(rng.integers(1, n))
        x, y = pooled[:k], pooled[k:]
        res = scipy_stats.mannwhitneyu(
            x, y, alternative="two-sided", use_continuity=False, method="asymptotic"
        )
        assert mann_whitney_pc_oracle(x, y) == pytest.approx(1 - res.pvalue, abs=1e-9)


def test_swapping_slice_and_complement_is_symmetric():
    rng = np.random.default_rng(8)
    column = random_tied_column(rng, 200)
    index = construct_index(Dataset(np.column_stack([column, rng.random(200)])))
    member = rng.random(200) < 0.4
    a = mwp_test(index, member, 0, 0.5, np.random.default_rng(3))
    b = mwp_test(index, ~member, 0, 0.5, np.random.default_rng(3))
    assert a.p_c == pytest.approx(b.p_c, abs=1e-12)


def test_invariant_under_monotone_transform():
    rng = np.random.default_rng(10)
    base = rng.random((150, 2))
    member = rng.random(150) < 0.5
    raw = construct_index(Dataset(base))
    warped = construct_index(Dataset(np.exp(3 * base)))
    a = mwp_test(raw, member, 0, 0.5, np.random.default_rng(4))
    b = mwp_test(warped, member, 0, 0.5, np.random.default_rng(4))
    assert a.p_c == b.p_c


@pytest.mark.parametrize("case", range(60))
def test_result_always_in_unit_interval(case):
    rng = np.random.default_rng(5000 + case)
    n = int(rng.integers(2, 150))
    column = random_tied_column(rng, n)
    alpha = float(rng.uniform(0.05, 1.0))
    index = construct_index(Dataset(np.column_stack([column, rng.random(n)])))
    member = rng.random(n) < rng.random()
    out = mwp_test(index, member, 0, alpha, rng)
    assert 0.0 <= out.p_c <= 1.0
    assert not math.isnan(out.p_c)
    assert 0 <= out.n1 <= out.n_prime
