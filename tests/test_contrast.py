import dataclasses
import importlib
import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcde
from mcde import contrast, hoeffding_bound, iterations_for
from mcde import _kernels
from mcde._rng import iteration_integers
from mcde.contrast import _draw, _estimate
from mcde.mwp import confidences, restriction_bounds
from oracles import contrast_iterations_oracle, draw_slice


@pytest.fixture(scope="module")
def uniform_ds():
    return mcde.generate(mcde.DependencySpec("independent", 400, 3, 0.0, seed=1))


def test_zero_iterations_rejected(uniform_ds):
    with pytest.raises(ValueError):
        contrast(uniform_ds, m=0)


def test_a_non_integral_count_is_rejected_before_scoring(uniform_ds):
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        contrast(uniform_ds, m=2.5)
    with pytest.raises(TypeError, match="a count must be an integer, not a bool"):
        contrast(uniform_ds, m=True)
    assert contrast(uniform_ds, m=np.int64(5), seed=3) == contrast(uniform_ds, m=5, seed=3)


def _no_index_build(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the index was built before the shape was checked")

    monkeypatch.setattr(importlib.import_module("mcde.contrast"), "construct_index", fail)


def test_single_column_rejected(monkeypatch):
    ds = mcde.Dataset(np.random.default_rng(0).random((50, 1)))
    _no_index_build(monkeypatch)
    with pytest.raises(ValueError, match="contrast needs at least 2 dimensions, got d=1"):
        contrast(ds, m=10)


def test_single_row_rejected(monkeypatch):
    ds = mcde.Dataset(np.array([[1.0, 2.0]]))
    _no_index_build(monkeypatch)
    with pytest.raises(ValueError, match="contrast needs at least 2 rows, got n=1"):
        contrast(ds, m=10)


def test_bad_alpha_and_seed_rejected(uniform_ds):
    with pytest.raises(ValueError):
        contrast(uniform_ds, m=5, alpha=0.0)
    # a bool would score at alpha 1
    for alpha in (True, np.bool_(True)):
        with pytest.raises(TypeError, match="alpha must be a number, not a bool"):
            contrast(uniform_ds, m=5, alpha=alpha)
    with pytest.raises(ValueError):
        contrast(uniform_ds, m=5, seed=-1)
    # a bool would score as seed 0 or 1
    for seed in (True, False, np.bool_(True)):
        with pytest.raises(ValueError, match="^seed must be a non-negative integer, got"):
            contrast(uniform_ds, m=5, seed=seed)


def test_seed_past_the_64_bit_key_rejected(uniform_ds):
    # the Philox key holds 64 bits: 2**64 would score as seed 0
    assert contrast(uniform_ds, m=5, seed=2**64 - 1).seed == 2**64 - 1
    for seed in (2**64, 2**64 + 7, 2**70):
        with pytest.raises(ValueError, match=r"seed must be below 2\*\*64"):
            contrast(uniform_ds, m=5, seed=seed)


def test_deterministic_given_seed(uniform_ds):
    a = contrast(uniform_ds, m=40, seed=7)
    b = contrast(uniform_ds, m=40, seed=7)
    c = contrast(uniform_ds, m=40, seed=8)
    assert a.score == b.score
    assert a.score != c.score


def test_recorded_iterations_average_to_score(uniform_ds):
    est = contrast(uniform_ds, m=37, seed=3, record_iterations=True)
    assert est.per_iteration.shape == (37,)
    assert est.score == float(est.per_iteration.mean())
    assert np.all((est.per_iteration >= 0) & (est.per_iteration <= 1))


def test_iterations_not_recorded_by_default(uniform_ds):
    assert contrast(uniform_ds, m=5, seed=3).per_iteration is None


def test_there_is_no_thread_option(uniform_ds):
    with pytest.raises(TypeError):
        contrast(uniform_ds, threads=2)


def test_prebuilt_index_equals_dataset_path(uniform_ds):
    index = mcde.construct_index(uniform_ds)
    assert contrast(index, m=20, seed=2).score == contrast(uniform_ds, m=20, seed=2).score


def test_concurrent_calls_share_one_index(uniform_ds):
    from concurrent.futures import ThreadPoolExecutor

    index = mcde.construct_index(uniform_ds)
    seeds = list(range(16))
    serial = [contrast(index, m=20, seed=s).score for s in seeds]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(lambda s: contrast(index, m=20, seed=s).score, seeds))
    assert serial == parallel


def test_projected_index_scores_subspace():
    ds = mcde.generate(mcde.DependencySpec("independent", 300, 5, 0.0, seed=4))
    index = mcde.construct_index(ds)
    sub = index.project([0, 2, 4])
    direct = contrast(mcde.select_subspace(ds, [0, 2, 4]), m=25, seed=9)
    via_projection = contrast(sub, m=25, seed=9)
    # same subspace and seed; only the tie-order salts differ by position,
    # which is irrelevant for continuous data
    assert via_projection.score == pytest.approx(direct.score, abs=1e-12)


@pytest.mark.parametrize("case", range(12))
def test_row_permutation_invariance_on_tie_free_data(case):
    """Permuting the rows of tie-free data leaves every iteration unchanged.

    Tied data is excluded on purpose: the within-tie order comes from a
    tie-break value drawn per row index, so permuting tied rows reorders them
    within their group and changes which of them a slice keeps.
    """
    rng = np.random.default_rng(900 + case)
    n = int(rng.integers(2, 3001))
    d = int(rng.integers(2, 5))
    x = rng.random((n, d))
    x[:, 1] += x[:, 0] * rng.uniform(0, 2)
    assert all(np.unique(x[:, j]).size == n for j in range(d))
    alpha = float(rng.uniform(0.05, 1.0))
    perm = rng.permutation(n)
    kwargs = dict(m=30, alpha=alpha, seed=case, record_iterations=True)
    a = contrast(mcde.Dataset(x), **kwargs)
    b = contrast(mcde.Dataset(x[perm]), **kwargs)
    assert a.per_iteration.tobytes() == b.per_iteration.tobytes()


@pytest.mark.parametrize("n, d, alpha", [(40, 2, 0.5), (1000, 3, 0.5), (5000, 4, 0.2)])
def test_tie_free_columns_score_as_if_they_stored_their_ranks(n, d, alpha):
    """A tie-free column stores no ranks; giving it the explicit ranks
    ``arange(n)``, each position a group of its own, changes no iteration's
    value: the tied path, which reads a column's runs, agrees with the
    tie-free one."""
    x = np.random.default_rng(n).random((n, d))
    x[:, 1] += x[:, 0]
    index = mcde.construct_index(mcde.Dataset(x))
    assert all(dim.adjusted_ranks is None for dim in index.dims)
    ranks = np.arange(n, dtype=np.float64)
    explicit = mcde.RankIndex(tuple(
        dataclasses.replace(dim, adjusted_ranks=ranks, run_starts=np.arange(n),
                            run_lengths=np.ones(n, dtype=np.intp))
        for dim in index.dims), n)
    kwargs = dict(m=60, alpha=alpha, seed=n, record_iterations=True)
    a = contrast(index, **kwargs)
    b = contrast(explicit, **kwargs)
    assert a.per_iteration.tobytes() == b.per_iteration.tobytes()


def test_independent_data_scores_near_half():
    scores = mcde.score_sample(
        mcde.DependencySpec("independent", 1000, 3, 0.0), reps=100, m=50, seed=77
    )
    assert 0.45 <= scores.mean() <= 0.55


def test_noiseless_linear_scores_high():
    ds = mcde.generate(mcde.DependencySpec("linear", 1000, 2, 0.0, seed=6))
    assert contrast(ds, m=50, seed=1).score >= 0.95


def test_estimate_metadata_carried():
    ds = mcde.generate(mcde.DependencySpec("independent", 100, 2, 0.0, seed=2))
    est = contrast(ds, m=13, alpha=0.4, seed=21)
    assert (est.m_iterations, est.alpha, est.seed) == (13, 0.4, 21)


# --- the batch against the per-iteration reference -------------------------


def _data(rng, n, d, kind):
    x = rng.random((n, d))
    if kind == "discretised":
        x = np.floor(x * rng.integers(1, 8))
    elif kind == "constant":
        x[:, rng.integers(0, d)] = 2.5
        x[:, 0] = np.round(x[:, 0], 1)
    return mcde.Dataset(x)


def _assert_matches_oracle(index, m, alpha, seed):
    est = contrast(index, m=m, alpha=alpha, seed=seed, record_iterations=True)
    outcomes = contrast_iterations_oracle(index, m, alpha, seed)
    expected = np.array([o.p_c for o in outcomes])
    assert est.per_iteration.tobytes() == expected.tobytes()
    assert est.degenerate_tied == sum(o.degenerate and o.p_c == 0.0 for o in outcomes)
    assert est.degenerate_empty_full == sum(o.degenerate and o.p_c == 1.0 for o in outcomes)


def _exact_window_value(values, member, width):
    """The test value of one window from its sorted values and its members'
    flags: rank sum and tie correction summed as exact integers."""
    firsts = np.flatnonzero(np.diff(values, prepend=np.nan) != 0)
    sizes = np.diff(firsts, append=width)
    inside = np.add.reduceat(member.astype(np.int64), firsts)
    # members times twice their group's local mean rank, 2 * first + size - 1:
    # below width * 2 * width < 2**63, so exact in int64
    twice_r1 = int((inside * (2 * firsts + sizes - 1)).sum())
    corr = sum(g**3 - g for g in sizes[sizes > 1].tolist())
    n1 = int(member.sum())
    return confidences(np.array([twice_r1 / 2]), np.array([n1]), np.array([float(corr)]),
                       width)[0][0], corr


def test_estimate_past_the_int64_safe_tie_width():
    """Restriction windows wider than 2**21 rows, on a 2-level column whose
    windows' sums of g**3 - g pass int64: every test value equals the one
    recomputed from exact integer rank sums and tie corrections."""
    n = 2**22 + 2
    rng = np.random.default_rng(22)
    data = np.column_stack([(rng.random(n) < 0.5).astype(np.float64), rng.random(n)])
    index = mcde.construct_index(mcde.Dataset(data))
    # windows of 0.9 n rows hold two groups of about 1.9M rows each
    m, alpha, seed = 4, 0.9, 0
    starts, width = restriction_bounds(n, alpha)
    assert width > _kernels._INT64_SAFE_WIDTH
    got = contrast(index, m=m, alpha=alpha, seed=seed, record_iterations=True).per_iteration
    expected, corrections = [], []
    for i in range(m):
        draws = np.random.Generator(np.random.Philox(key=np.array([seed, i], dtype=np.uint64)))
        ref = int(draws.integers(0, 2))
        member = draw_slice(index, ref, alpha, draws)
        start = int(draws.integers(0, starts))
        rows = index.dims[ref].row_ids[start:start + width]
        value, corr = _exact_window_value(data[rows, ref], member[rows], width)
        expected.append(value)
        corrections.append(corr)
    assert max(corrections) >= 2**63  # the 2-level column was drawn
    assert 0.0 < got[corrections.index(max(corrections))] < 1.0
    assert got.tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("case", range(27))
def test_per_iteration_equals_per_iteration_oracle(case):
    rng = np.random.default_rng(7000 + case)
    alpha = (0.1, 0.5, 1.0)[case % 3]
    kind = ("continuous", "discretised", "constant")[case // 3 % 3]
    n = int(rng.choice([2, 3, 17, 250, 1000, 3001]))
    d = int(rng.integers(2, 6))
    # every other case keys its streams with a seed >= 2**63
    seed = int(rng.integers(2**63, 2**64, dtype=np.uint64)) if case % 2 else case
    index = mcde.construct_index(_data(rng, n, d, kind))
    _assert_matches_oracle(index, int(rng.integers(1, 80)), alpha, seed)


@pytest.mark.parametrize("d, alpha, kind", [
    (2, 0.5, "continuous"),
    (5, 0.5, "discretised"),
    (3, 0.1, "constant"),
    (4, 1.0, "discretised"),
])
def test_per_iteration_equals_oracle_across_batches(d, alpha, kind):
    # n=5e4 fits one or two windows of width n*alpha in a batch, so the
    # iterations of each reference dimension span several batches
    rng = np.random.default_rng(d)
    index = mcde.construct_index(_data(rng, 50_000, d, kind))
    _assert_matches_oracle(index, 24, alpha, 2**64 - 1 - d)


# --- a stack of estimates against one contrast call each --------------------


def _stacked_column(rng, n, kind):
    if kind == "discretised":
        return np.floor(rng.random(n) * rng.integers(2, 8))
    if kind == "tied":
        return np.full(n, 0.25)
    return rng.random(n)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("n, alpha", [(2, 0.5), (120, 0.5), (1000, 0.3)])
def test_stacked_estimate_equals_one_contrast_per_index(n, d, alpha):
    # the k-th index gives column j the (k + j)-th kind, so every reference
    # is tie-free in some repetitions, discretised or all tied in others
    rng = np.random.default_rng(n * d)
    kinds = ("continuous", "discretised", "tied", "continuous", "discretised")
    indexes = []
    for k in range(len(kinds)):
        columns = [_stacked_column(rng, n, kinds[(k + j) % len(kinds)]) for j in range(d)]
        indexes.append(mcde.construct_index(mcde.Dataset(np.column_stack(columns))))
    seeds = [int(s) for s in rng.integers(0, 2**64, size=len(indexes), dtype=np.uint64)]
    draws = _draw(seeds, n, d, 60, alpha)
    stacked = _estimate(indexes, alpha, seeds, draws, record_iterations=True)
    assert len(stacked) == len(indexes)
    for index, seed, estimate in zip(indexes, seeds, stacked):
        alone = contrast(index, m=60, alpha=alpha, seed=seed, record_iterations=True)
        assert estimate.per_iteration.tobytes() == alone.per_iteration.tobytes()
        assert dataclasses.replace(estimate, per_iteration=None) == \
            dataclasses.replace(alone, per_iteration=None)
    if n > 2:
        # the all-tied columns were drawn as references
        assert sum(estimate.degenerate_tied for estimate in stacked) > 0


@st.composite
def _stacks(draw):
    """A stack of indexes of one (n, d), each column continuous, at a drawn
    number of tie levels, or constant.  In every index one column's least
    and greatest values are both tied (it is constant below 4 rows), so
    where tied stack rows are laid end to end, runs meet at every seam."""
    n = draw(st.integers(2, 300))
    d = draw(st.integers(2, 5))
    reps = draw(st.integers(1, 8))
    seam = draw(st.integers(0, d - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    indexes = []
    for _ in range(reps):
        columns = []
        for j in range(d):
            levels = draw(st.sampled_from([0, 1, 2, 7, n // 2 + 1]))
            column = rng.random(n)
            column = np.floor(column * levels) if levels else column
            if j == seam:
                column[rng.permutation(n)[:4]] = [-1.0, -1.0, n, n] if n >= 4 else -1.0
            columns.append(column)
        indexes.append(mcde.construct_index(mcde.Dataset(np.column_stack(columns))))
    return indexes


@given(
    indexes=_stacks(),
    m=st.integers(1, 40),
    alpha=st.floats(0.05, 1.0),
    group=st.integers(1, 5),
    seed=st.integers(0, 2**64 - 1),
)
@settings(max_examples=60, deadline=None)
def test_estimate_does_not_depend_on_stack_or_grouping(indexes, m, alpha, group, seed):
    # groups of `group` references; the same cap cuts the scoring batches
    # and the gathers, down to one iteration and one row id at a time
    n, d, reps = indexes[0].n, indexes[0].d, len(indexes)
    seeds = [(seed + k) % 2**64 for k in range(reps)]
    alone = [contrast(index, m=m, alpha=alpha, seed=s, record_iterations=True)
             for index, s in zip(indexes, seeds)]
    draws = _draw(seeds, n, d, m, alpha)
    cells = group * reps * (d - 1) * n
    with patch.object(importlib.import_module("mcde.contrast"), "_CHUNK_CELLS", cells):
        stacked = _estimate(indexes, alpha, seeds, draws, record_iterations=True)
    for estimate, single in zip(stacked, alone, strict=True):
        assert estimate.score == single.per_iteration.mean()
        assert estimate.per_iteration.tobytes() == single.per_iteration.tobytes()
        assert dataclasses.replace(estimate, per_iteration=None) == \
            dataclasses.replace(single, per_iteration=None)


@pytest.mark.parametrize("references_per_group", [None, 1])
def test_a_stack_finds_the_cut_runs_of_its_tied_references_once_per_group(
        monkeypatch, references_per_group):
    # 8 indexes whose references are all tied, each column's least and
    # greatest values too: one cut_runs call per reference group, whatever
    # the stack, and every estimate as its index gets it alone
    rng = np.random.default_rng(8)
    n, d, reps = 60, 3, 8
    indexes = []
    for _ in range(reps):
        values = np.floor(rng.random((n, d)) * 5)
        values[:2], values[-2:] = -1.0, 5.0
        indexes.append(mcde.construct_index(mcde.Dataset(values)))
    seeds = list(range(reps))
    alone = [contrast(index, m=40, seed=s, record_iterations=True)
             for index, s in zip(indexes, seeds)]
    draws = _draw(seeds, n, d, 40, 0.5)
    assert np.unique(draws[..., 0]).size == d
    module = importlib.import_module("mcde.contrast")
    if references_per_group:
        monkeypatch.setattr(module, "_CHUNK_CELLS", references_per_group * reps * (d - 1) * n)
    calls = []
    cut_runs = _kernels.cut_runs

    def spy(starts, *args):
        calls.append(starts.size)
        return cut_runs(starts, *args)

    monkeypatch.setattr(module._kernels, "cut_runs", spy)
    stacked = _estimate(indexes, 0.5, seeds, draws, record_iterations=True)
    assert calls == ([reps * 40] if references_per_group is None
                     else np.bincount(draws[..., 0].ravel(), minlength=d).tolist())
    for estimate, single in zip(stacked, alone, strict=True):
        assert estimate.per_iteration.tobytes() == single.per_iteration.tobytes()
        assert dataclasses.replace(estimate, per_iteration=None) == \
            dataclasses.replace(single, per_iteration=None)


def test_restriction_windows_stay_inside_the_column():
    # configurations where rounding n*alpha and n*(1-alpha) apart allowed one
    # restriction start past n - width, or a width of 0
    mwp = importlib.import_module("mcde.mwp")
    cases = [(2, 5.000000089452774e-10), (86653538, 0.2453179580503684), (2, 1e-10)]
    for n, alpha in cases:
        starts, width = mwp.restriction_bounds(n, alpha)
        assert width >= 1 and starts - 1 + width == n
        draws = _draw([0, 2**64 - 1], n, 2, 200, alpha)
        assert draws[..., -1].max() + width <= n
    index = mcde.construct_index(mcde.Dataset([[0.0, 1.0], [1.0, 0.0]]))
    for _, alpha in cases[::2]:
        assert all(o.n_prime == 1 for o in contrast_iterations_oracle(index, 30, alpha, 0))
        _assert_matches_oracle(index, 30, alpha, 0)


@pytest.mark.parametrize("n, d", [(2, 2), (50, 3), (301, 5)])
def test_full_slices_start_at_zero_and_consume_no_draw(n, d):
    # at alpha=1 every slice keeps all rows: its start's bound of 1 gives 0
    # and leaves the reference and restriction draws where they were
    seeds = [0, 7, 2**64 - 1]
    draws = _draw(seeds, n, d, 40, 1.0)
    window_starts, _ = restriction_bounds(n, 1.0)
    assert draws.shape == (3, 40, d + 1)
    assert not draws[..., 1:-1].any()
    expected = iteration_integers(seeds, 40, (d, window_starts))
    assert np.array_equal(draws[..., [0, -1]], expected)


def test_degenerate_counts():
    # iterations 0 and 3 take the constant column as reference and see an
    # all-tied window; at alpha=1 every slice is full
    data = np.column_stack([np.zeros(200), np.random.default_rng(0).random(200)])
    est = contrast(mcde.Dataset(data), m=4, alpha=1, seed=0, record_iterations=True)
    assert est.per_iteration.tolist() == [0, 1, 1, 0]
    assert (est.degenerate_tied, est.degenerate_empty_full) == (2, 2)

    tie_free = mcde.generate(mcde.DependencySpec("linear", 1000, 3, 0.5, seed=3))
    assert contrast(tie_free, m=50, seed=1).degenerate_tied == 0
    assert contrast(tie_free, m=50, seed=1).degenerate_empty_full == 0
    full = contrast(tie_free, m=50, alpha=1.0, seed=1)
    assert (full.degenerate_tied, full.degenerate_empty_full, full.score) == (0, 50, 1.0)


@st.composite
def _near_constant_data(draw):
    """n x d data whose columns hold 1-3 distinct values, then 0-3
    outliers each."""
    n = draw(st.integers(2, 400))
    d = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for _ in range(d):
        levels = rng.random(draw(st.integers(1, 3)))
        column = levels[rng.integers(0, levels.size, n)]
        outliers = rng.choice(n, size=min(n, draw(st.integers(0, 3))), replace=False)
        column[outliers] = 10.0 + rng.random(outliers.size)
        columns.append(column)
    return np.column_stack(columns)


@given(
    data=_near_constant_data(),
    m=st.integers(1, 60),
    alpha=st.floats(0.01, 1.0),
    seed=st.integers(0, 2**64 - 1),
)
@settings(max_examples=100, deadline=None)
def test_near_constant_columns_score_in_unit_interval(data, m, alpha, seed):
    est = contrast(mcde.Dataset(data), m=m, alpha=alpha, seed=seed, record_iterations=True)
    values = est.per_iteration
    assert 0.0 <= est.score <= 1.0
    assert np.all((values >= 0.0) & (values <= 1.0))
    assert est.degenerate_tied <= np.count_nonzero(values == 0.0)
    assert est.degenerate_empty_full <= np.count_nonzero(values == 1.0)

    constant = contrast(mcde.Dataset(np.full_like(data, 0.25)), m=m, alpha=alpha, seed=seed)
    if restriction_bounds(data.shape[0], alpha)[1] >= 2:
        assert (constant.degenerate_tied, constant.score) == (m, 0.0)
    else:  # a one-row window holds no tie group; its slice is empty or full
        assert (constant.degenerate_empty_full, constant.score) == (m, 1.0)


# --- Hoeffding utilities ----------------------------------------------------


def test_hoeffding_bound_reference_value():
    assert hoeffding_bound(200, 0.1) == pytest.approx(2 * math.exp(-4), rel=1e-12)


def test_hoeffding_bound_capped_at_one():
    assert hoeffding_bound(1, 1e-6) == 1.0


def test_hoeffding_bound_validates():
    with pytest.raises(ValueError):
        hoeffding_bound(0, 0.1)
    with pytest.raises(ValueError):
        hoeffding_bound(10, 0.0)
    with pytest.raises(ValueError):
        hoeffding_bound(10, 1.0)


@pytest.mark.parametrize("m, error", [
    (2.5, "'float' object cannot be interpreted as an integer"),
    (True, "a count must be an integer, not a bool"),
])
def test_hoeffding_bound_rejects_a_non_integral_count(m, error):
    with pytest.raises(TypeError, match=error):
        hoeffding_bound(m, 0.1)
    assert hoeffding_bound(np.int64(200), 0.1) == hoeffding_bound(200, 0.1)


def test_iterations_for_reference_values():
    assert iterations_for(0.1, 0.04) == 196
    assert iterations_for(0.1, 2e-4) == 461
    assert iterations_for(0.5, 0.5) == 3


def test_iterations_for_validates():
    for eps, delta in [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0)]:
        with pytest.raises(ValueError):
            iterations_for(eps, delta)


@given(
    epsilon=st.floats(min_value=0.01, max_value=0.99),
    delta=st.floats(min_value=1e-6, max_value=0.99),
)
@settings(max_examples=200, deadline=None)
def test_iterations_for_is_minimal_and_sufficient(epsilon, delta):
    m = iterations_for(epsilon, delta)
    assert hoeffding_bound(m, epsilon) <= delta
    if m > 1:
        assert hoeffding_bound(m - 1, epsilon) > delta
