import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcde
from mcde import contrast, hoeffding_bound, iterations_for


@pytest.fixture(scope="module")
def uniform_ds():
    return mcde.generate(mcde.DependencySpec("independent", 400, 3, 0.0, seed=1))


def test_zero_iterations_rejected(uniform_ds):
    with pytest.raises(ValueError):
        contrast(uniform_ds, m=0)


def test_single_column_rejected():
    ds = mcde.Dataset(np.random.default_rng(0).random((50, 1)))
    with pytest.raises(ValueError):
        contrast(ds, m=10)


def test_single_row_rejected():
    ds = mcde.Dataset(np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        contrast(ds, m=10)


def test_bad_alpha_and_seed_rejected(uniform_ds):
    with pytest.raises(ValueError):
        contrast(uniform_ds, m=5, alpha=0.0)
    with pytest.raises(ValueError):
        contrast(uniform_ds, m=5, seed=-1)


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


def test_threads_do_not_change_result(uniform_ds):
    serial = contrast(uniform_ds, m=64, seed=5, threads=1)
    threaded = contrast(uniform_ds, m=64, seed=5, threads=8)
    assert serial.score == threaded.score


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
