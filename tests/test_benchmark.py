import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import mcde
from mcde import DependencySpec
from mcde._rng import derive_seed
from mcde.benchmark import nearest_rank_percentile, results_csv, runtime_csv


def test_percentile_of_constant_sample():
    assert nearest_rank_percentile([0.3] * 10, 95) == 0.3


def test_percentile_nearest_rank_rule():
    scores = [round(0.1 * k, 1) for k in range(1, 11)]
    assert nearest_rank_percentile(scores, 95) == 1.0
    assert nearest_rank_percentile(scores, 50) == 0.5
    assert nearest_rank_percentile(scores, 5) == 0.1


def test_percentile_validates_gamma():
    for gamma in (0, 100, -3):
        with pytest.raises(ValueError):
            nearest_rank_percentile([0.1], gamma)


def test_percentile_rejects_an_empty_sample():
    with pytest.raises(ValueError, match="^no scores to take a percentile of$"):
        nearest_rank_percentile([], 95)


def test_power_counts_strict_exceedances():
    spec = DependencySpec("independent", 120, 2, 0.0)
    below = mcde.power(spec, reps=10, m=8, seed=3, threshold=-1.0)
    above = mcde.power(spec, reps=10, m=8, seed=3, threshold=2.0)
    assert below.power == 1.0
    assert above.power == 0.0


def test_power_separates_linear_from_threshold():
    result = mcde.power(DependencySpec("linear", 300, 2, 0.0), reps=15, m=20,
                        seed=5, threshold=0.9)
    assert result.power == 1.0
    assert result.mean > 0.95
    assert result.kind == "linear" and result.omega is None


def test_power_result_is_deterministic():
    spec = DependencySpec("parabolic", 150, 2, 0.1)
    a = mcde.power(spec, reps=8, m=10, seed=21)
    b = mcde.power(spec, reps=8, m=10, seed=21)
    assert a == b


def test_threshold_value_plausible():
    thr = mcde.independence_threshold(1000, 3, m=50, reps=100, seed=42)
    assert 0.5 < thr < 0.65


def _no_scoring(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("scored before the arguments were checked")
    monkeypatch.setattr(mcde.benchmark, "score_sample", fail)


_FLOAT_COUNT = "'float' object cannot be interpreted as an integer"
_BOOL_COUNT = "a count must be an integer, not a bool"


@pytest.mark.parametrize("kwargs, error, message", [
    (dict(gamma=150.0, threshold=0.5), ValueError, r"^gamma must be in \(0, 100\), got 150.0$"),
    (dict(gamma=100.0), ValueError, r"^gamma must be in \(0, 100\), got 100.0$"),
    (dict(gamma=0.0, threshold=0.5), ValueError, r"^gamma must be in \(0, 100\), got 0.0$"),
    (dict(omega=0), ValueError, r"^omega must be >= 1, got 0$"),
    (dict(omega=0, threshold=0.5), ValueError, r"^omega must be >= 1, got 0$"),
    (dict(omega=2.5, threshold=0.5), TypeError, _FLOAT_COUNT),
    (dict(omega=True), TypeError, _BOOL_COUNT),
    (dict(seed=True, threshold=0.5), ValueError, r"^seed must be a non-negative integer, got True$"),
    (dict(threshold=float("nan")), ValueError, r"^threshold must be finite, got nan$"),
    (dict(threshold=float("-inf")), ValueError, r"^threshold must be finite, got -inf$"),
    (dict(gamma=True, threshold=0.5), TypeError, r"^gamma must be a number, not a bool$"),
    (dict(gamma=np.True_), TypeError, r"^gamma must be a number, not a bool$"),
])
def test_power_checks_its_arguments_before_scoring(monkeypatch, kwargs, error, message):
    _no_scoring(monkeypatch)
    with pytest.raises(error, match=message):
        mcde.power(DependencySpec("linear", 100, 2, 0.0), reps=500, m=50, **kwargs)


def test_independence_threshold_checks_gamma_before_scoring(monkeypatch):
    _no_scoring(monkeypatch)
    with pytest.raises(ValueError, match=r"^gamma must be in \(0, 100\), got 100$"):
        mcde.independence_threshold(100, 2, gamma=100)


@pytest.mark.parametrize("kwargs, error, message", [
    (dict(omega_levels=[3, 0]), ValueError, r"^omega must be >= 1, got 0$"),
    (dict(omega_levels=[3, 2.5]), TypeError, _FLOAT_COUNT),
    (dict(omega_levels=[True]), TypeError, _BOOL_COUNT),
    (dict(kinds=("linear", "foo")), ValueError, r"^unknown dependency kind 'foo'"),
    (dict(noise_levels=[0.0, -1.0]), ValueError, r"^noise must be >= 0, got -1.0$"),
    (dict(noise_levels=[0.0, float("nan")]), ValueError, r"^noise must be finite, got nan$"),
    (dict(noise_levels=[float("inf")]), ValueError, r"^noise must be finite, got inf$"),
    (dict(gamma=100.0), ValueError, r"^gamma must be in \(0, 100\), got 100.0$"),
])
def test_robustness_sweep_checks_its_arguments_before_scoring(monkeypatch, kwargs, error, message):
    _no_scoring(monkeypatch)
    args = dict(omega_levels=[3], noise_levels=[0.0], n=100, d=2, m=10, reps=5)
    with pytest.raises(error, match=message):
        mcde.robustness_sweep(**{**args, **kwargs})


@pytest.mark.parametrize("kwargs, message", [
    (dict(n_values=[200.7]), _FLOAT_COUNT),
    (dict(d_values=[2, 2.9]), _FLOAT_COUNT),
    (dict(reps=2.5), _FLOAT_COUNT),
    (dict(reps=True), _BOOL_COUNT),
    (dict(m=True), _BOOL_COUNT),
    (dict(n_values=[True]), _BOOL_COUNT),
])
def test_runtime_profile_checks_its_counts_before_generating(monkeypatch, kwargs, message):
    def fail(*args, **kwargs):
        raise AssertionError("generated before the counts were checked")

    monkeypatch.setattr(mcde.benchmark, "generate", fail)
    args = dict(n_values=[200], d_values=[2], m=5, reps=3)
    with pytest.raises(TypeError, match=message):
        mcde.runtime_profile(**{**args, **kwargs})


@pytest.mark.parametrize("kwargs, message", [
    (dict(d_values=[3, 1]), "contrast needs at least 2 dimensions, got d=1"),
    (dict(n_values=[100, 1]), "contrast needs at least 2 rows, got n=1"),
])
def test_runtime_profile_checks_every_cells_shape_before_timing(monkeypatch, kwargs, message):
    def fail(*args, **kwargs):
        raise AssertionError("a cell was timed before every shape was checked")

    monkeypatch.setattr(mcde.benchmark, "construct_index", fail)
    args = dict(n_values=[100], d_values=[2], m=5, reps=2)
    with pytest.raises(ValueError, match=message):
        mcde.runtime_profile(**{**args, **kwargs})


def test_score_distribution_single_rep_has_zero_std():
    stats = mcde.score_distribution(DependencySpec("linear", 100, 2, 0.0),
                                    reps=1, m=10, seed=1)
    assert stats.std == 0.0
    assert stats.reps == 1


def test_score_distribution_is_a_row_without_threshold():
    spec = DependencySpec("sine_p1", 90, 2, 0.3)
    row = mcde.score_distribution(spec, reps=4, m=6, seed=2**63)
    scores = mcde.score_sample(spec, 4, m=6, seed=derive_seed(2**63, 1))
    assert row == mcde.PowerResult(
        kind="sine_p1", noise=0.3, omega=None, n=90, d=2, m=6, gamma=0.0, reps=4,
        mean=float(scores.mean()), std=float(scores.std(ddof=1)),
        threshold=None, power=None, seed=2**63)


def test_score_distribution_mean_matches_sample():
    spec = DependencySpec("independent", 200, 2, 0.0)
    stats = mcde.score_distribution(spec, reps=12, m=10, seed=9)
    assert 0.3 < stats.mean < 0.7
    assert stats.std > 0.0


def test_noise_lowers_the_mean_score():
    clean = mcde.score_distribution(DependencySpec("linear", 500, 3, 0.0),
                                    reps=20, m=25, seed=17)
    noisy = mcde.score_distribution(DependencySpec("linear", 500, 3, 1.0),
                                    reps=20, m=25, seed=17)
    assert clean.mean > noisy.mean


def test_robustness_sweep_shares_one_threshold():
    rows = mcde.robustness_sweep([1, 4], [0.0, 1.0], kinds=("linear",),
                                 n=150, d=2, m=10, reps=6, seed=2)
    assert len(rows) == 4
    assert len({row.threshold for row in rows}) == 1
    omega_one = [row for row in rows if row.omega == 1]
    assert all(row.mean == 0.0 for row in omega_one)


def test_runtime_profile_reports_positive_medians():
    rows = mcde.runtime_profile([200], [2, 3], m=5, reps=3)
    assert len(rows) == 2
    for row in rows:
        assert row.index_s > 0 and row.contrast_s > 0 and row.total_s > 0
        assert row.total_s >= row.contrast_s * 0.5  # total includes the build


def test_results_csv_schema_and_parse():
    row = mcde.power(DependencySpec("linear", 100, 2, 0.0), reps=5, m=8,
                     seed=4, threshold=0.5)
    text = results_csv([row])
    lines = text.strip().split("\n")
    assert lines[0] == "kind,noise,omega,n,d,m,gamma,reps,mean,std,threshold,power,seed"
    cells = lines[1].split(",")
    assert len(cells) == 13
    assert cells[0] == "linear"
    assert cells[2] == ""  # omega not set
    assert float(cells[11]) == row.power


def test_runtime_csv_schema():
    rows = mcde.runtime_profile([100], [2], m=3, reps=2)
    lines = runtime_csv(rows).strip().split("\n")
    assert lines[0] == "n,d,m,reps,index_s,contrast_s,total_s"
    assert len(lines) == 2


def test_score_sample_validates_reps():
    with pytest.raises(ValueError):
        mcde.score_sample(DependencySpec("linear", 50, 2, 0.0), reps=0)


@pytest.mark.parametrize("count", ["reps", "m"])
def test_score_sample_rejects_a_non_integral_count(count):
    spec = DependencySpec("linear", 50, 2, 0.0)
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        mcde.score_sample(spec, **{"reps": 3, "m": 5, count: 2.5})
    with pytest.raises(TypeError, match="a count must be an integer, not a bool"):
        mcde.score_sample(spec, **{"reps": 3, "m": 5, count: True})


@pytest.mark.parametrize("omega", [None, 3])
def test_score_sample_equals_per_rep_contrast(omega):
    # at M=50 one pass draws for 40 reps, so 45 reps take two
    spec = DependencySpec("linear", 60, 3, 0.4)
    scores = mcde.score_sample(spec, reps=45, m=50, alpha=0.3, seed=2**63 + 1, omega=omega)
    expected = []
    for i in range(45):
        data = mcde.generate(replace(spec, seed=derive_seed(2**63 + 1, i, 0)))
        if omega is not None:
            data = mcde.discretise(data, omega)
        expected.append(mcde.contrast(data, m=50, alpha=0.3,
                                      seed=derive_seed(2**63 + 1, i, 1)).score)
    assert scores.tolist() == expected


def test_score_sample_passes_hold_about_chunk_cells_index_positions(monkeypatch):
    # at n=4096 a pass holds 2**16 // 4096 = 16 reps, fewer than the 40
    # draws of M=50 one draw pass holds; the scores still equal per-rep
    # contrast calls
    sizes = []
    estimate = mcde.benchmark._estimate

    def spy(indexes, *args, **kwargs):
        sizes.append(len(indexes))
        return estimate(indexes, *args, **kwargs)

    monkeypatch.setattr(mcde.benchmark, "_estimate", spy)
    spec = DependencySpec("hourglass", 4096, 2, 0.2)
    scores = mcde.score_sample(spec, reps=20, m=50, seed=11, omega=40)
    assert sizes == [16, 4]
    expected = []
    for i in range(20):
        data = mcde.discretise(mcde.generate(replace(spec, seed=derive_seed(11, i, 0))), 40)
        expected.append(mcde.contrast(data, m=50, seed=derive_seed(11, i, 1)).score)
    assert scores.tolist() == expected


def _traced_peak(fn):
    fn()  # first-call allocations stay out
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_score_sample_memory_does_not_grow_with_a_pass_at_large_n():
    # from n = 2**16 on a pass holds one repetition, so a sample's peak stays
    # near that of one generate + construct_index + contrast
    spec = DependencySpec("linear", 2**17, 2, 0.5)

    def one_rep():
        data = mcde.generate(replace(spec, seed=derive_seed(7, 0, 0)))
        mcde.contrast(mcde.construct_index(data), m=5, seed=derive_seed(7, 0, 1))

    single = _traced_peak(one_rep)
    sample = _traced_peak(lambda: mcde.score_sample(spec, reps=3, m=5, seed=7))
    assert sample <= 1.5 * single
