"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import statistics
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcde
from mcde import Dataset, DependencySpec, construct_index, contrast
from mcde._rng import derive_seed
from mcde.stream import WindowConfig, monitor, window_seed
from conftest import random_tied_column
from oracles import (
    average_ranks_oracle_fast,
    ks_distance_to_uniform,
    mann_whitney_pc_oracle,
    mwp_test,
    ranks_of,
    tie_corrections_oracle,
    window_stats,
)


def _passed(text):
    print(f"\nPASS {text}")


# -------------------------------------------------------------------- 1 ---


def test_criterion_1_test_statistic_matches_textbook_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20_001)
    worst = 0.0
    for case in range(1000):
        n = int(rng.integers(3, 51))
        column = random_tied_column(rng, n)
        member = rng.random(n) < rng.uniform(0.1, 0.9)
        # keep both samples non-empty: the textbook statistic is undefined
        # otherwise, and the empty/full guard has its own tests
        pin = int(rng.integers(0, n))
        member[pin] = True
        member[(pin + 1) % n] = False
        index = construct_index(Dataset(np.column_stack([column, rng.random(n)])))
        out = mwp_test(index, member, 0, alpha=1.0,
                       rng=np.random.default_rng(case))
        expected = mann_whitney_pc_oracle(column[member], column[~member])
        worst = max(worst, abs(out.p_c - expected))
        assert abs(out.p_c - expected) <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _passed(f"criterion 1: oracle equivalence over 1000 tied instances "
            f"(max |diff|={worst:.2e}, {elapsed:.1f}s < 10s)")


# -------------------------------------------------------------------- 2 ---


def test_criterion_2_index_matches_quadratic_rank_oracle():
    rng = np.random.default_rng(20_002)
    columns = [np.full(137, 3.25), np.arange(401.0)]  # extremes
    columns += [random_tied_column(rng, int(rng.integers(1, 501)))
                for _ in range(198)]
    for column in columns:
        dim = construct_index(Dataset(column.reshape(-1, 1))).dims[0]
        by_row = np.empty(column.size)
        by_row[dim.row_ids] = ranks_of(dim)
        assert np.array_equal(by_row, average_ranks_oracle_fast(column))
        corr = window_stats(np.ones(column.size, dtype=bool), dim.row_ids,
                            dim.adjusted_ranks, 0, column.size,
                            run_starts=dim.run_starts,
                            run_lengths=dim.run_lengths)[2]
        assert corr == tie_corrections_oracle(column)[-1]
    _passed(f"criterion 2: adjusted ranks and tie corrections exact on "
            f"{len(columns)} columns incl. all-tied and all-distinct")


# -------------------------------------------------------------------- 3 ---


def test_criterion_3_independence_calibration():
    t0 = time.perf_counter()
    seed = 123
    scores = np.empty(500)
    pooled = []
    for i in range(500):
        data = mcde.generate(DependencySpec("independent", 1000, 3, 0.0,
                                            seed=derive_seed(seed, i, 0)))
        est = contrast(data, m=50, seed=derive_seed(seed, i, 1),
                       record_iterations=i < 200)
        scores[i] = est.score
        if est.per_iteration is not None:
            pooled.append(est.per_iteration)
    mean = float(scores.mean())
    assert 0.47 <= mean <= 0.53
    pooled = np.concatenate(pooled)
    assert pooled.size == 10_000
    ks = ks_distance_to_uniform(pooled)
    assert ks <= 0.05
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _passed(f"criterion 3: independence mean={mean:.4f} in [0.47, 0.53], "
            f"KS(p_c, U[0,1])={ks:.4f} <= 0.05 over 10^4 iterations "
            f"({elapsed:.1f}s < 2min)")


# -------------------------------------------------------------------- 4 ---


def test_criterion_4_hoeffding_concentration_and_variance_shrink():
    data = mcde.generate(DependencySpec("independent", 1000, 3, 0.0, seed=2024))
    index = construct_index(data)
    big = np.array([contrast(index, m=200, seed=s).score for s in range(1000)])
    deviating = np.abs(big - big.mean()) >= 0.1
    fraction = float(deviating.mean())
    assert fraction <= 0.04
    small = np.array([contrast(index, m=50, seed=s).score for s in range(500)])
    ratio = big.std(ddof=1) / small.std(ddof=1)
    assert ratio <= 0.55
    _passed(f"criterion 4: P(|estimate-mean|>=0.1)={fraction:.4f} <= 0.04 at M=200; "
            f"std(M=200)/std(M=50)={ratio:.3f} <= 0.55")


# -------------------------------------------------------------------- 5 ---


def test_criterion_5_statistical_power():
    powers = {}
    for d in (2, 3, 5):
        result = mcde.power(DependencySpec("linear", 1000, d, 0.0),
                            gamma=95, reps=500, m=50, seed=500 + d)
        powers[d] = result.power
        assert result.power >= 0.99
        if d == 3:
            threshold_d3 = result.threshold

    self_power = mcde.power(DependencySpec("independent", 1000, 3, 0.0),
                            gamma=95, reps=500, m=50, seed=13).power
    assert 0.02 <= self_power <= 0.08

    noisy = mcde.power(DependencySpec("linear", 1000, 3, 0.8), gamma=95,
                       reps=500, m=50, seed=503, threshold=threshold_d3).power
    assert noisy < powers[3]
    _passed(f"criterion 5: linear power d=2/3/5 = "
            f"{powers[2]:.3f}/{powers[3]:.3f}/{powers[5]:.3f} >= 0.99; "
            f"independence self-power={self_power:.3f} in [0.02, 0.08]; "
            f"power(sigma=0.8)={noisy:.3f} < power(sigma=0)={powers[3]:.3f}")


# -------------------------------------------------------------------- 6 ---


def test_criterion_6_robustness_to_discretisation():
    # fully redundant space scores exactly zero
    for kind, noise in (("linear", 0.0), ("independent", 1.0)):
        flat = mcde.score_sample(DependencySpec(kind, 1000, 3, noise),
                                 reps=50, m=50, seed=61, omega=1)
        assert np.all(flat == 0.0)

    rows = mcde.robustness_sweep([2, 5, 10, 100], [0.0, 0.5, 1.0],
                                 kinds=("independent",), n=1000, d=3, m=50,
                                 gamma=95, reps=500, seed=62)
    worst = max(row.power for row in rows)
    for row in rows:
        assert row.power <= 0.10, (row.omega, row.noise, row.power)

    fine = mcde.power(DependencySpec("linear", 1000, 3, 0.0), gamma=95,
                      reps=500, m=50, seed=63, omega=100)
    assert fine.power >= 0.99
    _passed(f"criterion 6: omega=1 scores exactly 0; independence power over "
            f"omega in {{2,5,10,100}} x noise in {{0,0.5,1}} <= {worst:.3f} "
            f"(bound 0.10); linear at omega=100 power={fine.power:.3f} >= 0.99")


# -------------------------------------------------------------------- 7 ---


def _index_time_ratio(small, large, runs=11):
    """Median build time of ``large`` over that of ``small``.  The builds
    alternate, one of each per round, so that both medians see the same
    phase of a host whose speed drifts."""
    times = ([], [])
    for _ in range(runs):
        for data, out in zip((small, large), times):
            t0 = time.perf_counter()
            construct_index(data)
            out.append(time.perf_counter() - t0)
    return statistics.median(times[1]) / statistics.median(times[0])


def test_criterion_7_complexity_scaling():
    t0 = time.perf_counter()

    # contrast with a prebuilt index grows ~linearly in n
    profile = {row.n: row for row in
               mcde.runtime_profile([10_000, 100_000], [3], m=50, reps=11, seed=70)}
    contrast_ratio = profile[100_000].contrast_s / profile[10_000].contrast_s
    assert contrast_ratio <= 15.0

    # index construction grows ~n log n: doubling n costs at most 2.6x
    index_ratios = {}
    for n in (10_000, 100_000, 1_000_000):
        small = mcde.generate(DependencySpec("independent", n, 3, 0.0, seed=71))
        large = mcde.generate(DependencySpec("independent", 2 * n, 3, 0.0, seed=72))
        construct_index(small)  # warm
        index_ratios[n] = _index_time_ratio(small, large)
        assert index_ratios[n] <= 2.6, (n, index_ratios[n])

    # contrast grows at most linearly in d at fixed n
    by_d = {row.d: row.contrast_s for row in
            mcde.runtime_profile([10_000], list(range(2, 11)), m=50, reps=7, seed=73)}
    for d in range(3, 11):
        assert by_d[d] <= by_d[2] * (d / 2.0) * 1.6, (d, by_d[d] / by_d[2])

    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    ratios = "/".join(f"{index_ratios[n]:.2f}" for n in sorted(index_ratios))
    _passed(f"criterion 7: contrast time x{contrast_ratio:.1f} for 10x rows "
            f"(<= 15); index doubling ratios {ratios} <= 2.6 at n=1e4/1e5/1e6; "
            f"d-scaling at most linear over d=2..10 ({elapsed:.0f}s < 5min)")


# -------------------------------------------------------------------- 8 ---


def test_criterion_8_determinism():
    data = mcde.generate(DependencySpec("hourglass", 2000, 4, 0.1, seed=9))
    first = contrast(data, m=97, seed=33, record_iterations=True)
    again = contrast(data, m=97, seed=33, record_iterations=True)
    assert first.score == again.score
    assert first.per_iteration.tobytes() == again.per_iteration.tobytes()

    rows = np.random.default_rng(7).random((60, 3))
    cfg = WindowConfig(width=40, dims=(0, 2), step=9, m=25, seed=13)
    for event in monitor(iter(rows), cfg):
        window = rows[event.row_index - 39 : event.row_index + 1][:, [0, 2]]
        offline = contrast(Dataset(window), m=25,
                           seed=window_seed(13, event.row_index))
        assert event.estimate.score == offline.score
    _passed("criterion 8: two estimates with the same seed bit-identical run to run; "
            "windowed monitor equals offline contrast on identical windows")


# -------------------------------------------------------------------- 9 ---


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=2, max_value=80),
    d=st.integers(min_value=2, max_value=4),
    levels=st.integers(min_value=1, max_value=50),
)
@settings(max_examples=40, deadline=None)
def test_criterion_9_scores_always_in_unit_interval(seed, n, d, levels):
    rng = np.random.default_rng(seed)
    values = rng.random(levels)[rng.integers(0, levels, size=(n, d))]
    score = contrast(Dataset(values), m=20, seed=1).score
    assert 0.0 <= score <= 1.0
    assert not np.isnan(score)


def test_criterion_9_strong_dependencies_exercise_upper_range():
    lows = {}
    for kind in ("linear", "cross", "hypersphere"):
        scores = mcde.score_sample(DependencySpec(kind, 1000, 3, 0.0),
                                   reps=5, m=200, seed=90)
        lows[kind] = scores.min()
        assert scores.min() >= 0.9, (kind, scores.min())
    summary = ", ".join(f"{k}>={v:.3f}" for k, v in lows.items())
    _passed(f"criterion 9: every random-dataset estimate in [0,1] (property "
            f"test); noiseless strong dependencies score >= 0.9 ({summary})")
