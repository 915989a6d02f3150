"""Score distributions, statistical power, robustness, and runtime scaling.

Power is measured against a null threshold: the gamma-th percentile
(nearest rank) of scores obtained on independent data, per the convention
that the null is always instantiated noise-free.  A dependency's power is
the fraction of its scores strictly above that threshold.

Every repetition owns a derived seed, so sweeps are reproducible end to end
and instances may be scored in any order.  Since a repetition's random
integers depend only on its seed and the shape of its data, a sample draws
them ahead, for as many repetitions as one vectorised pass holds (see
:mod:`mcde._rng`), then scores each instance on its own draws.  Timing
results are the only non-deterministic output.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from ._rng import LANES, check_seed, derive_seed
from .contrast import _check_shape, _draw, _estimate, contrast
from .generators import DependencySpec, discretise, generate
from .ranking import construct_index
from .slicing import check_alpha

# sub-stream tags keeping null draws, dependent draws, and timing data apart
_NULL_STREAM = 0
_DEP_STREAM = 1

RESULT_COLUMNS = (
    "kind",
    "noise",
    "omega",
    "n",
    "d",
    "m",
    "gamma",
    "reps",
    "mean",
    "std",
    "threshold",
    "power",
    "seed",
)

RUNTIME_COLUMNS = ("n", "d", "m", "reps", "index_s", "contrast_s", "total_s")


@dataclass(frozen=True)
class PowerResult:
    """One row of the benchmark table: a scored configuration."""

    kind: str
    noise: float
    omega: int | None
    n: int
    d: int
    m: int
    gamma: float
    reps: int
    mean: float
    std: float
    threshold: float | None
    power: float | None
    seed: int


@dataclass(frozen=True)
class ScoreStats:
    mean: float
    std: float
    reps: int
    degenerate: bool


@dataclass(frozen=True)
class RuntimeResult:
    n: int
    d: int
    m: int
    reps: int
    index_s: float
    contrast_s: float
    total_s: float


def score_sample(
    spec: DependencySpec,
    reps: int,
    m: int = 50,
    alpha: float = 0.5,
    seed: int = 0,
    omega: int | None = None,
) -> np.ndarray:
    """Score ``reps`` fresh instances of ``spec``; one derived seed each."""
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    alpha = check_alpha(alpha)
    seed = check_seed(seed)
    _check_shape(spec.n, spec.d)
    scores = np.empty(reps, dtype=np.float64)
    # draw for as many reps as one pass holds, so memory does not grow with reps
    per_pass = max(1, LANES // m)
    for first in range(0, reps, per_pass):
        seeds = [derive_seed(seed, i, 1) for i in range(first, min(reps, first + per_pass))]
        draws = _draw(seeds, spec.n, spec.d, m, alpha)
        for i, rep_seed, rep_draws in zip(range(first, reps), seeds, draws):
            data = generate(replace(spec, seed=derive_seed(seed, i, 0)))
            if omega is not None:
                data = discretise(data, omega)
            scores[i] = _estimate(construct_index(data), alpha, rep_seed, rep_draws).score
    return scores


def nearest_rank_percentile(scores: Sequence[float], gamma: float) -> float:
    """The gamma-th percentile as an actual observed value (nearest rank)."""
    if not 0.0 < gamma < 100.0:
        raise ValueError(f"gamma must be in (0, 100), got {gamma}")
    ordered = np.sort(np.asarray(scores, dtype=np.float64))
    if not ordered.size:
        raise ValueError("no scores to take a percentile of")
    rank = int(np.ceil(gamma / 100.0 * ordered.size))
    return float(ordered[min(max(rank, 1), ordered.size) - 1])


def independence_threshold(
    n: int,
    d: int,
    m: int = 50,
    gamma: float = 95.0,
    reps: int = 500,
    alpha: float = 0.5,
    seed: int = 0,
) -> float:
    """Null threshold: percentile of scores on fresh noise-free independent data."""
    spec = DependencySpec("independent", n, d, 0.0, seed=0)
    scores = score_sample(spec, reps, m=m, alpha=alpha, seed=derive_seed(seed, _NULL_STREAM))
    return nearest_rank_percentile(scores, gamma)


def score_distribution(
    spec: DependencySpec,
    reps: int = 500,
    m: int = 50,
    alpha: float = 0.5,
    seed: int = 0,
) -> ScoreStats:
    """Sample mean and standard deviation of the score for ``spec``."""
    scores = score_sample(spec, reps, m=m, alpha=alpha, seed=derive_seed(seed, _DEP_STREAM))
    if reps == 1:
        return ScoreStats(float(scores[0]), 0.0, 1, degenerate=True)
    return ScoreStats(float(scores.mean()), float(scores.std(ddof=1)), reps, False)


def power(
    spec: DependencySpec,
    gamma: float = 95.0,
    reps: int = 500,
    m: int = 50,
    alpha: float = 0.5,
    seed: int = 0,
    threshold: float | None = None,
    omega: int | None = None,
) -> PowerResult:
    """Fraction of ``spec`` scores strictly above the null threshold.

    Pass a precomputed ``threshold`` to share one null sample across a
    sweep; otherwise it is computed here at the same (n, d, m, gamma, reps)
    from an independent sub-stream of ``seed``.
    """
    seed = check_seed(seed)
    if threshold is None:
        threshold = independence_threshold(
            spec.n, spec.d, m=m, gamma=gamma, reps=reps, alpha=alpha, seed=seed
        )
    scores = score_sample(
        spec, reps, m=m, alpha=alpha, seed=derive_seed(seed, _DEP_STREAM), omega=omega
    )
    return PowerResult(
        kind=spec.kind,
        noise=spec.noise,
        omega=omega,
        n=spec.n,
        d=spec.d,
        m=m,
        gamma=gamma,
        reps=reps,
        mean=float(scores.mean()),
        std=float(scores.std(ddof=1)) if reps > 1 else 0.0,
        threshold=threshold,
        power=float(np.count_nonzero(scores > threshold)) / reps,
        seed=seed,
    )


def robustness_sweep(
    omega_levels: Sequence[int],
    noise_levels: Sequence[float],
    kinds: Sequence[str] = ("linear", "independent"),
    n: int = 1000,
    d: int = 3,
    m: int = 50,
    gamma: float = 95.0,
    reps: int = 500,
    alpha: float = 0.5,
    seed: int = 0,
) -> list[PowerResult]:
    """Power and mean score after discretising each (kind, omega, noise) cell.

    The threshold is computed once from continuous independent data, so the
    sweep answers whether discretisation alone can push scores past the
    usual null bar.
    """
    seed = check_seed(seed)
    threshold = independence_threshold(n, d, m=m, gamma=gamma, reps=reps, alpha=alpha, seed=seed)
    rows = []
    for kind_pos, kind in enumerate(kinds):
        for omega in omega_levels:
            for noise in noise_levels:
                spec = DependencySpec(kind, n, d, float(noise), seed=0)
                cell_seed = derive_seed(seed, kind_pos, int(omega), int(round(noise * 1e6)))
                rows.append(
                    power(
                        spec,
                        gamma=gamma,
                        reps=reps,
                        m=m,
                        alpha=alpha,
                        seed=cell_seed,
                        threshold=threshold,
                        omega=int(omega),
                    )
                )
    return rows


def runtime_profile(
    n_values: Sequence[int],
    d_values: Sequence[int],
    m: int = 50,
    reps: int = 10,
    alpha: float = 0.5,
    seed: int = 0,
    warmup: int = 2,
) -> list[RuntimeResult]:
    """Median wall-clock times per (n, d): index build, contrast with a
    prebuilt index, and contrast including the build."""
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    seed = check_seed(seed)
    rows = []
    for n in n_values:
        for d in d_values:
            spec = DependencySpec("independent", int(n), int(d), 0.0,
                                  seed=derive_seed(seed, int(n), int(d)))
            data = generate(spec)
            for _ in range(warmup):
                contrast(construct_index(data), m=m, alpha=alpha, seed=0)
            t_index, t_contrast, t_total = [], [], []
            for r in range(reps):
                t0 = time.perf_counter()
                index = construct_index(data)
                t1 = time.perf_counter()
                contrast(index, m=m, alpha=alpha, seed=r)
                t2 = time.perf_counter()
                contrast(data, m=m, alpha=alpha, seed=r)
                t3 = time.perf_counter()
                t_index.append(t1 - t0)
                t_contrast.append(t2 - t1)
                t_total.append(t3 - t2)
            rows.append(
                RuntimeResult(
                    n=int(n),
                    d=int(d),
                    m=m,
                    reps=reps,
                    index_s=statistics.median(t_index),
                    contrast_s=statistics.median(t_contrast),
                    total_s=statistics.median(t_total),
                )
            )
    return rows


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def results_csv(rows: Iterable[PowerResult]) -> str:
    """Long-form CSV in the pinned result schema."""
    lines = [",".join(RESULT_COLUMNS)]
    for row in rows:
        lines.append(",".join(_cell(getattr(row, col)) for col in RESULT_COLUMNS))
    return "\n".join(lines) + "\n"


def runtime_csv(rows: Iterable[RuntimeResult]) -> str:
    lines = [",".join(RUNTIME_COLUMNS)]
    for row in rows:
        lines.append(",".join(_cell(getattr(row, col)) for col in RUNTIME_COLUMNS))
    return "\n".join(lines) + "\n"
