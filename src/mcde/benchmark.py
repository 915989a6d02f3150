"""Score distributions, statistical power, robustness, and runtime scaling.

Power is measured against a null threshold: the gamma-th percentile
(nearest rank) of scores obtained on independent data, per the convention
that the null is always instantiated noise-free.  A dependency's power is
the fraction of its scores strictly above that threshold.

Every repetition owns a derived seed, so sweeps are reproducible end to end
and instances may be scored in any order.  Since a repetition's random
integers depend only on its seed and the shape of its data, a sample works
in passes: it derives the seeds and draws for as many repetitions as one
vectorised pass holds (see :mod:`mcde._rng`), builds their indexes, and
scores them all in one batched estimate (:func:`mcde.contrast._estimate`),
each on its own draws.  A pass also holds at most about ``_CHUNK_CELLS``
index positions, so at large n it is one repetition and memory does not
grow with n.  Timing results are the only non-deterministic output.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, fields, replace
from typing import Iterable, Sequence

import numpy as np

from ._rng import LANES, check_seed, derive_seed, derive_seeds
from .contrast import _CHUNK_CELLS, _check_shape, _draw, _estimate, contrast
from .generators import DependencySpec, discretise, generate
from .ranking import construct_index
from .slicing import check_alpha, check_count

# sub-stream tags keeping null draws, dependent draws, and timing data apart
_NULL_STREAM = 0
_DEP_STREAM = 1

@dataclass(frozen=True)
class PowerResult:
    """One row of the benchmark table: a scored configuration.

    A score distribution has no null threshold: its ``gamma`` is 0.0 and its
    ``omega``, ``threshold`` and ``power`` are None.
    """

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
    reps, m = check_count(reps, "reps"), check_count(m, "m")
    alpha = check_alpha(alpha)
    seed = check_seed(seed)
    _check_shape(spec.n, spec.d)
    scores = np.empty(reps, dtype=np.float64)
    # score as many reps in one pass as one draw pass and about _CHUNK_CELLS
    # index positions hold, so memory does not grow with reps or n
    per_pass = max(1, min(LANES // m, _CHUNK_CELLS // spec.n))
    for first in range(0, reps, per_pass):
        pass_reps = range(first, min(reps, first + per_pass))
        # repetition i generates its instance from seed path (i, 0) and
        # scores it from (i, 1)
        derived = derive_seeds(seed, [(i, t) for t in (0, 1) for i in pass_reps])
        seeds = derived[len(pass_reps):]
        indexes = [construct_index(_instance(spec, instance_seed, omega))
                   for instance_seed in derived[:len(pass_reps)]]
        draws = _draw(seeds, spec.n, spec.d, m, alpha)
        scores[pass_reps.start:pass_reps.stop] = [
            estimate.score for estimate in _estimate(indexes, alpha, seeds, draws)]
        # free this pass's indexes before the next one builds its own
        del indexes
    return scores


def _instance(spec: DependencySpec, seed: int, omega: int | None):
    data = generate(replace(spec, seed=seed))
    return data if omega is None else discretise(data, omega)


def _check_gamma(gamma: float) -> None:
    if isinstance(gamma, (bool, np.bool_)):
        raise TypeError("gamma must be a number, not a bool")
    if not 0.0 < gamma < 100.0:
        raise ValueError(f"gamma must be in (0, 100), got {gamma}")


def nearest_rank_percentile(scores: Sequence[float], gamma: float) -> float:
    """The gamma-th percentile as an actual observed value (nearest rank)."""
    _check_gamma(gamma)
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
    _check_gamma(gamma)
    spec = DependencySpec("independent", n, d, 0.0, seed=0)
    scores = score_sample(spec, reps, m=m, alpha=alpha, seed=derive_seed(seed, _NULL_STREAM))
    return nearest_rank_percentile(scores, gamma)


def _row(spec: DependencySpec, scores: np.ndarray, m: int, seed: int, gamma: float = 0.0,
         threshold: float | None = None, omega: int | None = None) -> PowerResult:
    """The table row of ``scores``: their mean, their sample standard
    deviation (0.0 for a single score) and, given a threshold, the power."""
    reps = scores.size
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
        power=None if threshold is None else float(np.count_nonzero(scores > threshold)) / reps,
        seed=seed,
    )


def score_distribution(
    spec: DependencySpec,
    reps: int = 500,
    m: int = 50,
    alpha: float = 0.5,
    seed: int = 0,
) -> PowerResult:
    """Sample mean and standard deviation of the score for ``spec``."""
    seed = check_seed(seed)
    scores = score_sample(spec, reps, m=m, alpha=alpha, seed=derive_seed(seed, _DEP_STREAM))
    return _row(spec, scores, m, seed)


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
    _check_gamma(gamma)
    if omega is not None:
        omega = check_count(omega, "omega")
    if threshold is None:
        threshold = independence_threshold(
            spec.n, spec.d, m=m, gamma=gamma, reps=reps, alpha=alpha, seed=seed
        )
    elif not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    scores = score_sample(
        spec, reps, m=m, alpha=alpha, seed=derive_seed(seed, _DEP_STREAM), omega=omega
    )
    return _row(spec, scores, m, seed, gamma=gamma, threshold=threshold, omega=omega)


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
    omega_levels = [check_count(omega, "omega") for omega in omega_levels]
    # every cell's spec is built before any scoring, so a bad kind fails first
    cells = [
        (DependencySpec(kind, n, d, float(noise), seed=0), omega,
         derive_seed(seed, kind_pos, omega, int(round(noise * 1e6))))
        for kind_pos, kind in enumerate(kinds)
        for omega in omega_levels
        for noise in noise_levels
    ]
    threshold = independence_threshold(n, d, m=m, gamma=gamma, reps=reps, alpha=alpha, seed=seed)
    return [
        power(spec, gamma=gamma, reps=reps, m=m, alpha=alpha, seed=cell_seed,
              threshold=threshold, omega=omega)
        for spec, omega, cell_seed in cells
    ]


def runtime_profile(
    n_values: Sequence[int],
    d_values: Sequence[int],
    m: int = 50,
    reps: int = 10,
    alpha: float = 0.5,
    seed: int = 0,
) -> list[RuntimeResult]:
    """Median wall-clock times per (n, d): index build, contrast with a
    prebuilt index, and contrast including the build."""
    m, reps = check_count(m), check_count(reps, "reps")
    seed = check_seed(seed)
    n_values = [check_count(n) for n in n_values]
    d_values = [check_count(d) for d in d_values]
    # every cell's shape is checked before any is timed, so a bad cell fails first
    cells = [(n, d) for n in n_values for d in d_values]
    for n, d in cells:
        _check_shape(n, d)
    rows = []
    for n, d in cells:
        spec = DependencySpec("independent", n, d, 0.0, seed=derive_seed(seed, n, d))
        data = generate(spec)
        # two untimed estimates first, so that first-call costs stay out
        for _ in range(2):
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
                n=n,
                d=d,
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


def _table(row_type, rows) -> str:
    """Long-form CSV: a header of ``row_type``'s fields, then one line per row."""
    columns = [field.name for field in fields(row_type)]
    lines = [",".join(columns)]
    lines += (",".join(_cell(getattr(row, col)) for col in columns) for row in rows)
    return "\n".join(lines) + "\n"


def results_csv(rows: Iterable[PowerResult]) -> str:
    """The power, distribution and robustness table."""
    return _table(PowerResult, rows)


def runtime_csv(rows: Iterable[RuntimeResult]) -> str:
    """The runtime table."""
    return _table(RuntimeResult, rows)
