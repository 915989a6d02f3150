"""Monte Carlo contrast: the MWP dependency score and its accuracy bound.

Each iteration draws a reference dimension, a random slice over the other
dimensions, and a restricted two-sample test; the score is the mean of the
M test values.  Iteration m consumes randomness only from a Philox stream
keyed by ``(seed, m)``, so the estimate is bit-identical whether iterations
run serially or on any number of threads.

The number of iterations needed for a target accuracy follows from the
Hoeffding concentration bound ``P(|estimate - truth| >= eps) <= 2*exp(-2*M*eps**2)``.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._rng import check_seed, iteration_rng
from .dataset import Dataset
from .mwp import mwp_test
from .ranking import RankIndex, construct_index
from .slicing import check_alpha, draw_slice


@dataclass(frozen=True)
class ContrastEstimate:
    """A dependency score in [0, 1] with the configuration that produced it."""

    score: float
    m_iterations: int
    alpha: float
    seed: int
    per_iteration: np.ndarray | None = None


def _one_iteration(index: RankIndex, m: int, alpha: float, seed: int) -> float:
    rng = iteration_rng(seed, m)
    ref_dim = int(rng.integers(0, index.d))
    member = draw_slice(index, ref_dim, alpha, rng)
    return mwp_test(index, member, ref_dim, alpha, rng).p_c


def contrast(
    data: Dataset | RankIndex,
    m: int = 50,
    alpha: float = 0.5,
    seed: int = 0,
    record_iterations: bool = False,
    threads: int = 1,
) -> ContrastEstimate:
    """Estimate the dependency of all columns of ``data`` jointly.

    ``data`` may be a prebuilt :class:`RankIndex` (use
    :meth:`RankIndex.project` to scan many subspaces of one dataset without
    re-sorting).  ``record_iterations=True`` keeps the M per-iteration test
    values on the result.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    alpha = check_alpha(alpha)
    seed = check_seed(seed)
    index = data if isinstance(data, RankIndex) else construct_index(data)
    if index.d < 2:
        raise ValueError(f"contrast needs at least 2 dimensions, got d={index.d}")
    if index.n < 2:
        raise ValueError(f"contrast needs at least 2 rows, got n={index.n}")

    values = np.empty(m, dtype=np.float64)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [
                pool.submit(_one_iteration, index, i, alpha, seed) for i in range(m)
            ]
            for i, fut in enumerate(futures):
                values[i] = fut.result()
    else:
        for i in range(m):
            values[i] = _one_iteration(index, i, alpha, seed)

    return ContrastEstimate(
        score=float(values.mean()),
        m_iterations=m,
        alpha=alpha,
        seed=seed,
        per_iteration=values if record_iterations else None,
    )


def hoeffding_bound(m: int, epsilon: float) -> float:
    """Upper bound on the probability of an estimate deviating >= epsilon."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    return min(1.0, 2.0 * math.exp(-2.0 * m * epsilon * epsilon))


def iterations_for(epsilon: float, delta: float) -> int:
    """Smallest M whose Hoeffding bound at ``epsilon`` is at most ``delta``."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    m = math.ceil(math.log(2.0 / delta) / (2.0 * epsilon * epsilon))
    m = max(1, m)
    while hoeffding_bound(m, epsilon) > delta:  # guard float edge at the boundary
        m += 1
    return m
