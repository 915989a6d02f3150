"""Monte Carlo contrast: the MWP dependency score and its accuracy bound.

Each iteration draws a reference dimension, a random slice over the other
dimensions, and a restricted two-sample test; the score is the mean of the
M test values.  Iteration m consumes randomness only from a Philox stream
keyed by ``(seed, m)``: the reference dimension, then the slice start of
every other dimension in ascending order, then the restriction start.

An estimate draws these integers for all M iterations first, in one
vectorised pass (:func:`mcde._rng.iteration_integers`); callers that know
many seeds in advance, the stream monitor and the benchmark sweeps, draw for
all of their estimates at once and score each from its own rows of the
block.  The iterations are then scored in batches that share a reference
dimension: slice membership over the restriction windows, the window
statistics and the test values are each a few 2-D numpy passes over a batch
(:func:`mcde.slicing.slice_windows`, :func:`mcde._kernels.window_rows`,
:func:`mcde.mwp.confidences`).  A batch holds about ``_CHUNK_CELLS`` window
positions, so the same path serves n=1e3 and n=1e6.  An estimate runs on
the calling thread.

The number of iterations needed for a target accuracy follows from the
Hoeffding concentration bound ``P(|estimate - truth| >= eps) <= 2*exp(-2*M*eps**2)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._rng import check_seed, iteration_integers
from .dataset import Dataset
from .mwp import confidences, restriction_bounds
from .ranking import RankIndex, construct_index
from .slicing import check_alpha, slice_size, slice_windows, window_view

# window positions (iterations x restriction width) scored per batch
_CHUNK_CELLS = 2**16


@dataclass(frozen=True)
class ContrastEstimate:
    """A dependency score in [0, 1] with the configuration that produced it.

    ``degenerate_tied`` counts the iterations whose restriction window was
    all tied (value 0), ``degenerate_empty_full`` those whose slice held no
    row or every row of the window (value 1).
    """

    score: float
    m_iterations: int
    alpha: float
    seed: int
    per_iteration: np.ndarray | None = None
    degenerate_tied: int = 0
    degenerate_empty_full: int = 0


def _check_shape(n: int, d: int) -> None:
    if d < 2:
        raise ValueError(f"contrast needs at least 2 dimensions, got d={d}")
    if n < 2:
        raise ValueError(f"contrast needs at least 2 rows, got n={n}")


def _draw(seeds, n: int, d: int, m: int, alpha: float) -> np.ndarray:
    """The integers drawn by iterations ``0..m-1`` of an estimate on n rows
    and d columns, for each seed: ``out[s, i]`` holds iteration i's
    reference dimension, the slice start of each other dimension in
    ascending order, then its restriction start.  A slice that keeps every
    row starts at 0, from a bound of 1, which consumes no random word."""
    size = slice_size(n, d, alpha)
    window_starts, _ = restriction_bounds(n, alpha)
    return iteration_integers(seeds, m, (d, *[max(1, n - size)] * (d - 1), window_starts))


def contrast(
    data: Dataset | RankIndex,
    m: int = 50,
    alpha: float = 0.5,
    seed: int = 0,
    record_iterations: bool = False,
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
    _check_shape(index.n, index.d)
    draws = _draw([seed], index.n, index.d, m, alpha)[0]
    return _estimate(index, alpha, seed, draws, record_iterations)


def _estimate(index: RankIndex, alpha: float, seed: int, draws: np.ndarray,
              record_iterations: bool = False) -> ContrastEstimate:
    """The estimate whose M iterations drew ``draws``, one row of
    :func:`_draw` per iteration; arguments are taken as validated."""
    n, d = index.n, index.d
    m = draws.shape[0]
    size = slice_size(n, d, alpha)
    _, width = restriction_bounds(n, alpha)
    refs, restrictions = draws[:, 0], draws[:, -1]

    # pos[j, row]: the row's position in dimension j's sorted order
    dtype = np.int32 if n < 2**31 else np.int64
    pos = np.empty((d, n), dtype=dtype)
    for j, dim in enumerate(index.dims):
        pos[j][dim.row_ids] = np.arange(n, dtype=dtype)

    r1 = np.empty(m)
    n1 = np.empty(m, dtype=np.int64)
    corr = np.empty(m)
    # the window-local ranks of a tie-free column, shared by its windows
    local = np.arange(width, dtype=np.float64)
    chunk = max(1, _CHUNK_CELLS // width)
    for ref, dim in enumerate(index.dims):
        batch = np.flatnonzero(refs == ref)
        if not batch.size:
            continue
        others = [j for j in range(d) if j != ref]
        # positions[c, p]: the position, in the sorted order of
        # dimension others[c], of the row at position p of this one
        positions = np.empty((d - 1, n), dtype=dtype)
        for c, j in enumerate(others):
            positions[c] = pos[j][dim.row_ids]
        windows = window_view(positions, width)
        tied = dim.adjusted_ranks is not None
        if tied:
            ranks = window_view(dim.adjusted_ranks, width)
        for k in range(0, batch.size, chunk):
            its = batch[k:k + chunk]
            lo = restrictions[its]
            member = slice_windows(windows, draws[its, 1:-1], size, lo)
            r1[its], n1[its], corr[its] = _kernels.window_rows(
                member, ranks[lo] if tied else local, lo, width,
                run_starts=dim.run_starts, run_lengths=dim.run_lengths)
        # free them before the next reference allocates its own
        del positions, windows

    values, tied, empty_full = confidences(r1, n1, corr, width)
    return ContrastEstimate(
        score=float(values.mean()),
        m_iterations=m,
        alpha=alpha,
        seed=seed,
        per_iteration=values if record_iterations else None,
        degenerate_tied=int(np.count_nonzero(tied)),
        degenerate_empty_full=int(np.count_nonzero(empty_full)),
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
