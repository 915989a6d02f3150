"""Monte Carlo contrast: the MWP dependency score and its accuracy bound.

Each iteration draws a reference dimension, a random slice over the other
dimensions, and a restricted two-sample test; the score is the mean of the
M test values.  Iteration m consumes randomness only from a Philox stream
keyed by ``(seed, m)``: the reference dimension, then the slice start of
every other dimension in ascending order, then the restriction start.

An estimate draws these integers for all M iterations first, in one
vectorised pass (:func:`mcde._rng.iteration_integers`); callers that know
many seeds in advance, the stream monitor and the benchmark sweeps, draw for
all of their estimates at once.  :func:`_estimate` then scores a stack of
estimates that share one (n, d), each on its own index and its own draws:
``contrast`` passes one, the monitor the windows of the rows it holds, up to
one draw pass of them, and a benchmark sample as many repetitions as one
draw pass and about ``_CHUNK_CELLS`` index positions hold.  Its reference
dimensions are taken in groups.  For each reference of a group, the
positions of its rows in every other dimension are composed for every index
of the stack, and a group holds as many references as fit in about
``_CHUNK_CELLS`` such positions, at least one.  So both references of a
lone d=2 monitor window form one group, while a stack of 40 such windows
of width 900, a benchmark pass or an estimate at n=1e5 composes one
reference at a time.  The
iterations of a group are scored in batches: all those that drew a
tie-free reference, whose windows are ranked by position, form one batch
series, whatever their reference and index, and all those that drew a tied
reference form another, its references' ranks and runs laid end to end as
one long column, with the runs its windows cut found once for all of its
iterations (:func:`mcde._kernels.cut_runs`).  Slice
membership over the restriction windows, the window statistics and the
test values are each a few 2-D numpy passes over a batch
(:func:`mcde.slicing.slice_windows`, :func:`mcde._kernels.window_rows`,
:func:`mcde.mwp.confidences`).  A batch holds about ``_CHUNK_CELLS`` window
positions, so the same path serves n=1e3 and n=1e6; a batch of one window,
as every batch at widths above 2**15 is, reads its conditioning positions
and its ranks as views and copies neither.  Every value is computed row by
row or elementwise, and rank sums are exact, so an estimate does not depend
on the group, batch or stack it is scored in.  An estimate runs on the calling thread.

The number of iterations needed for a target accuracy follows from the
Hoeffding concentration bound ``P(|estimate - truth| >= eps) <= 2*exp(-2*M*eps**2)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._rng import check_key_seed, iteration_integers
from .dataset import Dataset
from .mwp import confidences, restriction_bounds
from .ranking import RankIndex, construct_index
from .slicing import _slice_size, check_alpha, check_count, slice_windows, window_view

# positions per batch: window positions (iterations x restriction width)
# scored at once, index positions (repetitions x n) of a benchmark pass,
# composed positions (references x repetitions x (d - 1) x n) of a
# reference group, and row ids per gather
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


def _check_args(m, alpha, seed, n: int, d: int) -> tuple[int, float, int]:
    """:func:`contrast`'s ``m``, ``alpha`` and ``seed``, checked, then the
    shape of its data, so that bad input fails before an index is built."""
    m, alpha, seed = check_count(m, "m"), check_alpha(alpha), check_key_seed(seed)
    _check_shape(n, d)
    return m, alpha, seed


def _draw(seeds, n: int, d: int, m: int, alpha: float) -> np.ndarray:
    """The integers drawn by iterations ``0..m-1`` of an estimate on n rows
    and d columns, for each seed: ``out[s, i]`` holds iteration i's
    reference dimension, the slice start of each other dimension in
    ascending order, then its restriction start.  A slice that keeps every
    row starts at 0, from a bound of 1, which consumes no random word."""
    size = _slice_size(n, d, alpha)
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
    values on the result.  ``seed`` keys the 64-bit Philox streams of the
    iterations, so it must lie in [0, 2**64).
    """
    m, alpha, seed = _check_args(m, alpha, seed, data.n, data.d)
    index = data if isinstance(data, RankIndex) else construct_index(data)
    draws = _draw([seed], index.n, index.d, m, alpha)
    return _estimate([index], alpha, [seed], draws, record_iterations)[0]


def _gather(out: np.ndarray, values: np.ndarray, index: np.ndarray) -> None:
    """``out[:] = values[index]``, in slices of ``_CHUNK_CELLS`` indices, so
    the gather's temporary stays small at any n."""
    for lo in range(0, index.size, _CHUNK_CELLS):
        out[lo:lo + _CHUNK_CELLS] = values[index[lo:lo + _CHUNK_CELLS]]


def _estimate(indexes, alpha: float, seeds, draws: np.ndarray,
              record_iterations: bool = False) -> list[ContrastEstimate]:
    """The estimates of a stack of indexes that share one (n, d): the k-th
    drew ``draws[k]`` with seed ``seeds[k]``, one row of :func:`_draw` per
    iteration.  Arguments are taken as validated.

    Each (reference dimension, index) pair is a stack row, ``ref * reps +
    k``, holding the composed positions of that reference.  The reference
    dimensions are taken in groups whose stack rows fill about
    ``_CHUNK_CELLS`` positions, at least one reference each.  Every
    iteration of a group with a tie-free reference ranks its window by
    position, so those iterations are scored together.  A tied reference
    brings its own ranks and runs, so the group's tied stack rows are laid
    end to end as one column of ``T * n`` positions: row t's ranks, run
    starts and window starts are shifted by ``t * n``, its windows never
    cross its end, and the runs all their windows cut are found at once.
    Every term and partial sum of a rank sum then lies below ``8 * width *
    T * n`` in magnitude, so at most ``2**48 // (n * width)`` rows are laid
    together, and the sums stay exact multiples of 0.5 below 2**52.  One
    row is laid alone at any size and reads its column's own arrays.  Each
    score is bit-identical to the one its index gets alone.
    """
    n, d = indexes[0].n, indexes[0].d
    reps, m = draws.shape[:2]
    size = _slice_size(n, d, alpha)
    _, width = restriction_bounds(n, alpha)
    draws = draws.reshape(reps * m, -1)
    restrictions = draws[:, -1]
    # the stack row of each iteration, ref * reps + k, and the number of
    # iterations that drew each stack row
    stack = draws[:, 0] * reps + np.arange(reps * m) // m
    drew = np.bincount(stack, minlength=d * reps).tolist()

    # pos[k, j, row]: the row's position in the sorted order of dimension j
    # of index k
    dtype = np.int32 if n < 2**31 else np.int64
    pos = np.empty((reps, d, n), dtype=dtype)
    order = np.arange(n, dtype=dtype)
    for k, index in enumerate(indexes):
        for j, dim in enumerate(index.dims):
            pos[k, j][dim.row_ids] = order
    del order

    r1 = np.empty(reps * m)
    n1 = np.empty(reps * m, dtype=np.int64)
    corr = np.empty(reps * m)
    chunk = max(1, _CHUNK_CELLS // width)
    # the most tied stack rows laid end to end as one column (see above)
    lay = max(1, 2**48 // (n * width))
    others = [[j for j in range(d) if j != ref] for ref in range(d)]
    group_rows = reps * max(1, _CHUNK_CELLS // (reps * (d - 1) * n))
    for top in range(0, d * reps, group_rows):
        rows = range(top, min(d * reps, top + group_rows))
        # positions[s - top, c, p]: for the stack row s of reference ref and
        # index k, the position, in the sorted order of the c-th other
        # dimension of index k, of the row at position p of ref; only the
        # stack rows some iteration drew fill theirs
        positions = np.empty((len(rows), d - 1, n), dtype=dtype)
        windows = window_view(positions, width)
        free = np.zeros(d * reps, dtype=np.bool_)  # the tie-free stack rows
        tied = []  # the tied stack rows and their dimensions
        for s in rows:
            if not drew[s]:
                continue
            ref, k = divmod(s, reps)
            dim = indexes[k].dims[ref]
            for c, j in enumerate(others[ref]):
                _gather(positions[s - top, c], pos[k, j], dim.row_ids)
            if dim.adjusted_ranks is None:
                free[s] = True
            else:
                tied.append((s, dim))
        # (iterations, ranks, window starts, cut runs), scored together
        series = [(np.flatnonzero(free[stack]), None, None, None)] if free.any() else []
        for at in range(0, len(tied), lay):
            laid = tied[at:at + lay]
            if len(laid) == 1:  # no copy
                dim = laid[0][1]
                ranks, run_starts, run_lengths = dim.adjusted_ranks, dim.run_starts, dim.run_lengths
            else:
                ranks = np.concatenate([dim.adjusted_ranks + t * n for t, (_, dim) in enumerate(laid)])
                run_starts = np.concatenate([dim.run_starts + t * n for t, (_, dim) in enumerate(laid)])
                run_lengths = np.concatenate([dim.run_lengths for _, dim in laid])
            # the offset of each laid stack row in the long column, -1 elsewhere
            offset = np.full(d * reps, -1)
            offset[[s for s, _ in laid]] = np.arange(0, len(laid) * n, n)
            group = np.flatnonzero(offset[stack] >= 0)
            starts = restrictions[group] + offset[stack[group]]
            series.append((group, window_view(ranks, width), starts,
                           _kernels.cut_runs(starts, width, run_starts, run_lengths, chunk)))
        for group, ranks, starts, cuts in series:
            for at in range(0, group.size, chunk):
                its = group[at:at + chunk]
                member = slice_windows(windows, stack[its] - top, draws[its, 1:-1], size,
                                       restrictions[its])
                if ranks is None:
                    r1[its], n1[its], corr[its] = _kernels.window_rows(member)
                    continue
                lo = starts[at:at + chunk]
                # one window reads a view of its ranks, as slice_windows does
                window_ranks = ranks[lo[0]:lo[0] + 1] if its.size == 1 else ranks[lo]
                r1[its], n1[its], corr[its] = _kernels.window_rows(
                    member, window_ranks, [part[..., at:at + chunk] for part in cuts])
        # free them before the next group allocates its own
        del positions, windows

    values, tied, empty_full = confidences(r1, n1, corr, width)
    values = values.reshape(reps, m)
    # each row is summed pairwise and divided by m, as values[k].mean() is
    scores = (values.sum(axis=1) / m).tolist()
    tied = tied.reshape(reps, m).sum(axis=1).tolist()
    empty_full = empty_full.reshape(reps, m).sum(axis=1).tolist()
    return [
        ContrastEstimate(
            score=scores[k],
            m_iterations=m,
            alpha=alpha,
            seed=seed,
            per_iteration=values[k] if record_iterations else None,
            degenerate_tied=tied[k],
            degenerate_empty_full=empty_full[k],
        )
        for k, seed in enumerate(seeds)
    ]


def hoeffding_bound(m: int, epsilon: float) -> float:
    """Upper bound on the probability of an estimate deviating >= epsilon."""
    m = check_count(m, "m")
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
