"""Two-sided Mann-Whitney test between a slice and its complement.

The test runs inside a random restriction window on the reference
dimension's sorted order: only rows whose reference rank falls in
``[start, start + ceil(n * alpha))`` take part.  The window is ranked
locally (0-based, ties averaged among window rows only): the global ranks
shifted by ``start``, with the at most two tie runs cut by the window
boundary re-averaged over their rows inside it.  The statistic
``U1 = R1 - n1*(n1-1)/2`` is centered at ``mu = n1*n2/2`` under
independence, and its standard deviation carries the usual ``t**3 - t``
tie correction over window-local tie groups, read from the index's tie
runs clipped to the window.

Two degenerate regimes are reported with ``degenerate=True``: a window
whose values are all tied carries no rank evidence and yields 0 (this is
what drives scores of fully discretised data to zero), and an empty or
full slice inside the window yields 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .ranking import RankIndex
from .slicing import _iceil, _ifloor, check_alpha

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class TestOutcome:
    """Result of one restricted two-sample test."""

    p_c: float
    n1: int
    n_prime: int
    degenerate: bool = False


def half_normal_cdf(z: float) -> float:
    """CDF of |Z| for standard normal Z: ``2*Phi(z) - 1 = erf(z/sqrt(2))``."""
    if z < 0:
        raise ValueError(f"half-normal cdf defined for z >= 0, got {z}")
    return math.erf(z / _SQRT2)


def restriction_window(n: int, alpha: float, rng: np.random.Generator) -> tuple[int, int]:
    """Draw the restriction ``[start, end)`` on the reference dimension.

    ``start`` is uniform on {0, ..., floor(n*(1-alpha))} and the width is
    ``ceil(n*alpha)``, clamped so the window stays inside [0, n).
    """
    width = _iceil(n * alpha)
    start = int(rng.integers(0, _ifloor(n * (1.0 - alpha)) + 1))
    return start, min(n, start + width)


def mwp_test(
    index: RankIndex,
    member: np.ndarray,
    ref_dim: int,
    alpha: float,
    rng: np.random.Generator,
) -> TestOutcome:
    """Confidence level that the slice ``member`` breaks independence on ``ref_dim``.

    ``member`` is the boolean row membership drawn by
    :func:`mcde.slicing.draw_slice`.
    """
    if member.shape[0] != index.n:
        raise ValueError("member and index row counts differ")
    alpha = check_alpha(alpha)

    dim = index.dims[ref_dim]
    start, end = restriction_window(index.n, alpha, rng)
    n_prime = end - start

    r1, n1, corr_sum = _kernels.window_stats(
        member, dim.row_ids, dim.adjusted_ranks, start, end,
        run_starts=dim.run_starts, run_lengths=dim.run_lengths,
    )
    # an all-tied window has no rank evidence; checked before the empty/full
    # branch so constant data scores 0 even when identical sort orders make
    # the slice hit the window exactly.  The sum of g**3 - g reaches
    # n'**3 - n' only when one tie group spans the window; tested on exact
    # integers, as the float spread below can round above 0 for an all-tied
    # window at large n'.  A one-row window, where both sides are 0, is left
    # to the empty/full return and scores 1.
    if n_prime >= 2 and corr_sum == n_prime**3 - n_prime:
        return TestOutcome(0.0, n1, n_prime, degenerate=True)
    if n1 == 0 or n1 == n_prime:
        return TestOutcome(1.0, n1, n_prime, degenerate=True)

    # past both returns n1, n2 >= 1 and at least two tie groups, so the
    # spread, and with it sigma, is positive
    correction = float(corr_sum) / (n_prime * (n_prime - 1.0))
    spread = n_prime + 1.0 - correction
    u1 = r1 - n1 * (n1 - 1) / 2.0
    n2 = n_prime - n1
    mu = n1 * n2 / 2.0
    sigma = math.sqrt((n1 * n2 / 12.0) * spread)
    return TestOutcome(half_normal_cdf(abs(u1 - mu) / sigma), n1, n_prime)
