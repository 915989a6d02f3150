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

Two degenerate regimes are reported apart: a window whose values are all
tied carries no rank evidence and yields 0 (this is what drives scores of
fully discretised data to zero), and an empty or full slice inside the
window yields 1.

The test values of a whole batch of windows come from one vectorised pass
over their statistics (:func:`confidences`).  Every float operation is
elementwise and ``math.erf`` runs per value, so a value does not depend on
the batch it is computed in; :func:`mwp_test` is the batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .ranking import RankIndex
from .slicing import _iceil, check_alpha

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


def restriction_bounds(n: int, alpha: float) -> tuple[int, int]:
    """The number of restriction starts and the restriction width.

    The width is ``ceil(n*alpha)``, at least 1, and the starts are those
    that keep the window inside the column: ``n - width + 1`` of them, which
    is ``floor(n*(1-alpha)) + 1`` in exact arithmetic.
    """
    width = max(1, _iceil(n * alpha))
    return n - width + 1, width


def restriction_window(n: int, alpha: float, rng: np.random.Generator) -> tuple[int, int]:
    """Draw the restriction ``[start, end)`` on the reference dimension:
    ``start`` is uniform over :func:`restriction_bounds`' starts."""
    starts, width = restriction_bounds(n, alpha)
    start = int(rng.integers(0, starts))
    return start, start + width


def confidences(r1, n1, corr, n_prime):
    """Test values of a batch of windows from their :func:`~mcde._kernels.window_rows`
    statistics and sizes ``n_prime``.

    Returns ``(p_c, tied, empty_full)``: the values and the masks of the
    two degenerate regimes, all-tied windows (0) and empty or full slices
    (1).
    """
    # an all-tied window has no rank evidence; checked before the empty/full
    # case so constant data scores 0 even when identical sort orders make
    # the slice hit the window exactly.  The sum of g**3 - g reaches
    # n'**3 - n' only when one tie group spans the window; tested on exact
    # integers, as the float spread below can round above 0 for an all-tied
    # window at large n'.  A one-row window, where both sides are 0, is left
    # to the empty/full case and scores 1.
    tied = np.array([w >= 2 and c == w**3 - w for c, w in zip(corr, n_prime.tolist())],
                    dtype=np.bool_)
    empty_full = ~tied & ((n1 == 0) | (n1 == n_prime))
    p_c = np.where(tied, 0.0, 1.0)
    test = np.flatnonzero(~(tied | empty_full))
    if test.size:
        # here n1, n2 >= 1 and there are at least two tie groups, so the
        # spread, and with it sigma, is positive.  Every step is one
        # elementwise IEEE operation, so each value is what the same
        # expression gives on Python floats.
        n1, n_prime, r1 = n1[test], n_prime[test], r1[test]
        corr = np.array([float(corr[i]) for i in test.tolist()])
        correction = corr / (n_prime * (n_prime - 1.0))
        spread = n_prime + 1.0 - correction
        u1 = r1 - n1 * (n1 - 1) / 2.0
        n2 = n_prime - n1
        mu = n1 * n2 / 2.0
        sigma = np.sqrt((n1 * n2 / 12.0) * spread)
        z = np.abs(u1 - mu) / sigma
        p_c[test] = [half_normal_cdf(x) for x in z.tolist()]
    return p_c, tied, empty_full


def mwp_test(
    index: RankIndex,
    member: np.ndarray,
    ref_dim: int,
    alpha: float,
    rng: np.random.Generator,
) -> TestOutcome:
    """Confidence level that the slice ``member`` breaks independence on ``ref_dim``.

    ``member`` is the boolean row membership of the slice.  A batch of one
    of the tests :func:`mcde.contrast.contrast` scores.
    """
    if member.shape[0] != index.n:
        raise ValueError("member and index row counts differ")
    alpha = check_alpha(alpha)

    dim = index.dims[ref_dim]
    start, end = restriction_window(index.n, alpha, rng)
    r1, n1, corr = _kernels.window_stats(
        member, dim.row_ids, dim.adjusted_ranks, start, end,
        run_starts=dim.run_starts, run_lengths=dim.run_lengths,
    )
    n_prime = end - start
    p_c, tied, empty_full = confidences(
        np.array([r1]), np.array([n1]), [corr], np.array([n_prime]))
    return TestOutcome(float(p_c[0]), n1, n_prime, degenerate=bool(tied[0] | empty_full[0]))
