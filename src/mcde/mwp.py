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
the batch it is computed in.
"""

from __future__ import annotations

import math

import numpy as np

from .slicing import _iceil

_SQRT2 = math.sqrt(2.0)


def restriction_bounds(n: int, alpha: float) -> tuple[int, int]:
    """The number of restriction starts and the restriction width.

    The width is ``ceil(n*alpha)``, at least 1, and the starts are those
    that keep the window inside the column: ``n - width + 1`` of them, which
    is ``floor(n*(1-alpha)) + 1`` in exact arithmetic.
    """
    width = max(1, _iceil(n * alpha))
    return n - width + 1, width


def confidences(r1, n1, corr, width):
    """Test values of a batch of windows of ``width`` rows from their
    :func:`~mcde._kernels.window_rows` statistics.

    Returns ``(p_c, tied, empty_full)``: the values and the masks of the
    two degenerate regimes, all-tied windows (0) and empty or full slices
    (1).
    """
    # an all-tied window has no rank evidence; checked before the empty/full
    # case so constant data scores 0 even when identical sort orders make
    # the slice hit the window exactly.  The sum of g**3 - g reaches
    # w**3 - w only when one tie group spans the window, and the float spread
    # below can round above 0 for such a window at large w, so the sums are
    # compared instead.  Each is an exact integer rounded once to float, and
    # rounding is monotone; the largest sum short of all-tied, (w-1)**3 -
    # (w-1), lies 3w(w-1) below w**3 - w, far more than the float spacing
    # there (about w**3 / 2**52) for every w < 2**50, so no other sum rounds
    # to it.  A one-row window, where both sides are 0, is left to the
    # empty/full case and scores 1.
    tied = (width >= 2) & (corr == float(width**3 - width))
    empty_full = ~tied & ((n1 == 0) | (n1 == width))
    p_c = np.where(tied, 0.0, 1.0)
    test = np.flatnonzero(~(tied | empty_full))
    if test.size:
        # here n1, n2 >= 1 and there are at least two tie groups, so the
        # spread, and with it sigma, is positive.  Every step is one
        # elementwise IEEE operation, so each value is what the same
        # expression gives on Python floats.
        n1, r1 = n1[test], r1[test]
        correction = corr[test] / (width * (width - 1.0))
        spread = width + 1.0 - correction
        u1 = r1 - n1 * (n1 - 1) / 2.0
        n2 = width - n1
        mu = n1 * n2 / 2.0
        sigma = np.sqrt((n1 * n2 / 12.0) * spread)
        z = np.abs(u1 - mu) / sigma
        p_c[test] = [math.erf(x / _SQRT2) for x in z.tolist()]
    return p_c, tied, empty_full
