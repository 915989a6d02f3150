"""Random dimensionality-aware slices over a rank index.

A slice drops every row outside a contiguous window of sorted positions in
each non-reference dimension.  The window width shrinks with dimensionality
as ``ceil(n * alpha**(1/(d-1)))`` so that the expected surviving fraction
stays ``alpha`` no matter how many conditions are applied.  Windows live in
rank space, which guarantees each condition keeps exactly that many rows.

Slices are only ever read inside the test's restriction window on the
reference dimension, so membership is computed there directly, for a batch
of slices at once, which may belong to different estimates of one shape:
each conditioning dimension's sorted positions, listed in the reference
dimension's order, are read window by window and compared against each
slice's start.  Every read is sequential.  A batch of many windows gathers
them into one array and subtracts in place; a batch of one window, as every
batch at widths above 2**15 is, subtracts straight from the strided
view and copies nothing first.
"""

from __future__ import annotations

import math
import operator

import numpy as np

_EPS = 1e-9
_UNSIGNED = {4: np.uint32, 8: np.uint64}


def _iceil(x: float) -> int:
    """Ceiling that forgives sub-1e-9 float overshoot (e.g. 300.0000000004)."""
    return math.ceil(x - _EPS)


def check_alpha(alpha: float) -> float:
    if isinstance(alpha, (bool, np.bool_)):
        raise TypeError("alpha must be a number, not a bool")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    return float(alpha)


def check_count(count: int, name: str | None = None, least: int = 1) -> int:
    """``count`` as an ``int``: any integer but a bool, which would count
    as 0 or 1.  A named count must also be at least ``least``."""
    if isinstance(count, bool):
        raise TypeError("a count must be an integer, not a bool")
    count = operator.index(count)
    if name is not None and count < least:
        raise ValueError(f"{name} must be >= {least}, got {count}")
    return count


def _slice_size(n: int, d: int, alpha: float) -> int:
    """Rows kept per condition: ``ceil(n * alpha**(1/(d-1)))``, in [1, n],
    for the checked ``n >= 1``, ``d >= 2`` and ``alpha`` of an estimate."""
    return max(1, min(n, _iceil(n * alpha ** (1.0 / (d - 1)))))


def window_view(a: np.ndarray, width: int) -> np.ndarray:
    """Read-only view of every ``width``-long window along the last axis of
    the C-contiguous ``a``: ``out[..., s, k]`` is ``a[..., s + k]``.

    numpy's ``sliding_window_view`` gives the same view, but its argument
    checks make a call about ten times as slow (tens of microseconds, which
    an estimate at n=1000 notices).
    """
    shape = a.shape[:-1] + (a.shape[-1] - width + 1, width)
    view = np.ndarray(shape, a.dtype, a, 0, a.strides + a.strides[-1:])
    view.setflags(write=False)
    return view


def slice_windows(windows, reps, starts, size: int, window_starts) -> np.ndarray:
    """Slice membership over a batch of restriction windows, one row per slice.

    ``windows[r, c, s]`` lists, for the sorted positions of the reference
    dimension of repetition r from ``s`` on, the positions of their rows in
    the sorted order of its conditioning dimension c (the
    :func:`window_view` of those positions, so every window lies inside the
    column).  A row is in slice i when, for every c, that position lies in
    ``[starts[i, c], starts[i, c] + size)``.  Row i of the result covers
    the window of repetition ``reps[i]`` that starts at ``window_starts[i]``.
    """
    member = None
    one = len(reps) == 1
    for c in range(windows.shape[1]):
        start = starts[:, c, None].astype(windows.dtype)
        if one:
            lo = window_starts[0]
            batch = windows[reps[0], c, lo:lo + 1] - start
        else:
            batch = windows[reps, c, window_starts]
            batch -= start
        # one unsigned compare tests 0 <= position - start < size
        inside = batch.view(_UNSIGNED[batch.dtype.itemsize]) < size
        if member is None:
            member = inside
        else:
            member &= inside
    return member
