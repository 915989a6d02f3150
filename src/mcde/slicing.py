"""Random dimensionality-aware slices over a rank index.

A slice drops every row outside a contiguous window of sorted positions in
each non-reference dimension.  The window width shrinks with dimensionality
as ``ceil(n * alpha**(1/(d-1)))`` so that the expected surviving fraction
stays ``alpha`` no matter how many conditions are applied.  Windows live in
rank space, which guarantees each condition keeps exactly that many rows.
"""

from __future__ import annotations

import math

import numpy as np

from . import _kernels
from .ranking import RankIndex

_EPS = 1e-9


def _iceil(x: float) -> int:
    """Ceiling that forgives sub-1e-9 float overshoot (e.g. 300.0000000004)."""
    return math.ceil(x - _EPS)


def _ifloor(x: float) -> int:
    return math.floor(x + _EPS)


def check_alpha(alpha: float) -> float:
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    return float(alpha)


def slice_size(n: int, d: int, alpha: float = 0.5) -> int:
    """Rows kept per condition: ``ceil(n * alpha**(1/(d-1)))``, in [1, n]."""
    if d < 2:
        raise ValueError(f"slice size needs d >= 2 dimensions, got d={d}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    alpha = check_alpha(alpha)
    size = _iceil(n * alpha ** (1.0 / (d - 1)))
    return max(1, min(n, size))


def draw_slice(
    index: RankIndex, ref_dim: int, alpha: float, rng: np.random.Generator
) -> np.ndarray:
    """Draw one random slice, conditioning on all dimensions but ``ref_dim``.

    Returns the boolean row membership of the slice.  For every conditioning
    dimension (ascending order) a window start is drawn uniformly from the
    0-based starts {0, ..., n - size - 1} and rows outside
    ``[start, start + size)`` in that dimension's sorted order are masked
    out.  A full-width window keeps all rows and draws nothing.
    """
    if not 0 <= ref_dim < index.d:
        raise ValueError(f"ref_dim {ref_dim} out of range for d={index.d}")
    n = index.n
    size = slice_size(n, index.d, alpha)
    member = np.ones(n, dtype=np.bool_)
    if size >= n:
        return member
    for j in range(index.d):
        if j == ref_dim:
            continue
        start = int(rng.integers(0, n - size))
        _kernels.mask_outside(member, index.dims[j].row_ids, start, start + size)
    return member
