"""Synthetic benchmark dependencies, Gaussian noising, and discretisation.

Twelve dependency shapes plus an independence baseline, all supported on
the unit hypercube before noise.  Gaussian noise with standard deviation
``noise`` is added per coordinate afterwards and deliberately not clipped
back into [0, 1]: clipping would pile up exact duplicates at the borders
and contaminate tie-sensitivity experiments.

Parametric forms (t, u ~ U[0,1] per row, eps uniform signs, before noise):

========== =============================================================
linear           all coordinates equal t
double_linear    x0 = t; each other coordinate t or t/2 (fair coin)
parabolic        x0 = t; others (2t-1)**2
sine_p1/sine_p5  x0 = t; others (1 + sin(2*pi*P*t))/2, P = 1 or 5
z_inversed       equal mix: others all 0, all 1, or all 1-t; x0 = t
cross            x0 = t; each other coordinate t or 1-t (fair sign)
star             2d rays from the center to the facet midpoints
hypercube        uniform on the (d-1)-dimensional facets of [0,1]^d
hypercube_graph  uniform on the edge skeleton of [0,1]^d
hypersphere      radius 0.5 around (0.5,...,0.5), uniform direction
hourglass        x0 = t; others 0.5 + eps*|t-0.5|*u per coordinate
independent      every coordinate i.i.d. U[0,1]
========== =============================================================
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rng import check_seed
from .dataset import Dataset

DEPENDENCY_KINDS = (
    "cross",
    "double_linear",
    "hourglass",
    "hypercube",
    "hypercube_graph",
    "hypersphere",
    "linear",
    "parabolic",
    "sine_p1",
    "sine_p5",
    "star",
    "z_inversed",
    "independent",
)


@dataclass(frozen=True)
class DependencySpec:
    """Configuration of one synthetic data draw."""

    kind: str
    n: int
    d: int
    noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in DEPENDENCY_KINDS:
            raise ValueError(
                f"unknown dependency kind {self.kind!r}; choose from {DEPENDENCY_KINDS}"
            )
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        min_d = 1 if self.kind == "independent" else 2
        if self.d < min_d:
            raise ValueError(f"kind {self.kind!r} needs d >= {min_d}, got {self.d}")
        if self.noise < 0:
            raise ValueError(f"noise must be >= 0, got {self.noise}")
        check_seed(self.seed)


def _noiseless(spec: DependencySpec, rng: np.random.Generator) -> np.ndarray:
    n, d = spec.n, spec.d
    kind = spec.kind

    if kind == "independent":
        return rng.random((n, d))

    x = np.empty((n, d), dtype=np.float64)
    if kind == "linear":
        t = rng.random(n)
        x[:] = t[:, None]
    elif kind == "double_linear":
        t = rng.random(n)
        halved = rng.integers(0, 2, size=(n, d - 1)).astype(np.bool_)
        x[:, 0] = t
        x[:, 1:] = np.where(halved, t[:, None] / 2.0, t[:, None])
    elif kind == "parabolic":
        t = rng.random(n)
        x[:, 0] = t
        x[:, 1:] = ((2.0 * t - 1.0) ** 2)[:, None]
    elif kind in ("sine_p1", "sine_p5"):
        period = 1.0 if kind == "sine_p1" else 5.0
        t = rng.random(n)
        x[:, 0] = t
        x[:, 1:] = ((1.0 + np.sin(2.0 * np.pi * period * t)) / 2.0)[:, None]
    elif kind == "z_inversed":
        t = rng.random(n)
        segment = rng.integers(0, 3, size=n)
        x[:, 0] = t
        other = np.where(segment == 0, 0.0, np.where(segment == 1, 1.0, 1.0 - t))
        x[:, 1:] = other[:, None]
    elif kind == "cross":
        t = rng.random(n)
        flipped = rng.integers(0, 2, size=(n, d - 1)).astype(np.bool_)
        x[:, 0] = t
        x[:, 1:] = np.where(flipped, 1.0 - t[:, None], t[:, None])
    elif kind == "star":
        axis = rng.integers(0, d, size=n)
        side = rng.integers(0, 2, size=n) * 2 - 1
        u = rng.random(n)
        x[:] = 0.5
        x[np.arange(n), axis] = 0.5 + side * 0.5 * u
    elif kind == "hypercube":
        x[:] = rng.random((n, d))
        axis = rng.integers(0, d, size=n)
        side = rng.integers(0, 2, size=n)
        x[np.arange(n), axis] = side
    elif kind == "hypercube_graph":
        x[:] = rng.integers(0, 2, size=(n, d))
        axis = rng.integers(0, d, size=n)
        x[np.arange(n), axis] = rng.random(n)
    elif kind == "hypersphere":
        g = rng.normal(size=(n, d))
        norms = np.linalg.norm(g, axis=1)
        norms[norms == 0.0] = 1.0  # measure-zero guard
        x[:] = 0.5 + 0.5 * g / norms[:, None]
    elif kind == "hourglass":
        t = rng.random(n)
        u = rng.random((n, d - 1))
        eps = rng.integers(0, 2, size=(n, d - 1)) * 2 - 1
        x[:, 0] = t
        x[:, 1:] = 0.5 + eps * np.abs(t - 0.5)[:, None] * u
    else:  # pragma: no cover - kinds validated in DependencySpec
        raise ValueError(f"unknown dependency kind {kind!r}")
    return x


def generate(spec: DependencySpec) -> Dataset:
    """Draw one dataset for ``spec``; deterministic given ``spec.seed``."""
    rng = np.random.default_rng(spec.seed)
    x = _noiseless(spec, rng)
    if spec.noise > 0.0:
        x = x + rng.normal(0.0, spec.noise, size=x.shape)
    return Dataset(x)


def discretise(ds: Dataset, omega: int) -> Dataset:
    """Round every value to one of ``omega`` evenly spaced levels in [0, 1].

    Values are clamped into [0, 1] first since noised data may leave the
    unit range.  ``omega=1`` collapses everything to the constant 0.
    """
    if omega < 1:
        raise ValueError(f"omega must be >= 1, got {omega}")
    clipped = np.clip(ds.values, 0.0, 1.0)
    if omega == 1:
        binned = np.zeros_like(clipped)
    else:
        steps = omega - 1
        binned = np.rint(clipped * steps) / steps
    return Dataset(binned, ds.column_names)

