import numpy as np
import pytest

from mcde import (
    DEPENDENCY_KINDS,
    DependencySpec,
    Dataset,
    discretise,
    generate,
)

ALL_DEPENDENT = [k for k in DEPENDENCY_KINDS if k != "independent"]


def test_deterministic_given_seed():
    spec = DependencySpec("hourglass", 200, 3, 0.2, seed=11)
    assert generate(spec) == generate(spec)


def test_different_seeds_differ():
    a = generate(DependencySpec("linear", 50, 2, 0.0, seed=1))
    b = generate(DependencySpec("linear", 50, 2, 0.0, seed=2))
    assert a != b


@pytest.mark.parametrize("kind", DEPENDENCY_KINDS)
def test_noiseless_support_in_unit_cube(kind):
    d = 1 if kind == "independent" else 3
    ds = generate(DependencySpec(kind, 2000, max(d, 2), 0.0, seed=5))
    assert ds.values.min() >= 0.0
    assert ds.values.max() <= 1.0
    assert ds.n == 2000


def _cols(kind, d=3, n=1500, seed=3):
    ds = generate(DependencySpec(kind, n, d, 0.0, seed=seed))
    return ds.values[:, 0], ds.values[:, 1:]


def test_linear_constraint():
    x0, rest = _cols("linear")
    assert np.all(rest == x0[:, None])


def test_double_linear_constraint():
    x0, rest = _cols("double_linear")
    on_full = rest == x0[:, None]
    on_half = rest == x0[:, None] / 2.0
    assert np.all(on_full | on_half)
    assert on_full.any() and on_half.any()


def test_parabolic_constraint():
    x0, rest = _cols("parabolic")
    assert np.all(rest == ((2 * x0 - 1) ** 2)[:, None])


@pytest.mark.parametrize("kind,period", [("sine_p1", 1.0), ("sine_p5", 5.0)])
def test_sine_constraint(kind, period):
    x0, rest = _cols(kind)
    expected = (1 + np.sin(2 * np.pi * period * x0)) / 2
    assert np.allclose(rest, expected[:, None], atol=1e-12)


def test_z_inversed_constraint():
    x0, rest = _cols("z_inversed")
    low = np.all(rest == 0.0, axis=1)
    high = np.all(rest == 1.0, axis=1)
    anti = np.all(rest == (1 - x0)[:, None], axis=1)
    assert np.all(low | high | anti)
    for segment in (low, high, anti):
        assert 0.2 < segment.mean() < 0.47


def test_cross_constraint():
    x0, rest = _cols("cross")
    on_diag = rest == x0[:, None]
    on_anti = rest == (1 - x0)[:, None]
    assert np.all(on_diag | on_anti)
    assert on_diag.any() and on_anti.any()


def test_star_constraint():
    ds = generate(DependencySpec("star", 1500, 3, 0.0, seed=3))
    off_center = ds.values != 0.5
    assert np.all(off_center.sum(axis=1) <= 1)
    assert off_center.any(axis=0).all()  # every axis gets rays


def test_hypercube_constraint():
    ds = generate(DependencySpec("hypercube", 1500, 3, 0.0, seed=3))
    pinned = (ds.values == 0.0) | (ds.values == 1.0)
    assert np.all(pinned.sum(axis=1) >= 1)


def test_hypercube_graph_constraint():
    ds = generate(DependencySpec("hypercube_graph", 1500, 3, 0.0, seed=3))
    pinned = (ds.values == 0.0) | (ds.values == 1.0)
    assert np.all(pinned.sum(axis=1) >= ds.d - 1)


def test_hypersphere_constraint():
    ds = generate(DependencySpec("hypersphere", 1500, 3, 0.0, seed=3))
    radii = np.linalg.norm(ds.values - 0.5, axis=1)
    assert np.all(np.abs(radii - 0.5) <= 1e-12)


def test_hourglass_constraint():
    x0, rest = _cols("hourglass")
    assert np.all(np.abs(rest - 0.5) <= np.abs(x0 - 0.5)[:, None] + 1e-15)


def test_independent_pairwise_correlation_small():
    ds = generate(DependencySpec("independent", 10_000, 3, 0.0, seed=8))
    corr = np.corrcoef(ds.values, rowvar=False)
    off_diag = corr[~np.eye(3, dtype=bool)]
    assert np.all(np.abs(off_diag) <= 0.05)


def test_independent_allows_one_dimension():
    assert generate(DependencySpec("independent", 10, 1, 0.0, seed=0)).d == 1


def test_noise_added_after_scaling_and_not_clipped():
    noisy = generate(DependencySpec("linear", 5000, 2, 0.5, seed=9))
    assert noisy.values.min() < 0.0 or noisy.values.max() > 1.0
    clean = generate(DependencySpec("linear", 5000, 2, 0.0, seed=9))
    assert noisy != clean


def test_spec_validation():
    with pytest.raises(ValueError):
        DependencySpec("spiral", 10, 2, 0.0)
    with pytest.raises(ValueError):
        DependencySpec("linear", 10, 1, 0.0)
    with pytest.raises(ValueError):
        DependencySpec("linear", 0, 2, 0.0)
    with pytest.raises(ValueError):
        DependencySpec("linear", 10, 2, -0.1)
    with pytest.raises(ValueError):
        DependencySpec("linear", 10, 2, 0.0, seed=-5)


def test_discretise_omega_one_is_constant():
    ds = generate(DependencySpec("linear", 100, 2, 0.0, seed=1))
    flat = discretise(ds, 1)
    assert np.all(flat.values == 0.0)


def test_discretise_omega_two_rounds_to_nearest():
    ds = Dataset(np.array([[0.4, 0.6]]))
    out = discretise(ds, 2)
    assert out.values[0, 0] == 0.0
    assert out.values[0, 1] == 1.0


def test_discretise_bounds_distinct_values():
    ds = generate(DependencySpec("independent", 5000, 2, 0.0, seed=2))
    out = discretise(ds, 100)
    for j in range(out.d):
        assert len(np.unique(out.column(j))) <= 100


def test_discretise_clamps_noised_values():
    ds = Dataset(np.array([[-0.7, 1.9]]))
    out = discretise(ds, 5)
    assert out.values[0, 0] == 0.0
    assert out.values[0, 1] == 1.0


def test_discretisation_level_validation():
    with pytest.raises(ValueError, match="^omega must be >= 1, got 0$"):
        discretise(Dataset(np.array([[0.4, 0.6]])), 0)
