from __future__ import annotations

import numpy as np
import pytest

from chemotaxis_lab import (
    Field,
    Grid,
    GridMismatchError,
    InvalidParameterError,
    SemigroupPlan,
    VectorField,
    apply_semigroup,
    apply_semigroup_div,
    apply_semigroup_grad,
    gradient,
    laplacian,
    measure_gradient_constant,
)

SQRT_PI = np.sqrt(np.pi)


def sup(a):
    return float(np.abs(a).max())


def test_identity_at_t_zero_is_exact(plan_1d, grid_1d):
    rng = np.random.default_rng(0)
    f = Field(grid_1d, rng.uniform(-1, 1, grid_1d.shape))
    out = apply_semigroup(plan_1d, f, 0.0, 2.0)
    assert np.array_equal(out.values, f.values)


def test_constant_field_decays_by_exp_sigma_t(plan_1d, grid_1d):
    f = Field(grid_1d, np.ones(grid_1d.shape))
    out = apply_semigroup(plan_1d, f, 0.5, 1.0)
    assert out.values == pytest.approx(np.exp(-0.5) * np.ones(grid_1d.shape), rel=1e-14)


def test_cosine_is_an_eigenmode(plan_1d, grid_1d):
    x = grid_1d.axis_coordinates()
    f = Field(grid_1d, np.cos(x))
    out = apply_semigroup(plan_1d, f, 1.0, 0.0)
    assert sup(out.values - np.exp(-1.0) * np.cos(x)) < 1e-14


def test_mean_is_preserved_without_decay(plan_1d, grid_1d):
    rng = np.random.default_rng(1)
    f = Field(grid_1d, rng.uniform(0.5, 1.5, grid_1d.shape))
    out = apply_semigroup(plan_1d, f, 0.37, 0.0)
    assert out.values.mean() == pytest.approx(f.values.mean(), rel=1e-12)


def test_semigroup_property(plan_1d, grid_1d):
    rng = np.random.default_rng(2)
    f = Field(grid_1d, rng.uniform(-1, 1, grid_1d.shape))
    for t1, t2, sigma in [(0.1, 0.25, 0.0), (0.02, 0.4, 1.3)]:
        once = apply_semigroup(plan_1d, f, t1 + t2, sigma)
        twice = apply_semigroup(plan_1d, apply_semigroup(plan_1d, f, t2, sigma), t1, sigma)
        assert sup(once.values - twice.values) <= 1e-12 * sup(f.values)


def test_positivity_up_to_spectral_ringing(plan_1d, grid_1d):
    rng = np.random.default_rng(3)
    f = Field(grid_1d, rng.uniform(0.0, 1.0, grid_1d.shape))
    out = apply_semigroup(plan_1d, f, 0.01, 0.0)
    assert out.values.min() >= -1e-12 * f.sup_abs()


def test_sup_norm_contraction_estimate(plan_1d, grid_1d):
    rng = np.random.default_rng(4)
    f = Field(grid_1d, rng.uniform(-1, 1, grid_1d.shape))
    for t, sigma in [(0.01, 0.0), (0.5, 2.0), (3.0, 0.7)]:
        out = apply_semigroup(plan_1d, f, t, sigma)
        assert out.sup_abs() <= np.exp(-sigma * t) * f.sup_abs() + 1e-12


def test_gradient_commutes_with_semigroup(plan_1d, grid_1d):
    rng = np.random.default_rng(5)
    f = Field(grid_1d, rng.uniform(-1, 1, grid_1d.shape))
    direct = apply_semigroup_grad(plan_1d, f, 0.05, 0.4)
    composed = gradient(plan_1d, apply_semigroup(plan_1d, f, 0.05, 0.4))
    assert sup(direct.components[0] - composed.components[0]) <= 1e-14 * f.sup_abs()


def test_grad_of_constant_is_zero(plan_1d, grid_1d):
    f = Field(grid_1d, np.full(grid_1d.shape, 3.7))
    out = apply_semigroup_grad(plan_1d, f, 0.3, 0.0)
    assert sup(out.components[0]) < 1e-13


def test_grad_on_sine_eigenmode(plan_1d, grid_1d):
    x = grid_1d.axis_coordinates()
    f = Field(grid_1d, np.sin(x))
    out = apply_semigroup_grad(plan_1d, f, 1.0, 0.0)
    assert sup(out.components[0] - np.exp(-1.0) * np.cos(x)) < 1e-13


def test_gradient_envelope_constant_is_finite_and_certified(plan_1d):
    c = measure_gradient_constant(plan_1d, n_fields=8, seed=11)
    assert 0.1 < c <= (1.0 / SQRT_PI) * 1.01


def test_div_of_constant_vector_is_zero(plan_1d, grid_1d):
    w = VectorField(grid_1d, [np.full(grid_1d.shape, 2.0)])
    out = apply_semigroup_div(plan_1d, w, 0.2, 0.0)
    assert sup(out.values) < 1e-13


def test_div_on_sine_eigenmode(plan_1d, grid_1d):
    x = grid_1d.axis_coordinates()
    w = VectorField(grid_1d, [np.sin(x)])
    out = apply_semigroup_div(plan_1d, w, 1.0, 0.0)
    assert sup(out.values - np.exp(-1.0) * np.cos(x)) < 1e-13


def test_div_envelope_on_random_fields(plan_1d, grid_1d):
    # bound value from the divergence smoothing estimate at t = 0.01:
    # (1/sqrt(pi)) * 0.01^(-1/2) = 5.6419
    rng = np.random.default_rng(6)
    bound = (1.0 / SQRT_PI) * 0.01**-0.5
    for _ in range(100):
        values = rng.uniform(-1, 1, grid_1d.shape)
        values /= np.abs(values).max()
        w = VectorField(grid_1d, [values])
        out = apply_semigroup_div(plan_1d, w, 0.01, 0.0)
        assert out.sup_abs() <= bound * 1.01


def test_laplacian_eigenmodes(plan_1d, grid_1d):
    x = grid_1d.axis_coordinates()
    f = Field(grid_1d, np.sin(2 * x))
    out = laplacian(plan_1d, f)
    # roundoff in the far modes is amplified by |k|^2, so the floor is ~1e-11
    assert sup(out.values + 4.0 * np.sin(2 * x)) < 1e-11
    g = gradient(plan_1d, Field(grid_1d, np.sin(x)))
    assert sup(g.components[0] - np.cos(x)) < 1e-13
    const = Field(grid_1d, np.full(grid_1d.shape, 5.0))
    assert sup(laplacian(plan_1d, const).values) < 1e-13
    assert sup(gradient(plan_1d, const).components[0]) < 1e-13


def test_two_dimensional_eigenmode():
    grid = Grid(dim=2, extent=2 * np.pi, points=32)
    plan = SemigroupPlan(grid)
    xx, yy = grid.coordinate_arrays()
    f = Field(grid, np.cos(xx) * np.cos(yy))
    out = apply_semigroup(plan, f, 0.5, 0.0)
    assert sup(out.values - np.exp(-1.0) * f.values) < 1e-13
    g = gradient(plan, Field(grid, np.cos(xx)))
    assert sup(g.components[0] + np.sin(xx)) < 1e-12
    assert sup(g.components[1]) < 1e-13


def test_div_hat_of_grad_is_the_laplacian():
    grid = Grid(dim=2, extent=2 * np.pi, points=32)
    plan = SemigroupPlan(grid)
    xx, yy = grid.coordinate_arrays()
    f = Field(grid, np.cos(xx) * np.sin(2 * yy) + np.sin(3 * xx))
    spec = plan.to_spectral(f.values)
    lap = plan.to_physical(plan.div_hat(plan.grad(spec)))
    assert sup(lap - laplacian(plan, f).values) < 1e-12
    assert sup(lap + 5 * np.cos(xx) * np.sin(2 * yy) + 9 * np.sin(3 * xx)) < 1e-12


def test_huge_time_flushes_every_oscillatory_mode(plan_1d, grid_1d):
    # multipliers below 1e-300 flush to exact zero, so only the mean survives
    rng = np.random.default_rng(8)
    f = Field(grid_1d, rng.uniform(0.0, 1.0, grid_1d.shape))
    out = apply_semigroup(plan_1d, f, 1000.0, 0.0)
    assert out.values.max() - out.values.min() == 0.0
    assert out.values[0] == pytest.approx(f.values.mean(), rel=1e-12)


def test_three_dimensional_eigenmode():
    grid = Grid(dim=3, extent=2 * np.pi, points=16)
    plan = SemigroupPlan(grid)
    xx, yy, zz = grid.coordinate_arrays()
    f = Field(grid, np.cos(xx) * np.cos(yy) * np.cos(zz))
    out = apply_semigroup(plan, f, 0.2, 0.5)
    assert sup(out.values - np.exp(-(3.0 + 0.5) * 0.2) * f.values) < 1e-13
    lap = laplacian(plan, f)
    assert sup(lap.values + 3.0 * f.values) < 1e-11


def test_argument_validation(plan_1d, grid_1d):
    f = Field(grid_1d, np.zeros(grid_1d.shape))
    w = VectorField(grid_1d, [np.zeros(grid_1d.shape)])
    with pytest.raises(InvalidParameterError):
        apply_semigroup(plan_1d, f, -0.1, 0.0)
    with pytest.raises(InvalidParameterError):
        apply_semigroup(plan_1d, f, 0.1, -1.0)
    with pytest.raises(InvalidParameterError):
        apply_semigroup_grad(plan_1d, f, 0.0, 0.0)
    with pytest.raises(InvalidParameterError):
        apply_semigroup_div(plan_1d, w, 0.0, 0.0)
    other = SemigroupPlan(Grid(dim=1, extent=2 * np.pi, points=128))
    with pytest.raises(GridMismatchError):
        apply_semigroup(other, f, 0.1, 0.0)
