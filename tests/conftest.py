from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

from chemotaxis_lab import Grid, Params, SemigroupPlan
from chemotaxis_lab.spectral import bind_div_hat


@pytest.fixture
def grid_1d() -> Grid:
    return Grid(dim=1, extent=2.0 * np.pi, points=256)


@pytest.fixture
def plan_1d(grid_1d) -> SemigroupPlan:
    return SemigroupPlan(grid_1d)


@pytest.fixture
def unit_params() -> Params:
    return Params(chi=1.0, a=1.0, b=1.0, lam=1.0, mu=1.0, dim=1)


# The semigroup compositions as the stepper and the oracle apply them: the
# plan's multiplier on a spectrum (see chemotaxis_lab.spectral).


def semigroup(plan: SemigroupPlan, values, t: float, sigma: float) -> np.ndarray:
    """exp(t(lap - sigma I)) values."""
    spec = plan.to_spectral(values) * plan.multiplier(t, sigma)
    return plan.to_physical(spec, overwrite=True)


def semigroup_grad(plan: SemigroupPlan, values, t: float, sigma: float) -> list[np.ndarray]:
    """grad exp(t(lap - sigma I)) values, one array per axis."""
    return plan.grad(plan.to_spectral(values) * plan.multiplier(t, sigma))


def semigroup_div(plan: SemigroupPlan, components, t: float, sigma: float) -> np.ndarray:
    """exp(t(lap - sigma I)) div w for the components of w."""
    div_hat = bind_div_hat(plan.ik, plan.to_spectral(np.stack(components)))()
    return plan.to_physical(div_hat * plan.multiplier(t, sigma), overwrite=True)


def lap(plan: SemigroupPlan, values) -> np.ndarray:
    """Spectral Laplacian of physical values (a forward and an inverse transform)."""
    return plan.to_physical(-plan.k2 * plan.to_spectral(values), overwrite=True)


def bits(a) -> np.ndarray:
    """A float64 or complex128 array's values as raw 64-bit patterns, for
    comparisons that tell -0.0 from 0.0 and one NaN payload from another."""
    return np.ascontiguousarray(a).view(np.uint64)


def principal_eigenvalue_fd(
    a: float, L0: float, dim: int, *, nodes: int = 2048, max_iterations: int = 200
) -> float:
    """Finite-difference cross-check of
    :func:`chemotaxis_lab.constants.principal_eigenvalue`.

    Discretises the radial Dirichlet problem -(phi'' + (N-1)/r phi') = nu phi
    on (0, L0) with the symmetry condition phi'(0) = 0 (lap phi(0) = N phi''(0)
    at the origin) on a vertex grid, and runs inverse iteration on the
    tridiagonal operator to find the smallest eigenvalue nu.
    """
    m = nodes
    h = L0 / m
    main = np.zeros(m)
    upper = np.zeros(m - 1)
    lower = np.zeros(m - 1)
    main[0] = 2.0 * dim / h**2
    upper[0] = -2.0 * dim / h**2
    for i in range(1, m):
        r = i * h
        main[i] = 2.0 / h**2
        if i < m - 1:
            upper[i] = -1.0 / h**2 - (dim - 1) / (2.0 * h * r)
        lower[i - 1] = -1.0 / h**2 + (dim - 1) / (2.0 * h * r)

    banded = np.zeros((3, m))
    banded[0, 1:] = upper
    banded[1, :] = main
    banded[2, :-1] = lower

    def apply(x: np.ndarray) -> np.ndarray:
        y = main * x
        y[:-1] += upper * x[1:]
        y[1:] += lower * x[:-1]
        return y

    x = np.ones(m)
    nu_prev = np.inf
    for _ in range(max_iterations):
        x = scipy.linalg.solve_banded((1, 1), banded, x)
        x /= np.linalg.norm(x)
        nu = float(x @ apply(x))
        if abs(nu - nu_prev) <= 1e-13 * abs(nu):
            break
        nu_prev = nu
    return a / 2.0 - nu
