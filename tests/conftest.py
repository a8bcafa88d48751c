from __future__ import annotations

import numpy as np
import pytest

from chemotaxis_lab import Grid, Params, SemigroupPlan


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
    div_hat = plan.div_hat(plan.to_spectral(np.stack(components)))
    return plan.to_physical(div_hat * plan.multiplier(t, sigma), overwrite=True)


def lap(plan: SemigroupPlan, values) -> np.ndarray:
    """Spectral Laplacian of physical values (a forward and an inverse transform)."""
    return plan.to_physical(-plan.k2 * plan.to_spectral(values), overwrite=True)


def bits(a) -> np.ndarray:
    """A float64 or complex128 array's values as raw 64-bit patterns, for
    comparisons that tell -0.0 from 0.0 and one NaN payload from another."""
    return np.ascontiguousarray(a).view(np.uint64)
