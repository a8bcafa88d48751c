from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from chemotaxis_lab import (
    CalibrationConstants,
    ContractionFailureError,
    Field,
    Grid,
    InvalidParameterError,
    Params,
    PicardConfig,
    SemigroupPlan,
    SimState,
    local_horizon,
    measure_gradient_constant,
    picard_solve,
)
from chemotaxis_lab.imex import nonlinear_hat
from chemotaxis_lab.mild import c1_norm

SQRT_PI = math.sqrt(math.pi)


def test_horizon_positive_for_vanishing_data():
    p = Params(chi=1, a=1, b=1, lam=1, mu=1, dim=1)
    T = local_horizon(1e-12, p, 1 / SQRT_PI, 1 / SQRT_PI)
    assert T > 0.0


def test_horizon_quadratic_root_value():
    # frozen from the quadratic-in-sqrt(T) oracle:
    # 5 T + (6/sqrt(pi)) sqrt(T) = 0.9  =>  T = 0.041717712743168
    p = Params(chi=1, a=1, b=1, lam=1, mu=1, dim=1)
    T = local_horizon(1.0, p, 1 / SQRT_PI, 1 / SQRT_PI)
    assert T == pytest.approx(0.04171771274316764, rel=1e-12)
    # substitution residual: the contraction condition holds with equality
    lhs = 4 * (1 / SQRT_PI) * math.sqrt(T) + (1 + 1 + 2) * T + T + 2 * (1 / SQRT_PI) * math.sqrt(T)
    assert lhs == pytest.approx(0.9, abs=1e-12)


def test_horizon_strictly_decreasing_in_radius():
    p = Params(chi=1, a=1, b=1, lam=1, mu=1, dim=1)
    horizons = [local_horizon(R, p, 1 / SQRT_PI, 1 / SQRT_PI) for R in (0.5, 1.0, 2.0, 4.0)]
    assert all(t1 > t2 for t1, t2 in zip(horizons, horizons[1:]))


def test_horizon_rejects_nonpositive_radius():
    p = Params(chi=1, a=1, b=1, lam=1, mu=1, dim=1)
    with pytest.raises(InvalidParameterError):
        local_horizon(0.0, p, 1.0, 1.0)


def make_homogeneous_state(c_u: float, c_v: float, points: int = 16) -> SimState:
    p = Params(chi=1, a=1, b=1, lam=1, mu=1, dim=1)
    grid = Grid(dim=1, extent=2 * np.pi, points=points)
    return SimState(
        t=0.0, u=Field(grid, np.full(points, c_u)), v=Field(grid, np.full(points, c_v)), params=p
    )


def test_zero_data_is_a_fixed_point():
    state = make_homogeneous_state(0.0, 0.0)
    plan = SemigroupPlan(state.grid)
    result = picard_solve(state, 0.02, PicardConfig(quad_nodes=16), plan)
    for s in result.states:
        assert np.abs(s.u.values).max() == 0.0
        assert np.abs(s.v.values).max() == 0.0


def test_homogeneous_data_matches_scalar_ode_oracle():
    # independent oracle: logistic closed form for u, stiff ODE solve for v
    c = 0.5
    p = Params(chi=1, a=1, b=1, lam=1, mu=1, dim=1)
    state = make_homogeneous_state(c, p.mu * c / p.lam)
    T = 0.05
    plan = SemigroupPlan(state.grid)
    result = picard_solve(state, T, PicardConfig(quad_nodes=1024, tol=1e-12), plan)
    u_exact = p.a * c / (p.b * c + (p.a - p.b * c) * math.exp(-p.a * T))
    sol = solve_ivp(
        lambda t, y: [y[0] * (p.a - p.b * y[0]), -p.lam * y[1] + p.mu * y[0]],
        [0.0, T],
        [c, p.mu * c / p.lam],
        rtol=1e-12,
        atol=1e-14,
    )
    final = result.states[-1]
    assert final.u.values[0] == pytest.approx(u_exact, abs=1e-6)
    assert final.u.values[0] == pytest.approx(sol.y[0][-1], abs=1e-6)
    assert final.v.values[0] == pytest.approx(sol.y[1][-1], abs=1e-6)


def test_homogeneous_data_stays_homogeneous():
    # the chemotaxis integral vanishes for spatially constant trajectories
    state = make_homogeneous_state(0.7, 0.3, points=32)
    plan = SemigroupPlan(state.grid)
    result = picard_solve(state, 0.03, PicardConfig(quad_nodes=64), plan)
    for s in result.states:
        assert s.u.values.max() - s.u.values.min() <= 1e-12
        assert s.v.values.max() - s.v.values.min() <= 1e-12


def make_wave_state(points: int = 128) -> SimState:
    p = Params(chi=1, a=1, b=1, lam=1, mu=1, dim=1)
    grid = Grid(dim=1, extent=2 * np.pi, points=points)
    x = grid.axis_coordinates()
    return SimState(
        t=0.0,
        u=Field(grid, 0.5 + 0.1 * np.cos(x)),
        v=Field(grid, np.full(points, 0.5)),
        params=p,
    )


def test_contraction_is_geometric():
    state = make_wave_state()
    plan = SemigroupPlan(state.grid)
    result = picard_solve(state, 0.02, PicardConfig(quad_nodes=128, tol=1e-11), plan)
    diffs = result.diffs
    for d_prev, d_next in zip(diffs, diffs[1:]):
        if d_prev <= 1e-9:
            break
        assert d_next / d_prev <= 0.9
    assert result.diffs[-1] <= 1e-11


def test_quadrature_refinement_is_first_order():
    # Richardson slope of the node-halving error must sit near one
    state = make_wave_state()
    T = 0.02
    outputs = []
    plan = SemigroupPlan(state.grid)
    for q in (64, 128, 256):
        res = picard_solve(state, T, PicardConfig(quad_nodes=q, tol=1e-12), plan)
        outputs.append(res.states[-1].u.values)
    e1 = np.abs(outputs[0] - outputs[1]).max()
    e2 = np.abs(outputs[1] - outputs[2]).max()
    slope = math.log2(e1 / e2)
    assert 0.8 <= slope <= 1.2


def test_horizon_certifies_the_solve():
    state = make_wave_state()
    plan = SemigroupPlan(state.grid)
    p = state.params
    R = max(np.abs(state.u.values).max(), c1_norm(plan, state.v))
    T = local_horizon(R, p, p.dim / SQRT_PI, 1 / SQRT_PI)
    result = picard_solve(state, T, PicardConfig(quad_nodes=128, tol=1e-10), plan)
    assert result.diffs[-1] <= 1e-10


def test_horizon_from_the_grid_constants_certifies_the_solve():
    # On 64 points the exact c_div = N c_grad is 1.86 times the continuum
    # N/sqrt(pi), so the horizon is shorter; the solve must contract there.
    state = make_wave_state(points=64)
    plan = SemigroupPlan(state.grid)
    p = state.params
    cal = CalibrationConstants.for_params(p, c_grad=measure_gradient_constant(plan))
    R = max(np.abs(state.u.values).max(), c1_norm(plan, state.v))
    T = local_horizon(R, p, cal.c_div, cal.c_grad)
    assert T < local_horizon(R, p, p.dim / SQRT_PI, 1 / SQRT_PI)
    result = picard_solve(state, T, PicardConfig(quad_nodes=128, tol=1e-10), plan)
    assert result.diffs[-1] <= 1e-10


def test_contraction_failure_past_the_horizon():
    state = make_wave_state(points=64)
    plan = SemigroupPlan(state.grid)
    with pytest.raises(ContractionFailureError):
        picard_solve(state, 3.0, PicardConfig(quad_nodes=64, max_iter=40), plan)


def test_trajectory_timestamps():
    state = make_wave_state(points=64)
    plan = SemigroupPlan(state.grid)
    result = picard_solve(state, 0.02, PicardConfig(quad_nodes=16), plan)
    ts = [s.t for s in result.states]
    assert ts[0] == 0.0
    assert ts[-1] == pytest.approx(0.02)
    assert all(t2 > t1 for t1, t2 in zip(ts, ts[1:]))


def _etd1_nodes(state: SimState, T: float, q: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Unmasked ETD1 recurrence at step T/q: the fixed point of the left-node
    Duhamel quadrature, node by node."""
    plan = SemigroupPlan(state.grid)
    p = state.params
    prop = plan.multiplier(T / q, p.lam)
    phi = plan.phi1(T / q, p.lam)
    u_hat = plan.to_spectral(state.u.values)
    v_hat = plan.to_spectral(state.v.values)
    nodes = [(state.u.values, state.v.values)]
    for _ in range(q):
        u = plan.to_physical(u_hat)
        n_hat = nonlinear_hat(plan, p, np.stack((u, *plan.grad(v_hat))))[0]
        u_hat, v_hat = prop * u_hat + phi * n_hat, prop * v_hat + phi * (p.mu * u_hat)
        nodes.append((plan.to_physical(u_hat), plan.to_physical(v_hat)))
    return nodes


def make_wave_state_2d(points: int = 16) -> SimState:
    p = Params(chi=1, a=1, b=1, lam=1, mu=1, dim=2)
    grid = Grid(dim=2, extent=2 * np.pi, points=points)
    x, y = np.meshgrid(grid.axis_coordinates(), grid.axis_coordinates(), indexing="ij")
    return SimState(
        t=0.0,
        u=Field(grid, 0.5 + 0.1 * np.cos(x) * np.cos(2 * y)),
        v=Field(grid, 0.5 + 0.1 * np.sin(x + y)),
        params=p,
    )


@pytest.mark.parametrize(
    "state, q",
    [
        (make_wave_state(points=64), 40),
        (make_wave_state_2d(), 32),
        (make_wave_state(points=512), 100),
    ],
    ids=["1d-64", "2d-16", "1d-512-partial-block"],
)
def test_every_node_matches_the_etd1_recurrence(state, q):
    # At 512 points the nodes are transformed in blocks of 64, so q = 100
    # leaves a partial last block and the recurrence crosses a block boundary.
    T = 0.02
    plan = SemigroupPlan(state.grid)
    result = picard_solve(state, T, PicardConfig(quad_nodes=q, tol=1e-12), plan)
    reference = _etd1_nodes(state, T, q)
    assert len(result.states) == len(reference) == q + 1
    worst = max(
        max(np.abs(s.u.values - u).max(), np.abs(s.v.values - v).max())
        for s, (u, v) in zip(result.states, reference)
    )
    assert worst <= 1e-11
