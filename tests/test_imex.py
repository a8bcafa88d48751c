from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.linalg

from chemotaxis_lab import (
    DivergenceError,
    Field,
    Grid,
    Params,
    PositivityViolationError,
    SemigroupPlan,
    SimState,
    StepControl,
    cfl_dt,
    integrate,
    step,
)
from chemotaxis_lab.harness import DiagnosticsRecord


def make_state(params, u_values, v_values, points=64, extent=2 * np.pi):
    grid = Grid(dim=params.dim, extent=extent, points=points)
    shape = grid.shape
    u = np.broadcast_to(np.asarray(u_values, dtype=float), shape)
    v = np.broadcast_to(np.asarray(v_values, dtype=float), shape)
    return SimState(t=0.0, u=Field(grid, u), v=Field(grid, v), params=params)


def test_cfl_formula_reaction_limited():
    # homogeneous state: grad v = 0, so dt = 0.5*min(0.1, huge, 1/3) = 0.05
    p = Params(chi=1, a=1, b=1, lam=1, mu=1, dim=1)
    s = make_state(p, 1.0, 1.0)
    ctl = StepControl(dt_max=0.1, t_end=1.0, record_every=0.5, cfl_safety=0.5)
    assert cfl_dt(s, ctl) == pytest.approx(0.05, rel=1e-12)


def test_cfl_advective_term_is_reciprocal():
    p = Params(chi=1, a=1, b=1, lam=1, mu=1, dim=1)
    grid = Grid(dim=1, extent=2 * np.pi, points=64)
    x = grid.axis_coordinates()
    ctl = StepControl(dt_max=10.0, t_end=1.0, record_every=0.5, cfl_safety=1.0)
    dts = []
    for amplitude in (1.0, 2.0):
        s = SimState(
            t=0.0,
            u=Field(grid, np.full(64, 1e-9)),
            v=Field(grid, amplitude * np.sin(x)),
            params=p,
        )
        dts.append(cfl_dt(s, ctl))
    assert dts[0] == pytest.approx(2.0 * dts[1], rel=1e-9)


def test_cfl_ceiling_selected_when_smallest():
    p = Params(chi=1, a=1, b=1, lam=1, mu=1, dim=1)
    s = make_state(p, 1e-9, 0.0)
    ctl = StepControl(dt_max=1e-4, t_end=1.0, record_every=0.5, cfl_safety=1.0)
    assert cfl_dt(s, ctl) == pytest.approx(1e-4, rel=1e-12)


def test_steady_state_is_fixed_up_to_step_bias():
    # ETD1 integrates the propagator exactly over the step, so the
    # homogeneous equilibrium is a fixed point of one step of any size:
    # e^{-lam dt} u* + (1 - e^{-lam dt})/lam * lam u* = u*, up to roundoff
    p = Params(chi=1, a=1, b=1, lam=1, mu=1, dim=1)
    s = make_state(p, p.steady_u, p.steady_v)
    for dt in (5e-4, 1e-2, 0.1):
        stepped = step(s, dt)
        for attr in ("u", "v"):
            drift = getattr(stepped, attr).values - getattr(s, attr).values
            assert np.abs(drift).max() <= 1e-14


def test_chi_zero_reduces_to_logistic():
    # closed form u(t) = a c e^{at} / (a + b c (e^{at} - 1)); the scheme is
    # first order so dt = 2e-4 holds the t = 1 error below 1e-4
    p = Params(chi=1e-300, a=1, b=1, lam=1, mu=1, dim=1)
    c = 0.5
    s = make_state(p, c, 0.5)
    ctl = StepControl(dt_max=2e-4, t_end=1.0, record_every=0.5, cfl_safety=1.0)
    final = integrate(s, ctl)
    expected = p.a * c / (p.b * c + (p.a - p.b * c) * math.exp(-p.a * 1.0))
    assert expected == pytest.approx(0.7310585786300049, rel=1e-12)
    assert np.abs(final.u.values - expected).max() <= 1e-4


def test_zero_density_invariant_subspace():
    p = Params(chi=1, a=1, b=1, lam=1, mu=1, dim=1)
    s = make_state(p, 0.0, 0.8)
    ctl = StepControl(dt_max=1e-2, t_end=2.0, record_every=1.0, cfl_safety=1.0)
    final = integrate(s, ctl)
    assert final.u.sup_abs() == 0.0
    assert final.v.values == pytest.approx(0.8 * math.exp(-p.lam * 2.0), rel=1e-12)


def test_positivity_violation_raises_with_time():
    # strong outward flux on a tiny density: one oversized step undershoots
    p = Params(chi=5, a=1, b=1, lam=1, mu=1, dim=1)
    grid = Grid(dim=1, extent=2 * np.pi, points=64)
    x = grid.axis_coordinates()
    s = SimState(
        t=0.0,
        u=Field(grid, np.full(64, 0.01)),
        v=Field(grid, 5.0 * np.cos(x)),
        params=p,
    )
    with pytest.raises(PositivityViolationError) as info:
        step(s, 0.2)
    assert info.value.t == pytest.approx(0.2)
    assert info.value.min_value < 0


def test_divergence_error_reports_time():
    # oversized steps with the undershoot guard lifted: the quadratic sink
    # drives the density through negative runaway into non-finite values
    p = Params(chi=1, a=1, b=5, lam=1, mu=1, dim=1)
    grid = Grid(dim=1, extent=2 * np.pi, points=64)
    x = grid.axis_coordinates()
    s = SimState(
        t=0.0,
        u=Field(grid, 1000.0 + 10.0 * np.cos(x)),
        v=Field(grid, np.ones(64)),
        params=p,
    )
    with pytest.raises(DivergenceError) as info, np.errstate(over="ignore", invalid="ignore"):
        for _ in range(50):
            s = step(s, 1.0, neg_tol=np.inf)
    assert info.value.t > 0


def test_step_halving_is_first_order():
    p = Params(chi=1, a=1, b=1, lam=1, mu=1, dim=1)
    grid = Grid(dim=1, extent=2 * np.pi, points=128)
    x = grid.axis_coordinates()
    s = SimState(
        t=0.0,
        u=Field(grid, 0.8 + 0.2 * np.sin(x)),
        v=Field(grid, np.full(128, 0.8)),
        params=p,
    )
    finals = []
    for dt in (2e-3, 1e-3, 5e-4):
        ctl = StepControl(dt_max=dt, t_end=0.25, record_every=0.25, cfl_safety=1.0)
        finals.append(integrate(s, ctl).u.values)
    e1 = np.abs(finals[0] - finals[1]).max()
    e2 = np.abs(finals[1] - finals[2]).max()
    slope = math.log2(e1 / e2)
    assert 0.8 <= slope <= 1.2


def test_records_start_at_zero_and_increase():
    p = Params(chi=1, a=1, b=1, lam=1, mu=1, dim=1)
    s = make_state(p, 0.5, 0.5)
    ctl = StepControl(dt_max=1e-2, t_end=1.0, record_every=0.3, cfl_safety=1.0)
    records: list[DiagnosticsRecord] = []
    integrate(s, ctl, records.append)
    ts = [r.t for r in records]
    assert ts[0] == 0.0
    assert ts[-1] == pytest.approx(1.0)
    assert all(t2 > t1 for t1, t2 in zip(ts, ts[1:]))


def test_integration_is_deterministic():
    p = Params(chi=1, a=1, b=1, lam=1, mu=1, dim=1)
    grid = Grid(dim=1, extent=2 * np.pi, points=128)
    rng_values = np.random.default_rng(99).uniform(0.1, 2.0, 128)
    runs = []
    for _ in range(2):
        s = SimState(
            t=0.0, u=Field(grid, rng_values), v=Field(grid, np.ones(128)), params=p
        )
        ctl = StepControl(dt_max=5e-3, t_end=2.0, record_every=0.5)
        records: list[DiagnosticsRecord] = []
        final = integrate(s, ctl, records.append)
        runs.append((final, records))
    assert np.array_equal(runs[0][0].u.values, runs[1][0].u.values)
    assert runs[0][1] == runs[1][1]


def test_long_run_converges_to_equilibrium():
    # 0.8 + 0.2 sin(x) relaxes to the equilibrium density one
    p = Params(chi=1, a=1, b=1, lam=1, mu=1, dim=1)
    grid = Grid(dim=1, extent=2 * np.pi, points=128)
    x = grid.axis_coordinates()
    s = SimState(
        t=0.0,
        u=Field(grid, 0.8 + 0.2 * np.sin(x)),
        v=Field(grid, np.full(128, 0.8)),
        params=p,
    )
    # the equilibrium is a fixed point of every ETD1 step, so after t = 50
    # (decay ~ t e^{-t}) only roundoff separates the state from it
    ctl = StepControl(dt_max=1e-3, t_end=50.0, record_every=5.0, cfl_safety=1.0)
    final = integrate(s, ctl)
    assert np.abs(final.u.values - 1.0).max() <= 1e-12


def test_near_threshold_run_stays_bounded():
    # b = 0.3 sits just above the existence threshold N*mu*chi/4 = 0.25;
    # the run must complete with tail sup u below 4a/(4b - N*mu*chi) = 20
    # plus five percent
    p = Params(chi=1, a=1, b=0.3, lam=1, mu=1, dim=1)
    grid = Grid(dim=1, extent=2 * np.pi, points=128)
    x = grid.axis_coordinates()
    s = SimState(
        t=0.0,
        u=Field(grid, 1.0 + 0.5 * np.cos(x)),
        v=Field(grid, np.ones(128)),
        params=p,
    )
    ctl = StepControl(dt_max=5e-3, t_end=40.0, record_every=0.5, cfl_safety=0.5)
    records: list[DiagnosticsRecord] = []
    integrate(s, ctl, records.append)
    tail = [r.sup_u for r in records if r.t >= 20.0]
    assert max(tail) <= 20.0 * 1.05


def test_lyapunov_comparison_bound_along_run():
    # sup[u/chi + |grad v|^2/(2 mu)] never exceeds max(initial, plateau) by
    # more than five percent when b > N*mu*chi/4
    p = Params(chi=1, a=1, b=1, lam=1, mu=1, dim=1)
    grid = Grid(dim=1, extent=2 * np.pi, points=128)
    values = np.random.default_rng(5).uniform(0.1, 2.0, 128)
    s = SimState(t=0.0, u=Field(grid, values), v=Field(grid, np.ones(128)), params=p)
    ctl = StepControl(dt_max=5e-3, t_end=10.0, record_every=0.25, cfl_safety=0.5)
    records: list[DiagnosticsRecord] = []
    integrate(s, ctl, records.append)
    plateau = (2 * p.lam + p.a) ** 2 / (2 * p.lam * p.chi * (4 * p.b - p.dim * p.mu * p.chi))
    ceiling = max(records[0].lyapunov_sup, plateau) * 1.05
    assert max(r.lyapunov_sup for r in records) <= ceiling


def test_integrate_in_two_phases_matches_single_phase_records():
    p = Params(chi=1, a=1, b=1, lam=1, mu=1, dim=1)
    grid = Grid(dim=1, extent=2 * np.pi, points=64)
    x = grid.axis_coordinates()

    def fresh():
        return SimState(
            t=0.0,
            u=Field(grid, 0.5 + 0.1 * np.cos(x)),
            v=Field(grid, np.full(64, 0.5)),
            params=p,
        )

    single: list[DiagnosticsRecord] = []
    integrate(fresh(), StepControl(dt_max=1e-3, t_end=1.0, record_every=0.25), single.append)

    phased: list[DiagnosticsRecord] = []
    mid = integrate(
        fresh(), StepControl(dt_max=1e-3, t_end=0.5, record_every=0.25), phased.append
    )
    continued: list[DiagnosticsRecord] = []
    integrate(mid, StepControl(dt_max=1e-3, t_end=1.0, record_every=0.25), continued.append)
    assert continued[0].t == mid.t
    phased += continued[1:]  # the continued run's start record repeats mid
    assert [r.t for r in single] == [r.t for r in phased]
    # the phase boundary re-synthesises the spectral state from physical
    # values, so agreement is to roundtrip roundoff, not bitwise
    for a, b in zip(single, phased):
        for name in DiagnosticsRecord.FIELDS:
            assert getattr(a, name) == pytest.approx(getattr(b, name), rel=1e-10, abs=1e-12)


def test_single_mode_follows_the_linearised_system():
    # a small cos x perturbation of u about (a/b, mu a/(lam b)) evolves with
    # the linearisation: for the k = 1 amplitudes (U, V) of u and v,
    #   U' = (-1 - a) U + chi (a/b) V,   V' = mu U + (-1 - lam) V,
    # where chi (a/b) V is the chemotactic flux -chi div(u* grad v)
    p = Params(chi=1.0, a=1.0, b=1.0, lam=1.0, mu=1.0, dim=1)
    eps, T = 1e-6, 1.0
    grid = Grid(dim=1, extent=2 * np.pi, points=32)
    x = grid.axis_coordinates()
    s0 = make_state(p, p.steady_u + eps * np.cos(x), p.steady_v, points=32)
    ctl = StepControl(dt_max=1e-3, t_end=T, record_every=T, cfl_safety=1.0)
    u_T = integrate(s0, ctl).u.values
    amplitude = 2.0 * np.mean((u_T - p.steady_u) * np.cos(x))
    M = np.array([[-1.0 - p.a, p.chi * p.steady_u], [p.mu, -1.0 - p.lam]])
    expected = (scipy.linalg.expm(M * T) @ np.array([eps, 0.0]))[0]
    assert abs(amplitude - expected) < 1e-3 * eps
