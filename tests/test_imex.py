from __future__ import annotations

import math
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as hs

from chemotaxis_lab import (
    DivergenceError,
    Field,
    Grid,
    InvalidParameterError,
    Params,
    PicardConfig,
    PositivityViolationError,
    SemigroupPlan,
    SimState,
    StepControl,
    integrate,
    picard_solve,
)
from chemotaxis_lab import imex, spectral
from chemotaxis_lab.harness import DiagnosticsRecord
from chemotaxis_lab.imex import (
    ADVECTION_FLOOR,
    _Coefficients,
    _state_error,
    _step_bound,
    _Stepper,
    nonlinear_hat,
)
from chemotaxis_lab.spectral import sum_of_squares
from conftest import bits


def make_state(params, u_values, v_values, points=64, extent=2 * np.pi):
    grid = Grid(dim=params.dim, extent=extent, points=points)
    shape = grid.shape
    u = np.broadcast_to(np.asarray(u_values, dtype=float), shape)
    v = np.broadcast_to(np.asarray(v_values, dtype=float), shape)
    return SimState(t=0.0, u=Field(grid, u), v=Field(grid, v), params=params)


def cfl(s, ctl):
    """The step bound integrate computes at state s: the CFL formula on
    sup|grad v| from v's spectrum and sup u."""
    plan = SemigroupPlan(s.grid)
    grad_sq = sum_of_squares(plan.grad(plan.to_spectral(s.v.values)), out=np.empty(s.grid.shape))
    return _step_bound(s.params, s.grid.spacing, ctl)(float(grad_sq.max()), s.u.sup())


def fixed_steps(s, dt, steps, neg_tol):
    """``steps`` steps of size dt from s, each the two calls integrate makes
    per step (advance, then _state_error), without its step control."""
    plan = SemigroupPlan(s.grid)
    st = _Stepper(plan, s.params, s.u.values, plan.to_spectral(s.v.values))
    t = s.t
    for _ in range(steps):
        st.advance([dt])
        t += dt
        error = _state_error(float(st.stack[0].min()), t, neg_tol)
        if error is not None:
            raise error


def _per_field_steps(plan, p, u, v, dts, mask):
    """The ETD1 step written field by field, as the reference for the stacked
    step: the reaction and each flux product transformed on their own,
    the divergence summed from zero, the weights zeroed off the boolean
    ``mask``, and u and each component of grad v transformed back on their
    own.  Yields (u, grad v, u_hat, v_hat) after each step."""
    u_hat = plan.to_spectral(u)
    v_hat = plan.to_spectral(v)
    vx = [plan.to_physical(ik * v_hat, overwrite=True) for ik in plan.ik]
    for dt in dts:
        n_hat = plan.to_spectral(u * (p.a + p.lam - p.b * u))
        flux_hat = np.zeros(plan.spectral_shape, dtype=np.complex128)
        for ik, comp in zip(plan.ik, vx):
            flux_hat += ik * plan.to_spectral(u * comp)
        flux_hat *= p.chi
        n_hat -= flux_hat
        prop = plan.multiplier(dt, p.lam) * mask
        phi = plan.phi1(dt, p.lam) * mask
        n_hat *= phi
        u_hat_new = u_hat * prop
        u_hat_new += n_hat
        v_hat_new = v_hat * prop
        v_hat_new += (p.mu * phi) * u_hat
        u_hat, v_hat = u_hat_new, v_hat_new
        u = plan.to_physical(u_hat)
        vx = [plan.to_physical(ik * v_hat, overwrite=True) for ik in plan.ik]
        yield u, vx, u_hat, v_hat


STACK_GRIDS = [
    Grid(dim=1, extent=2 * np.pi, points=64),
    Grid(dim=2, extent=2 * np.pi, points=32),
    Grid(dim=3, extent=2 * np.pi, points=16),
]


@pytest.mark.parametrize("v_kind", ["random", "constant"])
@pytest.mark.parametrize("grid", STACK_GRIDS, ids=lambda g: f"{g.dim}d-{g.points}")
def test_stacked_step_equals_the_per_field_step_bit_for_bit(grid, v_kind):
    # Three steady steps, one short record-boundary step (uncached weights)
    # a few ulps off the steady one, and one more steady step.  A constant v
    # starts from a gradient of signed zeros and roundoff.
    p = Params(chi=1.3, a=1.1, b=0.7, lam=0.9, mu=1.2, dim=grid.dim)
    plan = SemigroupPlan(grid)
    rng = np.random.default_rng(31)
    u = rng.uniform(0.1, 2.0, grid.shape)
    v = rng.uniform(0.1, 2.0, grid.shape) if v_kind == "random" else np.full(grid.shape, 0.7)
    dt = 1e-2
    dts = [dt, dt, dt, dt * (1.0 - 4e-16), dt]
    assert dts[3] != dt
    # The stepper keeps the 2/3 band alone: its spectra are the reference's
    # band entries, and the reference's other entries are zero.
    keep = grid.points // 3
    band = np.ix_(
        *[np.abs(np.fft.fftfreq(grid.points, 1.0 / grid.points)) <= keep] * (grid.dim - 1),
        np.arange(grid.points // 2 + 1) <= keep,
    )
    mask = np.zeros(plan.spectral_shape, bool)
    mask[band] = True
    st = _Stepper(plan, p, u, plan.to_spectral(v))
    reference = _per_field_steps(plan, p, u, v, dts, mask)
    for step, (dt_step, (ref_u, ref_vx, ref_u_hat, ref_v_hat)) in enumerate(zip(dts, reference)):
        st.advance([dt_step], cache=dt_step == dt)
        assert np.array_equal(bits(st.stack[0]), bits(ref_u)), step
        for row, ref_row in zip(st.stack[1:], ref_vx):
            assert np.array_equal(bits(row), bits(ref_row)), step
        assert np.array_equal(bits(st.u_hat), bits(ref_u_hat[band])), step
        assert np.array_equal(bits(st.v_hat), bits(ref_v_hat[band])), step
        for ref_hat in (ref_u_hat, ref_v_hat):
            outside = ref_hat.copy()
            outside[band] = 0.0
            assert not outside.any(), step


def test_cfl_formula_reaction_limited():
    # homogeneous state: grad v = 0, so dt = 0.5*min(0.1, huge, 1/3) = 0.05
    p = Params(chi=1, a=1, b=1, lam=1, mu=1, dim=1)
    s = make_state(p, 1.0, 1.0)
    ctl = StepControl(dt_max=0.1, t_end=1.0, record_every=0.5, cfl_safety=0.5)
    assert cfl(s, ctl) == pytest.approx(0.05, rel=1e-12)


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
        dts.append(cfl(s, ctl))
    assert dts[0] == pytest.approx(2.0 * dts[1], rel=1e-9)


def test_cfl_ceiling_selected_when_smallest():
    p = Params(chi=1, a=1, b=1, lam=1, mu=1, dim=1)
    s = make_state(p, 1e-9, 0.0)
    ctl = StepControl(dt_max=1e-4, t_end=1.0, record_every=0.5, cfl_safety=1.0)
    assert cfl(s, ctl) == pytest.approx(1e-4, rel=1e-12)


def test_steady_state_is_fixed_up_to_step_bias():
    # ETD1 integrates the propagator exactly over the step, so the
    # homogeneous equilibrium is a fixed point of one step of any size:
    # e^{-lam dt} u* + (1 - e^{-lam dt})/lam * lam u* = u*, up to roundoff.
    # grad v = 0 and the reactive limit is 1/3, so dt_max sets the one step.
    p = Params(chi=1, a=1, b=1, lam=1, mu=1, dim=1)
    s = make_state(p, p.steady_u, p.steady_v)
    for dt in (5e-4, 1e-2, 0.1):
        ctl = StepControl(dt_max=dt, t_end=dt, record_every=dt, cfl_safety=1.0)
        stepped = integrate(s, ctl, [].append, plan=SemigroupPlan(s.grid))
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
    final = integrate(s, ctl, [].append, plan=SemigroupPlan(s.grid))
    expected = p.a * c / (p.b * c + (p.a - p.b * c) * math.exp(-p.a * 1.0))
    assert expected == pytest.approx(0.7310585786300049, rel=1e-12)
    assert np.abs(final.u.values - expected).max() <= 1e-4


def test_zero_density_invariant_subspace():
    p = Params(chi=1, a=1, b=1, lam=1, mu=1, dim=1)
    s = make_state(p, 0.0, 0.8)
    ctl = StepControl(dt_max=1e-2, t_end=2.0, record_every=1.0, cfl_safety=1.0)
    final = integrate(s, ctl, [].append, plan=SemigroupPlan(s.grid))
    assert np.abs(final.u.values).max() == 0.0
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
        fixed_steps(s, 0.2, 1, neg_tol=1e-8)
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
        fixed_steps(s, 1.0, 50, neg_tol=np.inf)
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
        finals.append(integrate(s, ctl, [].append, plan=SemigroupPlan(grid)).u.values)
    e1 = np.abs(finals[0] - finals[1]).max()
    e2 = np.abs(finals[1] - finals[2]).max()
    slope = math.log2(e1 / e2)
    assert 0.8 <= slope <= 1.2


def test_records_start_at_zero_and_increase():
    p = Params(chi=1, a=1, b=1, lam=1, mu=1, dim=1)
    s = make_state(p, 0.5, 0.5)
    ctl = StepControl(dt_max=1e-2, t_end=1.0, record_every=0.3, cfl_safety=1.0)
    records: list[DiagnosticsRecord] = []
    integrate(s, ctl, records.append, plan=SemigroupPlan(s.grid))
    ts = [r.t for r in records]
    assert ts[0] == 0.0
    assert ts[-1] == pytest.approx(1.0)
    assert all(t2 > t1 for t1, t2 in zip(ts, ts[1:]))


def test_step_weights_are_rebuilt_at_most_once_per_record_interval(monkeypatch):
    # Each record interval ends on a short step a few ulps off dt_max; the
    # steady step's weights must survive it, or every interval builds twice.
    built = []
    phi1 = SemigroupPlan.phi1

    def counted(self, t, sigma, **kwargs):
        built.append(t)
        return phi1(self, t, sigma, **kwargs)

    monkeypatch.setattr(SemigroupPlan, "phi1", counted)
    p = Params(chi=1, a=1, b=10, lam=1, mu=1, dim=1)
    s = make_state(p, np.random.default_rng(98).uniform(0.03, 0.07, 64), 0.05)
    ctl = StepControl(dt_max=1e-3, t_end=2.0, record_every=0.25, cfl_safety=1.0)
    records: list[DiagnosticsRecord] = []
    integrate(s, ctl, records.append, plan=SemigroupPlan(s.grid))
    intervals = len(records) - 1
    assert len(built) <= intervals + 1


@pytest.mark.parametrize("grid", STACK_GRIDS, ids=lambda g: f"{g.dim}d-{g.points}")
def test_integrate_makes_one_forward_and_one_inverse_transform_per_step(grid, monkeypatch):
    # Start-up: u and v forward, each component of grad v inverse.  The first
    # record adds lap v (v is the input); every later record adds v and lap v.
    calls = {"to_spectral": 0, "to_physical": 0}
    for name in calls:
        transform = getattr(SemigroupPlan, name)

        def counted(self, *args, _name=name, _transform=transform, **kwargs):
            calls[_name] += 1
            return _transform(self, *args, **kwargs)

        monkeypatch.setattr(SemigroupPlan, name, counted)
    steps = []
    advance = _Stepper.advance

    def counted_advance(self, dts, **kwargs):
        steps.append(dts)
        return advance(self, dts, **kwargs)

    monkeypatch.setattr(_Stepper, "advance", counted_advance)
    p = Params(chi=1, a=1, b=1, lam=1, mu=1, dim=grid.dim)
    rng = np.random.default_rng(32)
    s = SimState(
        t=0.0,
        u=Field(grid, rng.uniform(0.1, 2.0, grid.shape)),
        v=Field(grid, rng.uniform(0.9, 1.1, grid.shape)),
        params=p,
    )
    ctl = StepControl(dt_max=1e-2, t_end=0.1, record_every=0.05, cfl_safety=1.0)
    records: list[DiagnosticsRecord] = []
    integrate(s, ctl, records.append, plan=SemigroupPlan(grid))
    assert len(records) == 3 and len(steps) >= 10
    assert calls["to_spectral"] == 2 + len(steps)
    assert calls["to_physical"] == grid.dim + 1 + 2 * (len(records) - 1) + len(steps)


def _memory_run(grid, seed):
    p = Params(chi=1, a=1, b=1, lam=1, mu=1, dim=grid.dim)
    s = SimState(
        t=0.0,
        u=Field(grid, np.random.default_rng(seed).uniform(0.1, 2.0, grid.shape)),
        v=Field(grid, np.ones(grid.shape)),
        params=p,
    )
    return s, StepControl(dt_max=1e-2, t_end=0.05, record_every=0.05, cfl_safety=0.5)


GRID_32_3 = Grid(dim=3, extent=2 * np.pi, points=32)


def _on_cpus(monkeypatch, cpus: int) -> None:
    """Let the band transforms' thread count read ``cpus`` usable CPUs."""
    monkeypatch.setattr(spectral, "usable_cpus", lambda: cpus)


def _undershooting_state(chi: float = 10.0) -> SimState:
    """A 32^3 state whose strong chemotaxis (chi = 10) drives u below zero
    at t ~ 0.32, between the records at 0.25 and 0.5 of
    :data:`_UNDERSHOOT_CONTROL`."""
    x, y, z = GRID_32_3.coordinate_arrays()
    profile = Field(GRID_32_3, 1.0 + 0.5 * np.cos(x) * np.cos(y) * np.cos(z))
    params = Params(chi=chi, a=1, b=1, lam=1, mu=1, dim=3)
    return SimState(t=0.0, u=profile, v=profile, params=params)


_UNDERSHOOT_CONTROL = StepControl(dt_max=0.05, t_end=1.0, record_every=0.25, cfl_safety=0.5)


def test_integrate_leaves_no_thread_running(monkeypatch):
    # A 32^3 run shares each step's pointwise phases and band transforms
    # with a helper thread (given two CPUs, here patched so), which
    # integrate stops when the run ends: at t_end, or on an undershoot
    # mid-run.
    _on_cpus(monkeypatch, 2)
    s, ctl = _memory_run(GRID_32_3, 34)
    before = threading.active_count()
    records: list[DiagnosticsRecord] = []
    integrate(s, ctl, records.append, plan=SemigroupPlan(GRID_32_3))
    assert len(records) == 2
    assert threading.active_count() == before
    records.clear()
    plan = SemigroupPlan(GRID_32_3)
    with pytest.raises(PositivityViolationError) as stopped:
        integrate(_undershooting_state(), _UNDERSHOOT_CONTROL, records.append, plan=plan)
    assert 0.25 < stopped.value.t < 0.5 and len(records) == 2
    assert threading.active_count() == before


def _started_helpers(monkeypatch) -> list:
    """A list of the helper threads started from now on."""
    started = []

    class Counted(spectral.Helper):
        __slots__ = ()

        def __init__(self):
            started.append(self)
            super().__init__()

    monkeypatch.setattr(imex, "Helper", Counted)
    return started


def _run_bits(s0, ctl, plan):
    """A run's (or a block's) records and ends as bits: each member's
    records, then its end time and u and v, or its error."""
    if isinstance(s0, SimState):
        runs = [_run_alone(s0, ctl, plan)]
    else:
        sinks = [[] for _ in s0]
        runs = zip(sinks, integrate(s0, ctl, [r.append for r in sinks], plan=plan))
    result = []
    for records, end in runs:
        if isinstance(end, SimState):
            end = (end.t, bits(end.u.values).tolist(), bits(end.v.values).tolist())
        else:
            end = (type(end).__name__, str(end))
        result.append((_record_bits(records), end))
    return result


def _two_thread_cases():
    rng = np.random.default_rng(37)
    grid_2d = Grid(dim=2, extent=2 * np.pi, points=256)

    def state(grid, chi=1.0):
        return SimState(
            t=0.0,
            u=Field(grid, rng.uniform(0.1, 2.0, grid.shape)),
            v=Field(grid, rng.uniform(0.5, 1.5, grid.shape)),
            params=Params(chi=chi, a=1, b=1, lam=1, mu=1, dim=grid.dim),
        )

    steady = StepControl(dt_max=1e-2, t_end=0.1, record_every=0.05, cfl_safety=0.5)
    # dt_max is loose, so the CFL bounds, which differ with chi, set the
    # members' steps: the block leaves lockstep and members sit out
    loose = StepControl(dt_max=0.5, t_end=0.2, record_every=0.1, cfl_safety=0.5)
    block = [state(GRID_32_3, chi) for chi in (1.0, 3.0)]
    return {
        "32^3": (state(GRID_32_3), steady),
        "32^3-block-out-of-lockstep": (block, loose),
        "256^2": (state(grid_2d), steady),
    }


@pytest.mark.parametrize("case", ["32^3", "32^3-block-out-of-lockstep", "256^2"])
def test_the_step_on_two_threads_equals_the_step_on_one_bit_for_bit(case, monkeypatch):
    # Rows of 2^15 values and more: given two CPUs every pointwise phase of
    # a step runs on two halves of the grid's first axis, one per thread,
    # and the band transforms share the stack's rows.  Every operation is
    # elementwise or a max, so the records and ends equal those of one
    # thread (one usable CPU) bit for bit.
    s0, ctl = _two_thread_cases()[case]
    plan = SemigroupPlan(s0[0].grid if isinstance(s0, list) else s0.grid)
    started = _started_helpers(monkeypatch)
    steps = []
    advance = _Stepper.advance

    def counted_advance(self, dts, **kwargs):
        steps.append(list(dts))
        return advance(self, dts, **kwargs)

    monkeypatch.setattr(_Stepper, "advance", counted_advance)
    _on_cpus(monkeypatch, 1)
    one = _run_bits(s0, ctl, plan)
    assert started == []
    _on_cpus(monkeypatch, 2)
    two = _run_bits(s0, ctl, plan)
    assert len(started) == 1
    assert two == one
    if isinstance(s0, list):
        assert any(len(set(dts)) > 1 for dts in steps) and any(0.0 in dts for dts in steps)


def test_a_run_starts_one_helper_thread_not_one_per_transform(monkeypatch):
    # The helper is started with the stepper and kept for the run, through
    # its layouts: a 32^3 block whose chi = 10 member undershoots mid-run
    # (the others go on, laid out anew) starts one thread in all, where a
    # thread per two-thread call would start several a step.
    _on_cpus(monkeypatch, 2)
    starts = []
    start = threading.Thread.start

    def counted(self):
        starts.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counted)
    block = [_undershooting_state(chi) for chi in (1.0, 10.0)]
    plan = SemigroupPlan(GRID_32_3)
    ends = integrate(block, _UNDERSHOOT_CONTROL, [[].append, [].append], plan=plan)
    assert isinstance(ends[0], SimState) and isinstance(ends[1], PositivityViolationError)
    assert len(starts) == 1


def test_an_error_in_the_helpers_half_of_a_phase_reaches_the_caller(monkeypatch):
    # The update phase fails on the helper's half alone: the error is
    # raised in integrate's caller, and the helper is stopped.
    _on_cpus(monkeypatch, 2)
    bind_update = imex._bind_update

    def failing_on_the_helper(*arrays):
        update = bind_update(*arrays)

        def half(*args):
            if threading.current_thread() is not threading.main_thread():
                raise ValueError("the helper's half")
            return update(*args)

        return half

    monkeypatch.setattr(imex, "_bind_update", failing_on_the_helper)
    s, ctl = _memory_run(GRID_32_3, 35)
    before = threading.active_count()
    with pytest.raises(ValueError, match="the helper's half"):
        integrate(s, ctl, [].append, plan=SemigroupPlan(GRID_32_3))
    assert threading.active_count() == before


def test_integrate_peak_memory_is_bounded_by_its_array_inventory():
    # On 32^3, F is one field (256 KiB), S one half-complex spectrum
    # (17/16 F) and B one band spectrum (21 * 21 * 11 modes, 0.28 S).  Held
    # through the run: the fields [last_v | scratch | u | grad v] (row 0
    # takes -u after a step and the records' v, the scratch field
    # |grad v|^2; 6 F), [u_hat, v_hat] (2 B), the cached weights E and
    # [phi1, mu phi1] (3 complex band spectra, 3 B), the step's band spectra
    # (4 B) and the transforms' work (S): 6 F + S + 9 B.  A step adds at
    # most an uncached set of weights (3 B): 6 F + S + 12 B.  A record adds
    # lap v (F) and one reduction temporary (F): 8 F + S + 9 B.  The bound
    # is unchanged from real weights (1.5 B a set, so 6 F + S + 9 B for a
    # step and 8 F + S + 7.5 B for a record): the larger of the two plus
    # one field for small objects (numpy's 128 KiB ufunc buffer among
    # them), of which the complex weights take 1.5 B.  With two CPUs the
    # stack's transforms run on two threads (a 32^3 row holds 2^15 values),
    # and the helper thread's work spectrum (S) is held through the run too:
    # the bound is unchanged by it, the peak reads 12.1 F of its 12.3 F.
    # Full spectra for the
    # step's stack add 4 (S - B), a spent stack held through a step 4 F, a
    # record's v in a field of its own F, and a second set of complex
    # weights held beside the first 3 B; each takes the inventory past the
    # bound.
    grid = Grid(dim=3, extent=2 * np.pi, points=32)
    plan = SemigroupPlan(grid)
    s, ctl = _memory_run(grid, 33)
    field = 8 * grid.points**3
    spectrum = 16 * int(np.prod(plan.spectral_shape))
    band = 16 * int(np.prod(plan.band_shape))
    assert band <= 0.28 * spectrum
    step = 6 * field + spectrum + 9 * band
    record = 8 * field + spectrum + 7.5 * band
    bound = max(step, record) + field
    records: list[DiagnosticsRecord] = []
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        integrate(s, ctl, records.append, plan=plan)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert len(records) == 2
    assert peak <= bound


@pytest.mark.parametrize(
    "grid",
    [
        Grid(dim=1, extent=2 * np.pi, points=2**14),
        Grid(dim=2, extent=2 * np.pi, points=256),
        Grid(dim=3, extent=2 * np.pi, points=32),
    ],
    ids=lambda g: f"{g.dim}d-{g.points}",
)
def test_a_step_allocates_no_field_sized_array(grid, monkeypatch):
    # After the first step (which builds the cached weights), a loop
    # iteration, from the start of one step to the start of the next, steps,
    # checks positivity, forms |grad v|^2 and bounds the next step in the
    # stepper's buffers: its peak stays less than one field above its start,
    # and the fields, the stack, the scratch field, the state [u_hat, v_hat]
    # and its rows and the step's band spectra (in 1D a view of the
    # transforms' work) are the same arrays throughout.  One record
    # interval, so no record falls between two steps.  The fields (128, 512
    # and 256 KiB) are larger than numpy's float64 ufunc buffer (at most
    # 8192 values, 64 KiB of float64), which a broadcast product such as
    # stack[1:] *= stack[:1] may allocate.
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    rises, arrays = [], []
    level = []  # the traced memory at the start of the last step measured
    advance = _Stepper.advance

    def measured(self, dts, **kwargs):
        current, peak = tracemalloc.get_traced_memory()
        if level:
            rises.append(peak - level[0])
        if arrays:
            tracemalloc.reset_peak()
            level[:] = [current]
        arrays.append(
            (self.fields, self.stack, self.scratch, self.uv_hat, self.u_hat, self.v_hat, self._spec)
        )
        advance(self, dts, **kwargs)

    monkeypatch.setattr(_Stepper, "advance", measured)
    s, ctl = _memory_run(grid, 37)
    try:
        integrate(s, ctl, [].append, plan=SemigroupPlan(grid))
    finally:
        if not tracing:
            tracemalloc.stop()
    field = 8 * int(np.prod(grid.shape))
    assert len(rises) >= 5
    assert max(rises) < field, [rise / field for rise in rises]
    assert all(all(a is b for a, b in zip(held, arrays[0])) for held in arrays)


@pytest.mark.parametrize("grid", STACK_GRIDS, ids=lambda g: f"{g.dim}d-{g.points}")
def test_every_transform_bypasses_numpy_fft_dispatch(grid, monkeypatch):
    # The plan calls numpy's pocketfft kernels itself: np.fft's public
    # functions add 4-6 us of dispatch per call, a fifth of a 64-point
    # step's time.
    def refuse(*args, **kwargs):
        raise AssertionError("a transform went through numpy.fft's public API")

    for name in ("rfft", "fft", "ifft", "irfft", "rfftn", "irfftn"):
        monkeypatch.setattr(np.fft, name, refuse)
    p = Params(chi=1, a=1, b=1, lam=1, mu=1, dim=grid.dim)
    rng = np.random.default_rng(34)
    s = SimState(
        t=0.0,
        u=Field(grid, rng.uniform(0.5, 1.5, grid.shape)),
        v=Field(grid, rng.uniform(0.9, 1.1, grid.shape)),
        params=p,
    )
    plan = SemigroupPlan(grid)
    ctl = StepControl(dt_max=1e-2, t_end=0.05, record_every=0.025)
    records: list[DiagnosticsRecord] = []
    integrate(s, ctl, records.append, plan=plan)
    assert len(records) == 3
    result = picard_solve(s, 1e-3, PicardConfig(quad_nodes=4), plan)
    assert len(result.states) == 5


@pytest.mark.parametrize(
    "bad",
    [
        {"dt_max": math.nan},
        {"t_end": math.nan},
        {"t_end": math.inf},
        {"record_every": math.nan},
        {"cfl_safety": math.nan},
        {"neg_tol": math.nan},
    ],
    ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()),
)
def test_step_control_rejects_nan_and_an_infinite_t_end(bad):
    kwargs = {"dt_max": 0.01, "t_end": 1.0, "record_every": 0.5, **bad}
    with pytest.raises(InvalidParameterError):
        StepControl(**kwargs)


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
        final = integrate(s, ctl, records.append, plan=SemigroupPlan(grid))
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
    final = integrate(s, ctl, [].append, plan=SemigroupPlan(s.grid))
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
    integrate(s, ctl, records.append, plan=SemigroupPlan(s.grid))
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
    integrate(s, ctl, records.append, plan=SemigroupPlan(s.grid))
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

    plan = SemigroupPlan(grid)
    single: list[DiagnosticsRecord] = []
    ctl = StepControl(dt_max=1e-3, t_end=1.0, record_every=0.25)
    integrate(fresh(), ctl, single.append, plan=plan)

    phased: list[DiagnosticsRecord] = []
    half = StepControl(dt_max=1e-3, t_end=0.5, record_every=0.25)
    mid = integrate(fresh(), half, phased.append, plan=plan)
    continued: list[DiagnosticsRecord] = []
    integrate(mid, ctl, continued.append, plan=plan)
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
    u_T = integrate(s0, ctl, [].append, plan=SemigroupPlan(grid)).u.values
    amplitude = 2.0 * np.mean((u_T - p.steady_u) * np.cos(x))
    M = np.array([[-1.0 - p.a, p.chi * p.steady_u], [p.mu, -1.0 - p.lam]])
    expected = (scipy.linalg.expm(M * T) @ np.array([eps, 0.0]))[0]
    assert abs(amplitude - expected) < 1e-3 * eps


def _run_alone(s, ctl, plan):
    """A solo run's records and its final state, or the error it stopped on."""
    records: list[DiagnosticsRecord] = []
    try:
        end = integrate(s, ctl, records.append, plan=plan)
    except (DivergenceError, PositivityViolationError) as exc:
        end = exc
    return records, end


def _record_bits(records):
    return [bits(np.array([getattr(r, f) for f in DiagnosticsRecord.FIELDS])).tolist() for r in records]


BLOCK_GRIDS = [
    Grid(dim=1, extent=2 * np.pi, points=16),
    Grid(dim=2, extent=2 * np.pi, points=8),
]


@settings(max_examples=40, deadline=None)
@given(
    grid=hs.sampled_from(BLOCK_GRIDS),
    name=hs.sampled_from(["chi", "a", "b", "lam", "mu"]),
    values=hs.lists(hs.floats(0.2, 3.0), min_size=2, max_size=4),
    seed=hs.integers(0, 2**16),
)
def test_block_records_equal_the_solo_records_bit_for_bit(grid, name, values, seed):
    # dt_max is loose, so the advective and reactive limits set each
    # member's step: chi, a and b give the members different step
    # sequences, and members sit out the ends of record intervals
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.2, 1.5, grid.shape)
    v = rng.uniform(0.2, 1.5, grid.shape)
    base = {"chi": 1.0, "a": 1.0, "b": 1.0, "lam": 1.0, "mu": 1.0, "dim": grid.dim}
    states = [
        SimState(t=0.0, u=Field(grid, u), v=Field(grid, v), params=Params(**{**base, name: x}))
        for x in values
    ]
    ctl = StepControl(dt_max=0.2, t_end=0.3, record_every=0.1, cfl_safety=0.5)
    plan = SemigroupPlan(grid)
    block_records: list[list[DiagnosticsRecord]] = [[] for _ in states]
    ends = integrate(states, ctl, [r.append for r in block_records], plan=plan)
    for s, records, end in zip(states, block_records, ends):
        solo_records, solo_end = _run_alone(s, ctl, plan)
        assert _record_bits(records) == _record_bits(solo_records)
        if isinstance(solo_end, SimState):
            assert end.t == solo_end.t
            assert np.array_equal(bits(end.u.values), bits(solo_end.u.values))
            assert np.array_equal(bits(end.v.values), bits(solo_end.v.values))
        else:
            assert type(end) is type(solo_end) and str(end) == str(solo_end)


@pytest.mark.parametrize("overflowing", [0, 1])
def test_block_member_whose_step_bound_overflows_leaves_at_its_start(overflowing):
    # |grad v|^2 of a 1e155 cosine overflows to inf, so that member's CFL
    # bound is 0 and no step can advance it: it leaves with a divergence at
    # t = 0, and the other member's records and end equal its solo run's.
    grid = Grid(dim=1, extent=2 * np.pi, points=64)
    x = grid.axis_coordinates()
    p = Params(chi=1, a=1, b=1, lam=1, mu=1, dim=1)
    v = [np.full(grid.shape, 0.8) + 0.1 * np.cos(x), 2e155 + 1e155 * np.cos(x)]
    v.insert(overflowing, v.pop())
    u = Field(grid, np.ones(grid.shape))
    states = [SimState(t=0.0, u=u, v=Field(grid, row), params=p) for row in v]
    ctl = StepControl(dt_max=1e-2, t_end=0.3, record_every=0.1)
    plan = SemigroupPlan(grid)
    block_records: list[list[DiagnosticsRecord]] = [[], []]
    with np.errstate(over="ignore"):
        ends = integrate(states, ctl, [r.append for r in block_records], plan=plan)
        solo = [_run_alone(s, ctl, plan) for s in states]
    for member, (records, end) in enumerate(zip(block_records, ends)):
        solo_records, solo_end = solo[member]
        assert _record_bits(records) == _record_bits(solo_records)
        if member == overflowing:
            assert isinstance(end, DivergenceError) and end.t == 0.0
            assert str(end) == str(solo_end) and len(records) == 1
        else:
            assert end.t == solo_end.t == 0.3 and len(records) == 4
            assert np.array_equal(bits(end.u.values), bits(solo_end.u.values))
            assert np.array_equal(bits(end.v.values), bits(solo_end.v.values))


def test_member_whose_grad_v_turns_nan_leaves_at_its_step_bound(monkeypatch):
    # mu = 1.7e308 overflows v's mean to inf on the first step (cfl_safety
    # = 0.5, so to t = 0.005) while u stays finite, and the next step bound
    # reads sup |grad v|^2 = NaN (ik v_hat at k = 0 is 0 * inf).  The bound
    # passes the NaN on, so the member leaves at 0.005 with a divergence,
    # before any step reads the NaN gradient; no step check fires.  The
    # other member's records and end equal its solo run's.
    grid = Grid(dim=1, extent=2 * np.pi, points=64)
    states = [
        SimState(
            t=0.0,
            u=Field(grid, np.full(grid.shape, 10.0)),
            v=Field(grid, np.ones(grid.shape)),
            params=Params(chi=1, a=1, b=1, lam=1, mu=mu, dim=1),
        )
        for mu in (1.0, 1.7e308)
    ]
    ctl = StepControl(dt_max=0.01, t_end=0.02, record_every=0.01, cfl_safety=0.5)
    plan = SemigroupPlan(grid)

    def refuse(*args):
        raise AssertionError("a step check caught the overflow")

    monkeypatch.setattr("chemotaxis_lab.imex._state_error", refuse)
    with np.errstate(over="ignore", invalid="ignore"):
        solo = [_run_alone(s, ctl, plan) for s in states]
        block_records: list[list[DiagnosticsRecord]] = [[], []]
        ends = integrate(states, ctl, [r.append for r in block_records], plan=plan)
    (solo_records, solo_end), (records, end) = solo[0], (block_records[0], ends[0])
    assert _record_bits(records) == _record_bits(solo_records) and len(records) == 3
    assert end.t == solo_end.t == ctl.t_end
    assert np.array_equal(bits(end.u.values), bits(solo_end.u.values))
    assert np.array_equal(bits(end.v.values), bits(solo_end.v.values))
    for records, end in (block_records[1], ends[1]), solo[1]:
        assert isinstance(end, DivergenceError) and end.t == 0.005 and len(records) == 1


def test_member_whose_v_overflows_on_an_intervals_last_step_leaves_at_the_record(monkeypatch):
    # mu = 1.7e308 overflows v's mean to inf on the first step, which
    # (cfl_safety = 1, dt_max = record_every) is the interval's last: u is
    # still finite, so no step check fires, and the record check on v takes
    # the member out at t = 0.01.  Overflowing earlier would turn the
    # infinite mean into NaN gradients (ik v_hat at k = 0), which the next
    # step's check catches first.
    grid = Grid(dim=1, extent=2 * np.pi, points=64)
    states = [
        SimState(
            t=0.0,
            u=Field(grid, np.full(grid.shape, 10.0)),
            v=Field(grid, np.ones(grid.shape)),
            params=Params(chi=1, a=1, b=1, lam=1, mu=mu, dim=1),
        )
        for mu in (1.0, 1.7e308)
    ]
    ctl = StepControl(dt_max=0.01, t_end=0.02, record_every=0.01, cfl_safety=1.0)
    plan = SemigroupPlan(grid)

    def refuse(*args):
        raise AssertionError("a step check caught the overflow")

    monkeypatch.setattr("chemotaxis_lab.imex._state_error", refuse)
    with np.errstate(over="ignore", invalid="ignore"):
        solo = [_run_alone(s, ctl, plan) for s in states]
        block_records: list[list[DiagnosticsRecord]] = [[], []]
        ends = integrate(states, ctl, [r.append for r in block_records], plan=plan)
    (solo_records, solo_end), (records, end) = solo[0], (block_records[0], ends[0])
    assert _record_bits(records) == _record_bits(solo_records) and len(records) == 3
    assert end.t == solo_end.t == ctl.t_end
    assert np.array_equal(bits(end.u.values), bits(solo_end.u.values))
    assert np.array_equal(bits(end.v.values), bits(solo_end.v.values))
    for records, end in (block_records[1], ends[1]), solo[1]:
        assert isinstance(end, DivergenceError) and end.t == 0.01 and len(records) == 1


@pytest.mark.parametrize(
    "neg_tol, coefficients, error_type",
    [
        (1e-8, [(1.0, 1.0), (10.0, 1.0), (5.0, 1.0)], PositivityViolationError),
        (math.inf, [(1.0, 5.0), (40.0, 5.0), (5.0, 5.0)], DivergenceError),
    ],
    ids=["undershoot", "non-finite"],
)
def test_block_member_leaves_mid_run_at_its_solo_time(
    neg_tol, coefficients, error_type, monkeypatch
):
    # On 16 points strong chemotaxis (chi = 10) drives u into a spectral
    # undershoot; with no undershoot bound (neg_tol = inf) chi = 40 lets it
    # run away until the state is non-finite.  The members step at their
    # own CFL steps, so the block leaves lockstep.  The leaving member takes
    # the positivity check's slow path (_state_error) once, mid-run, and
    # leaves with its solo run's error; the others' records and ends equal
    # their solo runs' bit for bit.
    grid = Grid(dim=1, extent=2 * np.pi, points=16)
    x = grid.axis_coordinates()
    profile = Field(grid, 1.0 + 0.5 * np.cos(x))
    states = [
        SimState(t=0.0, u=profile, v=profile, params=Params(chi=chi, a=1, b=b, lam=1, mu=1, dim=1))
        for chi, b in coefficients
    ]
    ctl = StepControl(dt_max=0.05, t_end=3.0, record_every=0.5, cfl_safety=0.5, neg_tol=neg_tol)
    plan = SemigroupPlan(grid)
    with np.errstate(over="ignore", invalid="ignore"):
        solo = [_run_alone(s, ctl, plan) for s in states]
        checked = []
        state_error = _state_error

        def counted(u_min, t, tol):
            error = state_error(u_min, t, tol)
            checked.append(error)
            return error

        monkeypatch.setattr("chemotaxis_lab.imex._state_error", counted)
        block_records: list[list[DiagnosticsRecord]] = [[] for _ in states]
        ends = integrate(states, ctl, [r.append for r in block_records], plan=plan)
    assert len(checked) == 1 and type(checked[0]) is error_type
    for member, (records, end) in enumerate(zip(block_records, ends)):
        solo_records, solo_end = solo[member]
        assert _record_bits(records) == _record_bits(solo_records)
        if member == 1:
            assert end is checked[0]
            assert type(end) is type(solo_end) and str(end) == str(solo_end)
            assert end.t == solo_end.t and 0.0 < end.t < ctl.t_end
        else:
            assert end.t == solo_end.t == ctl.t_end
            assert np.array_equal(bits(end.u.values), bits(solo_end.u.values))
            assert np.array_equal(bits(end.v.values), bits(solo_end.v.values))


@pytest.mark.parametrize("grid", STACK_GRIDS[:2], ids=lambda g: f"{g.dim}d-{g.points}")
def test_block_steps_of_some_rows_equal_their_solo_steps(grid):
    # Rows with their own lam step alone while the other sits out (its step
    # 0.0), together at one dt, and together at their own dts; one weight
    # cache serves every step, so a row's own step must never reuse the
    # weights built for another row at that step.  A row that sits out
    # keeps the bits of its stack and spectra across the step: at the first
    # step that stack is the input u, not a round trip of its spectrum.
    plan = SemigroupPlan(grid)
    rng = np.random.default_rng(36)
    params = [Params(chi=1.3, a=1.1, b=0.7, lam=lam, mu=1.2, dim=grid.dim) for lam in (0.9, 1.7)]
    u = rng.uniform(0.1, 2.0, (2, *grid.shape))
    v = rng.uniform(0.1, 2.0, (2, *grid.shape))
    block = _Stepper(plan, _Coefficients.of(params, grid.dim), u, plan.to_spectral(v))
    solo = [_Stepper(plan, p, u[row], plan.to_spectral(v[row])) for row, p in enumerate(params)]

    def state(row):
        return block.stack[:, row], block.u_hat[row], block.v_hat[row]

    dt = 1e-2
    for steps in [[dt, 0.0], [0.0, dt], [dt, dt], [dt, dt / 2]]:
        before = [tuple(array.copy() for array in state(row)) for row in range(2)]
        block.advance(steps)
        for row, row_dt in enumerate(steps):
            if row_dt:
                solo[row].advance([row_dt])
                expected = solo[row].stack, solo[row].u_hat, solo[row].v_hat
            else:
                expected = before[row]
            for got, want in zip(state(row), expected):
                assert np.array_equal(bits(got), bits(want)), (steps, row)


def test_lockstep_block_makes_the_transform_calls_of_one_member(monkeypatch):
    # dt_max sets every member's step, so the three members step in
    # lockstep: one batched call per transform serves them all
    calls = {"to_spectral": 0, "to_physical": 0}
    for name in calls:
        transform = getattr(SemigroupPlan, name)

        def counted(self, *args, _name=name, _transform=transform, **kwargs):
            calls[_name] += 1
            return _transform(self, *args, **kwargs)

        monkeypatch.setattr(SemigroupPlan, name, counted)
    steps = []
    advance = _Stepper.advance

    def counted_advance(self, dts, **kwargs):
        steps.append(dts)
        return advance(self, dts, **kwargs)

    monkeypatch.setattr(_Stepper, "advance", counted_advance)
    grid = Grid(dim=1, extent=2 * np.pi, points=64)
    rng = np.random.default_rng(35)
    u = rng.uniform(0.1, 2.0, grid.shape)
    v = rng.uniform(0.9, 1.1, grid.shape)
    states = [
        SimState(
            t=0.0,
            u=Field(grid, u),
            v=Field(grid, v),
            params=Params(chi=1, a=1, b=b, lam=1, mu=1, dim=1),
        )
        for b in (1.0, 1.5, 2.0)
    ]
    ctl = StepControl(dt_max=1e-2, t_end=0.1, record_every=0.05, cfl_safety=1.0)
    counts = []
    for s0, sink in ((states[0], [].append), (states, [[].append for _ in states])):
        calls.update(to_spectral=0, to_physical=0)
        steps.clear()
        integrate(s0, ctl, sink, plan=SemigroupPlan(grid))
        counts.append((dict(calls), list(steps)))
    (solo_calls, solo_steps), (block_calls, block_steps) = counts
    # lockstep: every step gives the three rows one step size
    assert len(solo_steps) >= 10 and all(dts == dts[:1] * 3 for dts in block_steps)
    assert [dts[:1] for dts in block_steps] == solo_steps
    assert block_calls == solo_calls


def _crafted_rows(grid, rng):
    """(name, u, grad v) rows that the monitor must reduce as the separate
    reductions do: non-finite u, a signed-zero minimum, subnormals and a
    gradient whose square overflows or that holds NaN."""
    shape = grid.shape
    tiny = np.nextafter(0.0, 1.0)  # the smallest subnormal

    def u_with(*values):
        u = rng.uniform(0.5, 1.5, shape)
        u.flat[[3, 7, 11][: len(values)]] = values
        return u

    def grad(scale=1.0):
        return scale * rng.uniform(-1.0, 1.0, (grid.dim, *shape))

    return [
        ("nan", u_with(np.nan, -2.0), grad()),
        ("+inf", u_with(np.inf), grad()),
        ("-inf", u_with(-np.inf, np.inf), grad()),
        ("-0.0-minimum", u_with(-0.0, 0.0), grad()),
        ("subnormals", u_with(tiny, -tiny, 2.0 * tiny), grad(tiny)),
        ("overflowed-grad", u_with(0.25), grad(1e200)),
        ("nan-grad", u_with(0.25), grad(np.where(np.arange(grid.points) == 5, np.nan, 1.0))),
    ]


def _builtin_bound(p, spacing, ctl, grad_sq_sup, u_sup) -> float:
    """The CFL step bound written with the builtins max and min, as
    _step_bound's comparisons must reproduce it, NaN included: the
    advective limit is the min's first operand, so a NaN gradient norm
    gives a NaN bound."""
    advective = spacing / max(p.chi * math.sqrt(grad_sq_sup), ADVECTION_FLOOR)
    reactive = 1.0 / (p.a + 2.0 * p.b * u_sup)
    return ctl.cfl_safety * min(advective, ctl.dt_max, reactive)


def _same_float(x, y) -> bool:
    """x and y are the same float64 bit for bit, or both NaN (of any sign
    or payload)."""
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return bits(np.array(float(x))) == bits(np.array(float(y)))


@pytest.mark.parametrize("grid", BLOCK_GRIDS, ids=lambda g: f"{g.dim}d-{g.points}")
@pytest.mark.parametrize("block", [False, True], ids=["solo", "block"])
def test_the_one_reduction_monitor_equals_the_separate_reductions(grid, block):
    # After a step the stepper reads -min u, sup |grad v|^2 and sup u of
    # every row from one np.maximum.reduce over [-u | |grad v|^2 | u].
    # On crafted rows its min u, the sups, the positivity check's error
    # (type, message and time) and the step bound must be those of
    # u.min(), |grad v|^2.max() and u.max(), bit for bit, NaN as NaN.
    rng = np.random.default_rng(38)
    cases = _crafted_rows(grid, rng)
    p = Params(chi=1.0, a=1.0, b=1.0, lam=1.0, mu=1.0, dim=grid.dim)
    plan = SemigroupPlan(grid)
    ctl = StepControl(dt_max=1e-2, t_end=1.0, record_every=0.5)
    bound = _step_bound(p, grid.spacing, ctl)
    # Steppers of a benign state, whose rows then take the crafted ones: one
    # block of every case, or one solo stepper per case.
    groups = [cases] if block else [[case] for case in cases]
    with np.errstate(over="ignore", invalid="ignore"):
        for group in groups:
            ones = np.ones((len(group), *grid.shape) if block else grid.shape)
            coefficients = _Coefficients.of([p] * len(group), grid.dim) if block else p
            st = _Stepper(plan, coefficients, ones, plan.to_spectral(ones))
            u_rows = np.stack([u for _, u, _ in group])
            grad_rows = np.stack([g for _, _, g in group], axis=1)
            st.u[...] = u_rows if block else u_rows[0]
            st.grad_v[...] = grad_rows if block else grad_rows[:, 0]
            neg_mins, grad_sq_sups, u_sups = st.monitor()
            assert len(neg_mins) == len(grad_sq_sups) == len(u_sups) == len(group)
            for (name, u_row, grad_row), neg_min, grad_sq_sup, u_sup in zip(
                group, neg_mins, grad_sq_sups, u_sups
            ):
                grad_sq = sum_of_squares(grad_row, out=np.empty(grid.shape))
                expected = (u_row.min(), grad_sq.max(), u_row.max())
                got = (-neg_min, grad_sq_sup, u_sup)
                assert all(_same_float(x, y) for x, y in zip(got, expected)), (name, got)
                for tol in (0.0, 1e-8, math.inf):
                    error = _state_error(-neg_min, 0.5, tol)
                    parent = _state_error(float(expected[0]), 0.5, tol)
                    assert type(error) is type(parent), (name, tol)
                    if parent is not None:
                        assert str(error) == str(parent) and error.t == parent.t == 0.5
                step = bound(grad_sq_sup, u_sup)
                assert _same_float(step, _builtin_bound(p, grid.spacing, ctl, *expected[1:]))
                if name == "overflowed-grad":
                    assert step == 0.0
                if name == "nan-grad":
                    assert math.isnan(step)


@pytest.mark.parametrize("grid", STACK_GRIDS, ids=lambda g: f"{g.dim}d-{g.points}")
@pytest.mark.parametrize("block", [False, True], ids=["solo", "block-b-column"])
def test_the_steppers_nonlinearity_is_nonlinear_hat(grid, block):
    # One kernel: the nonlinearity the stepper binds once per layout gives
    # the band entries of nonlinear_hat's full spectra on the same stack,
    # bit for bit, in every row.  The block's members differ in b, which
    # the kernel takes as a column.
    plan = SemigroupPlan(grid)
    rng = np.random.default_rng(39)
    bs = (0.7, 1.9) if block else (0.7,)
    params = [Params(chi=1.3, a=1.1, b=b, lam=0.9, mu=1.2, dim=grid.dim) for b in bs]
    lead = (len(bs),) if block else ()
    u = rng.uniform(0.1, 2.0, lead + grid.shape)
    v = rng.uniform(0.1, 2.0, lead + grid.shape)
    coefficients = _Coefficients.of(params, grid.dim) if block else params[0]
    st = _Stepper(plan, coefficients, u, plan.to_spectral(v))
    st.advance([1e-2] * len(bs))  # a stack the band inverse made
    stack = st.stack.copy()
    got = st.nonlinearity()
    assert got is st._spec
    for member, p in enumerate(params):
        member_stack = stack[:, member] if block else stack
        full = nonlinear_hat(plan, p, member_stack.copy())
        member_got = got[:, member] if block else got
        assert np.array_equal(bits(member_got), bits(plan.band_of(full)))
