"""Long-time integrator: exact linear propagator, explicit nonlinearity.

One step advances both fields by first-order exponential time differencing
(ETD1):

    u_new = E(dt) u + phi1(dt) (-chi div(u grad v) + u (a + lam - b u))
    v_new = E(dt) v + phi1(dt) mu u

where E(dt) = exp(dt(lap - lam I)) and phi1(dt) = Int_0^dt E(s) ds are
applied exactly as Fourier multipliers.  This is the variation-of-constants
form of the system with the nonlinearity frozen over the step: it is
unconditionally stable in the stiff linear part and first order in time,
certified by step halving.  Because phi1 integrates E exactly, a state where
the frozen nonlinearity balances the linear part is a fixed point of every
step: on the homogeneous equilibrium (a/b, mu a/(lam b)) the k = 0 mode
reads e^{-lam dt} u* + (1 - e^{-lam dt})/lam * lam u* = u*, for any dt, up
to roundoff.

The chemotaxis divergence is formed spectrally from pointwise products;
products are dealiased by the 2/3 rule (the updated spectra are truncated,
so products of retained modes never alias back into the retained band).

Positivity is monitored, never enforced: an undershoot past ``neg_tol``
aborts the run with a diagnosis, because clipping would mask exactly the
near-threshold instabilities this laboratory exists to expose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import Field, InvalidParameterError, Params, SimState
from .harness import DiagnosticsRecord, diagnostics
from .spectral import SemigroupPlan, sum_of_squares

__all__ = [
    "PositivityViolationError",
    "DivergenceError",
    "StepControl",
    "cfl_dt",
    "nonlinear_hat",
    "step",
    "integrate",
]

# Floor for the advective speed in the CFL formula, so a gradient-free state
# leaves the advective constraint inactive instead of dividing by zero.
ADVECTION_FLOOR = 1e-12


class PositivityViolationError(RuntimeError):
    """The density undershot below -neg_tol (instability, not clipped)."""

    def __init__(self, t: float, min_value: float):
        super().__init__(f"u reached {min_value!r} at t={t!r}, below the admissible undershoot")
        self.t = t
        self.min_value = min_value


class DivergenceError(RuntimeError):
    """The state stopped being finite (blow-up or unstable step)."""

    def __init__(self, t: float):
        super().__init__(f"non-finite state at t={t!r}")
        self.t = t


@dataclass(frozen=True)
class StepControl:
    """Step-size and monitoring knobs for :func:`integrate`."""

    dt_max: float
    t_end: float
    record_every: float
    cfl_safety: float = 0.5
    neg_tol: float = 1e-8

    def __post_init__(self) -> None:
        if self.dt_max <= 0.0:
            raise InvalidParameterError("dt_max must be > 0")
        if not 0.0 < self.cfl_safety <= 1.0:
            raise InvalidParameterError("cfl_safety must be in (0, 1]")
        if self.neg_tol < 0.0:
            raise InvalidParameterError("neg_tol must be >= 0")
        if self.t_end <= 0.0:
            raise InvalidParameterError("t_end must be > 0")
        if self.record_every <= 0.0:
            raise InvalidParameterError("record_every must be > 0")


class _Workspace:
    """Per-run spectral scratch: plan and a one-slot cache of the step's
    masked weights, so the plan's dealias mask is applied once per step size."""

    __slots__ = ("plan", "params", "_dt", "_weights")

    def __init__(self, plan: SemigroupPlan, params: Params):
        self.plan = plan
        self.params = params
        self._dt = -1.0
        self._weights = None

    def weights(self, dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """E(dt), phi1(dt) and mu phi1(dt), with the modes outside the 2/3
        band zeroed."""
        if dt != self._dt:
            plan, lam = self.plan, self.params.lam
            prop = plan.multiplier(dt, lam)
            prop *= plan.dealias
            phi = plan.phi1(dt, lam)
            phi *= plan.dealias
            self._weights = (prop, phi, self.params.mu * phi)
            self._dt = dt
        return self._weights


def nonlinear_hat(
    plan: SemigroupPlan, p: Params, u: np.ndarray, vx: Sequence[np.ndarray]
) -> np.ndarray:
    """Spectrum of u (a + lam - b u) - chi div(u grad v), given the physical
    components ``vx`` of grad v.  The stepper and the Duhamel oracle both
    integrate this term; the returned array is the caller's to modify."""
    n_hat = plan.to_spectral(u * (p.a + p.lam - p.b * u))
    flux_hat = plan.div_hat(u * comp for comp in vx)
    flux_hat *= p.chi
    n_hat -= flux_hat
    return n_hat


def _advance(
    ws: _Workspace,
    p: Params,
    u: np.ndarray,
    u_hat: np.ndarray,
    v_hat: np.ndarray,
    vx: Sequence[np.ndarray],
    dt: float,
):
    """One ETD1 update in spectral space:

        u_hat_new = E u_hat + phi1 (reac_hat - chi flux_hat)
        v_hat_new = E v_hat + mu phi1 u_hat

    phi1 integrates E over the step exactly, so the homogeneous equilibrium
    is a fixed point for every dt (k = 0: E u* + phi1 lam u* = u*).  The
    update is accumulated in place in the nonlinearity's spectrum, and mu
    is folded into a cached real weight."""
    plan = ws.plan
    prop, phi, mu_phi = ws.weights(dt)
    n_hat = nonlinear_hat(plan, p, u, vx)
    n_hat *= phi
    u_hat_new = u_hat * prop
    u_hat_new += n_hat
    v_hat_new = v_hat * prop
    v_hat_new += mu_phi * u_hat
    return u_hat_new, v_hat_new, plan.to_physical(u_hat_new)


def _grad_sup(vx: Sequence[np.ndarray]) -> float:
    return float(np.sqrt(sum_of_squares(vx).max()))


def _cfl_from_norms(
    p: Params, spacing: float, grad_sup: float, u_sup: float, ctl: StepControl
) -> float:
    advective = spacing / max(p.chi * grad_sup, ADVECTION_FLOOR)
    reactive = 1.0 / (p.a + 2.0 * p.b * u_sup)
    return ctl.cfl_safety * min(ctl.dt_max, advective, reactive)


def cfl_dt(s: SimState, ctl: StepControl, plan: SemigroupPlan | None = None) -> float:
    """cfl_safety * min(dt_max, spacing/max(chi |grad v|_inf, floor),
    1/(a + 2 b |u|_inf)); always strictly positive."""
    if plan is None:
        plan = SemigroupPlan(s.grid)
    grad_sup = _grad_sup(plan.grad(plan.to_spectral(s.v.values)))
    return _cfl_from_norms(s.params, s.grid.spacing, grad_sup, s.u.sup(), ctl)


def step(
    s: SimState,
    dt: float,
    *,
    neg_tol: float = 1e-8,
    plan: SemigroupPlan | None = None,
) -> SimState:
    """Advance one step of size dt.  The caller keeps dt <= cfl_dt(s)."""
    if dt <= 0.0:
        raise InvalidParameterError("dt must be > 0")
    if plan is None:
        plan = SemigroupPlan(s.grid)
    ws = _Workspace(plan, s.params)
    u = s.u.values
    u_hat = plan.to_spectral(u)
    v_hat = plan.to_spectral(s.v.values)
    vx = plan.grad(v_hat)
    u_hat_new, v_hat_new, u_new = _advance(ws, s.params, u, u_hat, v_hat, vx, dt)
    t_new = s.t + dt
    _check_state(u_new, t_new, neg_tol)
    v_new = plan.to_physical(v_hat_new)
    if not np.all(np.isfinite(v_new)):
        raise DivergenceError(t_new)
    return SimState(t=t_new, u=Field(s.grid, u_new), v=Field(s.grid, v_new), params=s.params)


def _check_state(u: np.ndarray, t: float, neg_tol: float) -> None:
    u_min = u.min()
    if not np.isfinite(u_min):
        raise DivergenceError(t)
    if u_min < -neg_tol:
        raise PositivityViolationError(t, float(u_min))


def _record_times(start: float, ctl: StepControl) -> list[float]:
    """Multiples of record_every after ``start`` up to t_end, then t_end."""
    times = []
    k = int(np.floor(start / ctl.record_every + 1e-9)) + 1
    while True:
        t = k * ctl.record_every
        if t > ctl.t_end * (1.0 + 1e-12):
            break
        if t > start:
            times.append(min(t, ctl.t_end))
        k += 1
    if not times or times[-1] < ctl.t_end * (1.0 - 1e-12):
        times.append(ctl.t_end)
    return times


def integrate(
    s0: SimState,
    ctl: StepControl,
    sink: Callable[[DiagnosticsRecord], None] | None = None,
    plan: SemigroupPlan | None = None,
) -> SimState:
    """Advance to ctl.t_end, emitting a diagnostics record at the start time
    and then at every multiple of record_every (timestamps strictly
    increasing).

    Deterministic given (s0, ctl).  Raises :class:`PositivityViolationError`
    or :class:`DivergenceError` with the offending time when the run leaves
    the admissible state space; records emitted so far remain with the sink.
    """
    if plan is None:
        plan = SemigroupPlan(s0.grid)
    if ctl.t_end <= s0.t:
        raise InvalidParameterError(f"t_end {ctl.t_end!r} must exceed start time {s0.t!r}")
    p = s0.params
    ws = _Workspace(plan, p)

    u = s0.u.values.copy()
    u_hat = plan.to_spectral(u)
    v_hat = plan.to_spectral(s0.v.values)

    if sink is not None:
        sink(diagnostics(s0, plan))

    t = s0.t
    final_state = None
    for target in _record_times(s0.t, ctl):
        while target - t > 1e-13 * max(1.0, target):
            vx = plan.grad(v_hat)
            dt_c = _cfl_from_norms(p, s0.grid.spacing, _grad_sup(vx), float(u.max()), ctl)
            remaining = target - t
            dt = remaining if remaining <= dt_c * (1.0 + 1e-9) else dt_c
            u_hat, v_hat, u = _advance(ws, p, u, u_hat, v_hat, vx, dt)
            t += dt
            _check_state(u, t, ctl.neg_tol)
        t = target
        v = plan.to_physical(v_hat)
        if not np.all(np.isfinite(v)):
            raise DivergenceError(t)
        final_state = SimState(t=t, u=Field(s0.grid, u), v=Field(s0.grid, v), params=p)
        if sink is not None:
            sink(diagnostics(final_state, plan))
    return final_state
