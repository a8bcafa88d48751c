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

The physical state is one (1+N)-row stack [u, d_1 v, ..., d_N v], and a step
makes one batched forward and one batched inverse transform call over it:
the products u d_i v and u (a + lam - b u) are written over the stack and
transformed together, the divergence is assembled from those spectra, and
the spent rows take u_hat and ik_i v_hat for the inverse.  A step owns the
stack it consumes: a reference to it, or to one of its rows, held across a
step keeps 1+N fields alive beside the step's spectra.

Positivity is monitored, never enforced: an undershoot past ``neg_tol``
aborts the run with a diagnosis, because clipping would mask exactly the
near-threshold instabilities this laboratory exists to expose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import Field, InvalidParameterError, Params, SimState
from .harness import DiagnosticsRecord, diagnostics
from .spectral import SemigroupPlan, sum_of_squares

__all__ = [
    "PositivityViolationError",
    "DivergenceError",
    "StepControl",
    "nonlinear_hat",
    "record_times",
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
        # Each check states what is valid, so a nan fails it.
        if not self.dt_max > 0.0:
            raise InvalidParameterError("dt_max must be > 0")
        if not 0.0 < self.cfl_safety <= 1.0:
            raise InvalidParameterError("cfl_safety must be in (0, 1]")
        if not self.neg_tol >= 0.0:
            raise InvalidParameterError("neg_tol must be >= 0")
        if not 0.0 < self.t_end < math.inf:
            raise InvalidParameterError("t_end must be finite and > 0")
        if not self.record_every > 0.0:
            raise InvalidParameterError("record_every must be > 0")


class _Stepper:
    """ETD1 state of one run: the physical stack [u, d_1 v, ..., d_N v], the
    spectra u_hat and v_hat, and a one-slot cache of the step's masked
    weights, so the plan's dealias mask is applied once per step size.

    The first stack holds the input u itself, not a round trip of its
    spectrum.  Each :meth:`advance` consumes the stack and leaves a new one,
    so a reference to ``stack`` (or a row of it) must not be held across a
    step: it would keep a spent stack alive beside the step's spectra.

    A record interval usually ends on a short step a few ulps off the steady
    one.  Its weights are built with ``cache=False``, so the steady step's
    weights survive it and an interval builds at most one set.  A second
    cache slot would build none, but it holds one more set of spectral
    weights through every step and record (+3.1 MB of peak memory at 64^3)."""

    __slots__ = ("plan", "params", "stack", "u_hat", "v_hat", "_dt", "_weights")

    def __init__(self, plan: SemigroupPlan, params: Params, u: np.ndarray, v: np.ndarray):
        self.plan = plan
        self.params = params
        self.u_hat = plan.to_spectral(u)
        self.v_hat = plan.to_spectral(v)
        self.stack = np.stack((u, *plan.grad(self.v_hat)))
        self._dt = -1.0
        self._weights = None

    def weights(
        self, dt: float, *, cache: bool = True
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """E(dt), phi1(dt) and mu phi1(dt), with the modes outside the 2/3
        band zeroed; ``cache=False`` leaves the cached set in place."""
        if dt == self._dt:
            return self._weights
        plan, lam = self.plan, self.params.lam
        prop = plan.multiplier(dt, lam)
        prop *= plan.dealias
        phi = plan.phi1(dt, lam)
        phi *= plan.dealias
        weights = (prop, phi, self.params.mu * phi)
        if cache:
            self._dt, self._weights = dt, weights
        return weights

    def advance(self, dt: float, *, cache: bool = True) -> None:
        """One ETD1 update in spectral space:

            u_hat_new = E u_hat + phi1 (reac_hat - chi flux_hat)
            v_hat_new = E v_hat + mu phi1 u_hat

        phi1 integrates E over the step exactly, so the homogeneous
        equilibrium is a fixed point for every dt (k = 0: E u* + phi1 lam u*
        = u*).  u_hat and v_hat are updated in place.  The consumed stack is
        released before the weights are fetched, and the weights before the
        inverse, so an uncached set overlaps neither stack."""
        plan, u_hat, v_hat = self.plan, self.u_hat, self.v_hat
        spec = nonlinear_hat(plan, self.params, self.stack)
        self.stack = None
        prop, phi, mu_phi = self.weights(dt, cache=cache)
        n_hat, scratch = spec[0], spec[1]
        n_hat *= phi
        np.multiply(mu_phi, u_hat, out=scratch)
        v_hat *= prop
        v_hat += scratch
        u_hat *= prop
        u_hat += n_hat
        n_hat[...] = u_hat
        del prop, phi, mu_phi
        for ik, row in zip(plan.ik, spec[1:]):
            np.multiply(ik, v_hat, out=row)
        self.stack = plan.to_physical(spec, overwrite=True)


def nonlinear_hat(plan: SemigroupPlan, p: Params, stack: np.ndarray) -> np.ndarray:
    """Spectrum of u (a + lam - b u) - chi div(u grad v), given the physical
    stack [u, d_1 v, ..., d_N v] (every row may carry a leading batch axis).
    The stepper and the Duhamel oracle both integrate this term.

    The stack is overwritten with the products u d_i v and u (a + lam - b u)
    and transformed in one call.  The returned spectral stack holds the
    term in row 0; its other rows are spent and the caller's to reuse."""
    u = stack[0]
    stack[1:] *= u
    reac = p.b * u
    np.subtract(p.a + p.lam, reac, out=reac)
    u *= reac
    del reac  # not held through the transform
    spec = plan.to_spectral(stack)
    flux_hat = plan.div_hat(spec[1:])
    flux_hat *= p.chi
    spec[0] -= flux_hat
    return spec


def _lap(plan: SemigroupPlan, v_hat: np.ndarray) -> np.ndarray:
    return plan.to_physical(-plan.k2 * v_hat, overwrite=True)


def _cfl_from_norms(
    p: Params, spacing: float, grad_sup: float, u_sup: float, ctl: StepControl
) -> float:
    """cfl_safety * min(dt_max, spacing/max(chi |grad v|_inf, floor),
    1/(a + 2 b |u|_inf)); always strictly positive."""
    advective = spacing / max(p.chi * grad_sup, ADVECTION_FLOOR)
    reactive = 1.0 / (p.a + 2.0 * p.b * u_sup)
    return ctl.cfl_safety * min(ctl.dt_max, advective, reactive)


def _check_state(u: np.ndarray, t: float, neg_tol: float) -> None:
    u_min = u.min()
    if not math.isfinite(u_min):
        raise DivergenceError(t)
    if u_min < -neg_tol:
        raise PositivityViolationError(t, float(u_min))


def record_times(start: float, ctl: StepControl) -> list[float]:
    """Multiples of record_every after ``start`` up to t_end, then t_end:
    the times of the records :func:`integrate` emits after its first."""
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
    *,
    plan: SemigroupPlan,
) -> SimState:
    """Advance to ctl.t_end, emitting a diagnostics record at the start time
    and then at every multiple of record_every (timestamps strictly
    increasing).  Each state's grad v is formed once from v_hat, and the
    next step and the record both read it.  Transform calls: two forward
    (u, v) and N inverse (grad v) at the start, one forward and one inverse
    per step, and at each record the inverses of v and lap v (of lap v alone
    at the start time, where v is the input).

    Deterministic given (s0, ctl).  Raises :class:`PositivityViolationError`
    or :class:`DivergenceError` with the offending time when the run leaves
    the admissible state space; records emitted so far remain with the sink.
    """
    if ctl.t_end <= s0.t:
        raise InvalidParameterError(f"t_end {ctl.t_end!r} must exceed start time {s0.t!r}")
    p = s0.params
    st = _Stepper(plan, p, s0.u.values, s0.v.values)

    t = s0.t
    v = s0.v.values
    grad_sq = sum_of_squares(st.stack[1:])
    if sink is not None:
        sink(diagnostics(t, p, st.stack[0], v, grad_sq, _lap(plan, st.v_hat)))

    for target in record_times(s0.t, ctl):
        while target - t > 1e-13 * max(1.0, target):
            grad_sup = math.sqrt(grad_sq.max())
            del grad_sq  # not held through the step: one field less at peak
            dt_c = _cfl_from_norms(p, s0.grid.spacing, grad_sup, float(st.stack[0].max()), ctl)
            remaining = target - t
            short = remaining <= dt_c * (1.0 + 1e-9)
            dt = remaining if short else dt_c
            st.advance(dt, cache=not short)
            t += dt
            _check_state(st.stack[0], t, ctl.neg_tol)
            grad_sq = sum_of_squares(st.stack[1:])
        t = target
        v = plan.to_physical(st.v_hat)
        if not np.all(np.isfinite(v)):
            raise DivergenceError(t)
        if sink is not None:
            sink(diagnostics(t, p, st.stack[0], v, grad_sq, _lap(plan, st.v_hat)))
    return SimState(t=t, u=Field(s0.grid, st.stack[0]), v=Field(s0.grid, v), params=p)
