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
products are dealiased by the 2/3 rule: the stepper's spectra are the 2/3
band itself (|k index| <= floor(points/3) on every axis; see
:mod:`chemotaxis_lab.spectral` for the band and its pruned transforms), so
products of retained modes never alias back into the retained band.  The
band is the mask: u_hat, v_hat, the step's weights and the nonlinearity's
spectra hold only the band entries.  The band transforms equal the full
ones on the band bit for bit, so the band state computes the floats of a
full spectral state whose modes off the band are zeroed every step.  The
stepper's input is not band-limited: v's full spectrum gives the first
stack's grad v and the start record's lap v, and every later record
inverts v and lap v from the band.  The Duhamel oracle
(:mod:`chemotaxis_lab.mild`) keeps full spectra on the same kernel,
:func:`nonlinear_hat`.

The physical state is one (1+N)-row stack [u, d_1 v, ..., d_N v], rows 2:
of one buffer [last_v | scratch | u | grad v], and a step makes one
batched forward and one batched inverse transform call over it: the
products u d_i v and u (a + lam - b u) are written over the stack and
transformed together, the divergence is assembled from those spectra, and
the spent rows take u_hat and ik_i v_hat for the inverse, which writes the
new stack over the spent one.  u_hat and v_hat are the rows of one array;
both take E(dt), so the update runs on stacked rows.  The step is a closure
bound once per layout over every view, kernel and coefficient it touches,
so a lockstep step makes only its ufunc and transform calls; the
nonlinearity it calls is :func:`nonlinear_hat`'s own binder.  After a step
the monitor writes -u in row 0 and |grad v|^2 in the scratch row (which
takes the reaction factor within a step), and one ``np.maximum.reduce``
over [-u | |grad v|^2 | u] gives every row's -min u for the positivity
check and the sups of |grad v|^2 and u for the next step bound.  Row 0 is
spent once reduced, and a record writes v there.  Every band transform
writes buffers the stepper keeps, as do the reaction term and the monitor,
so a step allocates no field- or spectrum-sized array.

From 2D up, in a process that may run on two CPUs, a step whose rows hold
at least ``core.BLOCK_VALUES`` values (32^3 and 256^2 up; see
:meth:`SemigroupPlan.band_threads`) runs on two threads: the caller and
one :class:`~chemotaxis_lab.spectral.Helper` thread, which the stepper
starts with the run and :func:`integrate` stops when the run ends.  The
band transforms share the stack's rows, and each pointwise phase of the
step (the nonlinearity's products, its assembly from their spectra, the
ETD1 update and the monitor) is bound once per layout to the two halves
of its arrays along the grid's first axis: the caller takes one half and
the helper the other (:func:`_on_halves`).  Each operation of a phase is
elementwise, and the monitor merges the maxima of the halves with
``np.maximum``, so every float is the one-thread float.  In 1D and on one
CPU every phase is bound to the whole arrays and runs on the caller.

:func:`integrate` also advances a block of runs that share a grid (the
points of a sweep) as one ensemble: their states are stacked on a leading
batch axis, [u, d_1 v, ..., d_N v] of shape (1+N, B, ...) and band spectra
of shape (B, ...), so a lockstep step makes one forward and one inverse
transform call and one pass of the numpy arithmetic for the whole block.  A
coefficient that differs across the block is a (B, 1, ...) column in the
nonlinearity and the step weights; a shared one stays a number, and a
single run has no batch axis at all, so it computes exactly the expressions
it computes alone.  Each member keeps its own CFL step, with the monitor's
one reduction taken once per step over the block.  Every step, in
lockstep or not, is the same bound step with a column of steps, one per
row: a member that reaches the record time steps with dt = 0.0, and its
rows of the stack and the spectra are copied before the step and written
back after it, so its floats never come from a dt = 0 update (where 0 * N
could flip the sign of a zero).  A member that diverges (a non-finite or
negative state, or a norm so large that its step bound is 0) leaves the
block with its own time and reason.
The batched transforms act row by row and the columns give each row its
own value, so every member's records and final state equal its solo run's
bit for bit.

Positivity is monitored, never enforced: an undershoot past ``neg_tol``
aborts the run with a diagnosis, because clipping would mask exactly the
near-threshold instabilities this laboratory exists to expose.  After a
step, a row whose min u fails -neg_tol <= min u < inf is diagnosed; min u
is read as -max(-u), which is the same float, and a NaN fails the check
either way.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import Field, InvalidParameterError, Params, SimState
from .harness import DiagnosticsRecord, diagnostics
from .spectral import Helper, SemigroupPlan, bind_div_hat, sum_of_squares

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


class _Coefficients(NamedTuple):
    """The coefficients of a block of members.  One that every member shares
    stays a plain number, so a one-member block computes exactly the
    expressions of a solo run; one that differs is a (B, 1, ..., 1) column
    that broadcasts over the members' fields and spectra."""

    chi: float | np.ndarray
    a: float | np.ndarray
    b: float | np.ndarray
    lam: float | np.ndarray
    mu: float | np.ndarray

    @classmethod
    def of(cls, params: Sequence[Params], dim: int) -> _Coefficients:
        column = (len(params),) + (1,) * dim
        coefficients = []
        for name in cls._fields:
            values = [getattr(p, name) for p in params]
            shared = values.count(values[0]) == len(values)
            coefficients.append(values[0] if shared else np.array(values, float).reshape(column))
        return cls(*coefficients)

    def take(self, rows) -> _Coefficients:
        """The coefficients of the given rows (indices into the batch axis)."""
        return _Coefficients(*(c[rows] if isinstance(c, np.ndarray) else c for c in self))


def _step_weights(plan: SemigroupPlan, dt, lam, mu, lead: tuple) -> tuple[np.ndarray, np.ndarray]:
    """E(dt) and the pair [phi1(dt), mu phi1(dt)] on the 2/3 band of rows
    with leading shape ``lead``, as complex128 arrays of real values; ``dt``,
    ``lam`` and ``mu`` are numbers or batch columns.  The products are taken
    in float64, as with real weights, and a shared value is written out
    over the rows, so the update's products have operands of one shape:
    numpy's broadcast loop took over twice as long on 22 modes."""
    shape = lead + plan.band_shape
    prop = np.empty(shape, np.complex128)
    prop[...] = plan.multiplier(dt, lam, band=True)
    phi = plan.phi1(dt, lam, band=True)
    pair = np.empty((2,) + shape, np.complex128)
    pair[0] = phi
    np.multiply(mu, phi, out=pair[1])
    return prop, pair


class _Stepper:
    """ETD1 state of a block of members on one grid, laid out in two
    arrays: ``fields`` [last_v | scratch | u | d_1 v, ..., d_N v] of shape
    (3+N, *lead, *grid shape) and the band spectra ``uv_hat`` [u_hat,
    v_hat] of shape (2, *lead, *band_shape), with ``lead`` () for a single
    run and (B,) for B members; ``params`` holds their coefficients (a
    :class:`Params`, or :class:`_Coefficients` with a column per
    coefficient that differs).  The row views (``stack``, rows 2:;
    ``last_v``, ``scratch``, ``u``, ``grad_v``, ``u_hat``, ``v_hat``), the
    step's band spectra, the nonlinearity (``nonlinearity``, the band
    spectra of :func:`nonlinear_hat` of the stack), the step and the
    monitor are bound once per layout, here and in :meth:`keep`: every
    step, in lockstep or not, calls the bound ``_step``, which makes only
    its ufunc and transform calls.  ``helper`` is the stepper's
    :class:`~chemotaxis_lab.spectral.Helper` thread where its steps run on
    two threads (see the module docstring), else None; it is started here
    and kept through every layout, since from 2D up a stack has at least
    1 + N >= 3 rows whichever members leave, and :meth:`stop` ends it.

    The first three rows are the monitor (``monitor``): after a step,
    -u is written in row 0 and |grad v|^2 in the scratch row, so one
    ``np.maximum.reduce`` over [-u | |grad v|^2 | u] (with a batch axis
    even for one run) gives every row's -min u, sup |grad v|^2 and sup u.
    -u is spent once it is reduced, so row 0 is also ``last_v``, the field
    :meth:`v` writes at a record, which no step reads; within a step the
    scratch row takes the reaction factor.

    The first stack holds the input u itself, not a round trip of its
    spectrum, and its grad v rows and ``v_hat`` come from v's full spectrum,
    which the caller passes in (and forms the start record's lap v from).  A
    step overwrites the stack in place with the next one.  The band spectra
    of a step and the transforms' work
    (:meth:`SemigroupPlan.band_workspace`) are buffers too: every band
    transform writes the stepper's buffers, and a lockstep step allocates no
    field- or spectrum-sized array.

    The weights of a step, E and the pair [phi1, mu phi1], are complex128
    arrays of real values: the update multiplies complex spectra by them,
    and a real operand is cast to r + 0j in every such call, so they give
    the same floats without the casts.  They sit in a one-slot cache, so
    they are built once per list of the rows' steps.  A record interval
    usually ends on a short step a few ulps off the steady one.  Its weights
    are built with ``cache=False``, so the steady step's weights survive it
    and an interval builds at most one set.  A second cache slot would build
    none, but it holds one more set of spectral weights through every step
    and record."""

    __slots__ = (
        "plan", "params", "helper", "fields", "stack", "last_v", "scratch", "u", "grad_v",
        "uv_hat", "u_hat", "v_hat", "nonlinearity", "monitor", "_spec", "_work", "_step", "_key",
        "_weights",
    )

    def __init__(self, plan: SemigroupPlan, params, u: np.ndarray, v_hat: np.ndarray):
        self.plan = plan
        self.params = params
        dim = plan.grid.dim
        lead = u.shape[: u.ndim - dim]
        fields = np.empty((3 + dim,) + u.shape)
        fields[2] = u
        plan.grad(v_hat, out=fields[3:])
        self.helper = Helper() if plan.band_threads((1 + dim,) + lead) > 1 else None
        try:
            self._bind(fields, np.empty((2,) + lead + plan.band_shape, np.complex128))
            plan.to_spectral(u, band=True, out=self.u_hat, work=self._work[0])
            self.v_hat[...] = plan.band_of(v_hat)
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        """End the helper thread, if the stepper has one; no step may
        follow."""
        if self.helper is not None:
            self.helper.stop()

    def _bind(self, fields: np.ndarray, uv_hat: np.ndarray) -> None:
        """Lay the stepper out on ``fields`` and ``uv_hat``, with new band
        transform buffers and an empty weight cache, and bind the
        nonlinearity, the step and the monitor to that layout, each phase
        on two threads if the stepper has a helper (:func:`_on_halves`)."""
        plan, helper = self.plan, self.helper
        dim = plan.grid.dim
        self.fields, self.uv_hat = fields, uv_hat
        self.last_v, self.scratch, self.u = fields[:3]
        self.stack, self.grad_v = stack, grad_v = fields[2:], fields[3:]
        self.u_hat, self.v_hat = uv_hat
        lead = stack.shape[:-dim]
        self._spec, self._work = spec, work = plan.band_workspace(lead)
        term = _bind_nonlinearity(plan, self.params, stack, True, self.scratch, spec, work, helper)
        update = _on_halves(_bind_update, helper, dim, uv_hat, spec, plan.band_ik)
        extremes = _on_halves(_bind_extremes, helper, dim, fields[:3], grad_v, math.prod(lead[1:]))
        to_physical = plan.to_physical

        def step(prop: np.ndarray, phi_pair: np.ndarray) -> None:
            """The update of :meth:`advance` with the weights E and [phi1,
            mu phi1]: only its ufunc and transform calls."""
            term()
            update(prop, phi_pair)
            to_physical(spec, True, out=stack, work=work, helper=helper)

        def monitor() -> list[list[float]]:
            """[-min u, sup |grad v|^2, sup u]: for each, a list over the
            rows.  Writes -u over ``last_v`` and |grad v|^2 in ``scratch``."""
            return extremes().tolist()

        self.nonlinearity, self._step, self.monitor = term, step, monitor
        self._key, self._weights = None, None

    def advance(self, steps: list[float], *, cache: bool = True) -> None:
        """One ETD1 update on the band:

            u_hat_new = E u_hat + phi1 (reac_hat - chi flux_hat)
            v_hat_new = E v_hat + mu phi1 u_hat

        phi1 integrates E over the step exactly, so the homogeneous
        equilibrium is a fixed point for every dt (k = 0: E u* + phi1 lam u*
        = u*).  Both fields take the same E, so the update runs on stacked
        rows, each float through the field-by-field update's operations in
        order: the first spent row takes u_hat, [n_hat, u_hat] *= [phi1,
        mu phi1], u_hat and v_hat *= E, [u_hat, v_hat] += that pair, and the
        inverse's rows take u_hat and ik_i v_hat.  Every row goes through
        the bound step: u_hat and v_hat are updated in place and the band
        inverse writes the new stack over the spent one.  ``steps`` gives
        each row its own step (one entry for a single run), and a row whose
        step is 0.0 sits out: its rows of the stack and of [u_hat, v_hat]
        are copied before the step and written back after it, so they keep
        their bits.  The weights are built from the steps as a column over
        the rows, which gives the floats of a single number, and
        ``cache=False`` leaves the cached set in place.  The caller reads
        the new state's norms from ``monitor``."""
        if steps == self._key:
            weights = self._weights
        else:
            plan = self.plan
            lead = self.u_hat.shape[: -plan.grid.dim]
            column = np.reshape(steps, lead + (1,) * plan.grid.dim)
            weights = _step_weights(plan, column, self.params.lam, self.params.mu, lead)
            if cache:
                self._key, self._weights = list(steps), weights
        if 0.0 not in steps:
            self._step(*weights)
            return
        sitting = [row for row, own in enumerate(steps) if own == 0.0]
        saved = self.stack[:, sitting], self.uv_hat[:, sitting]
        self._step(*weights)
        self.stack[:, sitting], self.uv_hat[:, sitting] = saved

    def v(self) -> np.ndarray:
        """The physical v of the band state in ``last_v``, which the next
        ``monitor`` overwrites."""
        return self.plan.to_physical(self.v_hat, band=True, out=self.last_v, work=self._work[0])

    def lap_v(self) -> np.ndarray:
        """lap v of the band state, in a new field."""
        plan = self.plan
        # The step's band spectra are spent between steps.
        lap_hat = np.multiply(-plan.band_k2, self.v_hat, out=self._spec[0])
        lap_v = np.empty_like(self.scratch)
        return plan.to_physical(lap_hat, band=True, out=lap_v, work=self._work[0])

    def keep(self, rows: list[int]) -> None:
        """Drop every row but ``rows`` for good (members that left) and lay
        the stepper out on the kept rows; ``last_v`` keeps the kept rows of
        the last :meth:`v`."""
        self.params = self.params.take(rows)
        self._bind(self.fields[:, rows], self.uv_hat[:, rows])


def _halves(a, dim: int) -> tuple:
    """The two slabs of ``a`` along the grid's first axis (axis -dim), cut
    at its middle, or ``a`` twice where it has no such axis to cut: a
    number, None, or a coefficient column or derivative multiplier of
    length 1 there, each of which broadcasts over both slabs.  A tuple is
    cut item by item."""
    if isinstance(a, tuple):
        return tuple(zip(*(_halves(item, dim) for item in a)))
    if not isinstance(a, np.ndarray) or a.ndim < dim or a.shape[-dim] == 1:
        return a, a
    cut, rest = a.shape[-dim] // 2, (slice(None),) * (dim - 1)
    return a[(Ellipsis, slice(None, cut), *rest)], a[(Ellipsis, slice(cut, None), *rest)]


def _on_halves(bind: Callable, helper: Helper | None, dim: int, *arrays) -> Callable:
    """A pointwise phase of the step, ``bind(*arrays)``, bound to the whole
    arrays, or, given a ``helper``, on two threads: a callable that runs
    the phase bound to the first slab of every array (:func:`_halves`) on
    the caller and the phase bound to the second slab on the helper, with
    its own arguments cut the same way.  A phase returns None, or maxima
    over its arrays' values, which are merged with ``np.maximum``.  Every
    operation of a phase is elementwise, or a max, so each value gets the
    operations it gets on one thread, and every float is the same."""
    if helper is None:
        return bind(*arrays)
    first, second = (bind(*slabs) for slabs in zip(*(_halves(a, dim) for a in arrays)))
    run, maximum = helper.run, np.maximum

    def on_halves(*args):
        mine, theirs = zip(*(_halves(a, dim) for a in args)) if args else ((), ())
        results = run(first, mine, second, theirs)
        return None if results[0] is None else maximum(*results)

    return on_halves


def _bind_products(stack: np.ndarray, scratch, b, growth) -> Callable[[], None]:
    """The nonlinearity's pointwise products, written over the stack: u d_i
    v over the gradient rows, then u (growth - b u) over u, its factor in
    ``scratch`` (a new field when None)."""
    # stack[:1], not u: in 1D the operands then share a shape, which
    # numpy's fast loop needs.
    u, head, flux = stack[0], stack[:1], stack[1:]
    multiply, subtract = np.multiply, np.subtract

    def products() -> None:
        multiply(flux, head, flux)
        reac = multiply(b, u, scratch)
        subtract(growth, reac, reac)
        multiply(u, reac, u)

    return products


def _bind_assembly(iks, out: np.ndarray, chi) -> Callable[[], None]:
    """The term from the spectra of the products, ``out``: chi times the
    divergence of the flux rows is subtracted from the reaction's spectrum
    in row 0."""
    n_hat, div_hat = out[0], bind_div_hat(iks, out[1:])
    multiply, subtract = np.multiply, np.subtract

    def assemble() -> None:
        flux_hat = div_hat()
        multiply(flux_hat, chi, flux_hat)
        subtract(n_hat, flux_hat, n_hat)

    return assemble


def _bind_update(uv_hat: np.ndarray, spec: np.ndarray, iks) -> Callable:
    """The step's ETD1 update of [u_hat, v_hat] from the term in ``spec``'s
    row 0 (see :meth:`_Stepper.advance`); the spent rows of ``spec`` then
    take u_hat and ik_i v_hat for the band inverse."""
    u_hat, v_hat = uv_hat
    n_hat, spent, pair = spec[0], spec[1], spec[:2]
    grad_rows = tuple(zip(iks, spec[1:]))
    copyto, multiply, add = np.copyto, np.multiply, np.add

    def update(prop: np.ndarray, phi_pair: np.ndarray) -> None:
        copyto(spent, u_hat)
        multiply(pair, phi_pair, pair)
        multiply(u_hat, prop, u_hat)
        multiply(v_hat, prop, v_hat)
        add(uv_hat, pair, uv_hat)
        copyto(n_hat, u_hat)
        for ik, row in grad_rows:
            multiply(ik, v_hat, row)

    return update


def _bind_extremes(monitor_rows: np.ndarray, grad_v: np.ndarray, members: int) -> Callable:
    """The monitor's reduction: writes -u over row 0 of ``monitor_rows``
    [last_v | scratch | u] and |grad v|^2 over row 1, and returns the max
    of each row over each member's values, shape (3, members).  A row's
    values are contiguous (or two contiguous halves of it are), so the
    reduction reads them in place."""
    last_v, scratch, u = monitor_rows
    rows = monitor_rows.reshape(3, members, -1)
    negative, largest = np.negative, np.maximum.reduce

    def extremes() -> np.ndarray:
        negative(u, last_v)
        sum_of_squares(grad_v, scratch)
        return largest(rows, -1)

    return extremes


def _bind_nonlinearity(
    plan: SemigroupPlan,
    p,
    stack: np.ndarray,
    band=False,
    scratch=None,
    out=None,
    work=None,
    helper=None,
) -> Callable[[], np.ndarray]:
    """:func:`nonlinear_hat` bound once to its arguments: a callable that
    forms the term from the stack's current rows, writes it into the
    spectra ``out`` (a new full spectrum when None) and returns them.
    ``scratch`` (a field of the stack's row shape) takes the reaction
    factor, or a new field when None; the band forward (``band=True``)
    needs ``out`` and ``work``.  Given a ``helper``, the pointwise products
    and the assembly run on two threads (:func:`_on_halves`), as do the
    band forward's rows.  chi, b and a + lam are bound as numpy scalars
    (chi complex, as the spectrum it scales) or a block's columns: a ufunc
    converts a Python float operand to just these in every call."""
    chi = np.asarray(p.chi, np.complex128)
    b, growth = np.asarray(p.b, float), np.asarray(p.a + p.lam, float)
    if out is None:
        out = np.empty(stack.shape[: -plan.grid.dim] + plan.spectral_shape, np.complex128)
    dim, iks = plan.grid.dim, plan.band_ik if band else plan.ik
    products = _on_halves(_bind_products, helper, dim, stack, scratch, b, growth)
    assemble = _on_halves(_bind_assembly, helper, dim, iks, out, chi)
    to_spectral = plan.to_spectral

    def term() -> np.ndarray:
        products()
        to_spectral(stack, band, out=out, work=work, helper=helper)
        assemble()
        return out

    return term


def nonlinear_hat(plan: SemigroupPlan, p, stack: np.ndarray) -> np.ndarray:
    """Full spectrum of u (a + lam - b u) - chi div(u grad v), given the
    physical stack [u, d_1 v, ..., d_N v] (every row may carry a leading
    batch axis) and the coefficients ``p`` (a :class:`Params`, or a block's
    :class:`_Coefficients`, whose columns broadcast over the batch axis).
    The stepper and the Duhamel oracle both integrate this term, through
    the one binder :func:`_bind_nonlinearity`: the stepper binds it once
    per layout on the 2/3 band, the oracle binds and calls it here per
    block of nodes.

    The stack is overwritten with the products u d_i v and u (a + lam - b u)
    and transformed in one call.  The returned spectral stack holds the
    term in row 0; its other rows are spent and the caller's to reuse."""
    return _bind_nonlinearity(plan, p, stack)()


def _step_bound(p: Params, spacing: float, ctl: StepControl) -> Callable[[float, float], float]:
    """The CFL step bound of a member, its constants bound once: a function
    of sup |grad v|^2 and sup u returning cfl_safety *
    min(spacing/max(chi |grad v|_inf, floor), dt_max, 1/(a + 2 b |u|_inf)):
    > 0 for finite norms, 0 for a norm that overflowed to inf.  The max and
    the min are written out as the comparisons the builtins make, in their
    order (~0.25 us a call less), so a NaN is passed on as they pass it on:
    a NaN sup |grad v|^2 makes the advective limit, the min's first
    operand, NaN, and the bound NaN, which the caller's ``not dt > 0``
    check takes for a divergence before any step reads the NaN gradient.
    (A NaN sup u comes with a NaN min u, which the positivity check has
    caught already.)"""
    chi, a, two_b = p.chi, p.a, 2.0 * p.b
    safety, dt_max, floor = ctl.cfl_safety, ctl.dt_max, ADVECTION_FLOOR
    sqrt = math.sqrt

    def bound(grad_sq_sup: float, u_sup: float) -> float:
        speed = chi * sqrt(grad_sq_sup)
        advective = spacing / (floor if floor > speed else speed)
        reactive = 1.0 / (a + two_b * u_sup)
        dt = dt_max if dt_max < advective else advective
        return safety * (reactive if reactive < dt else dt)

    return bound


def _state_error(u_min: float, t: float, neg_tol: float) -> RuntimeError | None:
    """The error a member whose density reads ``u_min`` at time t leaves
    the run with, or None while its state is admissible."""
    if not math.isfinite(u_min):
        return DivergenceError(t)
    if u_min < -neg_tol:
        return PositivityViolationError(t, u_min)
    return None


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
    s0: SimState | Sequence[SimState],
    ctl: StepControl,
    sink: Callable[[DiagnosticsRecord], None] | Sequence[Callable[[DiagnosticsRecord], None]],
    *,
    plan: SemigroupPlan,
) -> SimState | list[SimState | RuntimeError]:
    """Advance to ctl.t_end, emitting a diagnostics record at the start time
    and then at every multiple of record_every (timestamps strictly
    increasing).  Each state's grad v is formed once from v_hat, and the
    next step and the record both read it.  Transform calls: two forward
    (u's band, v in full) and N full inverse (grad v) at the start, one band
    forward and one band inverse per step, and at each record the band
    inverses of v and lap v (of lap v alone at the start time, where v is
    the input, from the full spectrum that gave the first grad v).

    From 2D up a run's steps may run on two threads (see the module
    docstring): the helper thread starts with the run and is stopped when
    it ends, however it ends.

    ``s0`` may be a block: a sequence of states on one grid at one start
    time, with ``sink`` a sequence of one sink per member.  The members are
    stacked on a leading batch axis and stepped together, so the counts
    above hold for the whole block while its members step in lockstep.  Each
    member keeps its own CFL step, and a step gives each row its own (equal
    entries in lockstep).  A member that reaches the record time sits out
    the rest of the interval (its step is 0.0 and its rows keep their
    state), and a member that leaves the admissible state space leaves the
    block while the others go on.  Every member's records and final state
    equal those of its solo run bit for bit: batched transforms act row by
    row, and a coefficient that differs across the block is a column that
    gives each row its own value.  A single state is a one-member block
    without the batch axis, so its arrays and arithmetic are those of a solo
    run.

    Deterministic given (s0, ctl).  A single state returns its final
    :class:`SimState` and raises :class:`PositivityViolationError` or
    :class:`DivergenceError` with the offending time when the run leaves
    the admissible state space; records emitted so far remain with the sink.
    A step bound that is not > 0 (an overflowed or NaN norm) is divergence
    too.
    A block returns one entry per member: its final state, or the error it
    left the block with.
    """
    block = not isinstance(s0, SimState)
    states = list(s0) if block else [s0]
    sinks = list(sink) if block else [sink]
    t, grid = states[0].t, states[0].grid
    if len(sinks) != len(states) or any(s.t != t or s.grid != grid for s in states):
        raise InvalidParameterError("a block's states share one grid and start time")
    if ctl.t_end <= t:
        raise InvalidParameterError(f"t_end {ctl.t_end!r} must exceed start time {t!r}")
    if len(states) == 1:  # no batch axis: the member's row is the whole array
        u, v = states[0].u.values, states[0].v.values

        def rows(a: np.ndarray) -> tuple[np.ndarray]:
            return (a,)

    else:
        u = np.stack([s.u.values for s in states])
        v = np.stack([s.v.values for s in states])

        def rows(a: np.ndarray) -> np.ndarray:
            return a

    axes = tuple(range(-grid.dim, 0))  # a field's
    params = [s.params for s in states]
    v_hat = plan.to_spectral(v)
    st = _Stepper(plan, _Coefficients.of(params, grid.dim), u, v_hat)
    del u
    ends: list = [None] * len(states)
    live = list(range(len(states)))  # the member on each row
    ts = [t] * len(states)  # the time of each row
    bounds = [_step_bound(p, grid.spacing, ctl) for p in params]  # the step bound of each row

    def drop(errors: dict) -> list[int]:
        """The members on the rows in ``errors`` leave the block with their
        errors; returns the rows kept."""
        nonlocal live, ts, bounds, grad_sq_sups, u_sups
        kept = [row for row in range(len(live)) if row not in errors]
        for row, error in errors.items():
            ends[live[row]] = error
        live, ts = [live[row] for row in kept], [ts[row] for row in kept]
        bounds = [bounds[row] for row in kept]
        grad_sq_sups = [grad_sq_sups[row] for row in kept]
        u_sups = [u_sups[row] for row in kept]
        if live:
            st.keep(kept)
        return kept

    def record(t: float, v: np.ndarray, lap_v: np.ndarray) -> None:
        member_rows = zip(live, rows(st.u), rows(v), rows(st.scratch), rows(lap_v))
        for member, *arrays in member_rows:
            sinks[member](diagnostics(t, params[member], *arrays))

    neg_tol = ctl.neg_tol
    # The largest admissible -min u: neg_tol, but finite, so -min u = +inf
    # fails the check too, as does a NaN.
    high, inf = min(neg_tol, sys.float_info.max), math.inf
    try:
        _, grad_sq_sups, u_sups = st.monitor()
        lap_v = plan.to_physical(np.multiply(-plan.k2, v_hat, out=v_hat), overwrite=True)
        del v_hat  # spent: it goes before the record's temporaries come
        record(t, v, lap_v)
        del lap_v
        for target in record_times(t, ctl):
            tol = 1e-13 * max(1.0, target)
            while live:
                dts, cache, stalled = [], True, {}
                for row, t_row in enumerate(ts):
                    dt = 0.0  # a row that has reached the target sits out
                    remaining = target - t_row
                    if remaining > tol:
                        dt = bounds[row](grad_sq_sups[row], u_sups[row])
                        if not dt > 0.0:  # an overflowed or NaN norm: no step advances it
                            stalled[row], dt = DivergenceError(t_row), 0.0
                        elif remaining <= dt * (1.0 + 1e-9):
                            dt, cache = remaining, False
                        ts[row] = t_row + dt
                    dts.append(dt)
                if stalled:
                    dts = [dts[row] for row in drop(stalled)]
                if not any(dts):
                    break
                st.advance(dts, cache=cache)  # each row its own step; 0.0 sits out
                neg_mins, grad_sq_sups, u_sups = st.monitor()
                errors = {}
                for row, neg_min in enumerate(neg_mins):
                    if not -inf < neg_min <= high:
                        errors[row] = _state_error(-neg_min, ts[row], neg_tol)
                if errors and not drop(errors):
                    break
            if not live:
                break
            ts = [target] * len(live)
            v = st.v()
            finite = np.isfinite(v).all(axis=axes).ravel().tolist()
            if not all(finite):
                errors = {row: DivergenceError(target) for row, ok in enumerate(finite) if not ok}
                if not drop(errors):
                    break
                v = st.last_v
            record(target, v, st.lap_v())
    finally:
        st.stop()
    u_end = st.u
    del st  # its spectra and step buffers go before the final fields are copied
    for member, u_row, v_row in zip(live, rows(u_end), rows(v)):
        u, v_end = Field(grid, u_row), Field(grid, v_row)
        ends[member] = SimState(t=target, u=u, v=v_end, params=params[member])
    if block:
        return ends
    if isinstance(ends[0], RuntimeError):
        raise ends[0]
    return ends[0]
