"""Heat semigroup and spectral derivatives as Fourier multipliers.

On a periodic grid the semigroup generated by lap - sigma*I acts diagonally
on Fourier modes: mode k is scaled by exp(-(|k|^2 + sigma) t), which is exact
for the trigonometric interpolant.  The gradient and divergence compositions
are realised by the extra multiplier i*k, which is the constructive form of
the bounded extension of exp(t(lap - sigma I)) div.  With the
:class:`SemigroupPlan` methods, :func:`bind_div_hat` and m =
multiplier(t, sigma), E(t, sigma) f is to_physical(to_spectral(f) * m),
grad E(t, sigma) f is grad(to_spectral(f) * m) and E(t, sigma) div w is
to_physical(d * m) for the divergence spectrum
d = bind_div_hat(ik, to_spectral(w))().

Sup-norm facts used by tests and by the contraction horizon:

* plain semigroup:      |E(t, sigma) f|_inf <= exp(-sigma t) |f|_inf
* gradient composition: |grad E(t, sigma) f|_inf <= C t^(-1/2) exp(-sigma t) |f|_inf
* divergence extension: |E(t, sigma) div w|_inf <= C_div t^(-1/2) exp(-sigma t) |w|_inf

:func:`measure_gradient_constant` computes C on the grid as a product of
1D kernel norms, |d e_t|_1 |e_t|_1^(N-1) for the 1D heat kernel e_t,
exact in 1D and rounded up by a fixed margin of 64 machine epsilons per
heat factor in 2D/3D, so it never reads below the N-D kernels' norm.  C_div
= N C: the divergence kernel's norm sums the N gradient kernels' norms,
equal on a grid with the same points and extent on every axis.  The
continuum constants 1/sqrt(pi) and N/sqrt(pi) bound the discrete ones only
when sqrt(t) resolves the grid spacing: on 64 points over 2*pi at
t = 1e-3, C is 1.05, which is 1.86/sqrt(pi).

Every transform, gradient and divergence accepts a leading batch axis:
``to_spectral``, ``to_physical``, ``grad`` and ``bind_div_hat`` act on
the trailing ``dim`` axes, and pocketfft transforms each row of a stack
exactly as it transforms that row alone, so a batched call equals the
per-row calls bit for bit.  ``bind_div_hat`` takes the N component spectra
as rows.  The ETD1 step makes one batched forward and one batched inverse
call per step, over its (1+N)-row stack [u, d_1 v, ..., d_N v] (see
:mod:`chemotaxis_lab.imex`; from 2D up its band transforms walk the stack
row by row inside the call), and the Duhamel oracle transforms whole
blocks of quadrature nodes this way.

Every transform goes through :meth:`SemigroupPlan.to_spectral` and
:meth:`SemigroupPlan.to_physical`.  They call numpy's pocketfft kernels
(the ufuncs ``rfft_n_even``, ``fft``, ``ifft`` and ``irfft`` of
``numpy.fft._pocketfft_umath``, the ones ``np.fft`` calls) one axis at a
time in numpy's own ``rfftn`` order, scaled as numpy scales them (1
forward, 1/points per inverse axis), so the spectra and fields equal
``np.fft.rfftn``/``irfftn`` bit for bit.  ``np.fft.rfft`` and its siblings
make the same kernel calls after 4-6 us of Python dispatch each, most of a
transform on 64 points (a (2, 64) stack: ~8.5 us forward through
``np.fft.rfft``, ~2 us through the kernel).  The kernel module is private
to numpy; the bit-identity tests in ``tests/test_spectral.py`` guard it.
It is the package's only FFT, so a run imports no scipy: ``scipy.fft``
alone adds ~27 MB to a process, ``numpy.fft`` ~0.4 MB.  Fields are float64
and spectra complex128, as :class:`~chemotaxis_lab.core.Field` holds them
and the plan returns them; the kernels upcast an integer or float32 array.
Each kernel call runs on one thread and transforms one line at a time
(on a shared 2-vCPU host, scipy's pocketfft threads, which split each
transform with a wait per axis, made 64^3 runs 1.6 to 2.3 times slower,
because each transform waits for the slower core).  The band transforms of
a stack split it by whole rows instead: from 2D up, on rows of at least
``core.BLOCK_VALUES`` (2^15) values, in a process that may run on two CPUs
(:meth:`SemigroupPlan.band_threads`), the caller transforms the first
ceil(rows/2) rows and the :class:`Helper` thread it passes the rest, each
with its own work spectrum.  Every row gets the kernel calls it gets on
one thread, so the floats do not depend on the thread count.  On a shared
2-vCPU host a 4-row band forward and inverse took 5.6 against 10.2 ms at
64^3 and 1.24 against 1.65 ms at 32^3 (medians of 40 interleaved pairs in
one process); on 128^2 rows (2^14 values) a helper gained nothing
resolvable (0.59 against 0.62 ms) and at another time lost (0.88 against
0.51 ms).  The helper is the caller's, kept as long as the caller likes:
the ETD1 stepper starts one with the run and hands it the second half of
each pointwise phase of a step too (:mod:`chemotaxis_lab.imex`), and
``integrate`` stops it when the run ends, so a run starts one thread, not
one per call.  Each call runs the helper's half in a copy of the caller's
current context (so ``np.errstate`` holds there), an exception raised
there is raised in the caller, and the call returns once both threads are
done with it.  A call given no helper transforms every row on the caller.
A :class:`SemigroupPlan` is read-only after construction and safe to share
between threads.  The plan transforms in place the arrays it allocates
itself (``ik * spec`` in :meth:`SemigroupPlan.grad`, for example) and the
arrays a caller hands over: a bound divergence overwrites the spectra it
is bound to, ``to_physical(..., overwrite=True)`` may destroy its input,
and the band transforms write their ``out`` and ``work`` buffers.  No
other call modifies a caller's array.

The 2/3 band.  The ETD1 step keeps only the modes with |k index| <=
floor(points/3) on every axis (Orszag's 2/3 rule): 30% of a 64^3
spectrum.  ``to_spectral(values, band=True)`` writes those entries alone,
in ``band_shape`` (on a full axis the indices 0..keep, then
points-keep..points-1; on the half axis 0..keep), and
``to_physical(spec, band=True)`` inverts a band spectrum as the full
spectrum that is zero off the band.  They prune lines, not arithmetic
within a line (Markel's FFT pruning): the forward transforms every line
of the real-to-complex axis, and then on each later axis only the lines
whose outputs all stay in the band; the inverse skips every line the zero
padding leaves all zero, zeroes the padding the c2c lines it transforms
read, and hands the c2r kernel the half axis up to the band alone, which
the kernel pads with zeros itself.  Each line they do transform gets the
same kernel arithmetic as in the full transform, so the band forward
equals the full forward's band entries bit for bit, and the band inverse
equals the full inverse of the zero-padded spectrum bit for bit
(``tests/test_spectral.py``).  A band inverse's input is the band alone: a
full spectrum with content off the band has no band transform.  In 1D the
band is a prefix of the half spectrum: a band forward is the full one and
a copy of that prefix into the band spectra, which are contiguous (see
:meth:`SemigroupPlan.band_workspace`); a band inverse is one c2r call on
the band.
From 2D up the band transforms work row by row (one field of a stack at a
time) through a work buffer of one full spectrum per thread.  A band transform
allocates nothing: every call passes its ``out`` and ``work``, which
:meth:`SemigroupPlan.band_workspace` makes and the caller (the stepper)
owns, so the plan stays read-only.  Full transforms stay where a spectrum
is not band-limited: the stepper's input v (its full spectrum gives the first
stack's grad v and the start record's lap v; the input u needs only its
band) and the Duhamel oracle, whose product integration keeps every mode.
The gradient-constant calibration's kernels span the whole spectrum too,
but it transforms them on a 1D plan of one axis alone.
"""

from __future__ import annotations

import contextvars
import itertools
import math
import queue
import threading
from dataclasses import replace
from typing import Callable, Sequence

import numpy as np

# The kernels behind np.fft's rfft/fft/ifft/irfft, called without its
# per-call dispatch (see above).  The module is private to numpy, so the
# bit-identity tests against np.fft.rfftn/irfftn guard it.
from numpy.fft import _pocketfft_umath as _pocketfft

from .core import BLOCK_VALUES, Grid, row_chunks, usable_cpus

__all__ = [
    "CALIBRATION_TIMES",
    "Helper",
    "SemigroupPlan",
    "bind_div_hat",
    "measure_gradient_constant",
    "sum_of_squares",
]

# Multiplier values below this are flushed to zero to avoid denormal slowdowns.
_UNDERFLOW_FLUSH = 1e-300
# Times at which measure_gradient_constant evaluates the kernels.
CALIBRATION_TIMES = (1e-3, 1e-2, 1e-1, 1.0)
# Relative rounding-up of each heat factor in measure_gradient_constant's product.
_PRODUCT_MARGIN = 1.0 + 64 * np.finfo(np.float64).eps
# np.fft.rfft's kernel for an even point count; a Grid's point count is a
# power of two.
_rfft = _pocketfft.rfft_n_even


class Helper:
    """One helper thread, kept until :meth:`stop`, that takes the second
    half of a two-thread call: of a stack's band transform rows
    (:meth:`SemigroupPlan._by_rows`) or of a pointwise phase of the step
    (:mod:`chemotaxis_lab.imex`).  :meth:`run` hands the helper its half,
    which runs in a copy of the caller's current context (so numpy's error
    state, ``np.errstate``, holds there too), runs the caller's half on the
    caller, and returns once both have ended.  An exception the helper's
    half raises, a warning raised as an error among them, is raised in the
    caller.  :meth:`stop` ends the thread; its owner calls it once done."""

    __slots__ = ("_calls", "_results", "_thread")

    def __init__(self) -> None:
        self._calls, self._results = queue.SimpleQueue(), queue.SimpleQueue()
        # A daemon, so an owner that never stops it cannot hold up the exit.
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        calls, results = self._calls, self._results
        while (call := calls.get()) is not None:
            context, function, args = call
            try:
                results.put((context.run(function, *args), None))
            except BaseException as error:  # raised in the caller
                results.put((None, error))

    def run(self, mine: Callable, mine_args: tuple, theirs: Callable, theirs_args: tuple) -> tuple:
        """``mine(*mine_args)`` on the caller and ``theirs(*theirs_args)``
        on the helper, at once: their two results, once both have ended."""
        self._calls.put((contextvars.copy_context(), theirs, theirs_args))
        try:
            result = mine(*mine_args)
        finally:
            their_result, error = self._results.get()
        if error is not None:
            raise error
        return result, their_result

    def stop(self) -> None:
        """End the helper thread, once its last call has ended."""
        self._calls.put(None)
        self._thread.join()


def _each(transform, rows: Sequence[tuple], work: np.ndarray) -> None:
    """``transform(*row, work)`` for every row, in order."""
    for row in rows:
        transform(*row, work)


def _axes(axis: int) -> list[tuple[int, ...]]:
    """A kernel's ``axes`` argument for a transform along ``axis``: the core
    axis of the input, of the scale (a scalar) and of the output."""
    return [(axis,), (), (axis,)]


class SemigroupPlan:
    """Cached wavenumber arrays for one grid (rfftn layout) and its 2/3 band.

    Attributes
    ----------
    k2 : |k|^2 over the half-complex spectral shape.
    ik : per-axis i*k derivative multipliers, broadcastable to the spectral
         shape, with the Nyquist mode zeroed (odd derivatives of real data).
    band_shape : shape of a band spectrum, the 2/3 rule's entries
                 (|k index| <= keep = floor(points/3) on every axis): 2 keep
                 + 1 on each full axis (indices 0..keep, then
                 points-keep..points-1, in fftfreq order) and keep + 1 on the
                 half axis.
    band_k2, band_ik : ``k2`` and ``ik`` on the band.
    """

    __slots__ = (
        "grid", "k2", "ik", "spectral_shape", "band_shape", "band_k2", "band_ik",
        "_scale", "_prefix", "_blocks", "_full_axes", "_forward_lines", "_inverse_lines",
    )

    def __init__(self, grid: Grid):
        self.grid = grid
        n = grid.points
        d = grid.spacing
        dim = grid.dim
        k_full = 2.0 * np.pi * np.fft.fftfreq(n, d=d)
        k_half = 2.0 * np.pi * np.fft.rfftfreq(n, d=d)

        axes = [k_full] * (dim - 1) + [k_half]
        shape = tuple(len(ax) for ax in axes)
        self.spectral_shape = shape
        k2 = np.zeros(shape)
        ik = []
        for axis, k_axis in enumerate(axes):
            view = [1] * dim
            view[axis] = len(k_axis)
            k2 = k2 + (k_axis**2).reshape(view)
            k_deriv = k_axis.copy()
            # The Nyquist mode, index points // 2 of both the full and the
            # half axis, has no well-defined sign for odd derivatives.
            k_deriv[n // 2] = 0.0
            ik.append((1j * k_deriv).reshape(view))
        self.k2 = k2
        self.ik = tuple(ik)

        # 2/3 rule: keep |k index| <= floor(points/3) on every axis.
        keep = n // 3
        half = keep + 1
        self.band_shape = (2 * keep + 1,) * (dim - 1) + (half,)

        def band(values: np.ndarray, axis: int) -> np.ndarray:
            """The band entries of one axis's values: the low and the high
            run on a full axis, the low run on the half axis."""
            if axis == dim - 1:
                return values[:half]
            return np.concatenate((values[:half], values[n - keep :]))

        # The band arrays repeat the full arrays' arithmetic on the band's
        # wavenumbers, so they equal the full arrays' band entries bit for bit.
        band_k2 = np.zeros(self.band_shape)
        band_ik = []
        for axis, (k_axis, ik_axis) in enumerate(zip(axes, ik)):
            view = [1] * dim
            view[axis] = self.band_shape[axis]
            band_k2 = band_k2 + (band(k_axis, axis) ** 2).reshape(view)
            band_ik.append(band(ik_axis.ravel(), axis).reshape(view))
        self.band_k2 = band_k2
        self.band_ik = tuple(band_ik)

        # Every inverse axis is scaled by 1/points, as np.fft scales it.
        self._scale = 1.0 / n
        # The full transforms' c2c axes count from the end, past any batch axis.
        self._full_axes = [_axes(axis) for axis in range(-dim, -1)]

        # Index tuples of the band transforms (see the module docstring).  A
        # full axis holds the band in two runs: the low run 0..keep and the
        # high run points-keep..points-1.
        self._prefix = (Ellipsis, slice(0, half))  # the band of a 1D spectrum
        runs = [(slice(0, half), slice(0, half)), (slice(half, None), slice(n - keep, n))]
        full_runs = [entries for _, entries in runs]
        last = (slice(0, half),)
        # (band entries, full-spectrum entries) of each block of runs.
        self._blocks = [
            (
                (Ellipsis, *(band_entries for band_entries, _ in combo), slice(None)),
                (Ellipsis, *(entries for _, entries in combo), *last),
            )
            for combo in itertools.product(runs, repeat=dim - 1)
        ]

        def later_runs(axis):
            """The combinations of runs on the full axes after ``axis``."""
            return itertools.product(full_runs, repeat=dim - 2 - axis)

        whole = slice(None)
        gap = slice(half, n - keep)
        # Forward, c2c axes dim-2 down to 0: the lines in the band on every
        # axis already transformed.  Inverse, axes 0 up to dim-2: the lines
        # in the band on every axis not yet transformed, each first padded
        # with zeros on the transformed axis.
        self._forward_lines = [
            (_axes(axis), [(whole,) * (axis + 1) + combo + last for combo in later_runs(axis)])
            for axis in range(dim - 2, -1, -1)
        ]
        self._inverse_lines = [
            (
                _axes(axis),
                [(whole,) * axis + (gap,) + combo + last for combo in later_runs(axis)],
                [(whole,) * (axis + 1) + combo + last for combo in later_runs(axis)],
            )
            for axis in range(dim - 1)
        ]

    def to_spectral(
        self, values: np.ndarray, band: bool = False, *, out=None, work=None, helper=None
    ) -> np.ndarray:
        """rfftn over the trailing ``dim`` axes (a leading batch axis is
        allowed): the last axis real-to-complex, then the others from the
        second-to-last down to the first, in place, as numpy does.
        ``values`` is read as float64 (the kernel upcasts an integer or
        float32 array); the spectrum is complex128.

        The full spectrum is written into ``out`` if it is given (of the
        full spectral shape), else into a new array.

        ``band=True`` writes the band entries alone into ``out`` and returns
        it: the c2c lines whose outputs all leave the band are skipped.
        ``out`` and ``work`` are the caller's buffers (see
        :meth:`band_workspace`), which a band call must pass; a 1D band
        forward writes its r2c output, the stack's half spectra, into
        ``work`` and copies their prefix, the band, into ``out``.  From 2D
        up ``work`` is one full spectrum or one per thread, and a
        :class:`Helper` given as ``helper`` takes half the rows (:meth:`_by_rows`)."""
        if not band:
            # Kernel arguments: (array, scale, out), with ``axes`` off the last axis.
            spec = out
            if out is None:
                spec = np.empty(values.shape[:-1] + self.spectral_shape[-1:], np.complex128)
            _rfft(values, 1.0, spec)
            for axes in reversed(self._full_axes):
                _pocketfft.fft(spec, 1.0, spec, axes=axes)
            return spec
        if self.grid.dim == 1:
            _rfft(values, 1.0, work)
            out[...] = work[self._prefix]
            return out
        self._by_rows(self._forward_row, values, out, work, helper)
        return out

    def _forward_row(self, values: np.ndarray, out: np.ndarray, work: np.ndarray) -> None:
        """The band forward of one field into its band spectrum ``out``,
        through the full spectrum ``work``."""
        _rfft(values, 1.0, work)
        for axes, lines in self._forward_lines:
            for index in lines:
                line = work[index]
                _pocketfft.fft(line, 1.0, line, axes=axes)
        for band_entries, entries in self._blocks:
            out[band_entries] = work[entries]

    def to_physical(
        self,
        spec: np.ndarray,
        band: bool = False,
        *,
        overwrite: bool = False,
        out=None,
        work=None,
        helper=None,
    ) -> np.ndarray:
        """irfftn over the trailing ``dim`` axes, in numpy's order: the
        leading axes complex-to-complex, then the last complex-to-real, each
        normalised by its length.  ``spec`` must be complex128; the field is
        float64, written into ``out`` if it is given.  ``overwrite=True``
        lets the transform destroy ``spec``; pass it only for a temporary
        nothing else holds.

        ``band=True`` takes a band spectrum (shape ``band_shape``) and
        writes the field of its zero-padded full spectrum into ``out``; the
        c2c lines that the padding leaves all zero are skipped, and ``spec``
        is left as it is.  ``out`` and ``work`` are the caller's buffers (see
        :meth:`band_workspace`); a 1D band inverse reads no ``work``, since
        the c2r kernel pads a short half spectrum with zeros itself, and
        from 2D up it is as in :meth:`to_spectral`."""
        scale = self._scale
        if not band:
            for axes in self._full_axes:
                dest = spec if overwrite else np.empty(spec.shape, np.complex128)
                spec = _pocketfft.ifft(spec, scale, dest, axes=axes)
                overwrite = True
            if out is None:
                out = np.empty(spec.shape[:-1] + (self.grid.points,))
            # c2r's output length, the grid's point count, is read off ``out``.
            return _pocketfft.irfft(spec, scale, out)
        if self.grid.dim == 1:
            return _pocketfft.irfft(spec, scale, out)
        self._by_rows(self._inverse_row, spec, out, work, helper)
        return out

    def _inverse_row(self, spec: np.ndarray, out: np.ndarray, work: np.ndarray) -> None:
        """The band inverse of one band spectrum into its field ``out``,
        through the full spectrum ``work``."""
        scale = self._scale
        for band_entries, entries in self._blocks:
            work[entries] = spec[band_entries]
        for axes, padding, lines in self._inverse_lines:
            for index in padding:
                work[index] = 0.0
            for index in lines:
                line = work[index]
                _pocketfft.ifft(line, scale, line, axes=axes)
        # c2r reads the half axis up to the band alone (a view of ``work``)
        # and pads the rest with zeros itself.
        _pocketfft.irfft(work[self._prefix], scale, out)

    def _by_rows(
        self, transform, source: np.ndarray, dest: np.ndarray, work: np.ndarray, helper
    ) -> None:
        """``transform(source row, dest row, work spectrum)`` for every row
        of a stack, from 2D up, with ``work`` one full spectrum or one per
        thread (:meth:`band_workspace`).  Given a ``helper``, the caller
        transforms the first ceil(rows/2) rows with ``work[0]`` and the
        helper the rest with ``work[1]``; else the caller transforms all."""
        rows = [(source[row], dest[row]) for row in np.ndindex(source.shape[: -self.grid.dim])]
        works = work if work.ndim > self.grid.dim else work[np.newaxis]
        if helper is None:
            _each(transform, rows, works[0])
            return
        cut = (len(rows) + 1) // 2
        mine, theirs = (transform, rows[:cut], works[0]), (transform, rows[cut:], works[1])
        helper.run(_each, mine, _each, theirs)

    def band_threads(self) -> int:
        """The threads a stack's band transforms run on: from 2D up, two for
        rows of at least ``BLOCK_VALUES`` values, where a row's transform is
        compute-bound (on 128^2 rows a helper thread gained nothing; see the
        module docstring), if the process may run on two CPUs
        (:func:`core.usable_cpus`); else one."""
        grid = self.grid
        if grid.dim == 1 or math.prod(grid.shape) < BLOCK_VALUES:
            return 1
        return min(2, usable_cpus())

    def band_workspace(self, lead: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """Buffers for the band transforms of a stack with leading shape
        ``lead``: its band spectra and the transforms' ``work``, which only
        the band transforms may write.  From 2D up ``work`` holds one full
        spectrum per thread the grid's band transforms run on
        (:meth:`band_threads`), shape ``(threads, *spectral_shape)``, and
        each thread reuses its spectrum row by row; ``work[0]`` serves a call
        on the caller's thread alone.  In 1D it is the stack's half spectra,
        which only the band forward uses: the kernel writes each whole half
        spectrum there, and the forward copies their prefix into the band
        spectra.  The band spectra are contiguous in every dimension: on 22
        modes a product over two rows of the (2, 33) half spectra's prefix
        view took ~3x as long as over a contiguous (2, 22) array, which
        outweighs the prefix's copy."""
        spec = np.empty(lead + self.band_shape, np.complex128)
        if self.grid.dim == 1:
            work_shape = lead + self.spectral_shape
        else:
            work_shape = (self.band_threads(),) + self.spectral_shape
        return spec, np.empty(work_shape, np.complex128)

    def band_of(self, spec: np.ndarray) -> np.ndarray:
        """The band entries of the full spectrum ``spec`` (a leading batch
        axis is allowed), copied."""
        out = np.empty(spec.shape[: -self.grid.dim] + self.band_shape, np.complex128)
        for band_entries, entries in self._blocks:
            out[band_entries] = spec[entries]
        return out

    def grad(self, spec: np.ndarray, out=None) -> list[np.ndarray]:
        """Physical-space gradient components of the full spectrum ``spec``
        (a leading batch axis is allowed): new fields, or the rows of
        ``out``, which they are written into."""
        rows = [None] * self.grid.dim if out is None else out
        return [
            self.to_physical(ik * spec, overwrite=True, out=row) for ik, row in zip(self.ik, rows)
        ]

    def multiplier(self, t: float, sigma: float, band: bool = False) -> np.ndarray:
        """exp(-(|k|^2 + sigma) t) per mode (on the band with ``band=True``),
        flushed to zero below 1e-300."""
        m = np.exp(-((self.band_k2 if band else self.k2) + sigma) * t)
        m[m < _UNDERFLOW_FLUSH] = 0.0
        return m

    def phi1(self, t: float, sigma: float, band: bool = False) -> np.ndarray:
        """Exact integral of exp(-(|k|^2 + sigma) s) over s in [0, t], per
        mode (on the band with ``band=True``): -expm1(-(|k|^2 + sigma) t) /
        (|k|^2 + sigma).  The ``expm1`` form keeps full precision when
        (|k|^2 + sigma) t is small.  Needs sigma > 0, since the k = 0 mode
        divides by sigma."""
        rate = (self.band_k2 if band else self.k2) + sigma
        return -np.expm1(-rate * t) / rate


def bind_div_hat(iks: Sequence[np.ndarray], specs: np.ndarray) -> Callable[[], np.ndarray]:
    """The divergence bound once to the rows of ``specs``, the spectra of a
    vector field's components (each may carry a leading batch axis), with
    the derivative multipliers ``iks`` (a plan's ``ik``, or ``band_ik`` for
    band spectra): a callable that forms sum_i iks[i] specs[i] of the
    spectra the rows hold when it is called, accumulated axis by axis, with
    no per-call slicing.  The rows are overwritten with the products and
    the sum is returned in the first row, so no spectrum-sized temporary is
    made."""
    acc, first, rest = specs[0], iks[0], tuple(zip(iks[1:], specs[1:]))
    multiply, add = np.multiply, np.add

    def div_hat() -> np.ndarray:
        multiply(first, acc, acc)
        for ik, row in rest:
            multiply(ik, row, row)
            add(acc, row, acc)
        return acc

    return div_hat


def sum_of_squares(components, out: np.ndarray) -> np.ndarray:
    """Pointwise sum of the squared components (|grad v|^2 for the output
    of :meth:`SemigroupPlan.grad`, or for the stepper's grad v rows),
    accumulated axis by axis in ``out``, which is returned.  The squares
    after the first are taken a chunk of ``out``'s first axis at a time
    (:func:`~chemotaxis_lab.core.row_chunks`), so no temporary as large as
    a component is made."""
    first = components[0]
    np.multiply(first, first, out)
    # By index: iterating an array, even an empty slice, costs ~0.5 us.
    for axis in range(1, len(components)):
        c = components[axis]
        for rows in row_chunks(out):
            chunk = c[rows]
            out[rows] += chunk * chunk
    return out


def measure_gradient_constant(plan: SemigroupPlan) -> float:
    """Gradient smoothing constant on the plan's grid: the max over
    CALIBRATION_TIMES and axes of sqrt(t) times the l1 norm of the kernel
    d_i E(t) delta, which is the sup-to-sup norm of that periodic
    convolution.  E(t, sigma) = exp(-sigma t) E(t, 0), so the constant
    holds for every sigma >= 0.

    The heat kernel is a product of 1D kernels, so d_i E(t) delta is the 1D
    derivative kernel d e_t on axis i times the 1D heat kernel e_t on every
    other axis, and its l1 norm is |d e_t|_1 |e_t|_1^(N-1), the same on
    every axis (each has the grid's points and extent).  Both 1D kernels
    come from a 1D plan of one axis: a unit delta's spectrum is 1 on every
    mode, so a kernel's spectrum is the multiplier itself.  That is two 1D
    transforms per time, where the N-D kernels took N N-D ones (12 at 64^3,
    ~40 ms).  In 1D there is no heat factor: the constant is the kernel
    norm itself.

    From 2D up each heat factor is rounded up by 64 machine epsilons
    (1.4e-14 relative).  The N-D kernels' norm is the same number through
    other roundings (an N-D transform and a sum of points^N terms), and the
    two read a few ulps apart, either side (under 1e-15 relative on the
    tested grids).  The constant bounds a sup-to-sup norm, so it must not
    read below the N-D norm; the margin covers those ulps many times over
    and keeps the constant within 1e-13 of that norm."""
    rest = plan.grid.dim - 1
    line = SemigroupPlan(replace(plan.grid, dim=1)) if rest else plan
    best = 0.0
    for t in CALIBRATION_TIMES:
        m = line.multiplier(t, 0.0)
        (deriv,) = line.grad(m)
        norm = float(np.abs(deriv).sum()) * np.sqrt(t)
        if rest:
            heat = line.to_physical(m.astype(np.complex128), overwrite=True)
            norm *= (float(np.abs(heat).sum()) * _PRODUCT_MARGIN) ** rest
        best = max(best, norm)
    return best
