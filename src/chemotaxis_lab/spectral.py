"""Heat semigroup and spectral derivatives as Fourier multipliers.

On a periodic grid the semigroup generated by lap - sigma*I acts diagonally
on Fourier modes: mode k is scaled by exp(-(|k|^2 + sigma) t), which is exact
for the trigonometric interpolant.  The gradient and divergence compositions
are realised by the extra multiplier i*k, which is the constructive form of
the bounded extension of exp(t(lap - sigma I)) div.  With the
:class:`SemigroupPlan` methods and m = multiplier(t, sigma), E(t, sigma) f
is to_physical(to_spectral(f) * m), grad E(t, sigma) f is
grad(to_spectral(f) * m) and E(t, sigma) div w is to_physical(div_hat(w) * m).

Sup-norm facts used by tests and by the contraction horizon:

* plain semigroup:      |E(t, sigma) f|_inf <= exp(-sigma t) |f|_inf
* gradient composition: |grad E(t, sigma) f|_inf <= C t^(-1/2) exp(-sigma t) |f|_inf
* divergence extension: |E(t, sigma) div w|_inf <= C_div t^(-1/2) exp(-sigma t) |w|_inf

:func:`measure_gradient_constant` computes C exactly on the grid, and
C_div = N C exactly: its kernel's norm sums the N gradient kernels' norms,
equal on a grid with the same points and extent on every axis.  The
continuum constants 1/sqrt(pi) and N/sqrt(pi) bound the discrete ones only
when sqrt(t) resolves the grid spacing: on 64 points over 2*pi at
t = 1e-3, C is 1.05, which is 1.86/sqrt(pi).

Every transform, gradient and divergence accepts a leading batch axis:
``to_spectral``, ``to_physical``, ``grad`` and ``div_hat`` act on the
trailing ``dim`` axes, and pocketfft transforms each row of a stack exactly
as it transforms that row alone, so a batched call equals the per-row calls
bit for bit.  ``div_hat`` takes the N component spectra as rows.  The ETD1
step makes one batched forward and one batched inverse call per step, over
its (1+N)-row stack [u, d_1 v, ..., d_N v] (see :mod:`chemotaxis_lab.imex`),
and the Duhamel oracle transforms whole blocks of quadrature nodes this way.

Every transform goes through :meth:`SemigroupPlan.to_spectral` and
:meth:`SemigroupPlan.to_physical`.  They call pocketfft's kernels (``r2c``,
``c2c``, ``c2r``: the ones ``scipy.fft`` wraps) one axis at a time in
numpy's own ``rfftn`` order, so the spectra and fields equal
``np.fft.rfftn``/``irfftn`` bit for bit.  ``scipy.fft.rfft`` and its
siblings make the same kernel calls after ~5 us of Python dispatch each,
most of a transform on 64 points (a (2, 64) stack: ~7 us forward through
``scipy.fft``, ~1.6 us through the kernel).  The kernel module is private
to scipy; the bit-identity tests in ``tests/test_spectral.py`` guard it.
Fields are float64 and spectra complex128, as
:class:`~chemotaxis_lab.core.Field` holds them and the plan returns them;
an integer array, which ``scipy.fft`` upcast, raises.  The transforms run
on one thread: on a shared 2-vCPU host, pocketfft's threads made 64^3 runs
1.6 to 2.3 times slower, because each transform waits for the slower core.
A :class:`SemigroupPlan` is read-only after construction and safe to share
between threads.  The plan transforms in place the arrays it allocates
itself (``ik * spec`` in :meth:`SemigroupPlan.grad`, for example) and the
arrays a caller hands over: ``div_hat`` overwrites the spectra it is given,
and ``to_physical(..., overwrite=True)`` may destroy its input.  No other
call modifies a caller's array.
"""

from __future__ import annotations

import numpy as np

# The kernels behind scipy.fft's rfft/fft/ifft/irfft, called without its
# per-call dispatch (see above).  The module is private to scipy, so the
# bit-identity tests against np.fft.rfftn/irfftn guard it.
from scipy.fft._pocketfft import pypocketfft as _pocketfft

from .core import Grid

__all__ = [
    "CALIBRATION_TIMES",
    "SemigroupPlan",
    "measure_gradient_constant",
    "sum_of_squares",
]

# Multiplier values below this are flushed to zero to avoid denormal slowdowns.
_UNDERFLOW_FLUSH = 1e-300
# Times at which measure_gradient_constant evaluates the kernels.
CALIBRATION_TIMES = (1e-3, 1e-2, 1e-1, 1.0)


class SemigroupPlan:
    """Cached wavenumber arrays for one grid (rfftn layout).

    Attributes
    ----------
    k2 : |k|^2 over the half-complex spectral shape.
    ik : per-axis i*k derivative multipliers, broadcastable to the spectral
         shape, with the Nyquist mode zeroed (odd derivatives of real data).
    dealias : read-only 2/3-rule mask over the spectral shape: keep
              |k index| <= floor(points/3) on every axis.
    """

    __slots__ = ("grid", "k2", "ik", "spectral_shape", "dealias")

    def __init__(self, grid: Grid):
        self.grid = grid
        n = grid.points
        d = grid.spacing
        k_full = 2.0 * np.pi * np.fft.fftfreq(n, d=d)
        k_half = 2.0 * np.pi * np.fft.rfftfreq(n, d=d)

        axes = [k_full] * (grid.dim - 1) + [k_half]
        shape = tuple(len(ax) for ax in axes)
        self.spectral_shape = shape

        k2 = np.zeros(shape)
        ik = []
        for axis, k_axis in enumerate(axes):
            view = [1] * grid.dim
            view[axis] = len(k_axis)
            k2 = k2 + (k_axis**2).reshape(view)
            k_deriv = k_axis.copy()
            # Nyquist mode has no well-defined sign for odd derivatives.
            k_deriv[np.isclose(np.abs(k_axis), np.pi / d)] = 0.0
            ik.append((1j * k_deriv).reshape(view))
        self.k2 = k2
        self.ik = tuple(ik)

        # 2/3 rule: keep |k index| <= floor(points/3) on every axis.
        keep = n // 3
        idx_full = np.abs(np.fft.fftfreq(n, d=1.0 / n))
        idx_half = np.abs(np.fft.rfftfreq(n, d=1.0 / n))
        mask = np.ones(shape, dtype=bool)
        for axis, idx in enumerate([idx_full] * (grid.dim - 1) + [idx_half]):
            view = [1] * grid.dim
            view[axis] = len(idx)
            mask &= (idx <= keep).reshape(view)
        mask.flags.writeable = False
        self.dealias = mask

    def to_spectral(self, values: np.ndarray) -> np.ndarray:
        """rfftn over the trailing ``dim`` axes (a leading batch axis is
        allowed): the last axis real-to-complex, then the others from the
        second-to-last down to the first, in place, as numpy does.
        ``values`` must be float64; the spectrum is complex128."""
        # Kernel arguments: (array, axes, forward, inorm, out, nthreads).
        spec = _pocketfft.r2c(values, (-1,), True, 0, None, 1)
        for axis in range(-2, -self.grid.dim - 1, -1):
            _pocketfft.c2c(spec, (axis,), True, 0, spec, 1)
        return spec

    def to_physical(self, spec: np.ndarray, *, overwrite: bool = False) -> np.ndarray:
        """irfftn over the trailing ``dim`` axes, in numpy's order: the
        leading axes complex-to-complex, then the last complex-to-real, each
        normalised by its length.  ``spec`` must be complex128; the field is
        float64.  ``overwrite=True`` lets the transform destroy ``spec``;
        pass it only for a temporary nothing else holds."""
        for axis in range(-self.grid.dim, -1):
            spec = _pocketfft.c2c(spec, (axis,), False, 2, spec if overwrite else None, 1)
            overwrite = True
        # c2r's third argument is the length of the real output axis.
        return _pocketfft.c2r(spec, (-1,), self.grid.points, False, 2, None, 1)

    def grad(self, spec: np.ndarray) -> list[np.ndarray]:
        """Physical-space gradient components of the spectrum ``spec`` (a
        leading batch axis is allowed)."""
        return [self.to_physical(ik * spec, overwrite=True) for ik in self.ik]

    def div_hat(self, specs: np.ndarray) -> np.ndarray:
        """Spectrum of the divergence of a vector field, given the spectra of
        its components as the rows of ``specs`` (each may carry a leading
        batch axis): sum_i ik_i specs[i], accumulated axis by axis.  The
        rows are overwritten with the products and the sum is returned in
        the first row, so no spectrum-sized temporary is made."""
        acc = specs[0]
        np.multiply(self.ik[0], acc, out=acc)
        for ik, row in zip(self.ik[1:], specs[1:]):
            np.multiply(ik, row, out=row)
            acc += row
        return acc

    def multiplier(self, t: float, sigma: float) -> np.ndarray:
        m = np.exp(-(self.k2 + sigma) * t)
        m[m < _UNDERFLOW_FLUSH] = 0.0
        return m

    def phi1(self, t: float, sigma: float) -> np.ndarray:
        """Exact integral of exp(-(|k|^2 + sigma) s) over s in [0, t], per
        mode: -expm1(-(|k|^2 + sigma) t) / (|k|^2 + sigma).  The ``expm1``
        form keeps full precision when (|k|^2 + sigma) t is small.  Needs
        sigma > 0, since the k = 0 mode divides by sigma."""
        rate = self.k2 + sigma
        return -np.expm1(-rate * t) / rate


def sum_of_squares(components) -> np.ndarray:
    """Pointwise sum of the squared components (|grad v|^2 for the output
    of :meth:`SemigroupPlan.grad`), accumulated axis by axis."""
    out = components[0] * components[0]
    for c in components[1:]:
        out += c * c
    return out


def measure_gradient_constant(plan: SemigroupPlan) -> float:
    """Exact gradient smoothing constant on the plan's grid: the max over
    CALIBRATION_TIMES and axes of sqrt(t) times the l1 norm of the kernel
    d_i E(t) delta, which is the sup-to-sup norm of that periodic
    convolution.  E(t, sigma) = exp(-sigma t) E(t, 0), so the constant
    holds for every sigma >= 0.  The unit delta's spectrum is 1 on every
    mode, so the kernel's spectrum is the multiplier itself."""
    best = 0.0
    for t in CALIBRATION_TIMES:
        weight = np.sqrt(t)
        for kernel in plan.grad(plan.multiplier(t, 0.0)):
            best = max(best, float(np.abs(kernel).sum()) * weight)
    return best
