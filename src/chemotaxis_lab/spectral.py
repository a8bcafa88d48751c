"""Heat semigroup and spectral derivatives as Fourier multipliers.

On a periodic grid the semigroup generated by lap - sigma*I acts diagonally
on Fourier modes: mode k is scaled by exp(-(|k|^2 + sigma) t), which is exact
for the trigonometric interpolant.  The gradient and divergence compositions
are realised by the extra multiplier i*k, which is the constructive form of
the bounded extension of exp(t(lap - sigma I)) div.

Sup-norm facts used by tests and by the contraction horizon:

* plain semigroup:      |E(t, sigma) f|_inf <= exp(-sigma t) |f|_inf
* gradient composition: |grad E(t, sigma) f|_inf <= C t^(-1/2) exp(-sigma t) |f|_inf
* divergence extension: |E(t, sigma) div w|_inf <= (N/sqrt(pi)) t^(-1/2) exp(-sigma t) |w|_inf

:func:`measure_gradient_constant` computes C exactly on the grid.  The
continuum constants 1/sqrt(pi) (gradient) and N/sqrt(pi) (divergence) bound
the discrete ones only when sqrt(t) resolves the grid spacing: on 64 points
over 2*pi at t = 1e-3, C is 1.05, which is 1.86/sqrt(pi).

Every transform goes through :meth:`SemigroupPlan.to_spectral` and
:meth:`SemigroupPlan.to_physical`.  They run pocketfft (``scipy.fft``) one
axis at a time in numpy's own ``rfftn`` order, so the spectra and fields
equal ``np.fft.rfftn``/``irfftn`` bit for bit.  They run on one thread: on
a shared 2-vCPU host, pocketfft's threads made 64^3 runs 1.6 to 2.3 times
slower, because each transform waits for the slower core.  A
:class:`SemigroupPlan` is read-only after construction and safe to share
between threads.  The plan may transform in place only arrays it allocated
itself (``ik * spec`` in :meth:`SemigroupPlan.grad`, for example); a
caller's array is never modified.
"""

from __future__ import annotations

import numpy as np
import scipy.fft

from .core import Field, Grid, GridMismatchError, InvalidParameterError, VectorField

__all__ = [
    "SemigroupPlan",
    "apply_semigroup",
    "apply_semigroup_grad",
    "apply_semigroup_div",
    "gradient",
    "laplacian",
    "measure_gradient_constant",
    "sum_of_squares",
]

# Multiplier values below this are flushed to zero to avoid denormal slowdowns.
_UNDERFLOW_FLUSH = 1e-300


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
        second-to-last down to the first, as numpy does."""
        spec = scipy.fft.rfft(values, axis=-1)
        for axis in range(-2, -self.grid.dim - 1, -1):
            spec = scipy.fft.fft(spec, axis=axis, overwrite_x=True)
        return spec

    def to_physical(self, spec: np.ndarray, *, overwrite: bool = False) -> np.ndarray:
        """irfftn over the trailing ``dim`` axes, in numpy's order.
        ``overwrite=True`` lets the transform destroy ``spec``; pass it only
        for a temporary nothing else holds."""
        for axis in range(-self.grid.dim, -1):
            spec = scipy.fft.ifft(spec, axis=axis, overwrite_x=overwrite)
            overwrite = True
        return scipy.fft.irfft(spec, n=self.grid.points, axis=-1, overwrite_x=overwrite)

    def grad(self, spec: np.ndarray) -> list[np.ndarray]:
        """Physical-space gradient components of the spectrum ``spec``."""
        return [self.to_physical(ik * spec, overwrite=True) for ik in self.ik]

    def div_hat(self, components) -> np.ndarray:
        """Spectrum of the divergence of physical-space ``components``,
        accumulated axis by axis."""
        acc = np.zeros(self.spectral_shape, dtype=np.complex128)
        for ik, comp in zip(self.ik, components):
            acc += ik * self.to_spectral(comp)
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


def _check_args(plan: SemigroupPlan, grid: Grid, t: float, sigma: float, *, strict_t: bool) -> None:
    if grid != plan.grid:
        raise GridMismatchError("field grid does not match plan grid")
    if not np.isfinite(t) or t < 0.0 or (strict_t and t == 0.0):
        kind = "> 0" if strict_t else ">= 0"
        raise InvalidParameterError(f"time must be {kind}, got {t!r}")
    if not np.isfinite(sigma) or sigma < 0.0:
        raise InvalidParameterError(f"sigma must be >= 0, got {sigma!r}")


def apply_semigroup(plan: SemigroupPlan, f: Field, t: float, sigma: float = 0.0) -> Field:
    """Apply exp(t(lap - sigma I)) to ``f``.  Exact identity at t = 0."""
    _check_args(plan, f.grid, t, sigma, strict_t=False)
    if t == 0.0:
        return f.copy()
    spec = plan.to_spectral(f.values) * plan.multiplier(t, sigma)
    return Field(f.grid, plan.to_physical(spec, overwrite=True))


def apply_semigroup_grad(
    plan: SemigroupPlan, f: Field, t: float, sigma: float = 0.0
) -> VectorField:
    """Apply grad exp(t(lap - sigma I)) to ``f``; requires t > 0."""
    _check_args(plan, f.grid, t, sigma, strict_t=True)
    spec = plan.to_spectral(f.values) * plan.multiplier(t, sigma)
    return VectorField(f.grid, plan.grad(spec))


def apply_semigroup_div(
    plan: SemigroupPlan, w: VectorField, t: float, sigma: float = 0.0
) -> Field:
    """Apply the bounded extension exp(t(lap - sigma I)) div to ``w``; t > 0."""
    _check_args(plan, w.grid, t, sigma, strict_t=True)
    acc = plan.div_hat(w.components)
    return Field(w.grid, plan.to_physical(acc * plan.multiplier(t, sigma), overwrite=True))


def gradient(plan: SemigroupPlan, f: Field) -> VectorField:
    """Exact spectral gradient of the trigonometric interpolant."""
    if f.grid != plan.grid:
        raise GridMismatchError("field grid does not match plan grid")
    return VectorField(f.grid, plan.grad(plan.to_spectral(f.values)))


def sum_of_squares(components) -> np.ndarray:
    """Pointwise sum of the squared components (|grad v|^2 for the output
    of :meth:`SemigroupPlan.grad`), accumulated axis by axis."""
    out = np.zeros(components[0].shape)
    for c in components:
        out += c * c
    return out


def laplacian(plan: SemigroupPlan, f: Field) -> Field:
    """Exact spectral Laplacian of the trigonometric interpolant."""
    if f.grid != plan.grid:
        raise GridMismatchError("field grid does not match plan grid")
    spec = plan.to_spectral(f.values)
    return Field(f.grid, plan.to_physical(-plan.k2 * spec, overwrite=True))


def measure_gradient_constant(
    plan: SemigroupPlan, *, times=(1e-3, 1e-2, 1e-1, 1.0), sigma: float = 0.0
) -> float:
    """Exact gradient smoothing constant on the plan's grid: the max over
    ``times`` and axes of sqrt(t) exp(sigma t) times the l1 norm of the
    kernel d_i E(t, sigma) delta, which is the sup-to-sup norm of that
    periodic convolution.  The unit delta's spectrum is 1 on every mode, so
    the kernel's spectrum is the multiplier itself."""
    times = tuple(times)
    for t in times:
        _check_args(plan, plan.grid, t, sigma, strict_t=True)
    best = 0.0
    for t in times:
        weight = np.sqrt(t) * np.exp(sigma * t)
        for kernel in plan.grad(plan.multiplier(t, sigma)):
            best = max(best, float(np.abs(kernel).sum()) * weight)
    return best
