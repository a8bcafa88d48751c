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

The gradient constant C is generic; :func:`measure_gradient_constant` records
an empirical envelope instead of assuming a literature value.

A :class:`SemigroupPlan` is read-only after construction and safe to share
between threads; the apply functions allocate their own scratch arrays.
"""

from __future__ import annotations

import numpy as np

from .core import Field, Grid, GridMismatchError, InvalidParameterError, VectorField

__all__ = [
    "SemigroupPlan",
    "apply_semigroup",
    "apply_semigroup_grad",
    "apply_semigroup_div",
    "gradient",
    "laplacian",
    "dealias_mask",
    "measure_gradient_constant",
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
    """

    __slots__ = ("grid", "k2", "ik", "spectral_shape")

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

    def to_spectral(self, values: np.ndarray) -> np.ndarray:
        return np.fft.rfftn(values)

    def to_physical(self, spec: np.ndarray) -> np.ndarray:
        return np.fft.irfftn(spec, s=self.grid.shape, axes=tuple(range(self.grid.dim)))

    def grad(self, spec: np.ndarray) -> list[np.ndarray]:
        """Physical-space gradient components of the spectrum ``spec``."""
        return [self.to_physical(ik * spec) for ik in self.ik]

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
    return Field(f.grid, plan.to_physical(spec))


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
    return Field(w.grid, plan.to_physical(acc * plan.multiplier(t, sigma)))


def gradient(plan: SemigroupPlan, f: Field) -> VectorField:
    """Exact spectral gradient of the trigonometric interpolant."""
    if f.grid != plan.grid:
        raise GridMismatchError("field grid does not match plan grid")
    return VectorField(f.grid, plan.grad(plan.to_spectral(f.values)))


def laplacian(plan: SemigroupPlan, f: Field) -> Field:
    """Exact spectral Laplacian of the trigonometric interpolant."""
    if f.grid != plan.grid:
        raise GridMismatchError("field grid does not match plan grid")
    spec = plan.to_spectral(f.values)
    return Field(f.grid, plan.to_physical(-plan.k2 * spec))


def dealias_mask(plan: SemigroupPlan) -> np.ndarray:
    """2/3-rule mask in rfftn layout: keep |k index| <= floor(points/3)."""
    n = plan.grid.points
    keep = n // 3
    idx_full = np.abs(np.fft.fftfreq(n, d=1.0 / n))
    idx_half = np.abs(np.fft.rfftfreq(n, d=1.0 / n))
    axes = [idx_full] * (plan.grid.dim - 1) + [idx_half]
    mask = np.ones(plan.spectral_shape, dtype=bool)
    for axis, idx in enumerate(axes):
        view = [1] * plan.grid.dim
        view[axis] = len(idx)
        mask &= (idx <= keep).reshape(view)
    return mask


def measure_gradient_constant(
    plan: SemigroupPlan,
    *,
    times=(1e-3, 1e-2, 1e-1, 1.0),
    sigma: float = 0.0,
    n_fields: int = 16,
    seed: int = 0,
) -> float:
    """Empirical envelope constant for the gradient smoothing estimate.

    Sweeps random unit-sup-norm fields over ``times`` and records the max of
    |grad E(t, sigma) f|_inf * sqrt(t) * exp(sigma t).  Deterministic for a
    fixed seed.
    """
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(n_fields):
        values = rng.uniform(-1.0, 1.0, plan.grid.shape)
        values /= np.abs(values).max()
        f = Field(plan.grid, values)
        for t in times:
            g = apply_semigroup_grad(plan, f, t, sigma)
            best = max(best, g.sup_abs() * np.sqrt(t) * np.exp(sigma * t))
    return best
