"""Parameters, grids, fields, and simulation state.

The model solved throughout this package is the chemotaxis system with
logistic growth,

    u_t = lap(u) - chi * div(u grad v) + u (a - b u)
    v_t = lap(v) - lam * v + mu * u

for a population density u and a chemical concentration v, posed on a
periodic box [0, L)^N standing in for free space.  Everything downstream
(spectral operators, solvers, verdicts) shares the types defined here.

All objects are immutable after construction except the value buffers of
:class:`Field` / :class:`VectorField`; nothing in this module mutates
shared state, so instances may be passed freely between workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "InvalidParameterError",
    "GridMismatchError",
    "Params",
    "Grid",
    "Field",
    "VectorField",
    "SimState",
]


class InvalidParameterError(ValueError):
    """A model coefficient or option violates its domain constraint."""


class GridMismatchError(ValueError):
    """Two grid-bound objects live on different grids."""


@dataclass(frozen=True)
class Params:
    """Coefficients of the chemotaxis-logistic system.

    chi   chemotactic sensitivity (> 0)
    a     intrinsic growth rate (> 0)
    b     logistic damping (> 0)
    lam   chemical decay rate (> 0)
    mu    chemical production rate (> 0)
    dim   spatial dimension, one of 1, 2, 3
    """

    chi: float
    a: float
    b: float
    lam: float
    mu: float
    dim: int

    def __post_init__(self) -> None:
        for name in ("chi", "a", "b", "lam", "mu"):
            value = getattr(self, name)
            if not np.isfinite(value) or value <= 0.0:
                raise InvalidParameterError(
                    f"coefficient {name!r} must be finite and > 0, got {value!r}"
                )
        if self.dim not in (1, 2, 3):
            raise InvalidParameterError(f"dim must be 1, 2 or 3, got {self.dim!r}")

    @property
    def steady_u(self) -> float:
        """Spatially homogeneous equilibrium density a/b."""
        return self.a / self.b

    @property
    def steady_v(self) -> float:
        """Spatially homogeneous equilibrium concentration mu*a/(lam*b)."""
        return self.mu * self.a / (self.lam * self.b)


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [0, extent)^dim with ``points`` nodes per axis.

    ``points`` must be a power of two (>= 8) so transforms stay fast.
    """

    dim: int
    extent: float
    points: int

    def __post_init__(self) -> None:
        if self.dim not in (1, 2, 3):
            raise InvalidParameterError(f"grid dim must be 1, 2 or 3, got {self.dim!r}")
        if not (np.isfinite(self.extent) and self.extent > 0.0):
            raise InvalidParameterError(f"grid extent must be > 0, got {self.extent!r}")
        if self.points < 8 or not _is_power_of_two(self.points):
            raise InvalidParameterError(
                f"points must be a power of two >= 8, got {self.points!r}"
            )

    @property
    def spacing(self) -> float:
        return self.extent / self.points

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points,) * self.dim

    def axis_coordinates(self) -> np.ndarray:
        """Node positions along one axis."""
        return np.arange(self.points) * self.spacing

    def coordinate_arrays(self) -> tuple[np.ndarray, ...]:
        """Meshgrid (ij indexing) of node positions, one array per axis."""
        axes = [self.axis_coordinates() for _ in range(self.dim)]
        return tuple(np.meshgrid(*axes, indexing="ij"))


class Field:
    """Real scalar grid function.  Owns a float64 copy of its values."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values, *, nonnegative: bool = False, tol_neg: float = 0.0):
        arr = np.array(values, dtype=np.float64, copy=True)
        if arr.shape != grid.shape:
            raise GridMismatchError(f"values shape {arr.shape} != grid shape {grid.shape}")
        if not np.all(np.isfinite(arr)):
            raise InvalidParameterError("field values must be finite")
        if nonnegative and arr.min() < -tol_neg:
            raise InvalidParameterError(
                f"field flagged nonnegative has min {arr.min()!r} < -{tol_neg!r}"
            )
        self.grid = grid
        self.values = arr

    def sup(self) -> float:
        return float(self.values.max())

    def inf(self) -> float:
        return float(self.values.min())

    def sup_abs(self) -> float:
        return float(np.abs(self.values).max())

    def copy(self) -> "Field":
        return Field(self.grid, self.values)


class VectorField:
    """Tuple of per-axis real grid functions (e.g. a gradient)."""

    __slots__ = ("grid", "components")

    def __init__(self, grid: Grid, components):
        comps = tuple(np.array(c, dtype=np.float64, copy=True) for c in components)
        if len(comps) != grid.dim:
            raise GridMismatchError(f"expected {grid.dim} components, got {len(comps)}")
        for c in comps:
            if c.shape != grid.shape:
                raise GridMismatchError(f"component shape {c.shape} != grid shape {grid.shape}")
            if not np.all(np.isfinite(c)):
                raise InvalidParameterError("vector field components must be finite")
        self.grid = grid
        self.components = comps

    def sup_abs(self) -> float:
        """Max over components of the pointwise sup norm."""
        return max(float(np.abs(c).max()) for c in self.components)


@dataclass(frozen=True)
class SimState:
    """The pair (u, v) at one time instant, with its grid and coefficients."""

    t: float
    u: Field
    v: Field
    params: Params

    def __post_init__(self) -> None:
        if not (np.isfinite(self.t) and self.t >= 0.0):
            raise InvalidParameterError(f"time must be finite and >= 0, got {self.t!r}")
        if self.u.grid != self.v.grid:
            raise GridMismatchError("u and v must share a grid")
        if self.params.dim != self.u.grid.dim:
            raise GridMismatchError(
                f"params dim {self.params.dim} != grid dim {self.u.grid.dim}"
            )

    @property
    def grid(self) -> Grid:
        return self.u.grid

