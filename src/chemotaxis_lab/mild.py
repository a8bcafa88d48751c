"""Short-time solver via the Duhamel fixed point.

The system is integrated in its variation-of-constants form

    u(t) = E(t) u0 - chi Int_0^t E(t-s) div(u(s) grad v(s)) ds
                  + Int_0^t E(t-s) u(s) (a + lam - b u(s)) ds
    v(t) = E(t) v0 + mu Int_0^t E(t-s) u(s) ds

with E(t) = exp(t(lap - lam I)), by Picard iteration on a uniform grid of
quadrature nodes.  The map is a contraction up to the horizon computed by
:func:`local_horizon`, so iterate differences shrink geometrically; this
solver is the independent oracle the long-time stepper is checked against.

Time quadrature: the integrand is frozen at the left node of each
subinterval while the kernel exp(-(|k|^2+lam)(t-s)) is integrated exactly
per Fourier mode (product integration).  The mode-wise exact kernel is what
preserves the sqrt(t) behaviour near s = t that a naive rule would lose;
accuracy is first order in the node spacing.

The nonlinearity is the stepper's own :func:`chemotaxis_lab.imex.nonlinear_hat`,
and the left-node rule's fixed point is the ETD1 recurrence of the stepper
at step T/q, without its 2/3 band.  So the cross-solver comparison
checks dealiasing and step control, not the time discretisation; a
higher-order quadrature here would make the oracle independent in time.

Each sweep is a Jacobi iteration: the integrand at node i is evaluated on
the previous iterate alone.  So a sweep transforms and assembles a block of
nodes in one call of each transform (the batch axis of
:mod:`chemotaxis_lab.spectral`); only the cheap spectral recurrence
acc <- decay acc + kernel N runs node by node, in place in the block's own
spectra.  The iterate difference is reduced block by block too.  Blocks are
sized by grid values, not by nodes: on small grids a transform is mostly
call overhead, which a block of many nodes removes, while a block of every
node would hold several full node stacks at once (+20% peak memory on 512
points and 400 nodes); from 32^3 up a block is one node, where transforms
are compute-bound anyway.  Batched transforms equal the per-node ones bit
for bit, so blocking changes no state, iteration count or difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BLOCK_VALUES, Field, GridMismatchError, InvalidParameterError, Params, SimState
from .imex import nonlinear_hat
from .spectral import SemigroupPlan

__all__ = [
    "ContractionFailureError",
    "PicardConfig",
    "PicardResult",
    "local_horizon",
    "picard_solve",
    "c1_norm",
]


class ContractionFailureError(RuntimeError):
    """Picard iteration failed to contract (horizon too large or the data
    bound R was underestimated)."""


@dataclass(frozen=True)
class PicardConfig:
    max_iter: int = 80
    tol: float = 1e-10
    quad_nodes: int = 256

    def __post_init__(self) -> None:
        if self.max_iter < 1:
            raise InvalidParameterError("max_iter must be >= 1")
        if self.tol <= 0.0:
            raise InvalidParameterError("tol must be > 0")
        if self.quad_nodes < 2:
            raise InvalidParameterError("quad_nodes must be >= 2")


@dataclass
class PicardResult:
    """Fixed-point trajectory at the quadrature nodes plus convergence data;
    ``diffs`` holds each sweep's iterate difference, the last the residual."""

    states: list[SimState]
    iterations: int
    diffs: list[float]


# Safety margin held back from the contraction condition; the horizon
# satisfies the condition with value <= 1 - CONTRACTION_MARGIN.
CONTRACTION_MARGIN = 0.1


def local_horizon(R: float, p: Params, c_div: float, c_grad: float) -> float:
    """Largest T with

        4 R c_div chi sqrt(T) + (lam + a + 2 R b) T + mu T
            + 2 mu c_grad sqrt(T) <= 1 - CONTRACTION_MARGIN.

    c_div and c_grad are the grid's smoothing constants, c_div = N c_grad
    since the divergence kernel's norm sums N equal gradient-kernel norms:
    exact in 1D, and from 2D up a product of 1D norms rounded up by 64
    machine epsilons per factor, so never below the kernels' norms (see
    constants.CalibrationConstants).  Solved as a quadratic in
    sqrt(T); strictly decreasing in R, and positive as the left side is 0 at 0.
    """
    if R <= 0.0:
        raise InvalidParameterError("R must be > 0")
    lin = p.lam + p.a + 2.0 * R * p.b + p.mu
    root = 4.0 * R * c_div * p.chi + 2.0 * p.mu * c_grad
    target = 1.0 - CONTRACTION_MARGIN
    x = (-root + math.sqrt(root * root + 4.0 * lin * target)) / (2.0 * lin)
    return x * x


def _sup(arr: np.ndarray) -> float:
    return float(np.abs(arr).max())


def _c1(plan: SemigroupPlan, values: np.ndarray, spec: np.ndarray) -> np.ndarray:
    """sup|values| plus, axis by axis, sup|d/dx_i| of the spectrum ``spec``,
    reduced over the grid axes, so one value per row of a leading batch axis."""
    axes = tuple(range(-plan.grid.dim, 0))
    c1 = np.abs(values).max(axis=axes)
    for comp in plan.grad(spec):
        c1 += np.abs(comp).max(axis=axes)
    return c1


def c1_norm(plan: SemigroupPlan, f: Field) -> float:
    """sup|f| plus the sum over axes of sup|df/dx_i| (spectral gradient)."""
    if f.grid != plan.grid:
        raise GridMismatchError("field grid does not match plan grid")
    return float(_c1(plan, f.values, plan.to_spectral(f.values)))


def picard_solve(s0: SimState, T: float, cfg: PicardConfig, plan: SemigroupPlan) -> PicardResult:
    """Fixed point of the Duhamel map on [0, T], sampled at quad_nodes+1
    uniformly spaced nodes (including both endpoints).

    The caller is responsible for T <= local_horizon(R) with
    R = max(sup u0, C1-norm of v0); beyond the horizon the iteration stops
    contracting and a :class:`ContractionFailureError` is raised.
    """
    if T <= 0.0:
        raise InvalidParameterError("horizon must be > 0")
    p = s0.params
    q = cfg.quad_nodes
    delta = T / q
    shape = s0.grid.shape

    decay = plan.multiplier(delta, p.lam)
    # Exact integral of exp(-(|k|^2+lam)(t-s)) over one subinterval against
    # a frozen integrand.
    kernel = plan.phi1(delta, p.lam)

    u0 = s0.u.values
    v0 = s0.v.values
    U = np.broadcast_to(u0, (q + 1, *shape)).copy()
    V = np.broadcast_to(v0, (q + 1, *shape)).copy()

    u0_hat = plan.to_spectral(u0)
    v0_hat = plan.to_spectral(v0)

    block = max(1, BLOCK_VALUES // u0.size)
    diffs: list[float] = []
    iterations = 0
    scale = max(_sup(u0), _sup(v0), 1.0)
    for iterations in range(1, cfg.max_iter + 1):
        new_U = np.empty_like(U)
        new_V = np.empty_like(V)
        new_U[0] = u0
        new_V[0] = v0
        acc_u = u0_hat
        acc_v = v0_hat
        for start in range(0, q, block):
            stop = min(start + block, q)
            u_blk = U[start:stop]
            vx = plan.grad(plan.to_spectral(V[start:stop]))
            n_hat = nonlinear_hat(plan, p, np.stack((u_blk, *vx)))[0]
            src_v = plan.to_spectral(u_blk)
            src_v *= p.mu
            n_hat *= kernel
            src_v *= kernel
            # acc <- decay acc + kernel N, node by node, in the block's spectra.
            for j in range(stop - start):
                n_hat[j] += decay * acc_u
                src_v[j] += decay * acc_v
                acc_u = n_hat[j]
                acc_v = src_v[j]
            # The last node carries into the next block; the inverse
            # transforms below may overwrite the block's spectra.
            acc_u = acc_u.copy()
            acc_v = acc_v.copy()
            new_U[start + 1 : stop + 1] = plan.to_physical(n_hat, overwrite=True)
            new_V[start + 1 : stop + 1] = plan.to_physical(src_v, overwrite=True)

        d_u = _sup(new_U - U)
        d_v = 0.0
        for start in range(0, q + 1, block):
            dv_hat = plan.to_spectral(new_V[start : start + block] - V[start : start + block])
            d_v = max(d_v, float(_c1(plan, plan.to_physical(dv_hat), dv_hat).max()))
        d = d_u + d_v
        diffs.append(d)
        U, V = new_U, new_V

        if d <= cfg.tol:
            break
        if len(diffs) >= 2 and diffs[-2] > max(100.0 * cfg.tol, 1e-13 * scale):
            ratio = diffs[-1] / diffs[-2]
            if ratio > 0.95:
                raise ContractionFailureError(
                    f"iterate-difference ratio {ratio:.3f} exceeds the contraction "
                    f"factor; T={T!r} is past the certified horizon or R was "
                    "underestimated"
                )
    else:
        raise ContractionFailureError(
            f"no fixed point within {cfg.max_iter} iterations (last diff {diffs[-1]:.3e})"
        )

    states = [
        SimState(t=s0.t + i * delta, u=Field(s0.grid, U[i]), v=Field(s0.grid, V[i]), params=p)
        for i in range(q + 1)
    ]
    return PicardResult(states=states, iterations=iterations, diffs=diffs)
