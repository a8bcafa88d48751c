"""Closed-form thresholds, bounds, and auxiliary eigenvalues.

Every quantity here is a pure function of the model coefficients (plus a few
explicit calibration constants standing in for generic constants of the
underlying estimates), so the hypotheses and conclusions of the boundedness,
persistence, and convergence statements become machine-checkable numbers.
:class:`CalibrationConstants` owns those constants and where each comes
from; the smoothing ones are the kernel norms of the run's grid (exact in
1D, rounded up by under 1e-13 relative in 2D/3D), c_div = N c_grad.

Naming used throughout:

* theta        = N*mu*chi/(4b), dimensionless closeness to the existence
                 threshold; the hypotheses require theta < 1.
* bound_general= (2 lam + a)^2 / (2 lam (4b - N mu chi)), eventual sup bound
                 on u.
* bound_refined= 4a / (4b - N mu chi), sharper eventual bound valid for
                 lam >= a/2.
* theta0, K    = the convergence threshold exponent and multiplier
                 K = N/(4 theta0) > N/4, both in closed form; convergence is
                 asserted for b > K chi mu.
* lambda0      = principal eigenvalue of lap + a/2 on a ball of radius L0
                 with Dirichlet data, a/2 - (j/L0)^2 with j the first
                 positive zero of the relevant Bessel function.

:func:`compute_constants` is the one place these are evaluated for a run,
together with the hypotheses each statement needs and the persistence
trend value; nothing else in the package repeats the algebra.

All functions are pure and safe for concurrent use.

The module imports no scipy: a run evaluates none of the incomplete-gamma
functions, and importing ``scipy.special`` adds ~26 MB to a fresh
process, so :func:`gaussian_tail` and :func:`persistence_L` import it
when they are called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .core import InvalidParameterError, Params
from .spectral import CALIBRATION_TIMES

__all__ = [
    "BESSEL_FIRST_ZERO",
    "CalibrationConstants",
    "PaperConstants",
    "compute_constants",
    "convergence_K",
    "principal_eigenvalue",
    "minimal_ball_radius",
    "persistence_T",
    "gaussian_tail",
    "persistence_L",
]

# First positive zero of J_{N/2-1}, 12+ digits, N = 1, 2, 3.  The N=1 and
# N=3 values are pi/2 and pi exactly; a finite-difference eigensolver in
# the tests serves as the independent verification path.
BESSEL_FIRST_ZERO = {
    1: math.pi / 2.0,
    2: 2.404825557695773,
    3: math.pi,
}


@dataclass(frozen=True)
class CalibrationConstants:
    """Explicit stand-ins for the generic constants of the smoothing estimates.

    c_grad is the gradient constant of the run's grid (see
    spectral.measure_gradient_constant): the kernel's l1 norm as a product
    of 1D norms, exact in 1D and rounded up by 64 machine epsilons per heat
    factor in 2D/3D.  c_div = N c_grad is the divergence one, whose kernel's
    l1 norm sums N equal axis norms.  PROVENANCE, which constants.json
    repeats, calls both exact: the rounding is below 1e-13 relative.  c2 and
    c_generic parameterise the convergence threshold.  PROVENANCE states
    where :meth:`for_params` takes each value.
    """

    PROVENANCE: ClassVar[dict[str, str]] = {
        "c_grad": "exact l1 norm of the discrete kernel, max over axes and times "
        f"({', '.join(f'{t:g}' for t in CALIBRATION_TIMES)})",
        "c_div": "N * c_grad: exact l1 norm of the discrete divergence kernel",
        "c2": "default: the coefficient a",
        "c_generic": "default 1",
    }

    c_grad: float
    c_div: float
    c2: float
    c_generic: float = 1.0

    def __post_init__(self) -> None:
        for name in self.PROVENANCE:
            if getattr(self, name) <= 0.0:
                raise InvalidParameterError(f"calibration constant {name!r} must be > 0")

    @classmethod
    def for_params(cls, p: Params, *, c_grad: float) -> "CalibrationConstants":
        """The constants of a run on a grid whose gradient constant is c_grad."""
        return cls(c_grad=c_grad, c_div=p.dim * c_grad, c2=p.a)


@dataclass(frozen=True)
class PaperConstants:
    """Evaluated thresholds, bounds and hypotheses for one parameter set.

    bound_general, bound_refined and persistence_trend_floor are None when
    b <= N*mu*chi/4 (they are undefined there; nothing is raised).
    persistence_trend_floor is a/b - c2 theta/(b (1-theta)^2); its
    constants are generic, so it is context for reports, never a pass/fail
    target.  hypotheses maps "existence" and "convergence" to each
    standing hypothesis of that statement, as {"holds", "detail"}.
    """

    theta: float
    bound_general: float | None
    bound_refined: float | None
    persistence_trend_floor: float | None
    steady_u: float
    steady_v: float
    theta0: float
    K: float
    lambda0: float
    L0_min: float
    hypotheses: dict[str, dict[str, dict]]


def compute_constants(p: Params, cal: CalibrationConstants) -> PaperConstants:
    """Evaluate every closed-form constant and hypothesis for coefficients ``p``."""
    n_mu_chi = p.dim * p.mu * p.chi
    theta = n_mu_chi / (4.0 * p.b)
    denom = 4.0 * p.b - n_mu_chi
    if denom > 0.0:
        bound_general = (2.0 * p.lam + p.a) ** 2 / (2.0 * p.lam * denom)
        bound_refined = 4.0 * p.a / denom
        trend_floor = p.a / p.b - cal.c2 * theta / (p.b * (1.0 - theta) ** 2)
    else:
        bound_general = bound_refined = trend_floor = None
    theta0, K = convergence_K(p.a, p.lam, p.dim, cal)
    L0_min = minimal_ball_radius(p.a, p.dim)
    lambda0 = principal_eigenvalue(p.a, L0_min, p.dim)
    threshold = n_mu_chi / 4.0
    k_chi_mu = K * p.chi * p.mu
    hypotheses = {
        "existence": {
            "b > N*mu*chi/4": {
                "holds": p.b > threshold,
                "detail": f"b={p.b!r}, threshold={threshold!r}",
            },
        },
        "convergence": {
            "lam >= a/2": {
                "holds": p.lam >= p.a / 2.0,
                "detail": f"lam={p.lam!r}, a/2={p.a / 2.0!r}",
            },
            "b > K*chi*mu": {
                "holds": p.b > k_chi_mu,
                "detail": f"b={p.b!r}, K*chi*mu={k_chi_mu!r}",
            },
        },
    }
    return PaperConstants(
        theta=theta,
        bound_general=bound_general,
        bound_refined=bound_refined,
        persistence_trend_floor=trend_floor,
        steady_u=p.steady_u,
        steady_v=p.steady_v,
        theta0=theta0,
        K=K,
        lambda0=lambda0,
        L0_min=L0_min,
        hypotheses=hypotheses,
    )


def convergence_K(
    a: float, lam: float, dim: int, cal: CalibrationConstants
) -> tuple[float, float]:
    """Threshold exponent theta0 and multiplier K = N/(4 theta0).

    theta0 is the largest theta in (0, 1) with

        2 c2 theta / ((1-theta)^2 a) <= 1/6   and
        8 c_generic lam^(-1/2) a^(1/2) pi theta / (N (1-theta)) <= 1/12.

    Both left sides increase in theta from 0, so each constraint holds up to
    one root and theta0 is the smaller root.  With s = 1 + 6 c2/a the first
    is theta^2 - 2 s theta + 1 >= 0, whose root in (0, 1) is
    s - sqrt(s^2 - 1) = 1/(s + sqrt(s^2 - 1)) (the second form does not
    cancel); the second is linear, theta <= N/(N + 96 pi c_generic sqrt(a/lam)).
    Hence

        K = max(N (s + sqrt(s^2 - 1))/4, N/4 + 24 pi c_generic sqrt(a/lam)) > N/4,

    which at c2 = a, c_generic = 1 is max(N (7 + 4 sqrt 3)/4,
    N/4 + 24 pi sqrt(a/lam)), 75.648 at a = lam = N = 1.
    """
    if a <= 0.0 or lam <= 0.0:
        raise InvalidParameterError("a and lam must be > 0")
    s = 1.0 + 6.0 * cal.c2 / a
    theta1 = 1.0 / (s + math.sqrt(s * s - 1.0))
    theta2 = dim / (dim + 96.0 * math.pi * cal.c_generic * math.sqrt(a / lam))
    theta0 = min(theta1, theta2)
    return theta0, dim / (4.0 * theta0)


def principal_eigenvalue(a: float, L0: float, dim: int) -> float:
    """a/2 - (j/L0)^2 with j the first positive zero of J_{dim/2-1}."""
    if L0 <= 0.0:
        raise InvalidParameterError("ball radius must be > 0")
    j = BESSEL_FIRST_ZERO[dim]
    return a / 2.0 - (j / L0) ** 2


def minimal_ball_radius(a: float, dim: int) -> float:
    """Smallest admissible ball radius: at least 1, and large enough that the
    principal eigenvalue is strictly positive."""
    if a <= 0.0:
        raise InvalidParameterError("a must be > 0")
    j = BESSEL_FIRST_ZERO[dim]
    return max(1.0, j * math.sqrt(2.0 / a) * (1.0 + 1e-9))


def persistence_T(epsilon: float, M: float, lam: float) -> float:
    """Waiting time T = max(1, ln(M/eps)/lam) making exp(-lam T) M <= eps."""
    if epsilon <= 0.0 or M <= 0.0 or lam <= 0.0:
        raise InvalidParameterError("epsilon, M, lam must be > 0")
    return max(1.0, math.log(M / epsilon) / lam)


def gaussian_tail(R: float, dim: int, moment: int) -> float:
    """Integral of |z|^m exp(-|z|^2) over the complement of the ball of
    radius R, via the upper incomplete gamma function:

        surface(S^{N-1}) * (1/2) * Gamma((N+m)/2, R^2).
    """
    if R < 0.0:
        raise InvalidParameterError("radius must be >= 0")
    if moment not in (0, 1):
        raise InvalidParameterError("moment must be 0 or 1")
    import scipy.special  # not imported by a run (see the module docstring)

    omega = 2.0 * math.pi ** (dim / 2.0) / scipy.special.gamma(dim / 2.0)
    s = (dim + moment) / 2.0
    return float(omega * 0.5 * scipy.special.gammaincc(s, R * R) * scipy.special.gamma(s))


def persistence_L(epsilon: float, T: float, dim: int, L0_min: float) -> float:
    """Smallest L >= L0_min making both Gaussian tail moments at radius
    L/(2 sqrt(2T)) at most epsilon.

    By :func:`gaussian_tail`, the moment-m tail at R is at most epsilon iff
    Q(s_m, R^2) <= y_m, with Q the regularised upper incomplete gamma
    function, s_m = (N+m)/2 and y_m = 2 epsilon/(omega_N Gamma(s_m)).  So

        L = max(L0_min, 2 sqrt(2T) sqrt(gammainccinv(s_m, y_m)) over m = 0, 1),

    where a moment with y_m >= 1 imposes nothing (gammainccinv(s_m, 1) = 0):
    its tail is at most epsilon already at R = 0.
    """
    if epsilon <= 0.0 or T <= 0.0 or L0_min <= 0.0:
        raise InvalidParameterError("epsilon, T, L0_min must be > 0")
    import scipy.special  # not imported by a run (see the module docstring)

    omega = 2.0 * math.pi ** (dim / 2.0) / scipy.special.gamma(dim / 2.0)
    s = np.array([dim, dim + 1]) / 2.0
    y = 2.0 * epsilon / (omega * scipy.special.gamma(s))
    r_squared = scipy.special.gammainccinv(s, np.minimum(y, 1.0))  # 0 where y >= 1
    return max(L0_min, 2.0 * math.sqrt(2.0 * T) * math.sqrt(float(r_squared.max())))
