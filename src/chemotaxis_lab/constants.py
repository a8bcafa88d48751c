"""Closed-form thresholds, bounds, and auxiliary eigenvalues.

Every quantity here is a pure function of the model coefficients (plus a few
explicit calibration constants standing in for generic constants of the
underlying estimates), so the hypotheses and conclusions of the boundedness,
persistence, and convergence statements become machine-checkable numbers.

Naming used throughout:

* theta        = N*mu*chi/(4b), dimensionless closeness to the existence
                 threshold; the hypotheses require theta < 1.
* bound_general= (2 lam + a)^2 / (2 lam (4b - N mu chi)), eventual sup bound
                 on u.
* bound_refined= 4a / (4b - N mu chi), sharper eventual bound valid for
                 lam >= a/2.
* theta0, K    = the convergence threshold exponent and multiplier
                 K = N/(4 theta0); convergence is asserted for b > K chi mu.
* lambda0      = principal eigenvalue of lap + a/2 on a ball of radius L0
                 with Dirichlet data, a/2 - (j/L0)^2 with j the first
                 positive zero of the relevant Bessel function.

:func:`compute_constants` is the one place these are evaluated for a run,
together with the hypotheses each statement needs and the persistence
trend value; nothing else in the package repeats the algebra.

All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.special

from .core import InvalidParameterError, Params

__all__ = [
    "BESSEL_FIRST_ZERO",
    "CalibrationConstants",
    "PaperConstants",
    "compute_constants",
    "convergence_K",
    "principal_eigenvalue",
    "principal_eigenvalue_fd",
    "minimal_ball_radius",
    "persistence_T",
    "gaussian_tail",
    "persistence_L",
    "step1_Mtilde",
]

# First positive zero of J_{N/2-1}, 12+ digits, N = 1, 2, 3.  The N=1 and
# N=3 values are pi/2 and pi exactly; the finite-difference eigensolver
# below serves as the independent verification path.
BESSEL_FIRST_ZERO = {
    1: math.pi / 2.0,
    2: 2.404825557695773,
    3: math.pi,
}


@dataclass(frozen=True)
class CalibrationConstants:
    """Explicit stand-ins for the generic constants of the smoothing estimates.

    c_div is the closed form N/sqrt(pi); c_grad is the exact constant of
    the run's grid (see spectral.measure_gradient_constant); c2 and
    c_generic parameterise the convergence threshold.
    """

    c_grad: float
    c_div: float
    c2: float
    c_generic: float = 1.0

    def __post_init__(self) -> None:
        for name in ("c_grad", "c_div", "c2", "c_generic"):
            if getattr(self, name) <= 0.0:
                raise InvalidParameterError(f"calibration constant {name!r} must be > 0")

    @classmethod
    def for_params(cls, p: Params, *, c_grad: float) -> "CalibrationConstants":
        """Defaults: c_div = N/sqrt(pi), c2 = a, c_generic = 1."""
        return cls(c_grad=c_grad, c_div=p.dim / math.sqrt(math.pi), c2=p.a)


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
        8 c_generic lam^(-1/2) a^(1/2) pi theta / (N (1-theta)) <= 1/12,

    found by bisection (both left sides increase in theta and vanish at 0,
    so theta0 > 0 always exists and at least one constraint is active).
    """
    if a <= 0.0 or lam <= 0.0:
        raise InvalidParameterError("a and lam must be > 0")

    def feasible(theta: float) -> bool:
        g1 = 2.0 * cal.c2 * theta / ((1.0 - theta) ** 2 * a)
        g2 = 8.0 * cal.c_generic * lam**-0.5 * a**0.5 * math.pi * theta / (dim * (1.0 - theta))
        return g1 <= 1.0 / 6.0 and g2 <= 1.0 / 12.0

    lo, hi = 0.0, 1.0 - 1e-15
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    theta0 = lo
    return theta0, dim / (4.0 * theta0)


def principal_eigenvalue(a: float, L0: float, dim: int) -> float:
    """a/2 - (j/L0)^2 with j the first positive zero of J_{dim/2-1}."""
    if L0 <= 0.0:
        raise InvalidParameterError("ball radius must be > 0")
    j = BESSEL_FIRST_ZERO[dim]
    return a / 2.0 - (j / L0) ** 2


def principal_eigenvalue_fd(
    a: float, L0: float, dim: int, *, nodes: int = 2048, max_iterations: int = 200
) -> float:
    """Finite-difference cross-check of :func:`principal_eigenvalue`.

    Discretises the radial Dirichlet problem -(phi'' + (N-1)/r phi') = nu phi
    on (0, L0) with the symmetry condition phi'(0) = 0 (lap phi(0) = N phi''(0)
    at the origin) on a vertex grid, and runs inverse iteration on the
    tridiagonal operator to find the smallest eigenvalue nu.
    """
    if L0 <= 0.0:
        raise InvalidParameterError("ball radius must be > 0")
    m = nodes
    h = L0 / m
    main = np.zeros(m)
    upper = np.zeros(m - 1)
    lower = np.zeros(m - 1)
    main[0] = 2.0 * dim / h**2
    upper[0] = -2.0 * dim / h**2
    for i in range(1, m):
        r = i * h
        main[i] = 2.0 / h**2
        if i < m - 1:
            upper[i] = -1.0 / h**2 - (dim - 1) / (2.0 * h * r)
        lower[i - 1] = -1.0 / h**2 + (dim - 1) / (2.0 * h * r)

    banded = np.zeros((3, m))
    banded[0, 1:] = upper
    banded[1, :] = main
    banded[2, :-1] = lower

    def apply(x: np.ndarray) -> np.ndarray:
        y = main * x
        y[:-1] += upper * x[1:]
        y[1:] += lower * x[:-1]
        return y

    x = np.ones(m)
    nu_prev = np.inf
    for _ in range(max_iterations):
        x = scipy.linalg.solve_banded((1, 1), banded, x)
        x /= np.linalg.norm(x)
        nu = float(x @ apply(x))
        if abs(nu - nu_prev) <= 1e-13 * abs(nu):
            break
        nu_prev = nu
    return a / 2.0 - nu


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
    omega = 2.0 * math.pi ** (dim / 2.0) / scipy.special.gamma(dim / 2.0)
    s = (dim + moment) / 2.0
    return float(omega * 0.5 * scipy.special.gammaincc(s, R * R) * scipy.special.gamma(s))


def persistence_L(epsilon: float, T: float, dim: int, L0_min: float) -> float:
    """Smallest L >= L0_min making both Gaussian tail moments at radius
    L/(2 sqrt(2T)) fall below epsilon.  Bisection on the monotone tail."""
    if epsilon <= 0.0 or T <= 0.0 or L0_min <= 0.0:
        raise InvalidParameterError("epsilon, T, L0_min must be > 0")
    scale = 2.0 * math.sqrt(2.0 * T)

    def tail_max(L: float) -> float:
        r = L / scale
        return max(gaussian_tail(r, dim, 0), gaussian_tail(r, dim, 1))

    if tail_max(L0_min) <= epsilon:
        return L0_min
    hi = max(L0_min, 1.0)
    while tail_max(hi) > epsilon:
        hi *= 2.0
        if hi > 1e12:
            raise InvalidParameterError("no admissible radius below 1e12")
    lo = L0_min
    while hi - lo > 1e-12 * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if tail_max(mid) <= epsilon:
            hi = mid
        else:
            lo = mid
    return hi


def step1_Mtilde(lam: float, mu: float, M: float, dim: int) -> float:
    """Amplification factor bounding v and grad v by the local sup of u.

    max of  1 + mu M/(lam pi^(N/2)) + mu/lam  and
            1 + (mu/pi^(N/2)) lam^(-1/2) sqrt(pi) (M + 1).
    """
    if lam <= 0.0 or mu <= 0.0 or M <= 0.0:
        raise InvalidParameterError("lam, mu, M must be > 0")
    pi_half_n = math.pi ** (dim / 2.0)
    gamma_half = math.sqrt(math.pi)
    first = 1.0 + mu * M / (lam * pi_half_n) + mu / lam
    second = 1.0 + (mu / pi_half_n) * lam**-0.5 * gamma_half * M + (
        mu / pi_half_n
    ) * lam**-0.5 * gamma_half
    return max(first, second)
