from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn

from chemotaxis_lab import (
    CalibrationConstants,
    Params,
    compute_constants,
    convergence_K,
    gaussian_tail,
    minimal_ball_radius,
    persistence_L,
    persistence_T,
    principal_eigenvalue,
    principal_eigenvalue_fd,
    step1_Mtilde,
)

coeff = st.floats(min_value=0.05, max_value=20.0, allow_nan=False)


def cal_for(p: Params) -> CalibrationConstants:
    return CalibrationConstants.for_params(p, c_grad=1.0 / math.sqrt(math.pi))


def test_compute_constants_unit_coefficients():
    p = Params(chi=1, a=1, b=1, lam=1, mu=1, dim=1)
    pc = compute_constants(p, cal_for(p))
    assert pc.theta == pytest.approx(0.25, rel=1e-15)
    assert pc.bound_general == pytest.approx(1.5, rel=1e-15)  # 9/6
    assert pc.bound_refined == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert pc.steady_u == pytest.approx(1.0)
    assert pc.steady_v == pytest.approx(1.0)


def test_compute_constants_steady_state():
    p = Params(chi=1, a=1, b=2, lam=1, mu=1, dim=1)
    pc = compute_constants(p, cal_for(p))
    assert (pc.steady_u, pc.steady_v) == (0.5, 0.5)


def test_bounds_undefined_below_threshold():
    p = Params(chi=1, a=1, b=0.2, lam=1, mu=1, dim=1)  # b < N*mu*chi/4
    pc = compute_constants(p, cal_for(p))
    assert pc.bound_general is None and pc.bound_refined is None
    assert pc.persistence_trend_floor is None
    assert pc.theta == pytest.approx(1.25)


def test_constants_at_the_existence_threshold():
    # b = N*mu*chi/4 exactly: theta = 1, and every quantity with the factor
    # 1/(4b - N mu chi) or 1/(1 - theta) is undefined rather than an error
    p = Params(chi=1, a=1, b=0.25, lam=1, mu=1, dim=1)
    pc = compute_constants(p, cal_for(p))
    assert pc.theta == 1.0
    assert pc.bound_general is None and pc.bound_refined is None
    assert pc.persistence_trend_floor is None
    assert pc.hypotheses["existence"]["b > N*mu*chi/4"]["holds"] is False


def test_existence_hypothesis_unit_coefficients_holds():
    p = Params(chi=1, a=1, b=1, lam=1, mu=1, dim=1)
    existence = compute_constants(p, cal_for(p)).hypotheses["existence"]
    assert existence == {
        "b > N*mu*chi/4": {"holds": True, "detail": "b=1, threshold=0.25"}
    }  # 1 > 1/4


def test_existence_hypothesis_boundary_is_strict():
    p = Params(chi=1, a=1, b=0.25, lam=1, mu=1, dim=1)
    hyp = compute_constants(p, cal_for(p)).hypotheses["existence"]["b > N*mu*chi/4"]
    assert hyp["holds"] is False  # b = N*mu*chi/4 exactly


def test_convergence_hypotheses_decay_rate_too_small():
    p = Params(chi=1, a=2, b=200, lam=0.5, mu=1, dim=1)
    pc = compute_constants(p, cal_for(p))
    convergence = pc.hypotheses["convergence"]
    assert convergence["lam >= a/2"]["holds"] is False  # 0.5 < 1
    assert convergence["b > K*chi*mu"]["holds"] is True  # K is about 151 here
    assert convergence["b > K*chi*mu"]["detail"] == f"b=200, K*chi*mu={pc.K!r}"


def test_persistence_trend_floor_value():
    p = Params(chi=1, a=1, b=1, lam=1, mu=1, dim=1)
    pc = compute_constants(p, cal_for(p))
    # a/b - c2*theta/(b(1-theta)^2) with theta = 1/4, c2 = a
    expected = 1.0 - 0.25 / (0.75**2)
    assert pc.persistence_trend_floor == pytest.approx(expected, rel=1e-12)


def test_limits_as_damping_grows():
    previous = None
    for b in (1.0, 10.0, 100.0, 1000.0):
        p = Params(chi=1, a=1, b=b, lam=1, mu=1, dim=1)
        pc = compute_constants(p, cal_for(p))
        if previous is not None:
            assert pc.theta < previous.theta
            assert pc.bound_general < previous.bound_general
            assert pc.bound_refined < previous.bound_refined
            assert pc.steady_u < previous.steady_u
        previous = pc
    assert previous.theta < 1e-3 and previous.bound_refined < 1e-2


@settings(max_examples=200, deadline=None)
@given(a=coeff, lam=coeff, b=coeff, chi=coeff, mu=coeff)
def test_refined_bound_dominated_by_general_iff_lam_large(a, lam, b, chi, mu):
    # algebraic identity: (2 lam + a)^2 >= 8 lam a iff (2 lam - a)^2 >= 0,
    # so refined <= general exactly when lam >= a/2
    denom = 4 * b - mu * chi
    if denom <= 1e-6:
        return
    general = (2 * lam + a) ** 2 / (2 * lam * denom)
    refined = 4 * a / denom
    if lam >= a / 2:
        assert refined <= general * (1 + 1e-12)


def test_convergence_threshold_active_constraint():
    p = Params(chi=1, a=1.3, b=1, lam=2.7, mu=1, dim=2)
    cal = cal_for(p)
    theta0, K = convergence_K(p.a, p.lam, p.dim, cal)
    g1 = 2 * cal.c2 * theta0 / ((1 - theta0) ** 2 * p.a)
    g2 = 8 * cal.c_generic * p.lam**-0.5 * p.a**0.5 * math.pi * theta0 / (p.dim * (1 - theta0))
    assert g1 <= 1 / 6 + 1e-12 and g2 <= 1 / 12 + 1e-12
    assert min(abs(g1 - 1 / 6), abs(g2 - 1 / 12)) < 1e-9  # one constraint is active
    assert K == pytest.approx(p.dim / (4 * theta0))
    assert K > p.dim / 4


def test_convergence_threshold_binding_second_constraint():
    # at small lam the gradient-term constraint binds; verify by substitution
    cal = CalibrationConstants(c_grad=1.0, c_div=1.0, c2=1.0, c_generic=1.0)
    theta0, _ = convergence_K(1.0, 1.0, 1, cal)
    lhs = 8 * 1.0 * 1.0 * math.pi * theta0 / (1 - theta0)
    assert lhs == pytest.approx(1 / 12, rel=1e-9)


def test_convergence_threshold_tightens_with_calibration():
    p = Params(chi=1, a=1, b=1, lam=5, mu=1, dim=1)
    loose = cal_for(p)
    tight = CalibrationConstants(
        c_grad=loose.c_grad, c_div=loose.c_div, c2=2 * loose.c2, c_generic=2 * loose.c_generic
    )
    th_loose, k_loose = convergence_K(p.a, p.lam, p.dim, loose)
    th_tight, k_tight = convergence_K(p.a, p.lam, p.dim, tight)
    assert th_tight < th_loose
    assert k_tight > k_loose


def test_convergence_threshold_large_decay_limit():
    # with c2 = a the first constraint's root is 7 - 4 sqrt(3) (from
    # 2 theta/(1-theta)^2 = 1/6), which the bisection must hit as lam -> inf
    cal = CalibrationConstants(c_grad=1.0, c_div=1.0, c2=1.0, c_generic=1.0)
    theta0, K = convergence_K(1.0, 1e12, 1, cal)
    root = 7.0 - 4.0 * math.sqrt(3.0)
    assert theta0 == pytest.approx(root, rel=1e-10)
    assert K == pytest.approx(1.0 / (4.0 * root), rel=1e-10)


@pytest.mark.parametrize(
    "dim,L0,expected",
    [
        (1, 10.0, 0.5 - (math.pi / 20) ** 2),  # 0.4753260
        (3, 10.0, 0.5 - (math.pi / 10) ** 2),  # 0.4013040
    ],
)
def test_principal_eigenvalue_analytic_values(dim, L0, expected):
    assert principal_eigenvalue(1.0, L0, dim) == pytest.approx(expected, abs=1e-12)


def test_principal_eigenvalue_against_fd_oracle():
    for dim, L0 in [(1, 10.0), (3, 10.0)]:
        analytic = principal_eigenvalue(1.0, L0, dim)
        fd = principal_eigenvalue_fd(1.0, L0, dim)
        assert fd == pytest.approx(analytic, abs=1e-6)


def test_principal_eigenvalue_zero_boundary():
    for dim in (1, 2, 3):
        from chemotaxis_lab.constants import BESSEL_FIRST_ZERO

        L0 = BESSEL_FIRST_ZERO[dim] * math.sqrt(2.0 / 1.0)
        assert abs(principal_eigenvalue(1.0, L0, dim)) < 1e-12


def test_minimal_ball_radius_values():
    assert minimal_ball_radius(1.0, 1) == pytest.approx(math.pi / math.sqrt(2.0), rel=1e-8)
    assert minimal_ball_radius(100.0, 1) == 1.0  # clamped at the floor radius
    radii = [minimal_ball_radius(a, 2) for a in (0.1, 1.0, 10.0, 100.0)]
    assert all(r1 >= r2 for r1, r2 in zip(radii, radii[1:]))


def test_minimal_ball_radius_gives_positive_eigenvalue():
    for dim in (1, 2, 3):
        for a in (0.3, 1.0, 7.0):
            L0 = minimal_ball_radius(a, dim)
            assert principal_eigenvalue(a, L0, dim) > 0.0


def test_persistence_time():
    assert persistence_T(0.1, 10.0, 1.0) == pytest.approx(math.log(100.0), rel=1e-12)
    assert persistence_T(1.0, 0.5, 1.0) == 1.0  # M <= eps clamps to 1
    unclamped = persistence_T(1e-6, 10.0, 1.0)
    assert persistence_T(1e-6, 10.0, 2.0) == pytest.approx(unclamped / 2.0, rel=1e-12)


def tail_quadrature(R: float, dim: int, m: int) -> float:
    omega = 2.0 * math.pi ** (dim / 2.0) / gamma_fn(dim / 2.0)
    val, _ = quad(lambda r: r ** (dim + m - 1) * math.exp(-r * r), R, np.inf,
                  epsabs=1e-14, epsrel=1e-13)
    return omega * val


def test_gaussian_tail_closed_values():
    assert gaussian_tail(0.0, 1, 0) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    assert gaussian_tail(1.0, 1, 1) == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert gaussian_tail(2.0, 1, 0) == pytest.approx(0.008291069380672667, rel=1e-10)


def test_gaussian_tail_matches_quadrature():
    for dim in (1, 2, 3):
        for m in (0, 1):
            for R in (0.0, 0.5, 1.0, 2.0, 4.0):
                expected = tail_quadrature(R, dim, m)
                assert gaussian_tail(R, dim, m) == pytest.approx(expected, rel=1e-10)


@settings(max_examples=60, deadline=None)
@given(
    R=st.floats(min_value=0.0, max_value=5.0),
    dR=st.floats(min_value=1e-3, max_value=2.0),
    dim=st.integers(min_value=1, max_value=3),
    m=st.integers(min_value=0, max_value=1),
)
def test_gaussian_tail_strictly_decreasing(R, dR, dim, m):
    assert gaussian_tail(R + dR, dim, m) < gaussian_tail(R, dim, m)


def test_persistence_radius_clamps_at_minimum():
    # huge epsilon: the floor radius already satisfies the tail condition
    assert persistence_L(10.0, 1.0, 1, 2.0) == 2.0


def test_persistence_radius_binding_first_moment():
    # frozen from the bisection oracle: with T = 1/8 the scale 2 sqrt(2T) is
    # one, and the binding moment is m = 1 since exp(-4) > sqrt(pi) erfc(2),
    # so L* solves exp(-L^2) = eps
    eps = 0.008291069380672667
    L = persistence_L(eps, 0.125, 1, 0.1)
    assert L == pytest.approx(2.189195359416774, rel=1e-9)
    assert gaussian_tail(L, 1, 1) == pytest.approx(eps, rel=1e-8)
    assert gaussian_tail(L, 1, 0) < eps


def test_persistence_radius_monotonicity():
    base = persistence_L(1e-3, 1.0, 1, 0.5)
    assert persistence_L(1e-4, 1.0, 1, 0.5) >= base  # smaller tolerance, larger L
    assert persistence_L(1e-3, 2.0, 1, 0.5) >= base  # longer wait, larger L


def test_amplification_factor():
    assert step1_Mtilde(1.0, 1.0, 1.0, 1) == pytest.approx(3.0, rel=1e-14)
    # second branch: 1 + mu lam^(-1/2) (M+1) at N = 1
    assert step1_Mtilde(4.0, 1.0, 1.0, 1) == pytest.approx(
        max(1 + 1 / (4 * math.sqrt(math.pi)) + 0.25, 1 + 0.5 * 2.0), rel=1e-14
    )
    small = step1_Mtilde(1.0, 1.0, 1e-12, 1)
    assert small == pytest.approx(2.0, rel=1e-6)  # M -> 0 limit of both branches
    assert step1_Mtilde(1.0, 1.0, 2.0, 1) > step1_Mtilde(1.0, 1.0, 1.0, 1)
