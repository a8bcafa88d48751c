"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The expensive trajectory experiments (the random-data boundedness family and
the exponential-convergence run with its domain-doubling twin) are shared
through module-scoped fixtures; everything else is direct.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from chemotaxis_lab import (
    CalibrationConstants,
    Field,
    Grid,
    Params,
    PicardConfig,
    SemigroupPlan,
    SimState,
    StepControl,
    convergence_K,
    gaussian_tail,
    integrate,
    picard_solve,
    principal_eigenvalue,
)
from chemotaxis_lab.config import ChecksSpec, ExperimentConfig, InitialSpec
from chemotaxis_lab.runner import RunOutcome, execute_run
from conftest import principal_eigenvalue_fd, semigroup, semigroup_div, semigroup_grad

SQRT_PI = math.sqrt(math.pi)
TWO_PI = 2.0 * math.pi


def report(number: int, name: str, passed: bool, detail: str) -> bool:
    flag = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {flag} ({detail})")
    return passed


# ---------------------------------------------------------------------------
# criterion 1: semigroup exactness on eigenmodes


def test_criterion_01_semigroup_exactness():
    grid = Grid(dim=1, extent=TWO_PI, points=256)
    plan = SemigroupPlan(grid)
    x = grid.axis_coordinates()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(20):
        k = int(rng.integers(0, 17))
        t = float(rng.uniform(0.0, 0.03))
        sigma = float(rng.uniform(0.0, 3.0))
        out = semigroup(plan, np.cos(k * x), t, sigma)
        expected = math.exp(-(k * k + sigma) * t) * np.cos(k * x)
        rel = np.abs(out - expected).max() / abs(math.exp(-(k * k + sigma) * t))
        worst = max(worst, rel)
    ok = report(1, "semigroup eigenmode exactness", worst <= 1e-12, f"worst rel err {worst:.3e}")
    assert ok


# ---------------------------------------------------------------------------
# criterion 2: divergence smoothing envelope


def test_criterion_02_divergence_envelope():
    times = (1e-3, 1e-2, 1e-1, 1.0)
    sigmas = (0.0, 0.7)
    worst_ratio = 0.0
    worst_attained = 0.0
    for dim, points in ((1, 256), (2, 128)):
        grid = Grid(dim=dim, extent=TWO_PI, points=points)
        plan = SemigroupPlan(grid)
        rng = np.random.default_rng(202)

        def envelope(t, sigma):
            return dim / SQRT_PI * t**-0.5 * math.exp(-sigma * t)

        for _ in range(100):
            comps = [rng.uniform(-1.0, 1.0, grid.shape) for _ in range(dim)]
            top = max(np.abs(c).max() for c in comps)
            w = [c / top for c in comps]
            for t in times:
                for sigma in sigmas:
                    out = semigroup_div(plan, w, t, sigma)
                    worst_ratio = max(worst_ratio, np.abs(out).max() / envelope(t, sigma))
        # Extremal datum w_i = sign(K_i(-x)) with K_i = d_i E(t) delta: at the
        # origin E(t, sigma) div w sums to e^(-sigma t) sum_i |K_i|_1, the
        # exact sup-to-sup norm of the discrete operator.
        delta = np.zeros(grid.shape)
        delta.flat[0] = 1.0
        for t in times:
            kernels = semigroup_grad(plan, delta, t, 0.0)
            reflected = [np.roll(np.flip(k), 1, axis=tuple(range(dim))) for k in kernels]
            w = [np.sign(k) for k in reflected]
            norm = sum(float(np.abs(k).sum()) for k in kernels)
            for sigma in sigmas:
                sup_out = float(np.abs(semigroup_div(plan, w, t, sigma)).max())
                worst_ratio = max(worst_ratio, sup_out / envelope(t, sigma))
                exact = math.exp(-sigma * t) * norm
                worst_attained = max(worst_attained, abs(sup_out / exact - 1.0))
    ok = report(
        2,
        "divergence envelope (N/sqrt(pi)) t^(-1/2) e^(-sigma t)",
        worst_ratio <= 1.01 and worst_attained <= 1e-12,
        f"worst measured/bound {worst_ratio:.6f}, extremal datum vs exact norm "
        f"rel err {worst_attained:.1e}",
    )
    assert ok


# ---------------------------------------------------------------------------
# criterion 3: cross-solver oracle


def test_criterion_03_cross_solver_agreement():
    p = Params(chi=1, a=1, b=1, lam=1, mu=1, dim=1)
    grid = Grid(dim=1, extent=TWO_PI, points=512)
    x = grid.axis_coordinates()
    state = SimState(
        t=0.0,
        u=Field(grid, 0.5 + 0.1 * np.cos(x)),
        v=Field(grid, np.full(512, 0.5)),
        params=p,
    )
    plan = SemigroupPlan(grid)
    picard = picard_solve(state, 0.02, PicardConfig(quad_nodes=400, tol=1e-10), plan)
    ctl = StepControl(dt_max=1e-4, t_end=0.02, record_every=0.02, cfl_safety=1.0)
    stepped = integrate(state, ctl, [].append, plan=plan)
    diff_u = np.abs(picard.states[-1].u.values - stepped.u.values).max()
    diff_v = np.abs(picard.states[-1].v.values - stepped.v.values).max()
    diff = max(diff_u, diff_v)
    ok = report(3, "fixed-point vs stepper agreement at t=0.02", diff <= 1e-4,
                f"sup diff {diff:.3e}")
    assert ok


# ---------------------------------------------------------------------------
# criteria 4-6 share five random runs plus one small-cosine run


@dataclass
class LabRun:
    name: str
    outcome: RunOutcome
    config: ExperimentConfig
    out_dir: Path


def _bounded_family_config(seed: int, initial: InitialSpec, out_dir: Path) -> ExperimentConfig:
    p = Params(chi=1, a=1, b=1, lam=1, mu=1, dim=1)
    return ExperimentConfig(
        params=p,
        grid=Grid(dim=1, extent=TWO_PI, points=256),
        initial=initial,
        step=StepControl(dt_max=0.01, t_end=50.0, record_every=0.5, cfl_safety=0.5),
        checks=ChecksSpec(
            eventual_bound=True,
            eventual_bound_target="refined",
            slack=0.05,
            lyapunov=True,
            lyapunov_slack=0.05,
            persistence=True,
            persistence_floor=0.5,
        ),
        output_dir=str(out_dir),
    )


@pytest.fixture(scope="module")
def bounded_family(tmp_path_factory) -> list[LabRun]:
    root = tmp_path_factory.mktemp("bounded_family")
    runs = []
    for index, seed in enumerate((11, 22, 33, 44, 55)):
        initial = InitialSpec(
            seed=seed,
            u_kind="random_uniform",
            v_kind="constant",
            u_args={"low": 0.1, "high": 2.0},
            v_args={"base": 1.0},
        )
        out_dir = root / f"random_{index}"
        cfg = _bounded_family_config(seed, initial, out_dir)
        runs.append(LabRun(f"random seed {seed}", execute_run(cfg, out_dir), cfg, out_dir))
    small = InitialSpec(
        seed=66,
        u_kind="cosine",
        v_kind="constant",
        u_args={"base": 0.01, "amplitude": 0.005, "wavenumber": 1.0},
        v_args={"base": 0.01},
    )
    out_dir = root / "small_cosine"
    cfg = _bounded_family_config(66, small, out_dir)
    runs.append(LabRun("small cosine", execute_run(cfg, out_dir), cfg, out_dir))
    return runs


def test_criterion_04_eventual_bound(bounded_family):
    # target 4a/(4b - N mu chi) = 4/3, ceiling 1.4000 at five percent slack
    worst = 0.0
    all_pass = True
    for run in bounded_family[:5]:
        verdict = next(v for v in run.outcome.verdicts if v.name == "eventual_bound[sup_u]")
        assert verdict.target == pytest.approx(4.0 / 3.0)
        worst = max(worst, verdict.measured)
        all_pass &= verdict.passed
    ok = report(4, "eventual sup bound 4a/(4b-N mu chi)", all_pass,
                f"worst tail sup_u {worst:.6f} vs ceiling 1.4000")
    assert ok


def test_criterion_05_lyapunov_comparison_bound(bounded_family):
    worst = 0.0
    all_pass = True
    for run in bounded_family[:5]:
        verdict = next(v for v in run.outcome.verdicts if v.name == "lyapunov_bound")
        ratio = verdict.measured / verdict.target
        worst = max(worst, ratio)
        all_pass &= verdict.passed
    ok = report(5, "comparison bound on u/chi + |grad v|^2/(2 mu)", all_pass,
                f"worst measured/ceiling {worst:.6f} (allowed 1.05)")
    assert ok


def test_criterion_06_persistence_floor(bounded_family):
    floors = []
    all_pass = True
    for run in bounded_family:
        verdict = next(v for v in run.outcome.verdicts if v.name == "persistence_floor")
        floors.append(verdict.measured)
        all_pass &= verdict.passed and verdict.measured >= 0.5
    ok = report(6, "persistence floor over six runs", all_pass,
                f"min tail inf_u {min(floors):.4f} (floor 0.5)")
    assert ok


# ---------------------------------------------------------------------------
# criteria 7 and 11: exponential convergence and domain doubling


def _convergence_config(extent: float, points: int, out_dir: Path) -> ExperimentConfig:
    p = Params(chi=1, a=1, b=10, lam=1, mu=1, dim=1)
    initial = InitialSpec(
        seed=0,
        u_kind="cosine",
        v_kind="constant",
        u_args={"base": 0.05, "amplitude": 0.02, "wavenumber": 1.0},
        v_args={"base": 0.05},
    )
    # the equilibrium is a fixed point of every ETD1 step, so at dt = 1e-3
    # the run clears the 1e-6 tolerance once the decay itself has
    return ExperimentConfig(
        params=p,
        grid=Grid(dim=1, extent=extent, points=points),
        initial=initial,
        step=StepControl(dt_max=1e-3, t_end=40.0, record_every=0.25, cfl_safety=1.0),
        checks=ChecksSpec(convergence=True, convergence_tol=1e-6, convergence_min_r2=0.99),
        output_dir=str(out_dir),
    )


@pytest.fixture(scope="module")
def convergence_run(tmp_path_factory) -> LabRun:
    out_dir = tmp_path_factory.mktemp("convergence") / "base"
    cfg = _convergence_config(TWO_PI, 64, out_dir)
    return LabRun("convergence base", execute_run(cfg, out_dir), cfg, out_dir)


@pytest.fixture(scope="module")
def convergence_run_doubled(tmp_path_factory) -> LabRun:
    out_dir = tmp_path_factory.mktemp("convergence_doubled") / "doubled"
    cfg = _convergence_config(2.0 * TWO_PI, 128, out_dir)
    return LabRun("convergence doubled", execute_run(cfg, out_dir), cfg, out_dir)


def test_criterion_07_exponential_convergence(convergence_run):
    outcome = convergence_run.outcome
    assert outcome.status == "ok"
    verdict = next(v for v in outcome.verdicts if v.name == "convergence")
    final = verdict.measured
    alpha, r2 = outcome.alpha, outcome.r_squared
    passed = verdict.passed and alpha is not None and alpha > 0.0 and r2 >= 0.99
    ok = report(7, "exponential convergence to (a/b, mu a/(lam b))", passed,
                f"final err {final:.3e} (tol 1e-6), alpha {alpha:.4f}, r2 {r2:.6f}")
    assert ok


def test_criterion_11_domain_doubling(convergence_run, convergence_run_doubled):
    base, doubled = convergence_run.outcome, convergence_run_doubled.outcome
    err_base = base.records[-1].err_u + base.records[-1].err_v
    err_doubled = doubled.records[-1].err_u + doubled.records[-1].err_v
    derr = abs(err_doubled - err_base) / err_base
    dalpha = abs(doubled.alpha - base.alpha) / base.alpha
    passed = derr < 0.01 and dalpha < 0.01
    ok = report(11, "domain-doubling robustness", passed,
                f"rel change err {derr:.2e}, alpha {dalpha:.2e} (< 1e-2)")
    assert ok


# ---------------------------------------------------------------------------
# criterion 8: eigenvalue dual route


def test_criterion_08_eigenvalue_oracle():
    worst = 0.0
    for dim in (1, 2, 3):
        for L0 in (2.0, 5.0, 10.0):
            analytic = principal_eigenvalue(1.0, L0, dim)
            fd = principal_eigenvalue_fd(1.0, L0, dim, nodes=2048)
            worst = max(worst, abs(fd - analytic) / abs(analytic))
    ok = report(8, "principal eigenvalue analytic vs finite differences",
                worst <= 1e-4, f"worst rel dev {worst:.3e}")
    assert ok


# ---------------------------------------------------------------------------
# criterion 9: Gaussian tails


def test_criterion_09_gaussian_tails():
    from scipy.integrate import quad
    from scipy.special import gamma as gamma_fn

    worst = 0.0
    for dim in (1, 2, 3):
        omega = 2.0 * math.pi ** (dim / 2.0) / gamma_fn(dim / 2.0)
        for m in (0, 1):
            for R in (0.0, 0.5, 1.0, 2.0, 4.0):
                val, _ = quad(
                    lambda r: r ** (dim + m - 1) * math.exp(-r * r), R, np.inf,
                    epsabs=1e-14, epsrel=1e-13,
                )
                expected = omega * val
                got = gaussian_tail(R, dim, m)
                worst = max(worst, abs(got - expected) / expected)
    special = abs(gaussian_tail(1.0, 1, 1) - math.exp(-1.0))
    passed = worst <= 1e-10 and special <= 1e-12
    ok = report(9, "Gaussian tails incomplete gamma vs quadrature", passed,
                f"worst rel dev {worst:.3e}, first-moment anchor dev {special:.3e}")
    assert ok


# ---------------------------------------------------------------------------
# criterion 10: large-decay limit of the convergence threshold


def test_criterion_10_threshold_large_decay_limit():
    # As lam -> inf the second theta0 constraint of convergence_K,
    # 8 c_generic lam^(-1/2) a^(1/2) pi theta/(N(1-theta)) <= 1/12, goes slack
    # and only 2 c2 theta/((1-theta)^2 a) <= 1/6 binds.  With r = c2/a its
    # root is theta0 = (1 + 6r) - sqrt((1 + 6r)^2 - 1), i.e. 7 - 4 sqrt(3) at
    # r = 1, so K = N/(4 theta0) = N/(28 - 16 sqrt(3)).
    a, lam, dim = 1.0, 1e6, 1
    cal = CalibrationConstants(c_grad=1.0, c_div=1.0, c2=1.0, c_generic=1.0)
    theta0, K = convergence_K(a, lam, dim, cal)
    s = 1.0 + 6.0 * cal.c2 / a
    root = s - math.sqrt(s * s - 1.0)
    target = dim / (4.0 * root)
    rel = abs(K - target) / target
    g2 = 8.0 * cal.c_generic * lam**-0.5 * a**0.5 * math.pi * root / (dim * (1.0 - root))
    passed = rel <= 1e-9 and g2 < 1.0 / 12.0 and K > dim / 4.0
    ok = report(10, "threshold multiplier limit vs closed form N/(28 - 16 sqrt(3))", passed,
                f"theta0 {theta0:.9f}, K {K:.9f}, target {target:.9f}, "
                f"rel dev {rel:.2e} (allowed 1e-9), second constraint {g2:.5f} (slack below 1/12)")
    assert ok


# ---------------------------------------------------------------------------
# criterion 12: byte-identical reproducibility


def test_criterion_12_reproducibility(bounded_family, tmp_path):
    first = bounded_family[0]
    repeat_dir = tmp_path / "repeat"
    execute_run(first.config, repeat_dir)
    original = (first.out_dir / "diagnostics.csv").read_bytes()
    repeated = (repeat_dir / "diagnostics.csv").read_bytes()
    passed = original == repeated
    ok = report(12, "byte-identical repeated diagnostics", passed,
                f"{len(original)} bytes compared")
    assert ok
