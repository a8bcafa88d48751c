from __future__ import annotations

import numpy as np
import pytest

from chemotaxis_lab import (
    DiagnosticsRecord,
    SeriesTooShortError,
    WindowAdjustmentError,
    check_convergence,
    check_eventual_bound,
    check_persistence,
    diagnostics,
    fit_decay_rate,
)
from chemotaxis_lab.harness import auto_fit_window, check_lyapunov, fit_decay_rate_sum
from chemotaxis_lab import Field, Grid, SimState


def make_record(t, **overrides):
    base = dict(
        t=t, sup_u=1.0, inf_u=1.0, sup_v=1.0, sup_grad_v=0.0,
        sup_lap_v=0.0, lyapunov_sup=1.0, err_u=0.0, err_v=0.0,
    )
    base.update(overrides)
    return DiagnosticsRecord(**base)


def series_from(ts, **column_overrides):
    records = []
    for i, t in enumerate(ts):
        overrides = {name: values[i] for name, values in column_overrides.items()}
        records.append(make_record(t, **overrides))
    return records


def test_diagnostics_at_homogeneous_steady_state(unit_params):
    grid = Grid(dim=1, extent=2 * np.pi, points=64)
    p = unit_params
    state = SimState(
        t=0.0,
        u=Field(grid, np.full(64, p.steady_u)),
        v=Field(grid, np.full(64, p.steady_v)),
        params=p,
    )
    rec = diagnostics(state)
    assert rec.sup_u == rec.inf_u == pytest.approx(p.steady_u)
    assert rec.sup_grad_v == pytest.approx(0.0, abs=1e-14)
    assert rec.err_u == pytest.approx(0.0, abs=1e-14)
    assert rec.err_v == pytest.approx(0.0, abs=1e-14)


def test_diagnostics_zero_density(unit_params):
    grid = Grid(dim=1, extent=2 * np.pi, points=64)
    state = SimState(
        t=1.0,
        u=Field(grid, np.zeros(64)),
        v=Field(grid, np.full(64, 0.7)),
        params=unit_params,
    )
    rec = diagnostics(state)
    assert rec.lyapunov_sup == pytest.approx(0.0, abs=1e-13)
    assert rec.sup_v == pytest.approx(0.7)


def test_diagnostics_lyapunov_value(unit_params):
    grid = Grid(dim=1, extent=2 * np.pi, points=64)
    x = grid.axis_coordinates()
    state = SimState(
        t=0.0,
        u=Field(grid, 1.0 + 0.5 * np.sin(x)),
        v=Field(grid, np.zeros(64)),
        params=unit_params,
    )
    rec = diagnostics(state)
    assert rec.lyapunov_sup == pytest.approx(1.5, rel=1e-12)


def test_record_columns_are_the_dataclass_fields():
    record = make_record(2.0, err_u=0.25, err_v=0.5)
    assert DiagnosticsRecord.FIELDS == tuple(vars(record))
    assert DiagnosticsRecord.FIELDS[0] == "t" and "err_sum" not in DiagnosticsRecord.FIELDS
    assert record.err_sum == 0.75


def test_eventual_bound_constant_series_passes():
    series = series_from(np.linspace(0, 10, 21))
    verdict = check_eventual_bound(series, "sup_u", 4.0 / 3.0, slack=0.05)
    assert verdict.passed
    assert verdict.measured == 1.0


def test_eventual_bound_boundary_arithmetic():
    # ceiling is (4/3)*1.05 = 1.4; a series touching exactly 1.4 passes
    ts = np.linspace(0, 10, 21)
    vals = np.full(21, 1.4)
    series = series_from(ts, sup_u=vals)
    verdict = check_eventual_bound(series, "sup_u", 4.0 / 3.0, slack=0.05)
    assert verdict.passed
    series = series_from(ts, sup_u=np.full(21, 1.41))
    assert not check_eventual_bound(series, "sup_u", 4.0 / 3.0, slack=0.05).passed


def test_eventual_bound_discards_transient():
    ts = np.linspace(0, 10, 21)
    vals = np.where(ts < 5.0, 10.0, 1.0)  # huge transient, quiet tail
    series = series_from(ts, sup_u=vals)
    verdict = check_eventual_bound(series, "sup_u", 4.0 / 3.0, transient_fraction=0.5)
    assert verdict.passed
    assert verdict.transient_time == pytest.approx(5.0)


def test_eventual_bound_slack_monotone():
    ts = np.linspace(0, 10, 21)
    series = series_from(ts, sup_u=np.full(21, 1.39))
    for s1, s2 in [(0.0, 0.02), (0.02, 0.05), (0.05, 0.2)]:
        v1 = check_eventual_bound(series, "sup_u", 4.0 / 3.0, slack=s1)
        v2 = check_eventual_bound(series, "sup_u", 4.0 / 3.0, slack=s2)
        assert (not v1.passed) or v2.passed


def test_eventual_bound_short_series_is_an_error():
    series = series_from([0.0, 0.5])
    with pytest.raises(SeriesTooShortError):
        check_eventual_bound(series, "sup_u", 1.0, min_span=2.0)


def test_persistence_constant_tail():
    series = series_from(np.linspace(0, 60, 61))
    verdict = check_persistence(series)
    assert verdict.passed
    assert verdict.measured == pytest.approx(1.0)


def test_persistence_fails_when_touching_zero():
    ts = np.linspace(0, 10, 21)
    infs = np.full(21, 0.5)
    infs[-1] = 0.0
    series = series_from(ts, inf_u=infs)
    verdict = check_persistence(series)
    assert not verdict.passed
    assert verdict.measured == 0.0


def test_persistence_floor_guess():
    series = series_from(np.linspace(0, 10, 21))
    assert check_persistence(series, floor_guess=0.9).passed
    assert not check_persistence(series, floor_guess=1.1).passed


def test_lyapunov_ceiling_is_the_larger_of_start_and_plateau():
    ts = np.linspace(0, 10, 21)
    lyap = np.full(21, 1.0)
    lyap[5] = 2.1  # transient overshoot above the initial value
    series = series_from(ts, lyapunov_sup=lyap)
    verdict = check_lyapunov(series, 2.0, slack=0.05)
    assert (verdict.target, verdict.measured, verdict.passed) == (2.0, 2.1, True)
    assert not check_lyapunov(series, 2.0, slack=0.04).passed  # 2.1 > 2.08
    # a plateau below the initial value leaves the initial value as ceiling
    lyap[0] = 3.0
    verdict = check_lyapunov(series_from(ts, lyapunov_sup=lyap), 0.5, slack=0.0)
    assert (verdict.target, verdict.passed) == (3.0, True)


def test_fit_recovers_synthetic_exponential():
    ts = np.arange(0.0, 20.0 + 1e-9, 0.1)
    vals = 3.0 * np.exp(-0.3 * ts)
    series = series_from(ts, err_u=vals)
    alpha, r2 = fit_decay_rate(series, "err_u", (0.0, 20.0))
    assert alpha == pytest.approx(0.3, abs=1e-6)
    assert r2 > 0.999999


def test_fit_constant_series_has_zero_rate():
    ts = np.linspace(0, 10, 51)
    series = series_from(ts, err_u=np.full(51, 2.0))
    alpha, _ = fit_decay_rate(series, "err_u", (0.0, 10.0))
    assert abs(alpha) < 1e-9


@pytest.mark.parametrize("rate", [1e-3, 0.1, 1.0, 10.0])
def test_fit_exact_across_rate_range(rate):
    ts = np.linspace(0.0, 4.0 / rate, 200)
    series = series_from(ts, err_u=np.exp(-rate * ts))
    alpha, r2 = fit_decay_rate(series, "err_u", (ts[0], ts[-1]))
    assert alpha == pytest.approx(rate, rel=1e-9)
    assert r2 > 0.999999


def test_fit_rejects_nonpositive_values():
    ts = np.linspace(0, 10, 21)
    vals = np.linspace(1.0, -0.1, 21)
    series = series_from(ts, err_u=vals)
    with pytest.raises(WindowAdjustmentError):
        fit_decay_rate(series, "err_u", (0.0, 10.0))


def fitted_convergence(series, **kwargs):
    window = auto_fit_window(series)
    return check_convergence(series, window, *fit_decay_rate_sum(series, window), **kwargs)


def test_convergence_verdict_on_synthetic_series():
    ts = np.linspace(0.0, 30.0, 121)
    decaying = 0.05 * np.exp(-ts)
    series = series_from(ts, err_u=decaying, err_v=decaying)
    verdict = fitted_convergence(series, tol_final=1e-6)
    assert verdict.passed
    plateaued = np.maximum(0.05 * np.exp(-ts), 1e-2)
    series = series_from(ts, err_u=plateaued, err_v=plateaued)
    verdict = fitted_convergence(series, tol_final=1e-6)
    assert not verdict.passed  # stuck at 2e-2


def test_verdict_determinism():
    ts = np.linspace(0, 10, 21)
    series = series_from(ts, sup_u=np.full(21, 1.2))
    v1 = check_eventual_bound(series, "sup_u", 4.0 / 3.0)
    v2 = check_eventual_bound(series, "sup_u", 4.0 / 3.0)
    assert v1 == v2
