"""Trajectory diagnostics and theorem-style verdicts.

A run produces a time series of :class:`DiagnosticsRecord`; the check
functions turn a series into a :class:`Verdict` on eventual boundedness, a
persistence floor, or exponential convergence with a fitted rate.

The asymptotic statements are operationalised as follows and the slack used
is carried in every verdict:

* "limsup <= B" becomes "max over the tail of the run <= B*(1+slack)", with
  the transient fraction discarded up front;
* the persistence floor is strict positivity of inf u over the tail (plus an
  optional empirical floor);
* exponential convergence is a log-linear least-squares fit with its
  r-squared as the diagnostic of pure exponential decay.

All functions are pure over immutable series and safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import ClassVar, Sequence

import numpy as np

from .core import InvalidParameterError, Params, SimState, VectorField
from .constants import CalibrationConstants
from .spectral import SemigroupPlan

__all__ = [
    "SeriesTooShortError",
    "WindowAdjustmentError",
    "DiagnosticsRecord",
    "Verdict",
    "diagnostics",
    "check_eventual_bound",
    "check_persistence",
    "persistence_trend_floor",
    "fit_decay_rate",
    "fit_decay_rate_sum",
    "auto_fit_window",
    "check_convergence",
]


class SeriesTooShortError(ValueError):
    """The diagnostics series does not span enough time for the check."""


class WindowAdjustmentError(ValueError):
    """The fitting window contains nonpositive values or too few points."""


@dataclass(frozen=True)
class DiagnosticsRecord:
    """Time-stamped norms of one state.

    lyapunov_sup is sup_x [u/chi + |grad v|^2/(2 mu)], the combined quantity
    obeying the comparison bound; err_u and err_v are sup distances to the
    homogeneous equilibrium (a/b, mu a/(lam b)).  FIELDS names the columns
    in declaration order.
    """

    FIELDS: ClassVar[tuple[str, ...]]

    t: float
    sup_u: float
    inf_u: float
    sup_v: float
    sup_grad_v: float
    sup_lap_v: float
    lyapunov_sup: float
    err_u: float
    err_v: float

    @property
    def err_sum(self) -> float:
        return self.err_u + self.err_v


DiagnosticsRecord.FIELDS = tuple(f.name for f in fields(DiagnosticsRecord))


@dataclass(frozen=True)
class Verdict:
    """Outcome of one check: pass iff measured <= target*(1+slack) for
    bounds, or measured >= target (with strictness where stated) for floors."""

    name: str
    passed: bool
    measured: float
    target: float
    slack: float
    transient_time: float


def diagnostics(state: SimState, plan: SemigroupPlan | None = None) -> DiagnosticsRecord:
    """Norms of one state; gradients and Laplacians are spectral."""
    if plan is None:
        plan = SemigroupPlan(state.grid)
    p = state.params
    u = state.u.values
    v = state.v.values
    v_hat = plan.to_spectral(v)
    grad_mag = VectorField(state.grid, plan.grad(v_hat)).magnitude()
    lap_v = plan.to_physical(-plan.k2 * v_hat)
    lyap = u / p.chi + grad_mag**2 / (2.0 * p.mu)
    return DiagnosticsRecord(
        t=state.t,
        sup_u=float(u.max()),
        inf_u=float(u.min()),
        sup_v=float(v.max()),
        sup_grad_v=float(grad_mag.max()),
        sup_lap_v=float(np.abs(lap_v).max()),
        lyapunov_sup=float(lyap.max()),
        err_u=float(np.abs(u - p.steady_u).max()),
        err_v=float(np.abs(v - p.steady_v).max()),
    )


def _tail(series: Sequence[DiagnosticsRecord], transient_fraction: float):
    t0 = series[0].t
    t1 = series[-1].t
    cut = t0 + transient_fraction * (t1 - t0)
    tail = [r for r in series if r.t >= cut]
    return tail, cut


def check_eventual_bound(
    series: Sequence[DiagnosticsRecord],
    field: str,
    target: float,
    *,
    transient_fraction: float = 0.5,
    slack: float = 0.05,
    min_span: float | None = None,
) -> Verdict:
    """Max of ``field`` over the tail of the run against target*(1+slack).

    ``min_span`` (e.g. twice the relaxation time 1/min(a, lam)) makes short
    series an error rather than a vacuous pass.
    """
    if len(series) < 2:
        raise SeriesTooShortError("need at least two records")
    span = series[-1].t - series[0].t
    if min_span is not None and span < min_span:
        raise SeriesTooShortError(f"series spans {span}, need >= {min_span}")
    tail, cut = _tail(series, transient_fraction)
    measured = max(getattr(r, field) for r in tail)
    return Verdict(
        name=f"eventual_bound[{field}]",
        passed=measured <= target * (1.0 + slack),
        measured=measured,
        target=target,
        slack=slack,
        transient_time=cut,
    )


def check_persistence(
    series: Sequence[DiagnosticsRecord],
    floor_guess: float | None = None,
    *,
    transient_fraction: float = 0.5,
) -> tuple[Verdict, float]:
    """Inferred persistence floor m = min of inf_u over the tail.

    Passes iff m > 0 strictly, and m >= floor_guess when one is supplied.
    """
    if len(series) < 2:
        raise SeriesTooShortError("need at least two records")
    if series[0].inf_u <= 0.0:
        raise InvalidParameterError("initial inf_u must be strictly positive")
    tail, cut = _tail(series, transient_fraction)
    m = min(r.inf_u for r in tail)
    passed = m > 0.0 and (floor_guess is None or m >= floor_guess)
    return (
        Verdict(
            name="persistence_floor",
            passed=passed,
            measured=m,
            target=floor_guess if floor_guess is not None else 0.0,
            slack=0.0,
            transient_time=cut,
        ),
        m,
    )


def persistence_trend_floor(p: Params, cal: CalibrationConstants) -> float:
    """Informational trend value a/b - c2*theta/(b(1-theta)^2).

    Its constants are generic, so this is context for reports, never a
    pass/fail target.
    """
    theta = p.dim * p.mu * p.chi / (4.0 * p.b)
    return p.a / p.b - cal.c2 * theta / (p.b * (1.0 - theta) ** 2)


def fit_decay_rate(
    series: Sequence[DiagnosticsRecord],
    field: str,
    window: tuple[float, float],
) -> tuple[float, float]:
    """Least-squares slope of log(field) vs t over ``window``.

    Returns (alpha, r_squared) with alpha = -slope.  Raises
    :class:`WindowAdjustmentError` on nonpositive values (no log) or fewer
    than two points in the window.
    """
    t_lo, t_hi = window
    sel = [(r.t, getattr(r, field)) for r in series if t_lo <= r.t <= t_hi]
    ts = np.array([s[0] for s in sel])
    vals = np.array([s[1] for s in sel])
    if len(ts) < 2:
        raise WindowAdjustmentError(f"window {window} selects {len(ts)} records")
    if np.any(vals <= 0.0):
        raise WindowAdjustmentError("window contains nonpositive values; adjust it")
    logs = np.log(vals)
    slope, intercept = np.polyfit(ts, logs, 1)
    pred = slope * ts + intercept
    ss_res = float(np.sum((logs - pred) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    return float(-slope), r_squared


def fit_decay_rate_sum(
    series: Sequence[DiagnosticsRecord], window: tuple[float, float]
) -> tuple[float, float]:
    """fit_decay_rate on the combined err_u + err_v series."""
    return fit_decay_rate(series, "err_sum", window)


def auto_fit_window(
    series: Sequence[DiagnosticsRecord], *, min_points: int = 5
) -> tuple[float, float]:
    """Window for fitting the decay of err_u + err_v.

    Skips the initial transient (first 2% of the span) and ends where the
    series first drops below the geometric midpoint of its peak and final
    values, so the log-linear fit sees the genuinely decaying stretch and
    never a discretisation plateau or the roundoff floor.
    """
    if len(series) < min_points:
        raise WindowAdjustmentError(f"need at least {min_points} records")
    vals = np.array([r.err_sum for r in series])
    ts = np.array([r.t for r in series])
    vmax = vals.max()
    if vmax <= 0.0:
        raise WindowAdjustmentError("series is identically zero; nothing to fit")
    v_final = max(vals[-1], vmax * 1e-13)
    cut_value = math.sqrt(vmax * v_final)
    t_skip = ts[0] + 0.02 * (ts[-1] - ts[0])
    start = None
    end = None
    for i in range(len(series)):
        if vals[i] <= 0.0:
            continue
        if ts[i] < t_skip:
            continue
        if start is None:
            start = i
        end = i
        if vals[i] < cut_value and i - start + 1 >= min_points:
            break
    if start is None or end is None or end - start + 1 < 2:
        raise WindowAdjustmentError("too few positive decaying records to fit")
    return float(ts[start]), float(ts[end])


def check_convergence(
    series: Sequence[DiagnosticsRecord],
    p: Params,
    *,
    tol_final: float = 1e-6,
    min_r2: float = 0.99,
    window: tuple[float, float] | None = None,
) -> Verdict:
    """Final err_u + err_v against tol_final plus a positive fitted rate.

    Passes iff the final error sum is <= tol_final and the log-linear fit on
    err_u + err_v gives alpha > 0 with r_squared >= min_r2.
    """
    if len(series) < 2:
        raise SeriesTooShortError("need at least two records")
    final = series[-1].err_sum
    if window is None:
        window = auto_fit_window(series)
    alpha, r_squared = fit_decay_rate_sum(series, window)
    passed = final <= tol_final and alpha > 0.0 and r_squared >= min_r2
    return Verdict(
        name="convergence",
        passed=passed,
        measured=final,
        target=tol_final,
        slack=0.0,
        transient_time=window[0],
    )
