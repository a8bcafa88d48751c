"""Trajectory diagnostics and theorem-style verdicts.

A run produces a time series of :class:`DiagnosticsRecord`; the check
functions turn a series into a :class:`Verdict` on eventual boundedness, a
persistence floor, or exponential convergence with a fitted rate.  Nothing
here transforms: :func:`diagnostics` reduces arrays the stepper holds.

The asymptotic statements are operationalised as follows and the slack used
is carried in every verdict:

* "limsup <= B" becomes "max over the tail of the run <= B*(1+slack)", with
  the transient fraction discarded up front;
* the comparison bound on u/chi + |grad v|^2/(2 mu) becomes "max over the
  whole run <= max(initial value, plateau)*(1+slack)";
* the persistence floor is strict positivity of inf u over the tail (plus an
  optional empirical floor);
* exponential convergence is a log-linear least-squares fit with its
  r-squared as the diagnostic of pure exponential decay; the caller fits
  once and :func:`check_convergence` judges that fit.

Every slack, fraction and tolerance is a required keyword: ``ChecksSpec``
alone holds their defaults.

All functions are pure over immutable series and safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import ClassVar, Sequence

import numpy as np

from .core import InvalidParameterError, Params, row_chunks

__all__ = [
    "SeriesTooShortError",
    "WindowAdjustmentError",
    "DiagnosticsRecord",
    "Verdict",
    "diagnostics",
    "check_eventual_bound",
    "check_lyapunov",
    "check_persistence",
    "fit_decay_rate_sum",
    "auto_fit_window",
    "check_convergence",
    "require_judgeable",
]


class SeriesTooShortError(InvalidParameterError):
    """The diagnostics series does not span enough time for the check."""


class WindowAdjustmentError(InvalidParameterError):
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


def diagnostics(
    t: float, p: Params, u: np.ndarray, v: np.ndarray, grad_sq: np.ndarray, lap_v: np.ndarray
) -> DiagnosticsRecord:
    """Norms of one state, reduced from the physical u and v, |grad v|^2 and
    lap v that the stepper already holds (see :func:`imex.integrate`).

    ``lap_v`` is consumed: it is made for the record alone, and its memory
    holds the Lyapunov quantity once its sup is read, then each sup
    distance to the equilibrium.  Every other array is left as it is, and
    the one temporary, grad_sq/(2 mu) taken a chunk at a time
    (:func:`~chemotaxis_lab.core.row_chunks`), is smaller than a field."""
    sup_lap_v = float(np.abs(lap_v, out=lap_v).max())
    lyap = np.divide(u, p.chi, out=lap_v)
    two_mu = 2.0 * p.mu
    for rows in row_chunks(lyap):
        lyap[rows] += grad_sq[rows] / two_mu
    lyapunov_sup = float(lyap.max())
    return DiagnosticsRecord(
        t=t,
        sup_u=float(u.max()),
        inf_u=float(u.min()),
        sup_v=float(v.max()),
        sup_grad_v=float(np.sqrt(grad_sq.max())),
        sup_lap_v=sup_lap_v,
        lyapunov_sup=lyapunov_sup,
        err_u=float(np.abs(np.subtract(u, p.steady_u, out=lap_v), out=lap_v).max()),
        err_v=float(np.abs(np.subtract(v, p.steady_v, out=lap_v), out=lap_v).max()),
    )


def _tail(series: Sequence[DiagnosticsRecord], transient_fraction: float):
    t0 = series[0].t
    t1 = series[-1].t
    cut = t0 + transient_fraction * (t1 - t0)
    tail = [r for r in series if r.t >= cut]
    return tail, cut


_MIN_FIT_POINTS = 5  # fewest records in a series and in a fitting window
_ZERO_SERIES = "series is identically zero; nothing to fit"


def require_judgeable(
    *, span=None, min_span=None, inf_u0=None, n_records=None, err_sum0=None
) -> None:
    """Raise unless a series can be judged: it spans ``min_span``, so an
    eventual bound is never a vacuous pass; it starts from inf u0 > 0, which
    persistence is judged from; and ``n_records`` can be fitted, from a
    datum whose err_u + err_v (``err_sum0``) is not 0: the equilibrium is a
    fixed point of every step, so its series has no decay to fit.  A facet
    left None is not checked.  The runner calls this before any output."""
    if min_span is not None and span < min_span:
        raise SeriesTooShortError(f"series spans {span}, need >= {min_span}")
    if inf_u0 is not None and inf_u0 <= 0.0:
        raise InvalidParameterError("initial inf_u must be strictly positive")
    if n_records is not None and n_records < _MIN_FIT_POINTS:
        raise WindowAdjustmentError(f"need at least {_MIN_FIT_POINTS} records")
    if err_sum0 == 0.0:
        raise WindowAdjustmentError(_ZERO_SERIES)


def check_eventual_bound(
    series: Sequence[DiagnosticsRecord],
    field: str,
    target: float,
    *,
    transient_fraction: float,
    slack: float,
) -> Verdict:
    """Max of ``field`` over the tail of the run against target*(1+slack).
    A series too short to judge is refused by :func:`require_judgeable`."""
    if len(series) < 2:
        raise SeriesTooShortError("need at least two records")
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


def check_lyapunov(
    series: Sequence[DiagnosticsRecord], plateau: float, *, slack: float
) -> Verdict:
    """Max of lyapunov_sup over the whole run against the comparison bound.

    The ceiling is max(initial lyapunov_sup, plateau): the comparison
    argument bounds the quantity by its initial value or its plateau,
    whichever is larger.  Passes iff the max is <= ceiling*(1+slack).
    """
    ceiling = max(series[0].lyapunov_sup, plateau)
    measured = max(r.lyapunov_sup for r in series)
    return Verdict(
        name="lyapunov_bound",
        passed=measured <= ceiling * (1.0 + slack),
        measured=measured,
        target=ceiling,
        slack=slack,
        transient_time=0.0,
    )


def check_persistence(
    series: Sequence[DiagnosticsRecord],
    *,
    floor_guess: float | None,
    transient_fraction: float,
) -> Verdict:
    """Inferred persistence floor m = min of inf_u over the tail, reported
    as the verdict's ``measured``.

    Passes iff m > 0 strictly, and m >= floor_guess when one is supplied.
    """
    if len(series) < 2:
        raise SeriesTooShortError("need at least two records")
    require_judgeable(inf_u0=series[0].inf_u)
    tail, cut = _tail(series, transient_fraction)
    m = min(r.inf_u for r in tail)
    return Verdict(
        name="persistence_floor",
        passed=m > 0.0 and (floor_guess is None or m >= floor_guess),
        measured=m,
        target=floor_guess if floor_guess is not None else 0.0,
        slack=0.0,
        transient_time=cut,
    )


def fit_decay_rate_sum(
    series: Sequence[DiagnosticsRecord], window: tuple[float, float]
) -> tuple[float, float]:
    """Least-squares slope of log(err_u + err_v) vs t over ``window``.

    Returns (alpha, r_squared) with alpha = -slope.  Raises
    :class:`WindowAdjustmentError` on nonpositive values (no log) or fewer
    than two points in the window.
    """
    t_lo, t_hi = window
    sel = [(r.t, r.err_sum) for r in series if t_lo <= r.t <= t_hi]
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


def auto_fit_window(series: Sequence[DiagnosticsRecord]) -> tuple[float, float]:
    """Window for fitting the decay of err_u + err_v.

    Skips the initial transient (first 2% of the span) and ends where the
    series first drops below the geometric midpoint of its peak and final
    values, so the log-linear fit sees the genuinely decaying stretch and
    never a discretisation plateau or the roundoff floor.
    """
    require_judgeable(n_records=len(series))
    vals = np.array([r.err_sum for r in series])
    ts = np.array([r.t for r in series])
    vmax = vals.max()
    if vmax <= 0.0:
        raise WindowAdjustmentError(_ZERO_SERIES)
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
        if vals[i] < cut_value and i - start + 1 >= _MIN_FIT_POINTS:
            break
    if start is None or end is None or end - start + 1 < 2:
        raise WindowAdjustmentError("too few positive decaying records to fit")
    return float(ts[start]), float(ts[end])


def check_convergence(
    series: Sequence[DiagnosticsRecord],
    window: tuple[float, float],
    alpha: float,
    r_squared: float,
    *,
    tol_final: float,
    min_r2: float,
) -> Verdict:
    """Final err_u + err_v against tol_final plus a positive fitted rate.

    ``alpha`` and ``r_squared`` are the log-linear fit of err_u + err_v over
    ``window`` (see :func:`auto_fit_window` and :func:`fit_decay_rate_sum`).
    Passes iff the final error sum is <= tol_final, alpha > 0 and
    r_squared >= min_r2.
    """
    if len(series) < 2:
        raise SeriesTooShortError("need at least two records")
    final = series[-1].err_sum
    passed = final <= tol_final and alpha > 0.0 and r_squared >= min_r2
    return Verdict(
        name="convergence",
        passed=passed,
        measured=final,
        target=tol_final,
        slack=0.0,
        transient_time=window[0],
    )
