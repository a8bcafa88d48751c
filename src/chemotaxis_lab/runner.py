"""Run, sweep, and report orchestration with on-disk artifacts.

File inventory for a run directory:

    diagnostics.csv   header: the DiagnosticsRecord.FIELDS, comma-separated;
                      one row per record, floats with 17 significant digits
                      (bit-stable round trips for regression tests)
    constants.json    constants.compute_constants (thresholds, bounds,
                      hypotheses) plus each calibration constant with its
                      CalibrationConstants.PROVENANCE
    verdicts.json     status, one entry per requested check, fitted rate data

Every input error is raised by the per-point set-up, before the run
integrates: a bad initial datum, checks that cannot judge the records, and
checks undefined at the coefficients (a refined or general bound target, or
a Lyapunov check, at b <= N*mu*chi/4).  The three files are written together
once the run is judged (or has diverged), so a run that ends in an input
error writes nothing.

A sweep directory adds one subdirectory per point plus ``sweep_summary.csv``
with a row per point.  The points share one grid, so the sweep splits them
into contiguous blocks (at least one per worker, at most
``core.BLOCK_VALUES`` grid values each) and the worker pool maps the
blocks.  A block builds one plan and one gradient-constant calibration,
sets each point up alone, and integrates its members as one batched
ensemble (:func:`imex.integrate`); each point is then judged and written
alone, byte-identical to a solo run.
A poisoned point is recorded in its row and never aborts the sweep: a point
whose set-up, checks or files fail is its own ``ERROR(...)`` row, and a
member that diverges is its own ``DIVERGED(...)`` row.  A bug inside a
block's shared plan, calibration or ``integrate`` becomes an ``ERROR(...)``
row for every member of that block, with one traceback.  ``report`` turns
any directory of outputs into ``plot_data.csv`` (long format:
series,t,value) and ``summary.txt``.

Exit codes (shared with the CLI): 0 all requested checks pass, 2 a check
failed, 3 solver divergence, 4 configuration or I/O error.
"""

from __future__ import annotations

import csv
import json
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

from . import constants as consts
from .config import ConfigError, ExperimentConfig, SweepConfig, build_initial_state
from .core import BLOCK_VALUES, InvalidParameterError, SimState, usable_cpus
from .harness import (
    DiagnosticsRecord,
    Verdict,
    WindowAdjustmentError,
    auto_fit_window,
    check_convergence,
    check_eventual_bound,
    check_lyapunov,
    check_persistence,
    fit_decay_rate_sum,
    require_judgeable,
)
from .imex import DivergenceError, PositivityViolationError, integrate, record_times
from .spectral import SemigroupPlan, measure_gradient_constant

__all__ = [
    "EXIT_OK",
    "EXIT_CHECK_FAILED",
    "EXIT_DIVERGED",
    "EXIT_CONFIG_ERROR",
    "CSV_HEADER",
    "RunOutcome",
    "execute_run",
    "execute_sweep",
    "execute_report",
    "is_bug",
]

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_DIVERGED = 3
EXIT_CONFIG_ERROR = 4

CSV_HEADER = ",".join(DiagnosticsRecord.FIELDS)


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _record_row(r: DiagnosticsRecord) -> str:
    return ",".join(_fmt(getattr(r, name)) for name in DiagnosticsRecord.FIELDS)


@dataclass
class RunOutcome:
    status: str  # "ok" or "diverged"
    divergence_t: float | None
    verdicts: list[Verdict]
    records: list[DiagnosticsRecord]
    alpha: float | None
    r_squared: float | None
    paper_constants: consts.PaperConstants | None

    @property
    def exit_code(self) -> int:
        if self.status == "diverged":
            return EXIT_DIVERGED
        if any(not v.passed for v in self.verdicts):
            return EXIT_CHECK_FAILED
        return EXIT_OK


def is_bug(exc: BaseException) -> bool:
    """Anything but a bad input or an I/O error, which print one line."""
    return not isinstance(exc, (InvalidParameterError, OSError))


def _resolve_bound_target(cfg: ExperimentConfig, pc: consts.PaperConstants) -> float:
    raw = cfg.checks.eventual_bound_target
    if raw not in ("refined", "general"):
        return float(raw)
    target = getattr(pc, f"bound_{raw}")
    if target is None:
        raise ConfigError(f"{raw} bound undefined for b <= N*mu*chi/4; give a number")
    return target


def _write_constants(
    path: Path, pc: consts.PaperConstants, cal: consts.CalibrationConstants
) -> None:
    calibration = {
        name: {"value": value, "provenance": cal.PROVENANCE[name]}
        for name, value in asdict(cal).items()
    }
    payload = {**asdict(pc), "calibration": calibration}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@dataclass(frozen=True)
class _Point:
    """One experiment, set up and admitted, ready to integrate."""

    cfg: ExperimentConfig
    state: SimState
    cal: consts.CalibrationConstants
    pc: consts.PaperConstants
    bound_target: float | None  # the eventual bound's target, when checked


def _set_up_point(cfg: ExperimentConfig, c_grad: float) -> _Point:
    """Everything an experiment needs before it integrates, given its grid's
    gradient constant.  Every input error is raised here, before the run
    integrates or writes anything: a bad initial datum, checks that cannot
    judge records at integrate's record times (the eventual bound needs
    twice the relaxation time 1/min(a, lam); a convergence fit needs a
    datum off the equilibrium), and a refined or general bound target or a
    Lyapunov check at b <= N*mu*chi/4."""
    state = build_initial_state(cfg)
    times = [state.t, *record_times(state.t, cfg.step)]
    checks, p = cfg.checks, cfg.params
    err_sum0 = None  # the datum's err_u + err_v, which a convergence fit needs > 0
    if checks.convergence:
        err_sum0 = abs(state.u.values - p.steady_u).max() + abs(state.v.values - p.steady_v).max()
    require_judgeable(
        span=times[-1] - times[0],
        min_span=2.0 / min(p.a, p.lam) if checks.eventual_bound else None,
        inf_u0=float(state.u.values.min()) if checks.persistence else None,
        n_records=len(times) if checks.convergence else None,
        err_sum0=err_sum0,
    )
    cal = consts.CalibrationConstants.for_params(cfg.params, c_grad=c_grad)
    pc = consts.compute_constants(cfg.params, cal)
    target = _resolve_bound_target(cfg, pc) if checks.eventual_bound else None
    if checks.lyapunov and pc.bound_general is None:
        raise ConfigError("lyapunov check needs b > N*mu*chi/4")
    return _Point(cfg, state, cal, pc, target)


def execute_run(cfg: ExperimentConfig, out_dir: str | Path) -> RunOutcome:
    """Integrate one experiment and write its three artifacts into out_dir."""
    plan = SemigroupPlan(cfg.grid)
    point = _set_up_point(cfg, measure_gradient_constant(plan))
    records: list[DiagnosticsRecord] = []
    divergence = None
    try:
        integrate(point.state, cfg.step, records.append, plan=plan)
    except (DivergenceError, PositivityViolationError) as exc:
        divergence = exc
    return _judge_and_write(point, records, divergence, out_dir)


def _judge_and_write(
    point: _Point,
    records: list[DiagnosticsRecord],
    divergence: DivergenceError | PositivityViolationError | None,
    out_dir: str | Path,
) -> RunOutcome:
    """Judge an integrated point's records and write its three files."""
    status = "ok" if divergence is None else "diverged"
    divergence_t = None if divergence is None else divergence.t
    verdicts: list[Verdict] = []
    alpha = r_squared = None
    if status == "ok" and point.cfg.checks.any_requested():
        verdicts, alpha, r_squared = _evaluate_checks(point, records)

    # Output only now, so an input error the checks raise leaves no directory.
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_constants(out / "constants.json", point.pc, point.cal)
    with open(out / "diagnostics.csv", "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for record in records:
            fh.write(_record_row(record) + "\n")
    payload = {
        "status": status,
        "divergence_t": divergence_t,
        "verdicts": [asdict(v) for v in verdicts],
        "fit": {"alpha": alpha, "r_squared": r_squared},
    }
    (out / "verdicts.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return RunOutcome(
        status=status,
        divergence_t=divergence_t,
        verdicts=verdicts,
        records=records,
        alpha=alpha,
        r_squared=r_squared,
        paper_constants=point.pc,
    )


def _evaluate_checks(point: _Point, records: list[DiagnosticsRecord]):
    checks = point.cfg.checks
    verdicts: list[Verdict] = []
    if checks.eventual_bound:
        verdicts.append(
            check_eventual_bound(
                records,
                checks.eventual_bound_field,
                point.bound_target,
                transient_fraction=checks.transient_fraction,
                slack=checks.slack,
            )
        )
    if checks.lyapunov:
        plateau = point.pc.bound_general / point.cfg.params.chi
        verdicts.append(check_lyapunov(records, plateau, slack=checks.lyapunov_slack))
    if checks.persistence:
        verdicts.append(
            check_persistence(
                records,
                floor_guess=checks.persistence_floor,
                transient_fraction=checks.transient_fraction,
            )
        )
    try:
        window = auto_fit_window(records)
        alpha, r_squared = fit_decay_rate_sum(records, window)
    except WindowAdjustmentError:
        if checks.convergence:
            raise
        alpha = r_squared = None
    if checks.convergence:
        verdicts.append(
            check_convergence(
                records,
                window,
                alpha,
                r_squared,
                tol_final=checks.convergence_tol,
                min_r2=checks.convergence_min_r2,
            )
        )
    return verdicts, alpha, r_squared


def _point_dir_name(index: int, parameter: str, value: float) -> str:
    coeff = parameter.split(".", 1)[1]
    return f"point_{index:03d}_{coeff}={value!r}"


_SWEEP_COLUMNS = (
    "index",
    "parameter",
    "value",
    "status",
    "theta",
    "bound_general",
    "bound_refined",
    "K",
    "final_sup_u",
    "final_err_sum",
    "alpha",
    "r_squared",
    "verdicts",
)


def _error_status(exc: Exception) -> str:
    """A failed point's status; a bug also prints its traceback."""
    if is_bug(exc):
        traceback.print_exc()
    return f"ERROR({type(exc).__name__}: {exc})"


def _fill_row(row: dict, outcome: RunOutcome) -> None:
    pc = outcome.paper_constants
    row["theta"] = _fmt(pc.theta)
    row["bound_general"] = _fmt(pc.bound_general) if pc.bound_general is not None else ""
    row["bound_refined"] = _fmt(pc.bound_refined) if pc.bound_refined is not None else ""
    row["K"] = _fmt(pc.K)
    if outcome.status == "diverged":
        row["status"] = f"DIVERGED(t={_fmt(outcome.divergence_t)})"
        return
    last = outcome.records[-1]
    row["final_sup_u"] = _fmt(last.sup_u)
    row["final_err_sum"] = _fmt(last.err_sum)
    if outcome.alpha is not None:
        row["alpha"] = _fmt(outcome.alpha)
        row["r_squared"] = _fmt(outcome.r_squared)
    row["verdicts"] = ";".join(
        f"{v.name}={'PASS' if v.passed else 'FAIL'}" for v in outcome.verdicts
    )


def _run_sweep_block(tasks: list[tuple]) -> list[dict]:
    """Run a block of sweep points as one batched integrate; one row each.
    A point is isolated wherever it can be: its set-up, checks and files
    fail alone.  A failure of the block's shared plan, calibration or
    integrate is every remaining member's ERROR row."""
    rows = []
    for index, parameter, value, _, _ in tasks:
        row = dict.fromkeys(_SWEEP_COLUMNS, "")
        row.update(index=index, parameter=parameter, value=value, status="OK")
        rows.append(row)
    shared = tasks[0][3]  # every point has the base point's grid and steps
    try:
        plan = SemigroupPlan(shared.grid)
        c_grad = measure_gradient_constant(plan)
        members = []  # (row, point, out_dir, records) of each admitted point
        for row, (_, _, _, cfg, out_dir) in zip(rows, tasks):
            try:  # an inadmissible point is its ERROR row and joins no block
                members.append((row, _set_up_point(cfg, c_grad), out_dir, []))
            except Exception as exc:
                row["status"] = _error_status(exc)
        if not members:
            return rows
        states = [point.state for _, point, _, _ in members]
        sinks = [records.append for _, _, _, records in members]
        ends = integrate(states, shared.step, sinks, plan=plan)
    except Exception as exc:  # the block's shared work: one traceback for the block
        status = _error_status(exc)
        for row in rows:
            if row["status"] == "OK":
                row["status"] = status
        return rows
    for (row, point, out_dir, records), end in zip(members, ends):
        divergence = end if isinstance(end, (DivergenceError, PositivityViolationError)) else None
        try:
            _fill_row(row, _judge_and_write(point, records, divergence, out_dir))
        except Exception as exc:  # point-level isolation: record, never abort the sweep
            row["status"] = _error_status(exc)
    return rows


def execute_sweep(sweep: SweepConfig, out_dir: str | Path, workers: int | None = None) -> int:
    """Run every sweep point and write sweep_summary.csv.  The points are
    split into contiguous blocks, at least one per worker and at most
    ``BLOCK_VALUES`` grid values per block, and the bounded worker pool
    maps the blocks.  ``workers`` defaults to the CPUs the process may use
    (:func:`core.usable_cpus`); one worker runs the blocks inline, with no
    pool.  A pool size below 1 is an input error, raised before any
    output."""
    if workers is not None and workers < 1:
        raise InvalidParameterError(f"workers must be >= 1, got {workers}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tasks = []
    for index, value in enumerate(sweep.values):
        cfg = sweep.point(value)
        point_dir = out / _point_dir_name(index, sweep.parameter, value)
        tasks.append((index, sweep.parameter, value, cfg, str(point_dir)))

    n_workers = workers if workers is not None else usable_cpus()
    n_workers = max(1, min(n_workers, len(tasks)))
    grid = sweep.base.grid
    members = max(1, BLOCK_VALUES // grid.points**grid.dim)
    n_blocks = min(len(tasks), max(n_workers, -(-len(tasks) // members)))
    blocks = [
        tasks[i * len(tasks) // n_blocks : (i + 1) * len(tasks) // n_blocks]
        for i in range(n_blocks)
    ]
    if n_workers == 1:
        rows = [row for block in blocks for row in _run_sweep_block(block)]
    else:
        # Imported here: concurrent.futures brings in multiprocessing,
        # logging and subprocess, ~1 MB that no run or one-worker sweep uses.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            rows = [row for block_rows in pool.map(_run_sweep_block, blocks) for row in block_rows]
    rows.sort(key=lambda r: r["index"])

    with open(out / "sweep_summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_SWEEP_COLUMNS)
        writer.writerows([row[c] for c in _SWEEP_COLUMNS] for row in rows)
    return EXIT_OK


def _load_diagnostics_csv(path: Path) -> list[tuple[str, list[float]]]:
    lines = path.read_text().strip().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ConfigError(f"{path}: unexpected or missing diagnostics header")
    columns = DiagnosticsRecord.FIELDS
    data: list[list[float]] = [[] for _ in columns]
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(columns):
            raise ConfigError(f"{path}: malformed row {line!r}")
        for slot, part in zip(data, parts):
            slot.append(float(part))
    return list(zip(columns, data))


def execute_report(results_dir: str | Path) -> int:
    """Aggregate run/sweep outputs into plot_data.csv and summary.txt."""
    root = Path(results_dir)
    if not root.is_dir():
        raise ConfigError(f"not a directory: {root}")
    diag_files = sorted(root.rglob("diagnostics.csv"))
    verdict_files = sorted(root.rglob("verdicts.json"))
    summary_files = sorted(root.rglob("sweep_summary.csv"))
    if not diag_files and not verdict_files and not summary_files:
        raise ConfigError(f"no run or sweep outputs under {root}")

    plot_lines = ["series,t,value"]
    for path in diag_files:
        run_name = path.parent.relative_to(root).as_posix() or "."
        columns = _load_diagnostics_csv(path)
        ts = columns[0][1]
        for name, values in columns[1:]:
            for t, value in zip(ts, values):
                plot_lines.append(f"{run_name}/{name},{_fmt(t)},{_fmt(value)}")
    (root / "plot_data.csv").write_text("\n".join(plot_lines) + "\n")

    rows = []
    for path in verdict_files:
        run_name = path.parent.relative_to(root).as_posix() or "."
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        if payload.get("status") == "diverged":
            rows.append((run_name, f"DIVERGED(t={payload['divergence_t']!r})", "", "", ""))
            continue
        for v in payload.get("verdicts", []):
            rows.append(
                (
                    run_name,
                    v["name"],
                    "PASS" if v["passed"] else "FAIL",
                    _fmt(v["measured"]),
                    _fmt(v["target"]),
                )
            )
        if not payload.get("verdicts"):
            rows.append((run_name, "(no checks requested)", "", "", ""))

    header = ("run", "check", "result", "measured", "target")
    widths = [
        max(len(header[i]), max((len(r[i]) for r in rows), default=0)) for i in range(5)
    ]
    out_lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for r in rows:
        out_lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    for path in summary_files:
        out_lines.append("")
        out_lines.append(f"sweep summary {path.relative_to(root).as_posix()}:")
        out_lines.extend(path.read_text().strip().splitlines())
    (root / "summary.txt").write_text("\n".join(out_lines) + "\n")
    return EXIT_OK
