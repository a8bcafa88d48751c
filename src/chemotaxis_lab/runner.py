"""Run, sweep, and report orchestration with on-disk artifacts.

File inventory for a run directory:

    diagnostics.csv   header: the DiagnosticsRecord.FIELDS, comma-separated;
                      one row per record, floats with 17 significant digits
                      (bit-stable round trips for regression tests)
    constants.json    constants.compute_constants (thresholds, bounds,
                      hypotheses) plus calibration provenance
    verdicts.json     status, one entry per requested check, fitted rate data

A sweep directory adds one subdirectory per point plus ``sweep_summary.csv``
with a row per point; a poisoned point is recorded in its row and never
aborts the sweep.  ``report`` turns any directory of outputs into
``plot_data.csv`` (long format: series,t,value) and ``summary.txt``.

Exit codes (shared with the CLI): 0 all requested checks pass, 2 a check
failed, 3 solver divergence, 4 configuration or I/O error.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

from . import constants as consts
from .config import ConfigError, ExperimentConfig, SweepConfig, build_initial_state
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
)
from .imex import DivergenceError, PositivityViolationError, integrate
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
    payload = {
        **asdict(pc),
        "calibration": {
            "c_div": {"value": cal.c_div, "provenance": "closed form N/sqrt(pi)"},
            "c_grad": {
                "value": cal.c_grad,
                "provenance": "exact l1 norm of the discrete kernel, max over axes and "
                "times (0.001, 0.01, 0.1, 1)",
            },
            "c2": {"value": cal.c2, "provenance": "default: the coefficient a"},
            "c_generic": {"value": cal.c_generic, "provenance": "default 1"},
        },
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def execute_run(cfg: ExperimentConfig, out_dir: str | Path) -> RunOutcome:
    """Integrate one experiment and write its three artifacts into out_dir."""
    state = build_initial_state(cfg)  # a bad initial datum fails before any output
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    plan = SemigroupPlan(cfg.grid)
    c_grad = measure_gradient_constant(plan)
    cal = consts.CalibrationConstants.for_params(cfg.params, c_grad=c_grad)
    pc = consts.compute_constants(cfg.params, cal)
    _write_constants(out / "constants.json", pc, cal)

    records: list[DiagnosticsRecord] = []
    status, divergence_t = "ok", None
    with open(out / "diagnostics.csv", "w") as fh:
        fh.write(CSV_HEADER + "\n")

        def sink(record: DiagnosticsRecord) -> None:
            records.append(record)
            fh.write(_record_row(record) + "\n")

        try:
            integrate(state, cfg.step, sink, plan)
        except (DivergenceError, PositivityViolationError) as exc:
            status = "diverged"
            divergence_t = exc.t

    verdicts: list[Verdict] = []
    alpha = r_squared = None
    if status == "ok" and cfg.checks.any_requested():
        verdicts, alpha, r_squared = _evaluate_checks(cfg, pc, records)

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
        paper_constants=pc,
    )


def _evaluate_checks(
    cfg: ExperimentConfig, pc: consts.PaperConstants, records: list[DiagnosticsRecord]
):
    p = cfg.params
    checks = cfg.checks
    verdicts: list[Verdict] = []
    min_span = 2.0 / min(p.a, p.lam)
    if checks.eventual_bound:
        verdicts.append(
            check_eventual_bound(
                records,
                checks.eventual_bound_field,
                _resolve_bound_target(cfg, pc),
                transient_fraction=checks.transient_fraction,
                slack=checks.slack,
                min_span=min_span,
            )
        )
    if checks.lyapunov:
        if pc.bound_general is None:
            raise ConfigError("lyapunov check needs b > N*mu*chi/4")
        verdicts.append(
            check_lyapunov(records, pc.bound_general / p.chi, slack=checks.lyapunov_slack)
        )
    if checks.persistence:
        verdicts.append(
            check_persistence(
                records, checks.persistence_floor, transient_fraction=checks.transient_fraction
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


def _run_sweep_point(args) -> dict:
    index, parameter, value, cfg, out_dir = args
    row = dict.fromkeys(_SWEEP_COLUMNS, "")
    row.update(index=index, parameter=parameter, value=value, status="OK")
    try:
        outcome = execute_run(cfg, out_dir)
        pc = outcome.paper_constants
        row["theta"] = _fmt(pc.theta)
        row["bound_general"] = _fmt(pc.bound_general) if pc.bound_general is not None else ""
        row["bound_refined"] = _fmt(pc.bound_refined) if pc.bound_refined is not None else ""
        row["K"] = _fmt(pc.K)
        if outcome.status == "diverged":
            row["status"] = f"DIVERGED(t={_fmt(outcome.divergence_t)})"
            return row
        last = outcome.records[-1]
        row["final_sup_u"] = _fmt(last.sup_u)
        row["final_err_sum"] = _fmt(last.err_sum)
        if outcome.alpha is not None:
            row["alpha"] = _fmt(outcome.alpha)
            row["r_squared"] = _fmt(outcome.r_squared)
        row["verdicts"] = ";".join(
            f"{v.name}={'PASS' if v.passed else 'FAIL'}" for v in outcome.verdicts
        )
    except Exception as exc:  # point-level isolation: record, never abort the sweep
        row["status"] = f"ERROR({type(exc).__name__}: {exc})"
    return row


def execute_sweep(sweep: SweepConfig, out_dir: str | Path, workers: int | None = None) -> int:
    """Run every sweep point (bounded worker pool) and write sweep_summary.csv."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tasks = []
    for index, value in enumerate(sweep.values):
        cfg = sweep.point(value)
        point_dir = out / _point_dir_name(index, sweep.parameter, value)
        tasks.append((index, sweep.parameter, value, cfg, str(point_dir)))

    n_workers = workers if workers is not None else (os.cpu_count() or 1)
    n_workers = max(1, min(n_workers, len(tasks)))
    if n_workers == 1:
        rows = [_run_sweep_point(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            rows = list(pool.map(_run_sweep_point, tasks))
    rows.sort(key=lambda r: r["index"])

    with open(out / "sweep_summary.csv", "w") as fh:
        fh.write(",".join(_SWEEP_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(_csv_quote(str(row[c])) for c in _SWEEP_COLUMNS) + "\n")
    return EXIT_OK


def _csv_quote(text: str) -> str:
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


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
