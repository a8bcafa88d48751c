"""One benchmark iteration, run in a fresh interpreter by ``run.py``.

Usage: python3 perfbench/iteration.py --workload NAME --seed N --work DIR
           [--traced] [--workers K]

Builds the workload's inputs from the seed, calls the package from
``src/`` of this checkout, checks the outputs and prints one JSON object:
the call's wall time, set-up time, peak resident memory, final error,
operations attempted and failed, digests of every ``diagnostics.csv``
written, and with ``--traced`` the per-layer metrics and the summed time
per span name (the spans themselves go to ``DIR/spans.json``).  Imports happen before any timing.

The set-up time is one cold sample: the first set-up this interpreter
performs, before anything in it has calibrated a grid.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import random
import resource
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from chemotaxis_lab import config, constants, core, imex, mild, runner, spectral  # noqa: E402
from tracing import Tracer  # noqa: E402


def derived_seed(workload: str, seed: int) -> int:
    """The program-side seed for a workload, a fixed function of the bench seed."""
    return random.Random(f"{workload}:{seed}").randrange(2**31)


def _ini_value(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, list):
        return ", ".join(repr(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def experiment_ini(name: str, spec: dict, seed: int, out_dir: Path) -> str:
    """The config file the program reads for a run or sweep workload."""
    sections = {
        "params": spec["params"],
        "grid": spec["grid"],
        "initial": {"seed": derived_seed(name, seed), **spec["initial"]},
        "step": spec["step"],
        "checks": spec["checks"],
        "output": {"dir": str(out_dir)},
    }
    if "sweep" in spec:
        sections["sweep"] = spec["sweep"]
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {_ini_value(value)}" for key, value in keys.items()]
        lines.append("")
    return "\n".join(lines)


def oracle_states(name: str, spec: dict, seed: int) -> list:
    """Seeded states u = base + low-mode perturbation of fixed sup amplitude.

    The modes have equal weight and seeded phases, so the states differ in
    shape but not in the size of their derivatives.
    """
    rng = np.random.default_rng(derived_seed(name, seed))
    init = spec["initial"]
    p = core.Params(**_params_kwargs(spec["params"]))
    grid = core.Grid(dim=p.dim, **spec["grid"])
    x = grid.axis_coordinates()
    states = []
    for _ in range(spec["states"]):
        phases = rng.uniform(0.0, 2.0 * np.pi, len(init["modes"]))
        pert = sum(np.cos(k * x + phase) for k, phase in zip(init["modes"], phases))
        u = init["u_base"] + init["u_amplitude"] * pert / np.abs(pert).max()
        v = np.full_like(x, init["v_base"])
        states.append(
            core.SimState(t=0.0, u=core.Field(grid, u), v=core.Field(grid, v), params=p)
        )
    return states


def _param_attr(key: str) -> str:
    """The ``Params`` field of a ``[params]`` key."""
    return "lam" if key == "lambda" else key


def _params_kwargs(params: dict) -> dict:
    return {_param_attr(k): v for k, v in params.items()}


class SetupDone(Exception):
    """Raised by a stopping :class:`SetupProbe` at the first step."""


class SetupProbe:
    """Wraps ``runner.integrate`` to stamp the time of its first call.

    With ``stop=True`` that call raises :class:`SetupDone` instead, so
    ``execute_run`` performs its set-up only.
    """

    def __init__(self, stop: bool = False):
        self.first_call: float | None = None
        self.stop = stop
        self._inner = runner.integrate

    def __enter__(self):
        inner = self._inner

        def probed(*args, **kwargs):
            if self.first_call is None:
                self.first_call = perf_counter()
            if self.stop:
                raise SetupDone
            return inner(*args, **kwargs)

        runner.integrate = probed
        return self

    def __exit__(self, *exc):
        runner.integrate = self._inner
        return exc[0] is SetupDone


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def _peak_rss_mb(workers: int = 0) -> float:
    """Peak RSS of this process plus ``workers`` times its largest child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers else 0
    return (own + workers * child) / 1024.0


def run_workload(name, spec, seed, work: Path, tracer) -> dict:
    out = work / "out"
    ini = work / "experiment.ini"
    ini.write_text(experiment_ini(name, spec, seed, out))
    with SetupProbe() as probe:
        t0 = perf_counter()
        cfg = config.load_config(ini)
        t_exec = perf_counter()
        outcome = runner.execute_run(cfg, out)
        wall = perf_counter() - t0
    rss = _peak_rss_mb()

    expect = spec["expect"]
    problems = []
    if outcome.status != expect["status"]:
        problems.append(f"status {outcome.status!r}, expected {expect['status']!r}")
    if expect["exit_codes"] is not None and outcome.exit_code not in expect["exit_codes"]:
        problems.append(f"exit code {outcome.exit_code}")
    verdicts = {v.name: v for v in outcome.verdicts}
    for check in expect["pass"]:
        if check not in verdicts or not verdicts[check].passed:
            problems.append(f"verdict {check} did not pass")
    last = outcome.records[-1] if outcome.records else None
    values = [getattr(r, f) for r in outcome.records for f in r.FIELDS]
    if last is None or not all(math.isfinite(x) for x in values):
        problems.append("state is missing or not finite")
    reported = {
        c: {"passed": verdicts[c].passed, "measured": verdicts[c].measured,
            "target": verdicts[c].target}
        for c in expect["report"] if c in verdicts
    }
    return {
        "wall_s": wall,
        "setup_s": probe.first_call - t_exec,
        "peak_rss_mb": rss,
        "final_err": last.err_u + last.err_v if last else float("nan"),
        "attempted": 1,
        "failed": 1 if problems else 0,
        "problems": problems,
        "reported": reported,
        "digests": {"diagnostics.csv": _digest(out / "diagnostics.csv")},
        "artifact_bytes": _tree_bytes(out),
    }


def sweep_workload(name, spec, seed, work: Path, tracer, workers: int) -> dict:
    out = work / "out"
    ini = work / "sweep.ini"
    ini.write_text(experiment_ini(name, spec, seed, out))
    with SetupProbe() as probe:
        t0 = perf_counter()
        sweep = config.load_sweep_config(ini)
        t_sweep = perf_counter()
        runner.execute_sweep(sweep, out, workers=workers)
        wall = perf_counter() - t0
    rss = _peak_rss_mb(workers if workers > 1 else 0)

    with open(out / "sweep_summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    for row in rows:
        verdicts = row["verdicts"].split(";") if row["verdicts"] else []
        if row["status"] != "OK" or not verdicts or not all(
            v.endswith("=PASS") for v in verdicts
        ):
            problems.append(f"point {row['value']}: {row['status']} {row['verdicts']}")
    if len(rows) != len(sweep.values):
        problems.append(f"{len(rows)} rows for {len(sweep.values)} points")
    errors = [float(r["final_err_sum"]) for r in rows if r["final_err_sum"]]

    if probe.first_call is not None:
        # One worker: the first point ran here, so its set-up is the sample.
        setup = probe.first_call - t_sweep
    else:
        # The points ran in the pool's processes: the sample is one
        # set-up-only call of the base point here, where nothing has
        # calibrated a grid yet.
        with SetupProbe(stop=True) as stopper:
            start = perf_counter()
            runner.execute_run(sweep.base, work / "setup")
        setup = stopper.first_call - start

    digests = {
        str(p.relative_to(out)): _digest(p) for p in sorted(out.rglob("diagnostics.csv"))
    }
    return {
        "wall_s": wall,
        "setup_s": setup,
        "peak_rss_mb": rss,
        "final_err": float(np.median(errors)) if errors else float("nan"),
        "attempted": len(sweep.values),
        "failed": min(len(problems), len(sweep.values)),
        "problems": problems,
        "reported": {},
        "digests": digests,
        "artifact_bytes": _tree_bytes(out),
    }


def oracle_setup(states):
    """Plan, gradient-constant calibration and the certified horizon per state."""
    p = states[0].params
    plan = spectral.SemigroupPlan(states[0].grid)
    c_grad = spectral.measure_gradient_constant(plan)
    cal = constants.CalibrationConstants.for_params(p, c_grad=c_grad)
    horizons = [
        mild.local_horizon(max(s.u.sup(), mild.c1_norm(plan, s.v)), p, cal.c_div, cal.c_grad)
        for s in states
    ]
    return plan, horizons


def oracle_workload(name, spec, seed, work: Path, tracer) -> dict:
    states = oracle_states(name, spec, seed)
    p = states[0].params
    T = spec["horizon"]
    picard_cfg = mild.PicardConfig(**spec["picard"])
    ctl = imex.StepControl(t_end=T, record_every=T, **spec["step"])
    problems = []
    diffs = []

    t0 = perf_counter()
    plan, horizons = oracle_setup(states)
    setup = perf_counter() - t0
    for index, state in enumerate(states):
        span = tracer.span("bench.cross_check") if tracer else nullcontext()
        with span:
            try:
                picard = mild.picard_solve(state, T, picard_cfg, plan)
            except mild.ContractionFailureError as exc:
                problems.append(f"state {index}: {exc}")
                continue
            records = []
            stepped = imex.integrate(state, ctl, records.append, plan=plan)
        end = picard.states[-1]
        diff = max(
            float(np.abs(end.u.values - stepped.u.values).max()),
            float(np.abs(end.v.values - stepped.v.values).max()),
        )
        diffs.append(diff)
        values = [getattr(r, f) for r in records for f in r.FIELDS]
        if abs(records[-1].t - T) > 1e-12 * T or not all(math.isfinite(x) for x in values):
            problems.append(f"state {index}: stepper records missing or not finite")
        if not diff <= spec["tolerance"]:
            problems.append(f"state {index}: sup diff {diff:.3e} > {spec['tolerance']:g}")
        if T > horizons[index]:
            problems.append(f"state {index}: horizon {T} beyond certified {horizons[index]:.4g}")
    wall = perf_counter() - t0
    rss = _peak_rss_mb()
    return {
        "wall_s": wall,
        "setup_s": setup,
        "peak_rss_mb": rss,
        "final_err": float(np.mean(diffs)) if diffs else float("nan"),
        "attempted": len(states),
        "failed": min(len(problems), len(states)),
        "problems": problems,
        "reported": {},
        "digests": {},
        # The oracle writes no output directory.
        "artifact_bytes": 0,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--workers", type=int, default=None)
    args = ap.parse_args(argv)

    spec = json.loads((HERE / "workloads.json").read_text())[args.workload]
    args.work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.traced else None
    if tracer:
        tracer.install()
    kind = spec["kind"]
    if kind == "run":
        result = run_workload(args.workload, spec, args.seed, args.work, tracer)
    elif kind == "sweep":
        workers = args.workers if args.workers is not None else spec["workers"]
        result = sweep_workload(args.workload, spec, args.seed, args.work, tracer, workers)
    else:
        result = oracle_workload(args.workload, spec, args.seed, args.work, tracer)
    if tracer:
        result["layers"] = tracer.layer_metrics()
        result["span_totals"] = tracer.span_totals()
        tracer.write(args.work / "spans.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
