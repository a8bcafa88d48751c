"""Benchmark of chemotaxis-lab: seeded workloads, timed and traced runs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every iteration runs in a fresh interpreter (``perfbench/iteration.py``),
one at a time, because every ``chemlab run`` pays its own set-up; the
program's own pool (the sweep workload) is capped at ``nproc``.  Iterations
repeat until ``--seconds`` is used up, with at least two, and every
iteration of a run uses the same seeded inputs, so their ``diagnostics.csv``
files must be byte-identical.

``--trace 0`` reports the end-to-end metrics (medians over iterations).
``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics of the traced ones, plus the tracing overhead (traced over
untraced wall time).  The sweep's traced iterations use one worker so the
wrappers see every point, and its overhead is taken against untraced
one-worker sweeps.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print each metric by name and unit, the environment, and the output checks.
A full record of the run goes to ``perfbench/.work/records/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MIN_ITERATIONS = 2
# Every run must end within 180 s; no iteration may start past this point.
HARD_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed check)."""


def environment() -> dict:
    env = {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_sha": None,
        "git_dirty": None,
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
    }
    if (ROOT / ".git").exists():
        sha = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain", "--untracked-files=no")
        env["git_sha"] = sha.strip() if sha is not None else None
        env["git_dirty"] = bool(status.strip()) if status is not None else None
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout if done.returncode == 0 else None


class Session:
    """Runs the iterations of one benchmark run and keeps their results."""

    def __init__(self, args):
        self.args = args
        self.start = perf_counter()
        self.work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.iterations: list[dict] = []

    def elapsed(self) -> float:
        return perf_counter() - self.start

    def iterate(self, mode: str, workers: int | None = None) -> None:
        index = len(self.iterations)
        cmd = [
            sys.executable,
            str(HERE / "iteration.py"),
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--work", str(self.work / f"iter{index}"),
        ]
        if mode == "traced":
            cmd.append("--traced")
        if workers is not None:
            cmd += ["--workers", str(workers)]
        budget = HARD_LIMIT_S - self.elapsed()
        if budget <= 0:
            raise BenchError("no time left for another iteration")
        began = perf_counter()
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=budget)
        except subprocess.TimeoutExpired:
            raise BenchError(f"iteration {index} ({mode}) ran past {HARD_LIMIT_S:.0f} s") from None
        if done.returncode != 0 or not done.stdout.strip():
            raise BenchError(f"iteration {index} ({mode}) exited with {done.returncode}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        result.update(mode=mode, workers=workers, seconds=perf_counter() - began)
        self.iterations.append(result)

    def repeat(self, cycle) -> None:
        """Run ``cycle`` (a list of (mode, workers)) until the time is used."""
        lengths = []
        while True:
            began = self.elapsed()
            for mode, workers in cycle:
                self.iterate(mode, workers)
            lengths.append(self.elapsed() - began)
            enough = len(self.iterations) >= MIN_ITERATIONS
            if enough and self.elapsed() + statistics.median(lengths) > self.args.seconds:
                return

    def select(self, mode: str, workers: int | None = None) -> list[dict]:
        return [r for r in self.iterations if r["mode"] == mode and r["workers"] == workers]

    def tally(self) -> tuple[int, int, list[str]]:
        """Operations attempted and failed, counting non-reproducible outputs."""
        attempted = failed = 0
        problems = []
        reference = self.iterations[0]["digests"]
        for index, r in enumerate(self.iterations):
            attempted += r["attempted"]
            bad = r["failed"]
            problems += [f"iteration {index}: {p}" for p in r["problems"]]
            if r["digests"] != reference:
                differing = sorted(
                    k for k in set(r["digests"]) | set(reference)
                    if r["digests"].get(k) != reference.get(k)
                )
                problems.append(f"iteration {index}: not byte-identical: {', '.join(differing)}")
                bad = r["attempted"]
            failed += min(bad, r["attempted"])
        return attempted, failed, problems


def timed_samples(session: Session, pool: int | None) -> dict[str, list]:
    results = session.select("timed", pool)
    return {
        key: [r[key] for r in results] for key in ("wall_s", "setup_s", "peak_rss_mb", "final_err")
    }


def traced_samples(session: Session, pool: int | None) -> dict[str, list]:
    traced = session.select("traced", 1 if pool else None)
    samples = {name: [r["layers"][name] for r in traced] for name in traced[0]["layers"]}
    samples["runner.artifact_bytes"] = [r["artifact_bytes"] for r in traced]
    return samples


def trace_overhead(session: Session, pool: int | None) -> float:
    """Median traced wall time over median untraced wall time, same workers."""
    single = 1 if pool else None
    untraced = statistics.median(r["wall_s"] for r in session.select("timed", single))
    traced = statistics.median(r["wall_s"] for r in session.select("traced", single))
    return traced / untraced


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return "single sample"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"quartiles {q1:.6g}..{q3:.6g}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "chemotaxis_lab" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = json.loads((HERE / "workloads.json").read_text())
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(workloads)}",
              file=sys.stderr)
        return 2
    spec = workloads[args.workload]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}

    # The sweep's pool size, capped at nproc; None for workloads without a pool.
    pool = min(spec["workers"], os.cpu_count() or 1) if "workers" in spec else None
    session = Session(args)
    try:
        if args.trace == 0:
            session.repeat([("timed", pool)])
            samples = timed_samples(session, pool)
        else:
            single = 1 if pool else None
            session.repeat([("timed", single), ("traced", single)])
            samples = traced_samples(session, pool)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    if args.trace:
        metrics["bench.trace_overhead_ratio"] = trace_overhead(session, pool)

    attempted, failed, problems = session.tally()
    env = environment()
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(session.iterations)} iterations in {session.elapsed():.1f} s, "
          "one fresh interpreter each")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        if name in samples:
            note = f"median of {len(samples[name])}; {_quartiles(samples[name])}"
        else:
            note = "ratio of median wall times"
        print(f"  {name:28s} {value:.6g} {units[name]}  ({note})")
    print(f"  {'fail_ratio':28s} {failed / attempted:.6g} ratio  "
          f"({failed} of {attempted} operations failed)")
    for r in session.iterations[:1]:
        for check, v in r["reported"].items():
            print(f"  reported, not gated: {check} {'PASS' if v['passed'] else 'FAIL'} "
                  f"(measured {v['measured']:.6g}, target {v['target']:.6g})")
    traced = session.select("traced", 1 if pool else None)
    for name in sorted(set().union(*(r.get("span_totals", {}) for r in traced))):
        # A span name missing from an iteration spent no time there.
        total = statistics.median(r["span_totals"].get(name, 0.0) for r in traced)
        print(f"  reported, not a metric: span total {name} {total:.6g} s")
    for p in problems:
        print(f"  check failed: {p}")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "environment": env, "metrics": metrics,
        "attempted": attempted, "failed": failed, "problems": problems,
        "iterations": [{k: v for k, v in r.items() if k != "digests"} for r in session.iterations],
    }
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (records / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(json.dumps({
        "correct": failed == 0 and all(math.isfinite(v) for v in metrics.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": v if math.isfinite(v) else None, "unit": units[k]}
            for k, v in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
