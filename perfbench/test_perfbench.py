"""The benchmark's own test: every workload end to end at a reduced size.

Run with ``python3 -m pytest perfbench`` from the root of the repository.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = json.loads((HERE / "workloads.json").read_text())

# Small grids and short horizons; everything else as in workloads.json.
REDUCED = {
    "converge-1d": {"grid": {"points": 16}, "step": {"t_end": 4.0, "dt_max": 0.01}},
    "bounded-3d": {"grid": {"points": 16}, "step": {"t_end": 0.2}},
    "sweep-1d": {"grid": {"points": 32}, "step": {"t_end": 5.0},
                 "sweep": {"values": [1.0, 2.0]}},
    "oracle-1d": {"grid": {"points": 64}, "picard": {"quad_nodes": 40}, "states": 2,
                  "step": {"dt_max": 0.001}},
}

# Per-layer counts that read 0 on a workload, because it does not use the layer.
ZERO = {
    "converge-1d": {"mild.fft_calls", "mild.picard_iters"},
    "bounded-3d": {"mild.fft_calls", "mild.picard_iters"},
    "sweep-1d": {"mild.fft_calls", "mild.picard_iters"},
    "oracle-1d": {"runner.artifact_bytes"},
}


def checkout(tmp_path: Path, **overrides) -> Path:
    """A copy of the checkout whose workloads are reduced in size.

    ``overrides`` replace whole entries of a workload's definition.
    """
    root = tmp_path / "checkout"
    ignore = shutil.ignore_patterns(".work", "__pycache__")
    shutil.copytree(ROOT / "src", root / "src", ignore=ignore)
    shutil.copytree(HERE, root / "perfbench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", root)
    defs = json.loads(json.dumps(WORKLOADS))
    for name, changes in REDUCED.items():
        for key, value in changes.items():
            if isinstance(value, dict):
                defs[name][key].update(value)
            else:
                defs[name][key] = value
    for name, changes in overrides.items():
        defs[name].update(changes)
    (root / "perfbench" / "workloads.json").write_text(json.dumps(defs))
    return root


def bench(root: Path, workload: str, trace: int):
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
        "--seconds", "1", "--trace", str(trace),
    ]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def last_json(done) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_reports_every_metric_with_its_unit(tmp_path, workload, trace):
    done = bench(checkout(tmp_path), workload, trace)
    result = last_json(done)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0 and result["attempted"] >= 2
    declared = DECLARED["per_layer"] if trace else DECLARED["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    zero = ZERO[workload] if trace else set()
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)), m["name"]
        assert math.isfinite(got["value"]), m["name"]
        assert (got["value"] == 0) == (m["name"] in zero), m["name"]
        assert f"  {m['name']} " in done.stdout and f" {m['unit']}  " in done.stdout
    assert "fail_ratio" in done.stdout and "environment {" in done.stdout


def test_traced_run_sees_the_layers(tmp_path):
    metrics = last_json(bench(checkout(tmp_path), "oracle-1d", 1))["metrics"]
    value = {name: m["value"] for name, m in metrics.items()}
    assert value["mild.picard_iters"] >= 2
    assert value["mild.fft_calls"] > 0 and value["imex.fft_calls"] > 0
    assert value["spectral.fft_calls"] >= value["mild.fft_calls"] + value["imex.fft_calls"]
    assert 0 < value["imex.integrate_self_s"] < value["imex.integrate_s"]


def test_forced_check_failure_shows_in_fail_ratio(tmp_path):
    root = checkout(tmp_path, **{"oracle-1d": {"tolerance": 1e-300}})
    done = bench(root, "oracle-1d", 0)
    result = last_json(done)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert re.search(r"fail_ratio\s+1 ratio", done.stdout)
    assert "check failed: iteration 0: state 0: sup diff" in done.stdout


def test_output_mismatch_between_iterations_is_a_failure():
    sys.path.insert(0, str(HERE))
    try:
        import run
    finally:
        sys.path.remove(str(HERE))
    session = run.Session.__new__(run.Session)
    same = {"attempted": 1, "failed": 0, "problems": [], "digests": {"diagnostics.csv": "a"}}
    session.iterations = [same, dict(same), dict(same, digests={"diagnostics.csv": "b"})]
    attempted, failed, problems = session.tally()
    assert (attempted, failed) == (3, 1)
    assert problems == ["iteration 2: not byte-identical: diagnostics.csv"]


def test_without_the_package_source_it_fails_without_a_result(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    cmd = [sys.executable, "perfbench/run.py", "--workload", "converge-1d", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
