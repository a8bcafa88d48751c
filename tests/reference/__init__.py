"""Reference output trees of the shipped configs, and the check that a
checkout still writes them.

    python -m tests.reference --update    # rewrite the trees from this checkout

``trees/`` holds what ``chemlab`` wrote for each case in :data:`CASES`: the
three shipped configs (the sweep at ``--workers 1``) and the 2D and 3D runs
that CI steps (``run_2d.ini`` and ``run_3d.ini``, stored here).  ``manifest.json`` records each case's
exit code and the numpy version and platform that wrote the trees.

:func:`compare_trees` holds a regenerated tree to the reference.  Statuses,
verdict booleans, exit codes, file lists and CSV headers must match
exactly.  Numbers must match bit for bit when the numpy version and
platform match the manifest's; otherwise to a relative 1e-9, with an
absolute floor of 1e-13 times the column's scale (the largest magnitude of
that CSV column, or the JSON number itself).  "Platform" is the operating
system, the machine and the CPU features numpy dispatches on, since
numpy's vectorised ``exp`` and the BLAS under the fit pick their kernels by
CPU.
"""

from __future__ import annotations

import csv
import json
import math
import platform
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
TREES = HERE / "trees"
MANIFEST = HERE / "manifest.json"

# name, chemlab command, config, extra arguments
CASES = (
    ("boundedness", "run", ROOT / "configs" / "boundedness.ini", []),
    ("convergence", "run", ROOT / "configs" / "convergence.ini", []),
    ("sweep_damping", "sweep", ROOT / "configs" / "sweep_damping.ini", ["--workers", "1"]),
    ("run_2d", "run", HERE / "run_2d.ini", []),
    ("run_3d", "run", HERE / "run_3d.ini", []),
)

RELATIVE = 1e-9
FLOOR = 1e-13


def platform_tag() -> str:
    """The operating system, the machine and numpy's runtime CPU features."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:  # a numpy that keeps them elsewhere: no features named
        features = {}
    enabled = sorted(name for name, on in features.items() if on)
    return " ".join([sys.platform, platform.machine(), *enabled])


def write_trees(root: Path) -> dict[str, int]:
    """Run every case with its output tree under ``root``; their exit codes."""
    from chemotaxis_lab.cli import main

    return {
        name: main([command, str(config), "--out", str(root / name), *extra])
        for name, command, config, extra in CASES
    }


def _files(root: Path) -> list[str]:
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _close(expected: float, actual: float, scale: float, exact: bool) -> bool:
    if exact or not (math.isfinite(expected) and math.isfinite(actual)):
        return repr(expected) == repr(actual)
    return abs(actual - expected) <= max(RELATIVE * abs(expected), FLOOR * scale)


def _compare_csv(name: str, expected: Path, actual: Path, exact: bool) -> list[str]:
    with open(expected, newline="") as fh:
        want = list(csv.reader(fh))
    with open(actual, newline="") as fh:
        got = list(csv.reader(fh))
    if want[:1] != got[:1]:
        return [f"{name}: header {got[:1]} != {want[:1]}"]
    if len(want) != len(got) or any(len(w) != len(g) for w, g in zip(want, got)):
        return [f"{name}: {len(got)} rows, expected {len(want)} of the same widths"]
    numbers = [[x for x in map(_number, column) if x is not None] for column in zip(*want[1:])]
    scales = [max((abs(x) for x in xs if math.isfinite(x)), default=0.0) for xs in numbers]
    errors = []
    for line, (w_row, g_row) in enumerate(zip(want[1:], got[1:]), start=2):
        for column, w, g, scale in zip(want[0], w_row, g_row, scales):
            x, y = _number(w), _number(g)
            if exact or x is None or y is None:
                same = w == g  # bit for bit, or a string (a status, the verdicts)
            else:
                same = _close(x, y, scale, exact)
            if not same:
                errors.append(f"{name}:{line} {column}: {g!r} != {w!r}")
    return errors


def _compare_json(name: str, want, got, exact: bool, where: str = "") -> list[str]:
    if isinstance(want, dict) and isinstance(got, dict):
        if sorted(want) != sorted(got):
            return [f"{name}{where}: keys {sorted(got)} != {sorted(want)}"]
        return [
            e for k in want for e in _compare_json(name, want[k], got[k], exact, f"{where}.{k}")
        ]
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [f"{name}{where}: {len(got)} entries != {len(want)}"]
        return [
            e for i, (w, g) in enumerate(zip(want, got))
            for e in _compare_json(name, w, g, exact, f"{where}[{i}]")
        ]
    numbers = all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (want, got))
    if numbers and _close(float(want), float(got), abs(float(want)), exact):
        return []
    if not numbers and type(want) is type(got) and want == got:
        return []  # a status, a verdict boolean, a name, a null
    return [f"{name}{where}: {got!r} != {want!r}"]


def compare_trees(expected: Path, actual: Path, exact: bool) -> list[str]:
    """Every way the tree ``actual`` differs from the reference ``expected``,
    bit for bit when ``exact``, else within the tolerances above."""
    want, got = _files(expected), _files(actual)
    if want != got:
        return [f"files {got} != {want}"]
    errors = []
    for name in want:
        if name.endswith(".csv"):
            errors += _compare_csv(name, expected / name, actual / name, exact)
        elif name.endswith(".json"):
            load = lambda root: json.loads((root / name).read_text())  # noqa: E731
            errors += _compare_json(name, load(expected), load(actual), exact)
        elif (expected / name).read_bytes() != (actual / name).read_bytes():
            errors.append(f"{name}: contents differ")
    return errors


def same_platform(manifest: dict) -> bool:
    """Whether this process runs the numpy version and platform that wrote
    the reference trees, so their numbers must match bit for bit."""
    return manifest["numpy"] == np.__version__ and manifest["platform"] == platform_tag()
