from __future__ import annotations

import csv
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from chemotaxis_lab import runner
from chemotaxis_lab.cli import main
from chemotaxis_lab.config import (
    ConfigError,
    load_config,
    load_sweep_config,
    write_config,
)
from chemotaxis_lab.core import usable_cpus
from chemotaxis_lab.imex import _Stepper
from chemotaxis_lab.runner import CSV_HEADER, execute_run

ROOT = Path(__file__).resolve().parents[1]

BASE_CONFIG = """\
[params]
chi = 1.0
a = 1.0
b = 1.0
lambda = 1.0
mu = 1.0
dim = 1

[grid]
extent = 6.283185307179586
points = 64

[initial]
seed = 424242
u_kind = cosine
u_base = 0.8
u_amplitude = 0.2
u_wavenumber = 1.0
v_kind = constant
v_base = 0.8

[step]
dt_max = 0.002
t_end = 8.0
record_every = 0.5
cfl_safety = 1.0

[checks]
eventual_bound = true
eventual_bound_target = refined
persistence = true

[output]
dir = {out}
"""


def write_base_config(tmp_path: Path, **edits) -> Path:
    text = BASE_CONFIG.format(out=tmp_path / "results")
    for old, new in edits.items():
        assert old in text, old
        text = text.replace(old, new)
    path = tmp_path / "experiment.ini"
    path.write_text(text)
    return path


def test_config_round_trip(tmp_path):
    cfg = load_config(write_base_config(tmp_path))
    copy_path = tmp_path / "copy.ini"
    write_config(cfg, copy_path)
    assert load_config(copy_path) == cfg


def test_missing_key_is_a_config_error(tmp_path):
    path = write_base_config(tmp_path, **{"a = 1.0\n": ""})
    with pytest.raises(ConfigError):
        load_config(path)


def test_bad_value_is_a_config_error(tmp_path):
    path = write_base_config(tmp_path, **{"b = 1.0": "b = plenty"})
    with pytest.raises(ConfigError):
        load_config(path)


def test_nonpositive_coefficient_is_a_config_error(tmp_path):
    path = write_base_config(tmp_path, **{"mu = 1.0": "mu = -1.0"})
    with pytest.raises(ConfigError):
        load_config(path)


def test_cosine_wavenumber_must_fit_the_box(tmp_path):
    path = write_base_config(tmp_path, **{"u_wavenumber = 1.0": "u_wavenumber = 1.3"})
    cfg = load_config(path)
    with pytest.raises(ConfigError):
        from chemotaxis_lab.config import build_initial_state

        build_initial_state(cfg)


# (edits to BASE_CONFIG, text the error must contain); the load-time errors
# name the file, experiment.ini
REJECTED = {
    "misspelt-section": ({"[checks]": "[check]"}, "experiment.ini: unknown section [check]"),
    "misspelt-key": (
        {"cfl_safety = 1.0": "cfl_saftey = 0.2"},
        "experiment.ini: unknown key 'cfl_saftey' in section [step]",
    ),
    "key-of-another-generator": (
        {"u_wavenumber = 1.0": "u_wavenumber = 1.0\nu_low = 0.1"},
        "experiment.ini: unknown key 'u_low' in section [initial] (u_kind = cosine takes",
    ),
    "phases-with-t_end": (
        {"t_end = 8.0": "t_end = 8.0\nphases = 4.0:0.002"},
        "experiment.ini: unknown key 'phases' in section [step]",
    ),
    "zero-dt_max": (
        {"dt_max = 0.002": "dt_max = 0"},
        "experiment.ini: [step] dt_max must be > 0",
    ),
    "nan-dt_max": (
        {"dt_max = 0.002": "dt_max = nan"},
        "experiment.ini: key 'dt_max' in section [step]: cannot parse 'nan' "
        "(not a finite number: 'nan')",
    ),
    "nan-slack": (
        {"persistence = true": "persistence = true\nslack = nan"},
        "experiment.ini: key 'slack' in section [checks]: cannot parse 'nan'",
    ),
    "unknown-bound-field": (
        {"persistence = true": "persistence = true\neventual_bound_field = sup_w"},
        "experiment.ini: [checks] eventual_bound_field must be one of",
    ),
    "transient-fraction-above-1": (
        {"persistence = true": "persistence = true\ntransient_fraction = 1.5"},
        "experiment.ini: [checks] transient_fraction must be in [0, 1]",
    ),
    "wavenumber-off-the-box": (
        {"u_wavenumber = 1.0": "u_wavenumber = 1.3"},
        "does not fit the periodic box",
    ),
    "negative-initial-density": (
        {"u_base = 0.8": "u_base = -0.1"},
        "error: [initial] u must be >= 0 everywhere, got min -0.3",
    ),
    "negative-initial-concentration": (
        {"v_base = 0.8": "v_base = -0.5"},
        "[initial] v must be >= 0 everywhere, got min -0.5",
    ),
    "empty-random-range": (
        {
            "u_kind = cosine\nu_base = 0.8\nu_amplitude = 0.2\nu_wavenumber = 1.0": (
                "u_kind = random_uniform\nu_low = 1.6\nu_high = 0.4"
            )
        },
        "random_uniform needs high > low",
    ),
    # judged from the paper's constants, before the run integrates
    "refined-bound-below-threshold": (
        {"b = 1.0": "b = 0.2"},
        "error: refined bound undefined for b <= N*mu*chi/4; give a number",
    ),
    "lyapunov-below-threshold": (
        {"b = 1.0": "b = 0.2", "eventual_bound = true": "eventual_bound = false\nlyapunov = true"},
        "error: lyapunov check needs b > N*mu*chi/4",
    ),
    # (u0, v0) = (a/b, mu a/(lam b)) = (1, 1): a fixed point of every step,
    # so the error series the convergence check fits is zero throughout
    "convergence-from-the-equilibrium": (
        {
            "u_kind = cosine\nu_base = 0.8\nu_amplitude = 0.2\nu_wavenumber = 1.0": (
                "u_kind = constant\nu_base = 1.0"
            ),
            "v_base = 0.8": "v_base = 1.0",
            "persistence = true": "persistence = true\nconvergence = true",
        },
        "error: series is identically zero; nothing to fit",
    ),
}


@pytest.mark.parametrize("edits, message", list(REJECTED.values()), ids=list(REJECTED))
def test_bad_input_exits_4_before_any_output(tmp_path, capsys, edits, message):
    path = write_base_config(tmp_path, **edits)
    assert main(["run", str(path)]) == 4
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize(
    "case",
    [
        "refined-bound-below-threshold",
        "lyapunov-below-threshold",
        "convergence-from-the-equilibrium",
    ],
)
def test_late_input_error_is_judged_before_integrating(tmp_path, capsys, monkeypatch, case):
    def refuse(*args, **kwargs):
        raise AssertionError("an inadmissible run was integrated")

    monkeypatch.setattr("chemotaxis_lab.runner.integrate", refuse)
    edits, message = REJECTED[case]
    path = write_base_config(tmp_path, **edits)
    assert main(["run", str(path)]) == 4
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize(
    "old, new",
    [
        ("t_end = 8.0", "t_end = nan"),
        ("t_end = 8.0", "t_end = inf"),
        ("u_base = 0.8", "u_base = -inf"),
        ("eventual_bound_target = refined", "eventual_bound_target = nan"),
    ],
    ids=["t_end-nan", "t_end-inf", "u_base-inf", "bound-target-nan"],
)
def test_non_finite_number_is_a_config_error(tmp_path, old, new):
    # A nan t_end would never end the record schedule, so it is refused at load.
    path = write_base_config(tmp_path, **{old: new})
    with pytest.raises(ConfigError, match="finite"):
        load_config(path)


def test_transient_fraction_of_one_is_accepted(tmp_path):
    path = write_base_config(
        tmp_path, **{"persistence = true": "persistence = true\ntransient_fraction = 1.0"}
    )
    assert load_config(path).checks.transient_fraction == 1.0


@pytest.mark.parametrize("name", sorted(p.name for p in (ROOT / "configs").glob("*.ini")))
def test_shipped_config_loads_and_round_trips(tmp_path, name):
    path = ROOT / "configs" / name
    if "[sweep]" in path.read_text():
        cfg = load_sweep_config(path).base
    else:
        cfg = load_config(path)
    write_config(cfg, tmp_path / name)
    assert load_config(tmp_path / name) == cfg


def test_readme_example_loads(tmp_path):
    blocks = re.findall(r"```ini\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    experiment = next(b for b in blocks if b.startswith("[params]"))
    sweep = next(b for b in blocks if b.startswith("[sweep]"))
    path = tmp_path / "readme.ini"
    path.write_text(experiment)
    cfg = load_config(path)
    assert cfg.checks.any_requested()
    path.write_text(experiment + "\n" + sweep)
    assert load_sweep_config(path).base == cfg


def test_cli_run_passes_and_writes_artifacts(tmp_path):
    path = write_base_config(tmp_path)
    code = main(["run", str(path)])
    assert code == 0
    out = tmp_path / "results"
    csv = (out / "diagnostics.csv").read_text().splitlines()
    assert csv[0] == CSV_HEADER
    assert len(csv) == 1 + 17  # t = 0 plus 16 records at cadence 0.5
    verdicts = json.loads((out / "verdicts.json").read_text())
    assert verdicts["status"] == "ok"
    assert {v["name"] for v in verdicts["verdicts"]} == {
        "eventual_bound[sup_u]",
        "persistence_floor",
    }
    assert all(v["passed"] for v in verdicts["verdicts"])
    constants = json.loads((out / "constants.json").read_text())
    assert constants["theta"] == pytest.approx(0.25)
    assert constants["bound_refined"] == pytest.approx(4.0 / 3.0)
    assert constants["hypotheses"]["existence"]["b > N*mu*chi/4"]["holds"] is True


def test_a_run_imports_no_scipy(tmp_path):
    # scipy.fft alone adds ~27 MB to a process, paid by every run and sweep
    # worker; the package imports scipy only in functions a run never calls.
    # Nor does a run load the sweep's process pool (concurrent.futures and
    # multiprocessing, ~1.2 MB with what they import), not even a 32^3 run,
    # whose band transforms share a stack's rows with a helper thread
    # (given two CPUs; the script counts the transforms that do).
    path = write_base_config(tmp_path)
    (tmp_path / "3d").mkdir()
    path_3d = write_base_config(
        tmp_path / "3d",
        **{
            "dim = 1": "dim = 3",
            "points = 64": "points = 32",
            "dt_max = 0.002": "dt_max = 0.01",
            "t_end = 8.0": "t_end = 0.1",
            "record_every = 0.5": "record_every = 0.05",
            "eventual_bound = true\neventual_bound_target = refined\n": "",
        },
    )
    unused = ("scipy", "concurrent", "multiprocessing")
    script = (
        "import sys\n"
        "import chemotaxis_lab\n"
        "from chemotaxis_lab import spectral\n"
        "from chemotaxis_lab.cli import main\n"
        "calls = []\n"
        "on_two_threads = spectral._on_two_threads\n"
        "spectral._on_two_threads = lambda *args: calls.append(on_two_threads(*args))\n"
        f"codes = [main(['run', {str(path)!r}]), main(['run', {str(path_3d)!r}])]\n"
        "grid = chemotaxis_lab.Grid(dim=3, extent=1.0, points=32)\n"
        "helper = len(calls) > 0 or spectral.SemigroupPlan(grid).band_threads((4,)) == 1\n"
        f"print(*codes, helper, [m for m in sys.modules if m.split('.')[0] in {unused!r}])\n"
    )
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.split() == ["0", "0", "True", "[]"], done.stdout + done.stderr
    assert (tmp_path / "results" / "diagnostics.csv").is_file()
    assert (tmp_path / "3d" / "results" / "diagnostics.csv").is_file()


def test_cli_run_check_failure_exits_2(tmp_path):
    path = write_base_config(
        tmp_path, **{"persistence = true": "persistence = true\npersistence_floor = 5.0"}
    )
    code = main(["run", str(path)])
    assert code == 2
    verdicts = json.loads((tmp_path / "results" / "verdicts.json").read_text())
    failed = [v for v in verdicts["verdicts"] if not v["passed"]]
    assert [v["name"] for v in failed] == ["persistence_floor"]


def test_cli_run_at_the_existence_threshold_is_judged(tmp_path):
    # b = N*mu*chi/4 exactly: the paper's bounds and trend floor are
    # undefined there, so constants.json records null and the run is still
    # judged against an explicit target (steady_u = 4 exceeds it: exit 2)
    path = write_base_config(
        tmp_path,
        **{"b = 1.0": "b = 0.25", "eventual_bound_target = refined": "eventual_bound_target = 2.0"},
    )
    assert main(["run", str(path)]) == 2
    out = tmp_path / "results"
    constants = json.loads((out / "constants.json").read_text())
    assert constants["theta"] == 1.0
    assert constants["bound_refined"] is None and constants["persistence_trend_floor"] is None
    assert constants["hypotheses"]["existence"]["b > N*mu*chi/4"]["holds"] is False
    verdicts = json.loads((out / "verdicts.json").read_text())
    failed = [v["name"] for v in verdicts["verdicts"] if not v["passed"]]
    assert failed == ["eventual_bound[sup_u]"]


def test_cli_run_divergence_exits_3(tmp_path):
    # supercritical chemotaxis (b well below N*mu*chi/4): the spike
    # collapses below the admissible undershoot and the run aborts
    path = write_base_config(
        tmp_path,
        **{
            "chi = 1.0": "chi = 8.0",
            "mu = 1.0": "mu = 8.0",
            "b = 1.0": "b = 0.5",
            "points = 64": "points = 128",
            "dt_max = 0.002": "dt_max = 0.01",
            "t_end = 8.0": "t_end = 20.0",
            "cfl_safety = 1.0": "cfl_safety = 0.5",
            "eventual_bound = true": "eventual_bound = false",
            "persistence = true": "persistence = false",
        },
    )
    code = main(["run", str(path)])
    assert code == 3
    verdicts = json.loads((tmp_path / "results" / "verdicts.json").read_text())
    assert verdicts["status"] == "diverged"
    assert 0.0 < verdicts["divergence_t"] < 20.0
    # partial diagnostics up to the failure are kept
    csv = (tmp_path / "results" / "diagnostics.csv").read_text().splitlines()
    assert csv[0] == CSV_HEADER and len(csv) >= 2


def test_cli_run_whose_step_bound_overflows_exits_3(tmp_path):
    # |grad v|^2 of a 1e155 cosine overflows to inf, so the CFL bound is 0:
    # no step can advance the run, which diverges at its start time.
    path = write_base_config(
        tmp_path,
        **{
            "u_base = 0.8": "u_base = 1.0",
            "u_amplitude = 0.2": "u_amplitude = 0.0",
            "v_kind = constant": "v_kind = cosine\nv_amplitude = 1e155\nv_wavenumber = 1.0",
            "v_base = 0.8": "v_base = 2e155",
        },
    )
    with np.errstate(over="ignore"):
        code = main(["run", str(path)])
    assert code == 3
    verdicts = json.loads((tmp_path / "results" / "verdicts.json").read_text())
    assert verdicts["status"] == "diverged"
    assert verdicts["divergence_t"] == 0.0
    csv = (tmp_path / "results" / "diagnostics.csv").read_text().splitlines()
    assert len(csv) == 2 and csv[1].startswith("0,")  # the start record alone


def test_cli_malformed_config_exits_4_without_outputs(tmp_path):
    path = tmp_path / "broken.ini"
    path.write_text("[params]\nchi = 1.0\n")  # missing everything else
    code = main(["run", str(path)])
    assert code == 4
    assert not (tmp_path / "results").exists()


def test_cli_missing_config_exits_4(tmp_path):
    assert main(["run", str(tmp_path / "nope.ini")]) == 4


def test_cli_unexpected_exception_keeps_its_traceback(tmp_path, capsys, monkeypatch):
    def broken(cfg, out_dir):
        raise KeyError("lost")

    monkeypatch.setattr("chemotaxis_lab.cli.execute_run", broken)
    assert main(["run", str(write_base_config(tmp_path))]) == 4
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last)") and "in broken" in err
    assert err.splitlines()[-1] == "error: KeyError: 'lost'"


@pytest.mark.parametrize(
    "exc, line",
    [
        (ConfigError("bad value"), "error: bad value"),
        (OSError("disk full"), "error: OSError: disk full"),
    ],
    ids=["config", "os"],
)
def test_cli_config_and_io_errors_are_one_line(tmp_path, capsys, monkeypatch, exc, line):
    def broken(cfg, out_dir):
        raise exc

    monkeypatch.setattr("chemotaxis_lab.cli.execute_run", broken)
    assert main(["run", str(write_base_config(tmp_path))]) == 4
    assert capsys.readouterr().err == line + "\n"


@pytest.mark.parametrize(
    "edits, line",
    [
        # shorter than the eventual bound's minimum span 2/min(a, lam) = 2
        ({"t_end = 8.0": "t_end = 1.0"}, "error: series spans 1.0, need >= 2.0"),
        # u = 0.8 + 0.8 cos x touches 0 at x = pi, a grid point
        (
            {"u_amplitude = 0.2": "u_amplitude = 0.8"},
            "error: initial inf_u must be strictly positive",
        ),
        # three records, too few to fit the convergence rate
        (
            {
                "record_every = 0.5": "record_every = 4.0",
                "persistence = true": "persistence = true\nconvergence = true",
            },
            "error: need at least 5 records",
        ),
    ],
    ids=["series-too-short", "persistence-touches-zero", "too-few-records"],
)
def test_cli_run_its_checks_cannot_judge_is_one_line(tmp_path, capsys, edits, line):
    assert main(["run", str(write_base_config(tmp_path, **edits))]) == 4
    err = capsys.readouterr().err
    assert err == line + "\n"
    assert "Traceback" not in err
    assert not (tmp_path / "results").exists()


def test_cli_out_and_seed_overrides(tmp_path):
    path = write_base_config(
        tmp_path,
        **{
            "u_kind = cosine": "u_kind = random_uniform",
            "u_base = 0.8\nu_amplitude = 0.2\nu_wavenumber = 1.0": "u_low = 0.4\nu_high = 1.6",
            "t_end = 8.0": "t_end = 2.0",
        },
    )
    assert main(["run", str(path), "--out", str(tmp_path / "a"), "--seed", "1"]) == 0
    assert main(["run", str(path), "--out", str(tmp_path / "b"), "--seed", "1"]) == 0
    assert main(["run", str(path), "--out", str(tmp_path / "c"), "--seed", "2"]) == 0
    a = (tmp_path / "a" / "diagnostics.csv").read_bytes()
    b = (tmp_path / "b" / "diagnostics.csv").read_bytes()
    c = (tmp_path / "c" / "diagnostics.csv").read_bytes()
    assert a == b  # same seed reproduces byte-identical diagnostics
    assert a != c  # different seed draws different data


def test_repeated_run_is_byte_identical(tmp_path):
    path = write_base_config(tmp_path)
    assert main(["run", str(path), "--out", str(tmp_path / "r1")]) == 0
    assert main(["run", str(path), "--out", str(tmp_path / "r2")]) == 0
    assert (tmp_path / "r1" / "diagnostics.csv").read_bytes() == (
        tmp_path / "r2" / "diagnostics.csv"
    ).read_bytes()


SWEEP_EXTRA = """
[sweep]
parameter = params.b
values = {values}
"""


def write_sweep_config(tmp_path: Path, values: str, **edits) -> Path:
    text = BASE_CONFIG.format(out=tmp_path / "sweep_results") + SWEEP_EXTRA.format(values=values)
    for old, new in edits.items():
        assert old in text, old
        text = text.replace(old, new)
    path = tmp_path / "sweep.ini"
    path.write_text(text)
    return path


def test_sweep_runs_points_and_writes_summary(tmp_path):
    path = write_sweep_config(tmp_path, "1.0, 2.0", **{"t_end = 8.0": "t_end = 4.0"})
    code = main(["sweep", str(path), "--workers", "2"])
    assert code == 0
    out = tmp_path / "sweep_results"
    lines = (out / "sweep_summary.csv").read_text().splitlines()
    assert lines[0].startswith("index,parameter,value,status")
    assert len(lines) == 3
    assert lines[1].split(",")[1:4] == ["params.b", "1.0", "OK"]
    assert lines[2].split(",")[1:4] == ["params.b", "2.0", "OK"]
    point_dirs = sorted(d.name for d in out.iterdir() if d.is_dir())
    assert point_dirs == ["point_000_b=1.0", "point_001_b=2.0"]
    for d in point_dirs:
        assert (out / d / "diagnostics.csv").exists()


def test_single_point_sweep_matches_plain_run(tmp_path):
    sweep_path = write_sweep_config(tmp_path, "1.0", **{"t_end = 8.0": "t_end = 4.0"})
    assert main(["sweep", str(sweep_path), "--workers", "1"]) == 0
    run_path = write_base_config(tmp_path, **{"t_end = 8.0": "t_end = 4.0"})
    assert main(["run", str(run_path), "--out", str(tmp_path / "solo")]) == 0
    sweep_csv = (tmp_path / "sweep_results" / "point_000_b=1.0" / "diagnostics.csv").read_bytes()
    run_csv = (tmp_path / "solo" / "diagnostics.csv").read_bytes()
    assert sweep_csv == run_csv


def test_sweep_isolates_poisoned_points(tmp_path):
    # b = 0.5 diverges under the supercritical coefficients; b = 20 is tame
    path = write_sweep_config(
        tmp_path,
        "0.5, 20.0",
        **{
            "chi = 1.0": "chi = 8.0",
            "mu = 1.0": "mu = 8.0",
            "points = 64": "points = 128",
            "dt_max = 0.002": "dt_max = 0.01",
            "t_end = 8.0": "t_end = 20.0",
            "cfl_safety = 1.0": "cfl_safety = 0.5",
            "eventual_bound = true": "eventual_bound = false",
            "persistence = true": "persistence = false",
        },
    )
    assert main(["sweep", str(path), "--workers", "2"]) == 0
    lines = (tmp_path / "sweep_results" / "sweep_summary.csv").read_text().splitlines()
    assert len(lines) == 3
    assert "DIVERGED(t=" in lines[1]
    assert lines[2].split(",")[3] == "OK"


# b = 0.5 diverges under the supercritical coefficients; b = 20 is tame
POISONED = {
    "chi = 1.0": "chi = 8.0",
    "mu = 1.0": "mu = 8.0",
    "points = 64": "points = 128",
    "dt_max = 0.002": "dt_max = 0.01",
    "t_end = 8.0": "t_end = 20.0",
    "cfl_safety = 1.0": "cfl_safety = 0.5",
    "eventual_bound = true": "eventual_bound = false",
    "persistence = true": "persistence = false",
}


def test_sweep_block_member_that_diverges_leaves_the_others_as_solo_runs(
    tmp_path, monkeypatch
):
    # One worker: both points are one block.  Their CFL steps differ, so the
    # block steps each member with its own dt, and b = 0.5 leaves it at its
    # divergence while b = 20 goes on to t_end.
    own_steps = []  # whether each step gave the rows their own dt
    advance = _Stepper.advance

    def watched(self, steps, **kwargs):
        own_steps.append(len(set(steps)) > 1)  # the entries differ
        return advance(self, steps, **kwargs)

    monkeypatch.setattr(_Stepper, "advance", watched)
    path = write_sweep_config(tmp_path, "0.5, 20.0", **POISONED)
    assert main(["sweep", str(path), "--workers", "1"]) == 0
    monkeypatch.undo()
    assert any(own_steps)
    lines = (tmp_path / "sweep_results" / "sweep_summary.csv").read_text().splitlines()
    assert "DIVERGED(t=" in lines[1]
    assert lines[2].split(",")[3] == "OK"
    for index, b in enumerate(("0.5", "20.0")):
        solo = tmp_path / f"solo_b={b}"
        run_path = write_base_config(tmp_path, **POISONED, **{"b = 1.0": f"b = {b}"})
        assert main(["run", str(run_path), "--out", str(solo)]) == (3 if b == "0.5" else 0)
        point = tmp_path / "sweep_results" / f"point_{index:03d}_b={b}"
        for name in ("diagnostics.csv", "verdicts.json", "constants.json"):
            assert (point / name).read_bytes() == (solo / name).read_bytes(), (b, name)


def test_sweep_records_a_failed_point_as_an_error_row(tmp_path, capsys):
    # t_end = 1 is shorter than the eventual bound's minimum span
    # 2/min(a, lam) = 2, so the point is rejected before it runs
    path = write_sweep_config(tmp_path, "1.0", **{"t_end = 8.0": "t_end = 1.0"})
    assert main(["sweep", str(path), "--workers", "1"]) == 0
    assert "Traceback" not in capsys.readouterr().err
    with open(tmp_path / "sweep_results" / "sweep_summary.csv", newline="") as fh:
        header, row = csv.reader(fh)
    assert len(header) == len(row) == 13
    point = dict(zip(header, row))
    assert point["value"] == "1.0"
    assert point["status"].startswith("ERROR(SeriesTooShortError")
    assert point["final_sup_u"] == point["verdicts"] == ""


def test_sweep_point_rejected_at_set_up_joins_no_block(tmp_path, capsys):
    # the refined bound is undefined at b = 0.2: that point is its ERROR row
    # and writes nothing, and b = 1.0 runs alone in the block
    path = write_sweep_config(tmp_path, "0.2, 1.0")
    assert main(["sweep", str(path), "--workers", "1"]) == 0
    assert "Traceback" not in capsys.readouterr().err
    with open(tmp_path / "sweep_results" / "sweep_summary.csv", newline="") as fh:
        header, bad, good = csv.reader(fh)
    assert dict(zip(header, bad))["status"] == (
        "ERROR(ConfigError: refined bound undefined for b <= N*mu*chi/4; give a number)"
    )
    assert dict(zip(header, good))["status"] == "OK"
    points = sorted(d.name for d in (tmp_path / "sweep_results").iterdir() if d.is_dir())
    assert points == ["point_001_b=1.0"]


def test_sweep_point_at_the_equilibrium_is_an_error_row_and_joins_no_block(
    tmp_path, capsys, monkeypatch
):
    # at b = 1.0 the datum (1, 1) is the equilibrium, which a convergence
    # check cannot fit: that point is its ERROR row, and b = 2.0 steps alone
    blocks = []
    integrate = runner.integrate

    def watched(states, *args, **kwargs):
        blocks.append(len(states))
        return integrate(states, *args, **kwargs)

    monkeypatch.setattr(runner, "integrate", watched)
    edits, _ = REJECTED["convergence-from-the-equilibrium"]
    path = write_sweep_config(tmp_path, "1.0, 2.0", **edits)
    assert main(["sweep", str(path), "--workers", "1"]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert blocks == [1]
    with open(tmp_path / "sweep_results" / "sweep_summary.csv", newline="") as fh:
        header, bad, good = csv.reader(fh)
    assert dict(zip(header, bad))["status"] == (
        "ERROR(WindowAdjustmentError: series is identically zero; nothing to fit)"
    )
    assert dict(zip(header, good))["status"] == "OK"
    points = sorted(d.name for d in (tmp_path / "sweep_results").iterdir() if d.is_dir())
    assert points == ["point_001_b=2.0"]


def test_sweep_point_whose_files_fail_is_its_error_row(tmp_path, capsys):
    # a file where the first point's directory goes: writing that point
    # fails with an I/O error (one line, no traceback), and the other point
    # is written and reads back
    path = write_sweep_config(tmp_path, "1.0, 2.0", **{"t_end = 8.0": "t_end = 4.0"})
    out = tmp_path / "sweep_results"
    out.mkdir()
    (out / "point_000_b=1.0").write_text("in the way\n")
    assert main(["sweep", str(path), "--workers", "1"]) == 0
    assert "Traceback" not in capsys.readouterr().err
    with open(out / "sweep_summary.csv", newline="") as fh:
        header, bad, good = csv.reader(fh)
    bad, good = dict(zip(header, bad)), dict(zip(header, good))
    assert bad["status"].startswith("ERROR(FileExistsError: ") and bad["verdicts"] == ""
    assert good["status"] == "OK" and good["verdicts"]
    files = sorted(p.name for p in (out / "point_001_b=2.0").iterdir())
    assert files == ["constants.json", "diagnostics.csv", "verdicts.json"]
    assert main(["report", str(out)]) == 0


def test_default_sweep_on_one_cpu_runs_inline(tmp_path, monkeypatch):
    # the default pool size is the CPUs the process may use: pinned to one,
    # a sweep runs its points in this process, with no pool
    def no_pool(*args, **kwargs):
        raise AssertionError("a one-CPU sweep started a pool")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    assert usable_cpus() == 1
    path = write_sweep_config(tmp_path, "1.0, 2.0", **{"t_end = 8.0": "t_end = 4.0"})
    assert main(["sweep", str(path)]) == 0
    lines = (tmp_path / "sweep_results" / "sweep_summary.csv").read_text().splitlines()
    assert [line.split(",")[3] for line in lines[1:]] == ["OK", "OK"]


@pytest.mark.parametrize(
    "exc, status",
    [
        (KeyError("lost"), "ERROR(KeyError: 'lost')"),
        # a message with a newline stays in its row
        (ValueError("two\nlines"), "ERROR(ValueError: two\nlines)"),
    ],
    ids=["key-error", "multiline-message"],
)
def test_sweep_point_that_hits_a_bug_keeps_its_traceback(
    tmp_path, capsys, monkeypatch, exc, status
):
    def broken(cfg, c_grad):
        raise exc

    # the per-point set-up each sweep point runs before it joins its block
    monkeypatch.setattr("chemotaxis_lab.runner._set_up_point", broken)
    path = write_sweep_config(tmp_path, "1.0")
    assert main(["sweep", str(path), "--workers", "1"]) == 0
    with open(tmp_path / "sweep_results" / "sweep_summary.csv", newline="") as fh:
        header, row = csv.reader(fh)
    assert dict(zip(header, row))["status"] == status
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last)") and "in broken" in err


def test_bug_in_a_blocks_integrate_is_every_members_error_row(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise KeyError("lost")

    monkeypatch.setattr("chemotaxis_lab.runner.integrate", broken)
    path = write_sweep_config(tmp_path, "1.0, 2.0")
    assert main(["sweep", str(path), "--workers", "1"]) == 0
    with open(tmp_path / "sweep_results" / "sweep_summary.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert [dict(zip(header, row))["status"] for row in rows] == ["ERROR(KeyError: 'lost')"] * 2
    assert capsys.readouterr().err.count("Traceback (most recent call last)") == 1


def test_non_finite_sweep_value_is_a_config_error(tmp_path):
    path = write_sweep_config(tmp_path, "0.5, inf")
    with pytest.raises(ConfigError, match="sweep values: not a finite number: 'inf'"):
        load_sweep_config(path)


def test_inadmissible_sweep_value_exits_4_before_any_output(tmp_path, capsys):
    path = write_sweep_config(tmp_path, "1.0, -1.0")
    assert main(["sweep", str(path)]) == 4
    assert capsys.readouterr().err == (
        f"error: {path}: [sweep] values: coefficient 'b' must be finite and > 0, got -1.0\n"
    )
    assert not (tmp_path / "sweep_results").exists()


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_sweep_with_fewer_than_one_worker_exits_4_before_any_output(tmp_path, capsys, workers):
    path = write_sweep_config(tmp_path, "1.0")
    assert main(["sweep", str(path), "--workers", workers]) == 4
    assert capsys.readouterr().err == f"error: workers must be >= 1, got {workers}\n"
    assert not (tmp_path / "sweep_results").exists()


def test_empty_sweep_grid_exits_4(tmp_path):
    path = write_sweep_config(tmp_path, "")
    assert main(["sweep", str(path)]) == 4


@pytest.mark.parametrize(
    "key, field", [("chi", "chi"), ("a", "a"), ("b", "b"), ("lambda", "lam"), ("mu", "mu")]
)
def test_sweep_point_sets_the_named_coefficient(tmp_path, key, field):
    path = write_sweep_config(
        tmp_path, "3.0", **{"parameter = params.b": f"parameter = params.{key}"}
    )
    sweep = load_sweep_config(path)
    point = sweep.point(3.0)
    assert getattr(point.params, field) == 3.0
    assert replace(point, params=sweep.base.params) == sweep.base


def test_report_on_run_directory(tmp_path):
    cfg_path = write_base_config(tmp_path)
    assert main(["run", str(cfg_path)]) == 0
    out = tmp_path / "results"
    assert main(["report", str(out)]) == 0
    plot = (out / "plot_data.csv").read_text().splitlines()
    assert plot[0] == "series,t,value"
    series = {line.split(",")[0] for line in plot[1:]}
    assert "./sup_u" in series and "./err_v" in series
    summary = (out / "summary.txt").read_text()
    assert "eventual_bound[sup_u]" in summary
    assert "PASS" in summary


def test_report_marks_diverged_runs(tmp_path):
    # no eventual bound: its refined target is undefined at b = 0.5, an
    # input error judged before the run integrates
    path = write_base_config(
        tmp_path,
        **{
            "chi = 1.0": "chi = 8.0",
            "mu = 1.0": "mu = 8.0",
            "b = 1.0": "b = 0.5",
            "points = 64": "points = 128",
            "dt_max = 0.002": "dt_max = 0.01",
            "t_end = 8.0": "t_end = 20.0",
            "cfl_safety = 1.0": "cfl_safety = 0.5",
            "eventual_bound = true": "eventual_bound = false",
        },
    )
    assert main(["run", str(path)]) == 3
    assert main(["report", str(tmp_path / "results")]) == 0
    summary = (tmp_path / "results" / "summary.txt").read_text()
    assert "DIVERGED(t=" in summary


def test_report_on_empty_directory_exits_4(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["report", str(empty)]) == 4
    assert main(["report", str(tmp_path / "missing")]) == 4


def test_exit_codes_are_the_documented_set(tmp_path):
    # every exercised path above returned one of {0, 2, 3, 4}; spot-check the
    # helper used by the runner as well
    outcome_codes = set()
    cfg = load_config(write_base_config(tmp_path, **{"t_end = 8.0": "t_end = 2.5"}))
    outcome = execute_run(cfg, tmp_path / "codes")
    outcome_codes.add(outcome.exit_code)
    assert outcome_codes <= {0, 2, 3, 4}
