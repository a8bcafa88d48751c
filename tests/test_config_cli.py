from __future__ import annotations

import csv
import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

from chemotaxis_lab.cli import main
from chemotaxis_lab.config import (
    ConfigError,
    load_config,
    load_sweep_config,
    write_config,
)
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
    "empty-random-range": (
        {
            "u_kind = cosine\nu_base = 0.8\nu_amplitude = 0.2\nu_wavenumber = 1.0": (
                "u_kind = random_uniform\nu_low = 1.6\nu_high = 0.4"
            )
        },
        "random_uniform needs high > low",
    ),
}


@pytest.mark.parametrize("edits, message", list(REJECTED.values()), ids=list(REJECTED))
def test_bad_input_exits_4_before_any_output(tmp_path, capsys, edits, message):
    path = write_base_config(tmp_path, **edits)
    assert main(["run", str(path)]) == 4
    assert message in capsys.readouterr().err
    assert not (tmp_path / "results").exists()


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


def test_cli_malformed_config_exits_4_without_outputs(tmp_path):
    path = tmp_path / "broken.ini"
    path.write_text("[params]\nchi = 1.0\n")  # missing everything else
    code = main(["run", str(path)])
    assert code == 4
    assert not (tmp_path / "results").exists()


def test_cli_missing_config_exits_4(tmp_path):
    assert main(["run", str(tmp_path / "nope.ini")]) == 4


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


def test_sweep_records_a_failed_point_as_an_error_row(tmp_path):
    # t_end = 1 is shorter than the eventual bound's minimum span
    # 2/min(a, lam) = 2, so the check raises after the run
    path = write_sweep_config(tmp_path, "1.0", **{"t_end = 8.0": "t_end = 1.0"})
    assert main(["sweep", str(path), "--workers", "1"]) == 0
    with open(tmp_path / "sweep_results" / "sweep_summary.csv", newline="") as fh:
        header, row = csv.reader(fh)
    assert len(header) == len(row) == 13
    point = dict(zip(header, row))
    assert point["value"] == "1.0"
    assert point["status"].startswith("ERROR(SeriesTooShortError")
    assert point["final_sup_u"] == point["verdicts"] == ""


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
