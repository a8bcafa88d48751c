"""Experiment configuration: a flat, typed key-value file with sections.

The on-disk format is INI (language-agnostic, diff-friendly); every key is
parsed to its type and every value checked at load, so files are validated
before any compute and round-trip losslessly through :func:`write_config` /
:func:`load_config`.  In memory the [step] section is
``ExperimentConfig.steps``: one validated :class:`StepControl` per phase,
sharing record_every, cfl_safety and neg_tol (a single phase without
``phases``).

Sections and keys (defaults in parentheses):

    [params]   chi, a, b, lambda, mu, dim
    [grid]     extent, points
    [initial]  seed, u_kind, v_kind plus the generator keys below
    [step]     dt_max, t_end, record_every, cfl_safety (0.5),
               neg_tol (1e-8), phases (optional "t:dt, t:dt, ..." schedule
               of (end time, dt_max) stages replacing t_end/dt_max)
    [checks]   eventual_bound (false), eventual_bound_field (sup_u),
               eventual_bound_target ("refined" | "general" | number),
               slack (0.05), transient_fraction (0.5),
               lyapunov (false), lyapunov_slack (0.05),
               persistence (false), persistence_floor (optional number),
               convergence (false), convergence_tol (1e-6),
               convergence_min_r2 (0.99)
    [output]   dir

Initial-condition generators (for ``u_kind`` / ``v_kind``):

    constant        <f>_base
    cosine          <f>_base, <f>_amplitude, <f>_wavenumber  (the physical
                    wavenumber; wavenumber*extent/(2 pi) must be an integer)
    random_uniform  <f>_low, <f>_high  (iid per node, seeded by [initial] seed)
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .core import Field, Grid, InvalidParameterError, Params, SimState
from .imex import StepControl

__all__ = [
    "ConfigError",
    "InitialSpec",
    "ChecksSpec",
    "ExperimentConfig",
    "SweepConfig",
    "load_config",
    "write_config",
    "load_sweep_config",
    "build_initial_state",
]


class ConfigError(ValueError):
    """Malformed, missing, or inconsistent configuration."""


_GENERATOR_KEYS = {
    "constant": ("base",),
    "cosine": ("base", "amplitude", "wavenumber"),
    "random_uniform": ("low", "high"),
}


@dataclass(frozen=True)
class InitialSpec:
    seed: int
    u_kind: str
    v_kind: str
    u_args: dict
    v_args: dict


@dataclass(frozen=True)
class ChecksSpec:
    eventual_bound: bool = False
    eventual_bound_field: str = "sup_u"
    eventual_bound_target: str = "refined"
    slack: float = 0.05
    transient_fraction: float = 0.5
    lyapunov: bool = False
    lyapunov_slack: float = 0.05
    persistence: bool = False
    persistence_floor: float | None = None
    convergence: bool = False
    convergence_tol: float = 1e-6
    convergence_min_r2: float = 0.99

    def any_requested(self) -> bool:
        return self.eventual_bound or self.lyapunov or self.persistence or self.convergence


@dataclass(frozen=True)
class ExperimentConfig:
    params: Params
    grid: Grid
    initial: InitialSpec
    steps: tuple[StepControl, ...]  # one per phase, in time order
    checks: ChecksSpec
    output_dir: str


@dataclass(frozen=True)
class SweepConfig:
    parameter: str  # e.g. "params.b"
    values: tuple[float, ...]
    base: ExperimentConfig


def _read_ini(path: Path, what: str) -> configparser.ConfigParser:
    if not path.is_file():
        raise ConfigError(f"{what} file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        cp.read_string(path.read_text())
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return cp


def _get(section, key: str, conv, required: bool = True, default=None):
    if key not in section:
        if required:
            raise ConfigError(f"missing key {key!r} in section [{section.name}]")
        return default
    raw = section[key]
    try:
        return conv(raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"key {key!r}: cannot parse {raw!r} ({exc})") from exc


def _bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _phases(raw: str) -> tuple[tuple[float, float], ...]:
    stages = []
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        t_str, _, dt_str = chunk.partition(":")
        if not dt_str:
            raise ValueError(f"phase {chunk!r} is not 't_end:dt_max'")
        stages.append((float(t_str), float(dt_str)))
    if not stages:
        raise ValueError("empty phase list")
    ends = [s[0] for s in stages]
    if any(b <= a for a, b in zip(ends, ends[1:])) or ends[0] <= 0.0:
        raise ValueError("phase end times must be positive and increasing")
    return tuple(stages)


def _initial_from_section(sec) -> InitialSpec:
    seed = _get(sec, "seed", int)
    spec = {}
    for f in ("u", "v"):
        kind = _get(sec, f"{f}_kind", str)
        if kind not in _GENERATOR_KEYS:
            raise ConfigError(
                f"{f}_kind must be one of {sorted(_GENERATOR_KEYS)}, got {kind!r}"
            )
        args = {}
        for name in _GENERATOR_KEYS[kind]:
            args[name] = _get(sec, f"{f}_{name}", float)
        spec[f] = (kind, args)
    return InitialSpec(
        seed=seed,
        u_kind=spec["u"][0],
        v_kind=spec["v"][0],
        u_args=spec["u"][1],
        v_args=spec["v"][1],
    )


def _config_from_parser(cp: configparser.ConfigParser, path: Path) -> ExperimentConfig:
    for required in ("params", "grid", "initial", "step", "output"):
        if required not in cp:
            raise ConfigError(f"{path}: missing section [{required}]")
    ps = cp["params"]
    try:
        params = Params(
            chi=_get(ps, "chi", float),
            a=_get(ps, "a", float),
            b=_get(ps, "b", float),
            lam=_get(ps, "lambda", float),
            mu=_get(ps, "mu", float),
            dim=_get(ps, "dim", int),
        )
        gs = cp["grid"]
        grid = Grid(dim=params.dim, extent=_get(gs, "extent", float), points=_get(gs, "points", int))
        initial = _initial_from_section(cp["initial"])
        ss = cp["step"]
        phases = _get(ss, "phases", _phases, required=False)
        if phases is None:
            phases = ((_get(ss, "t_end", float), _get(ss, "dt_max", float)),)
        knobs = dict(
            record_every=_get(ss, "record_every", float),
            cfl_safety=_get(ss, "cfl_safety", float, required=False, default=0.5),
            neg_tol=_get(ss, "neg_tol", float, required=False, default=1e-8),
        )
        steps = tuple(StepControl(dt_max=dt, t_end=t, **knobs) for t, dt in phases)
        checks = _checks_from_section(cp["checks"]) if "checks" in cp else ChecksSpec()
        output_dir = _get(cp["output"], "dir", str)
    except InvalidParameterError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return ExperimentConfig(
        params=params,
        grid=grid,
        initial=initial,
        steps=steps,
        checks=checks,
        output_dir=output_dir,
    )


def _checks_from_section(sec) -> ChecksSpec:
    target = _get(sec, "eventual_bound_target", str, required=False, default="refined")
    if target not in ("refined", "general"):
        try:
            float(target)
        except ValueError:
            raise ConfigError(
                "eventual_bound_target must be 'refined', 'general', or a number"
            ) from None
    return ChecksSpec(
        eventual_bound=_get(sec, "eventual_bound", _bool, required=False, default=False),
        eventual_bound_field=_get(sec, "eventual_bound_field", str, required=False, default="sup_u"),
        eventual_bound_target=target,
        slack=_get(sec, "slack", float, required=False, default=0.05),
        transient_fraction=_get(sec, "transient_fraction", float, required=False, default=0.5),
        lyapunov=_get(sec, "lyapunov", _bool, required=False, default=False),
        lyapunov_slack=_get(sec, "lyapunov_slack", float, required=False, default=0.05),
        persistence=_get(sec, "persistence", _bool, required=False, default=False),
        persistence_floor=_get(sec, "persistence_floor", float, required=False, default=None),
        convergence=_get(sec, "convergence", _bool, required=False, default=False),
        convergence_tol=_get(sec, "convergence_tol", float, required=False, default=1e-6),
        convergence_min_r2=_get(sec, "convergence_min_r2", float, required=False, default=0.99),
    )


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    return _config_from_parser(_read_ini(path, "config"), path)


def write_config(cfg: ExperimentConfig, path: str | Path) -> None:
    """Serialise ``cfg`` to its file form (lossless round trip)."""
    lines = ["[params]"]
    p = cfg.params
    lines += [
        f"chi = {p.chi!r}",
        f"a = {p.a!r}",
        f"b = {p.b!r}",
        f"lambda = {p.lam!r}",
        f"mu = {p.mu!r}",
        f"dim = {p.dim}",
        "",
        "[grid]",
        f"extent = {cfg.grid.extent!r}",
        f"points = {cfg.grid.points}",
        "",
        "[initial]",
        f"seed = {cfg.initial.seed}",
        f"u_kind = {cfg.initial.u_kind}",
    ]
    for name, value in cfg.initial.u_args.items():
        lines.append(f"u_{name} = {value!r}")
    lines.append(f"v_kind = {cfg.initial.v_kind}")
    for name, value in cfg.initial.v_args.items():
        lines.append(f"v_{name} = {value!r}")
    first = cfg.steps[0]
    if any(replace(c, t_end=first.t_end, dt_max=first.dt_max) != first for c in cfg.steps):
        raise ConfigError("phases in a file share record_every, cfl_safety and neg_tol")
    lines += [
        "",
        "[step]",
        "phases = " + ", ".join(f"{c.t_end!r}:{c.dt_max!r}" for c in cfg.steps),
        f"record_every = {first.record_every!r}",
        f"cfl_safety = {first.cfl_safety!r}",
        f"neg_tol = {first.neg_tol!r}",
        "",
        "[checks]",
        f"eventual_bound = {str(cfg.checks.eventual_bound).lower()}",
        f"eventual_bound_field = {cfg.checks.eventual_bound_field}",
        f"eventual_bound_target = {cfg.checks.eventual_bound_target}",
        f"slack = {cfg.checks.slack!r}",
        f"transient_fraction = {cfg.checks.transient_fraction!r}",
        f"lyapunov = {str(cfg.checks.lyapunov).lower()}",
        f"lyapunov_slack = {cfg.checks.lyapunov_slack!r}",
        f"persistence = {str(cfg.checks.persistence).lower()}",
    ]
    if cfg.checks.persistence_floor is not None:
        lines.append(f"persistence_floor = {cfg.checks.persistence_floor!r}")
    lines += [
        f"convergence = {str(cfg.checks.convergence).lower()}",
        f"convergence_tol = {cfg.checks.convergence_tol!r}",
        f"convergence_min_r2 = {cfg.checks.convergence_min_r2!r}",
        "",
        "[output]",
        f"dir = {cfg.output_dir}",
        "",
    ]
    Path(path).write_text("\n".join(lines))


def load_sweep_config(path: str | Path) -> SweepConfig:
    """A sweep file is an experiment file plus a [sweep] section naming one
    parameter (currently 'params.<coefficient>') and its values."""
    path = Path(path)
    cp = _read_ini(path, "sweep config")
    if "sweep" not in cp:
        raise ConfigError(f"{path}: missing section [sweep]")
    sec = cp["sweep"]
    parameter = _get(sec, "parameter", str)
    known = {"params.chi", "params.a", "params.b", "params.lambda", "params.mu"}
    if parameter not in known:
        raise ConfigError(f"sweep parameter must be one of {sorted(known)}, got {parameter!r}")
    raw_values = _get(sec, "values", str)
    try:
        values = tuple(float(v) for v in raw_values.split(",") if v.strip())
    except ValueError as exc:
        raise ConfigError(f"sweep values: {exc}") from exc
    if not values:
        raise ConfigError("sweep grid is empty")
    base = _config_from_parser(cp, path)
    return SweepConfig(parameter=parameter, values=values, base=base)


def _generate(kind: str, args: dict, grid: Grid, rng: np.random.Generator) -> np.ndarray:
    if kind == "constant":
        return np.full(grid.shape, args["base"])
    if kind == "cosine":
        k = args["wavenumber"]
        cycles = k * grid.extent / (2.0 * np.pi)
        if abs(cycles - round(cycles)) > 1e-9:
            raise ConfigError(
                f"cosine wavenumber {k!r} does not fit the periodic box "
                f"(wavenumber*extent/(2*pi) = {cycles!r} is not an integer)"
            )
        x = grid.coordinate_arrays()[0]
        return args["base"] + args["amplitude"] * np.cos(k * x)
    if kind == "random_uniform":
        if args["high"] <= args["low"]:
            raise ConfigError("random_uniform needs high > low")
        return rng.uniform(args["low"], args["high"], grid.shape)
    raise ConfigError(f"unknown generator kind {kind!r}")


def build_initial_state(cfg: ExperimentConfig) -> SimState:
    """Construct the t = 0 state from the named generators; the random
    generator is seeded from [initial] seed, u drawn before v."""
    rng = np.random.default_rng(cfg.initial.seed)
    u_values = _generate(cfg.initial.u_kind, cfg.initial.u_args, cfg.grid, rng)
    v_values = _generate(cfg.initial.v_kind, cfg.initial.v_args, cfg.grid, rng)
    u = Field(cfg.grid, u_values, nonnegative=True, tol_neg=0.0)
    v = Field(cfg.grid, v_values, nonnegative=True, tol_neg=0.0)
    return SimState(t=0.0, u=u, v=v, params=cfg.params)
