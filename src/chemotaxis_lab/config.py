"""Experiment configuration: a flat, typed key-value file with sections.

The on-disk format is INI (language-agnostic, diff-friendly).  A section
owned by a dataclass is read, defaulted, checked and written from it: a
field's name is its key (only ``lam`` is spelled ``lambda`` in the file),
its annotation is the key's type, and its default makes the key optional.

    [params]   Params: chi, a, b, lambda, mu, dim
    [grid]     Grid without dim (taken from [params]): extent, points
    [initial]  seed, u_kind, v_kind plus the generator keys below
    [step]     StepControl
    [checks]   ChecksSpec; optional, like each of its keys
    [output]   dir
    [sweep]    parameter, values (read by :func:`load_sweep_config` only)

The schema is closed.  An unknown section or key, a generator key that the
chosen kind does not take, an unparsable value and a value its dataclass
rejects are all a :class:`ConfigError` naming the file and the section or
key, raised at load, before any compute or output (``nan`` and ``inf`` do
not parse).  Files round-trip losslessly through :func:`write_config` /
:func:`load_config`.

Initial-condition generators (for ``u_kind`` / ``v_kind``):

    constant        <f>_base
    cosine          <f>_base, <f>_amplitude, <f>_wavenumber  (the physical
                    wavenumber; wavenumber*extent/(2 pi) must be an integer)
    random_uniform  <f>_low, <f>_high  (iid per node, seeded by [initial] seed)
"""

from __future__ import annotations

import configparser
import typing
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path

import numpy as np
# numpy loads np.random on first use; loading it with this module keeps that
# load out of the first run's set-up (build_initial_state's default_rng).
import numpy.random  # noqa: F401

from .core import Field, Grid, InvalidParameterError, Params, SimState
from .harness import DiagnosticsRecord
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


class ConfigError(InvalidParameterError):
    """Malformed, missing, or inconsistent configuration."""


_GENERATOR_KEYS = {
    "constant": ("base",),
    "cosine": ("base", "amplitude", "wavenumber"),
    "random_uniform": ("low", "high"),
}

_REQUIRED_SECTIONS = ("params", "grid", "initial", "step", "output")
_SECTIONS = _REQUIRED_SECTIONS + ("checks", "sweep")


def _key(name: str) -> str:
    """The file's key for the field ``name``."""
    return {"lam": "lambda"}.get(name, name)


# "params.<key>" of every coefficient a sweep may vary, to its Params field.
_SWEEPABLE = {f"params.{_key(f.name)}": f.name for f in fields(Params) if f.name != "dim"}


def _finite(raw: str) -> float:
    value = float(raw)
    if not np.isfinite(value):
        raise ValueError(f"not a finite number: {raw!r}")
    return value


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

    def __post_init__(self) -> None:
        if self.eventual_bound_target not in ("refined", "general"):
            try:
                _finite(self.eventual_bound_target)
            except ValueError:
                raise InvalidParameterError(
                    "eventual_bound_target must be 'refined', 'general', or a finite number"
                ) from None
        if self.eventual_bound_field not in DiagnosticsRecord.FIELDS:
            raise InvalidParameterError(
                f"eventual_bound_field must be one of {list(DiagnosticsRecord.FIELDS)}, "
                f"got {self.eventual_bound_field!r}"
            )
        if not 0.0 <= self.transient_fraction <= 1.0:
            raise InvalidParameterError(
                f"transient_fraction must be in [0, 1], got {self.transient_fraction!r}"
            )

    def any_requested(self) -> bool:
        return self.eventual_bound or self.lyapunov or self.persistence or self.convergence


@dataclass(frozen=True)
class ExperimentConfig:
    params: Params
    grid: Grid
    initial: InitialSpec
    step: StepControl
    checks: ChecksSpec
    output_dir: str


@dataclass(frozen=True)
class SweepConfig:
    parameter: str  # e.g. "params.b"
    values: tuple[float, ...]
    base: ExperimentConfig

    def point(self, value: float) -> ExperimentConfig:
        """The base experiment with the swept coefficient set to ``value``."""
        params = replace(self.base.params, **{_SWEEPABLE[self.parameter]: value})
        return replace(self.base, params=params)


@contextmanager
def _reading(path: Path, what: str):
    """The parsed file at ``path``; every error in parsing or checking it
    names the file."""
    if not path.is_file():
        raise ConfigError(f"{what} file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        cp.read_string(path.read_text())
        yield cp
    except (configparser.Error, UnicodeDecodeError, InvalidParameterError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _get(section, key: str, conv):
    if key not in section:
        raise ConfigError(f"missing key {key!r} in section [{section.name}]")
    raw = section[key]
    try:
        return conv(raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(
            f"key {key!r} in section [{section.name}]: cannot parse {raw!r} ({exc})"
        ) from exc


def _reject_unknown(section, allowed, note: str = "") -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in section [{section.name}]{note}")


def _bool(raw: str) -> bool:
    if raw.lower() not in configparser.ConfigParser.BOOLEAN_STATES:
        raise ValueError(f"not a boolean: {raw!r}")
    return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]


_PARSERS = {bool: _bool, int: int, float: _finite, str: str}


def _read_fields(section, cls, **given):
    """``cls`` built from ``section``: each field not in ``given`` is read from
    its key and parsed to its annotated type (``T | None`` as ``T``); a field
    with a default may be left out.  Other keys are rejected, and so is a
    value ``cls`` refuses."""
    hints = typing.get_type_hints(cls)
    owned = {_key(f.name): f for f in fields(cls) if f.name not in given}
    _reject_unknown(section, owned)
    kwargs = dict(given)
    for key, f in owned.items():
        if key in section or f.default is MISSING:
            types = [t for t in typing.get_args(hints[f.name]) if t is not type(None)]
            kwargs[f.name] = _get(section, key, _PARSERS[types[0] if types else hints[f.name]])
    try:
        return cls(**kwargs)
    except InvalidParameterError as exc:
        raise ConfigError(f"[{section.name}] {exc}") from exc


def _write_fields(obj, skip=()) -> list[str]:
    """One ``key = value`` line per field of ``obj`` not in ``skip``; a field
    that is None (an omitted optional key) gets no line."""
    lines = []
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.name in skip or value is None:
            continue
        if isinstance(value, bool):
            value = str(value).lower()
        lines.append(f"{_key(f.name)} = {value if isinstance(value, str) else repr(value)}")
    return lines


def _initial_from_section(sec) -> InitialSpec:
    seed = _get(sec, "seed", int)
    kinds = {f: _get(sec, f"{f}_kind", str) for f in ("u", "v")}
    for f, kind in kinds.items():
        if kind not in _GENERATOR_KEYS:
            raise ConfigError(f"{f}_kind must be one of {sorted(_GENERATOR_KEYS)}, got {kind!r}")
    keys = {f: {name: f"{f}_{name}" for name in _GENERATOR_KEYS[k]} for f, k in kinds.items()}
    takes = "; ".join(f"{f}_kind = {kinds[f]} takes {', '.join(keys[f].values())}" for f in keys)
    allowed = {"seed", "u_kind", "v_kind", *keys["u"].values(), *keys["v"].values()}
    _reject_unknown(sec, allowed, f" ({takes})")
    args = {f: {name: _get(sec, key, _finite) for name, key in keys[f].items()} for f in keys}
    return InitialSpec(seed, kinds["u"], kinds["v"], args["u"], args["v"])


def _config_from_parser(cp: configparser.ConfigParser) -> ExperimentConfig:
    for name in cp.sections():
        if name not in _SECTIONS:
            raise ConfigError(f"unknown section [{name}]")
    for name in _REQUIRED_SECTIONS:
        if name not in cp:
            raise ConfigError(f"missing section [{name}]")
    params = _read_fields(cp["params"], Params)
    _reject_unknown(cp["output"], ("dir",))
    return ExperimentConfig(
        params=params,
        grid=_read_fields(cp["grid"], Grid, dim=params.dim),
        initial=_initial_from_section(cp["initial"]),
        step=_read_fields(cp["step"], StepControl),
        checks=_read_fields(cp["checks"], ChecksSpec) if "checks" in cp else ChecksSpec(),
        output_dir=_get(cp["output"], "dir", str),
    )


def load_config(path: str | Path) -> ExperimentConfig:
    with _reading(Path(path), "config") as cp:
        return _config_from_parser(cp)


def write_config(cfg: ExperimentConfig, path: str | Path) -> None:
    """Serialise ``cfg`` to its file form (lossless round trip)."""
    initial = [f"seed = {cfg.initial.seed}"]
    for f in ("u", "v"):
        initial.append(f"{f}_kind = {getattr(cfg.initial, f'{f}_kind')}")
        initial += [f"{f}_{k} = {v!r}" for k, v in getattr(cfg.initial, f"{f}_args").items()]
    sections = {
        "params": _write_fields(cfg.params),
        "grid": _write_fields(cfg.grid, skip=("dim",)),
        "initial": initial,
        "step": _write_fields(cfg.step),
        "checks": _write_fields(cfg.checks),
        "output": [f"dir = {cfg.output_dir}"],
    }
    text = "\n\n".join("\n".join([f"[{name}]", *lines]) for name, lines in sections.items())
    Path(path).write_text(text + "\n")


def load_sweep_config(path: str | Path) -> SweepConfig:
    """A sweep file is an experiment file plus a [sweep] section naming one
    parameter ('params.<coefficient>') and its values.  Every point is built
    here, so a value the coefficient does not admit is an error at load."""
    with _reading(Path(path), "sweep config") as cp:
        if "sweep" not in cp:
            raise ConfigError("missing section [sweep]")
        sec = cp["sweep"]
        _reject_unknown(sec, ("parameter", "values"))
        parameter = _get(sec, "parameter", str)
        if parameter not in _SWEEPABLE:
            raise ConfigError(
                f"sweep parameter must be one of {sorted(_SWEEPABLE)}, got {parameter!r}"
            )
        raw_values = _get(sec, "values", str)
        try:
            values = tuple(_finite(v) for v in map(str.strip, raw_values.split(",")) if v)
        except ValueError as exc:
            raise ConfigError(f"sweep values: {exc}") from exc
        if not values:
            raise ConfigError("sweep grid is empty")
        sweep = SweepConfig(parameter=parameter, values=values, base=_config_from_parser(cp))
        try:
            for value in values:
                sweep.point(value)
        except InvalidParameterError as exc:
            raise ConfigError(f"[sweep] values: {exc}") from exc
        return sweep


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
    generator is seeded from [initial] seed, u drawn before v.  A density
    or concentration below 0 anywhere is a :class:`ConfigError`."""
    rng = np.random.default_rng(cfg.initial.seed)
    u_values = _generate(cfg.initial.u_kind, cfg.initial.u_args, cfg.grid, rng)
    v_values = _generate(cfg.initial.v_kind, cfg.initial.v_args, cfg.grid, rng)
    u = Field(cfg.grid, u_values)
    v = Field(cfg.grid, v_values)
    for name, f in (("u", u), ("v", v)):
        low = float(f.values.min())
        if low < 0.0:
            raise ConfigError(f"[initial] {name} must be >= 0 everywhere, got min {low!r}")
    return SimState(t=0.0, u=u, v=v, params=cfg.params)
