"""Experiment configuration: one flat key = value file with sections.

Each section's dataclass is the only description of its keys: a field is
read from the file key of the same name, converted by its type annotation,
and falls back to its default.  Two keys sit in a section other than the
dataclass that owns their value (_MOVED_KEYS).  Sweeps override a value
through the same lookup, conversion and validation.  Configs are hashed
over a canonical serialization so identical experiments are
byte-identifiable regardless of comments or key order in the source file.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import math
import typing
from dataclasses import dataclass

import numpy as np

from .checkpoint import read_field
from .equation import (
    FINITE, PATH, DomainError, EquationSpec, above, at_least, check_domains,
    declared, each, one_of,
)
from .evolve import EvolveConfig
from .grid import Field, Grid, GridError
from .groundstate import SOLVER_REVISION, solve_ground_state

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "parse_config",
    "load_config",
    "override",
    "config_hash",
    "groundstate_solver_hash",
    "build_grid",
    "build_groundstate_grid",
    "build_initial_field",
    "DEFAULT_CONFIG_TEMPLATE",
]


class ConfigError(ValueError):
    """Unparseable or cross-field-invalid configuration."""


@dataclass
class GridConfig:
    mode: str = declared("cartesian", doc="cartesian | radial")
    n: int = declared(1024, doc="points per axis (power of two), cartesian mode")
    L: float = declared(20.0, doc="box half-width, domain [-L, L)^d")
    n_r: int = declared(4096, doc="radial cells, radial mode")
    r_max: float = declared(32.0, doc="outer radius, radial mode")


@dataclass
class InitialConfig:
    kind: str = declared("gaussian",
                         one_of("gaussian", "groundstate-scaled", "checkpoint"))
    amplitude: float = declared(1.0, FINITE)
    width: float = declared(1.0, above(0.0))
    center: float = declared(0.0, FINITE)
    phase_k: float = declared(0.0, FINITE)
    scale: float = declared(1.0, FINITE, "multiplier for groundstate-scaled")
    path: str = declared("", PATH, "checkpoint header path for kind = checkpoint")


@dataclass
class ObservablesConfig:
    tolerance: float = declared(1e-10, above(0.0))


@dataclass
class OutputConfig:
    directory: str = declared("runs/out", PATH)
    formats: tuple[str, ...] = declared(("csv", "json"),
                                        each(one_of("csv", "json"), nonempty=True))
    seed: int = declared(0, at_least(0))


@dataclass
class GroundStateSolverConfig:
    n: int = declared(1024, doc="ground-state points per axis (power of two), d = 1")
    L: float = declared(20.0, doc="ground-state box half-width, d = 1")
    n_r: int = declared(32768, doc="ground-state radial cells, d >= 2")
    r_max: float = declared(20.0, doc="ground-state outer radius, d >= 2")
    tol: float = declared(1e-10, above(0.0))
    max_iter: int = declared(500, at_least(1))
    directory: str = declared("", PATH, "empty: <output.directory>/groundstates")


@dataclass
class SweepConfig:
    parameter: str = declared("", doc='a file key, e.g. "initial.amplitude"')
    values: tuple[float, ...] = ()
    workers: int = declared(1, at_least(1))


@dataclass
class ExperimentConfig:
    equation: EquationSpec
    grid: GridConfig
    initial: InitialConfig
    evolve: EvolveConfig
    observables: ObservablesConfig
    output: OutputConfig
    groundstate: GroundStateSolverConfig
    sweep: SweepConfig


# section name -> its dataclass
_SECTIONS = typing.get_type_hints(ExperimentConfig)
_FIELD_TYPES = {s: typing.get_type_hints(cls) for s, cls in _SECTIONS.items()}
_FIELDS = {s: {f.name: f for f in dataclasses.fields(cls)}
           for s, cls in _SECTIONS.items()}

# file keys (section, key) whose value another section's dataclass owns
_MOVED_KEYS = {
    ("observables", "stride"): ("evolve", "record_stride"),
    ("observables", "r_list"): ("evolve", "phi_r_list"),
}

# (section, lowercased file key) -> (section, field); configparser
# lowercases option names, so "L" is looked up as "l"
_KEYS = {
    (section, f.name.lower()): (section, f.name)
    for section, cls in _SECTIONS.items()
    for f in dataclasses.fields(cls)
    if (section, f.name) not in _MOVED_KEYS.values()
}
_KEYS.update(_MOVED_KEYS)
_MOVED_FROM = {home: key for key, home in _MOVED_KEYS.items()}


# field annotation -> conversion of the file text
_CONVERTERS = {
    int: int,
    float: float,
    str: str,
    tuple[float, ...]: lambda raw: tuple(float(tok) for tok in raw.split()),
    tuple[str, ...]: lambda raw: tuple(raw.split()),
}


def _lookup(section, key, raw):
    """(owning section, field, converted value) for the file key section.key."""
    home = _KEYS.get((section, key.lower()))
    if home is None:
        raise ConfigError(f"[{section}] {key}: unknown key")
    convert = _CONVERTERS[_FIELD_TYPES[home[0]][home[1]]]
    try:
        return (*home, convert(raw.strip()))
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc


def _assemble(fields) -> ExperimentConfig:
    """Validated config from {section: {field: value}}; absent fields default."""
    sections = {}
    for section, cls in _SECTIONS.items():
        try:
            sections[section] = cls(**fields.get(section, {}))
            check_domains(sections[section])
        except DomainError as exc:
            file_section, key = _MOVED_FROM.get((section, exc.name), (section, exc.name))
            raise ConfigError(f"[{file_section}] {key} = {exc.value!r} is outside "
                              f"its domain: {exc.domain.text}") from exc
        except ValueError as exc:
            raise ConfigError(f"[{section}]: {exc}") from exc
    cfg = ExperimentConfig(**sections)
    _validate(cfg)
    return cfg


def parse_config(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(
        inline_comment_prefixes=(";", "#"), interpolation=None
    )
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    if not parser.has_section("equation"):
        raise ConfigError("missing [equation] section")
    fields = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            home, name, value = _lookup(section, key, raw)
            fields.setdefault(home, {})[name] = value
    return _assemble(fields)


def override(cfg: ExperimentConfig, parameter: str, value) -> ExperimentConfig:
    """cfg with the file key parameter ("section.key") set to value.

    value is file text or a number (a sweep value); it goes through the
    parser's key lookup, conversion and validation.  An integral number
    converts to an int field, any other to a ConfigError there.
    """
    if not isinstance(value, str):
        value = float(value)
        value = str(int(value)) if value.is_integer() else repr(value)
    section, _, key = parameter.partition(".")
    home, name, converted = _lookup(section, key, value)
    fields = dataclasses.asdict(cfg)
    fields[home][name] = converted
    return _assemble(fields)


def _validate(cfg: ExperimentConfig):
    for section, build in (("grid", build_grid),
                           ("groundstate", build_groundstate_grid)):
        try:
            build(cfg)
        except GridError as exc:
            raise ConfigError(f"[{section}]: {exc}") from exc
    ini = cfg.initial
    if cfg.grid.mode == "radial" and ini.kind == "gaussian":
        if ini.center != 0.0 or ini.phase_k != 0.0:
            raise ConfigError(
                "radial mode requires centered, phase-free gaussian data"
            )
    elif ini.kind == "gaussian":
        # |x| of the node -L + dx/2, the largest that phase_k x meets
        edge = cfg.grid.L - cfg.grid.L / cfg.grid.n
        if math.isinf(ini.phase_k * edge):
            raise ConfigError(f"[initial] phase_k = {ini.phase_k!r} times the largest |x| "
                              f"= {edge!r} leaves the float range")
    if ini.kind == "checkpoint" and not ini.path:
        raise ConfigError("[initial] kind = checkpoint requires path")


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _canonical_lines(prefix, obj, out):
    if hasattr(obj, "__dataclass_fields__"):
        for name in sorted(obj.__dataclass_fields__):
            _canonical_lines(f"{prefix}.{name}" if prefix else name,
                             getattr(obj, name), out)
    elif isinstance(obj, (tuple, list)):
        val = " ".join(_canonical_scalar(v) for v in obj)
        out.append(f"{prefix} = {val}")
    else:
        out.append(f"{prefix} = {_canonical_scalar(obj)}")


def _canonical_scalar(v):
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def config_hash(cfg: ExperimentConfig) -> str:
    """sha256 over the canonical, sorted key = value serialization."""
    lines = []
    _canonical_lines("", cfg, lines)
    return _sha256_lines(lines)


def groundstate_solver_hash(cfg: ExperimentConfig) -> str:
    """sha256 over what determines the (d, alpha) ground-state artifact:
    alpha, the artifact grid, the solver's tol and max_iter, and its
    revision."""
    gc = cfg.groundstate
    settings = dict(build_groundstate_grid(cfg).describe(), alpha=cfg.equation.alpha,
                    tol=gc.tol, max_iter=gc.max_iter, revision=SOLVER_REVISION)
    return _sha256_lines(
        f"{k} = {_canonical_scalar(v)}" for k, v in sorted(settings.items())
    )


def _sha256_lines(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def build_grid(cfg: ExperimentConfig) -> Grid:
    return Grid.from_sizes(cfg.equation.d, cfg.grid.mode, vars(cfg.grid))


def build_groundstate_grid(cfg: ExperimentConfig) -> Grid:
    """Grid of the (d, alpha) ground-state artifact: Cartesian for d = 1,
    radial for d >= 2."""
    d = cfg.equation.d
    return Grid.from_sizes(d, "cartesian" if d == 1 else "radial", vars(cfg.groundstate))


def build_initial_field(cfg: ExperimentConfig, profiles=None) -> Field:
    """u0 on the run grid, from the [initial] section; groundstate-scaled
    data solves Q on that grid with the [groundstate] tol and max_iter,
    unless profiles, a dict that keeps Q by what determines it, holds it."""
    ini, grid = cfg.initial, build_grid(cfg)
    if ini.kind == "gaussian":
        with np.errstate(over="ignore", divide="ignore"):  # width^2 may be inf or 0
            two_var = 2.0 * np.float64(ini.width) ** 2  # inf, not OverflowError
            r2 = grid.sum_over_axes(lambda ax: (grid.coords(ax) - ini.center) ** 2)
            values = ini.amplitude * np.exp(-r2 / two_var)
        if ini.phase_k != 0.0:
            values = values * np.exp(1j * ini.phase_k * grid.coords(0))
        return Field(grid, values.astype(np.complex128))
    if ini.kind == "groundstate-scaled":
        gc, profiles = cfg.groundstate, {} if profiles is None else profiles
        key = (*grid.describe().items(), cfg.equation.alpha, gc.tol, gc.max_iter)
        if key not in profiles:
            profiles[key] = solve_ground_state(cfg.equation.d, cfg.equation.alpha, grid,
                                               tol=gc.tol, max_iter=gc.max_iter).field.values
        return Field(grid, ini.scale * profiles[key])
    try:  # the run's clock starts at 0, whatever time the checkpoint holds
        return Field(grid, read_field(ini.path, grid).values)
    except (OSError, ValueError) as exc:  # absent, unreadable or not of this grid
        raise ConfigError(f"[initial] path: {exc}") from exc


def _template() -> str:
    """Every file key at its default, with its description and domain."""
    lines = ["# experiment configuration (key = value, sections in brackets);",
             "# every key at its default, then its description and domain"]
    for section in _SECTIONS:
        lines.append(f"\n[{section}]")
        for (file_section, key), (home, name) in _KEYS.items():
            if file_section == section:
                f = _FIELDS[home][name]
                _canonical_lines(name if home == section else key, f.default, lines)
                domain = f.metadata.get("domain")
                notes = [f.metadata.get("doc"), domain.text if domain else ""]
                if any(notes):
                    lines[-1] = f"{lines[-1]:<26} ; " + "; ".join(filter(None, notes))
    return "\n".join(line.rstrip() for line in lines) + "\n"


DEFAULT_CONFIG_TEMPLATE = _template()
