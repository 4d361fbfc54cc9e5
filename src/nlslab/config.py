"""Experiment configuration: one flat key = value file with sections.

Configs are parsed into typed dataclasses, validated across fields, and
hashed over a canonical serialization so identical experiments are
byte-identifiable regardless of comments or key order in the source file.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass

import numpy as np

from .equation import EquationSpec
from .evolve import EvolveConfig
from .grid import Field, Grid, GridError

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "parse_config",
    "load_config",
    "config_hash",
    "build_grid",
    "build_initial_field",
    "DEFAULT_CONFIG_TEMPLATE",
]


class ConfigError(ValueError):
    """Unparseable or cross-field-invalid configuration."""


@dataclass
class GridConfig:
    mode: str = "cartesian"
    n: int = 1024
    L: float = 20.0
    n_r: int = 4096
    r_max: float = 32.0


@dataclass
class InitialConfig:
    kind: str = "gaussian"  # gaussian | groundstate-scaled | checkpoint
    amplitude: float = 1.0
    width: float = 1.0
    center: float = 0.0
    phase_k: float = 0.0
    scale: float = 1.0       # groundstate-scaled multiplier
    path: str = ""           # checkpoint path


@dataclass
class ObservablesConfig:
    stride: int = 10
    r_list: tuple = ()
    tolerance: float = 1e-10


@dataclass
class OutputConfig:
    directory: str = "runs/out"
    formats: tuple = ("csv", "json")
    seed: int = 0


@dataclass
class GroundStateSolverConfig:
    # artifact grid; d = 1 uses the Cartesian pair, d >= 2 the radial pair
    n: int = 1024
    L: float = 20.0
    n_r: int = 32768
    r_max: float = 20.0
    tol: float = 1e-10
    max_iter: int = 500
    directory: str = ""      # empty: <output.directory>/groundstates


@dataclass
class SweepConfig:
    parameter: str = ""      # e.g. "initial.amplitude"
    values: tuple = ()
    workers: int = 1


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
    epsilon_reg: float = 0.0


def _get(parser, section, key, cast, default):
    if not parser.has_section(section) or not parser.has_option(section, key):
        return default
    raw = parser.get(section, key).strip()
    try:
        if cast is bool:
            return raw.lower() in ("1", "true", "yes", "on")
        if cast is tuple:
            return tuple(float(tok) for tok in raw.split())
        if cast is int:
            return int(raw)
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc


def parse_config(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    if not parser.has_section("equation"):
        raise ConfigError("missing [equation] section")
    try:
        eq = EquationSpec(
            d=_get(parser, "equation", "d", int, 1),
            c=_get(parser, "equation", "c", float, 1.0),
            sigma=_get(parser, "equation", "sigma", float, 0.5),
            alpha=_get(parser, "equation", "alpha", float, 2.0),
            sign=_get(parser, "equation", "sign", str, "defocusing"),
        )
    except ValueError as exc:
        raise ConfigError(f"[equation]: {exc}") from exc
    grid = GridConfig(
        mode=_get(parser, "grid", "mode", str, "cartesian"),
        n=_get(parser, "grid", "n", int, 1024),
        L=_get(parser, "grid", "L", float, 20.0),
        n_r=_get(parser, "grid", "n_r", int, 4096),
        r_max=_get(parser, "grid", "r_max", float, 32.0),
    )
    initial = InitialConfig(
        kind=_get(parser, "initial", "kind", str, "gaussian"),
        amplitude=_get(parser, "initial", "amplitude", float, 1.0),
        width=_get(parser, "initial", "width", float, 1.0),
        center=_get(parser, "initial", "center", float, 0.0),
        phase_k=_get(parser, "initial", "phase_k", float, 0.0),
        scale=_get(parser, "initial", "scale", float, 1.0),
        path=_get(parser, "initial", "path", str, ""),
    )
    observables = ObservablesConfig(
        stride=_get(parser, "observables", "stride", int, 10),
        r_list=_get(parser, "observables", "r_list", tuple, ()),
        tolerance=_get(parser, "observables", "tolerance", float, 1e-10),
    )
    epsilon_reg = _get(parser, "equation", "epsilon_reg", float, 0.0)
    try:
        evolve_cfg = EvolveConfig(
            dt0=_get(parser, "evolve", "dt0", float, 1e-3),
            t_end=_get(parser, "evolve", "t_end", float, 1.0),
            adaptivity=_get(parser, "evolve", "adaptivity", str, "fixed"),
            blowup_grad_factor=_get(
                parser, "evolve", "blowup_grad_factor", float, 100.0
            ),
            blowup_dt_floor=_get(parser, "evolve", "blowup_dt_floor", float, 1e-9),
            checkpoint_stride=_get(parser, "evolve", "checkpoint_stride", int, 0),
            record_stride=_get(parser, "observables", "stride", int, 10),
            cfl_constant=_get(parser, "evolve", "cfl_constant", float, 0.1),
            phi_r_list=observables.r_list,
            epsilon_reg=epsilon_reg,
            max_steps=_get(parser, "evolve", "max_steps", int, 10_000_000),
        )
    except ValueError as exc:
        raise ConfigError(f"[evolve]: {exc}") from exc
    output = OutputConfig(
        directory=_get(parser, "output", "directory", str, "runs/out"),
        formats=tuple(
            _get(parser, "output", "formats", str, "csv json").split()
        ),
        seed=_get(parser, "output", "seed", int, 0),
    )
    gs_cfg = GroundStateSolverConfig(
        n=_get(parser, "groundstate", "n", int, 1024),
        L=_get(parser, "groundstate", "L", float, 20.0),
        n_r=_get(parser, "groundstate", "n_r", int, 32768),
        r_max=_get(parser, "groundstate", "r_max", float, 20.0),
        tol=_get(parser, "groundstate", "tol", float, 1e-10),
        max_iter=_get(parser, "groundstate", "max_iter", int, 500),
        directory=_get(parser, "groundstate", "directory", str, ""),
    )
    sweep = SweepConfig(
        parameter=_get(parser, "sweep", "parameter", str, ""),
        values=_get(parser, "sweep", "values", tuple, ()),
        workers=_get(parser, "sweep", "workers", int, 1),
    )
    cfg = ExperimentConfig(
        equation=eq,
        grid=grid,
        initial=initial,
        evolve=evolve_cfg,
        observables=observables,
        output=output,
        groundstate=gs_cfg,
        sweep=sweep,
        epsilon_reg=epsilon_reg,
    )
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig):
    try:
        build_grid(cfg)
    except GridError as exc:
        raise ConfigError(f"[grid]: {exc}") from exc
    if cfg.grid.mode == "radial" and cfg.initial.kind == "gaussian":
        if cfg.initial.center != 0.0 or cfg.initial.phase_k != 0.0:
            raise ConfigError(
                "radial mode requires centered, phase-free gaussian data"
            )
    if cfg.initial.kind not in ("gaussian", "groundstate-scaled", "checkpoint"):
        raise ConfigError(f"[initial] kind = {cfg.initial.kind!r} unknown")
    if cfg.initial.kind == "checkpoint" and not cfg.initial.path:
        raise ConfigError("[initial] kind = checkpoint requires path")
    if cfg.equation.d > 1 and cfg.grid.mode == "cartesian" and cfg.grid.n > 4096:
        raise ConfigError("[grid] n too large for a d > 1 Cartesian box")


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
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def build_grid(cfg: ExperimentConfig) -> Grid:
    g = cfg.grid
    if g.mode == "radial":
        return Grid(cfg.equation.d, "radial", n_r=g.n_r, r_max=g.r_max)
    return Grid(cfg.equation.d, g.mode, n=g.n, L=g.L)


def build_initial_field(cfg: ExperimentConfig, grid: Grid, ground_state=None) -> Field:
    """Assemble u0 from the [initial] section.

    groundstate-scaled data requires a GroundState solved on this grid
    (passed by the caller so artifacts can be reused).
    """
    ini = cfg.initial
    if ini.kind == "gaussian":
        if grid.mode == "radial":
            values = ini.amplitude * np.exp(-grid.r**2 / (2.0 * ini.width**2))
            return Field(grid, values.astype(np.complex128))
        r2 = np.zeros(grid.shape)
        for ax in range(grid.d):
            r2 = r2 + (grid.coords(ax) - ini.center) ** 2
        values = ini.amplitude * np.exp(-r2 / (2.0 * ini.width**2))
        if ini.phase_k != 0.0:
            values = values * np.exp(1j * ini.phase_k * grid.coords(0))
        return Field(grid, values.astype(np.complex128))
    if ini.kind == "groundstate-scaled":
        if ground_state is None:
            raise ConfigError("groundstate-scaled initial data needs a solved Q")
        return Field(grid, ini.scale * ground_state.field.values)
    from .checkpoint import read_field

    f = read_field(ini.path)
    if f.grid.shape != grid.shape:
        raise ConfigError(
            f"checkpoint grid {f.grid.shape} does not match run grid {grid.shape}"
        )
    return f


DEFAULT_CONFIG_TEMPLATE = """\
# experiment configuration (key = value, sections in brackets)

[equation]
d = 1                  ; spatial dimension: 1, 2 or 3
c = 1.0                ; potential coefficient (c > 0 repulsive)
sigma = 0.5            ; potential exponent, 0 < sigma < min(2, d)
alpha = 2.0            ; nonlinearity power
sign = defocusing      ; focusing | defocusing

[grid]
mode = cartesian       ; cartesian | radial
n = 1024               ; points per axis (power of two), cartesian mode
L = 20.0               ; box half-width, domain [-L, L)^d
n_r = 4096             ; radial cells, radial mode
r_max = 32.0           ; outer radius, radial mode

[initial]
kind = gaussian        ; gaussian | groundstate-scaled | checkpoint
amplitude = 1.0
width = 1.0
center = 0.0
phase_k = 0.0
scale = 1.0            ; multiplier for groundstate-scaled
path =                 ; checkpoint header path for kind = checkpoint

[evolve]
dt0 = 1e-3
t_end = 1.0
adaptivity = fixed     ; fixed | cfl-nonlinear
blowup_grad_factor = 100.0
blowup_dt_floor = 1e-9
checkpoint_stride = 0  ; steps between field checkpoints (0: final only)

[observables]
stride = 10            ; steps between records
r_list =               ; localized-virial scales, e.g. "8 16 32"
tolerance = 1e-10

[groundstate]
n = 1024
L = 20.0
n_r = 32768
r_max = 20.0
tol = 1e-10
max_iter = 500

[output]
directory = runs/out
formats = csv json
seed = 0
"""
