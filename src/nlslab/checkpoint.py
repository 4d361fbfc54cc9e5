"""Field checkpoints and ground-state artifacts.

A checkpoint is a UTF-8 JSON header (grid parameters, time, endianness)
plus a raw binary payload of interleaved (re, im) float64 little-endian
pairs in row-major node order.  All writes go through a temp file and an
atomic rename so no partial artifact is ever visible.
"""

from __future__ import annotations

import json
import math
import os
import threading

import numpy as np

from .grid import Field, Grid

__all__ = [
    "atomic_write_bytes",
    "atomic_write_text",
    "write_field",
    "read_field",
    "save_ground_state",
    "load_ground_state",
    "ground_state_basename",
]

FORMAT_NAME = "nls-field-checkpoint"
FORMAT_VERSION = 1


def atomic_write_bytes(path, data: bytes):
    # a temp name per process and thread: concurrent writers of one path
    # never share a temp file, and the last rename wins whole
    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def atomic_write_text(path, text: str):
    atomic_write_bytes(path, text.encode("utf-8"))


def write_field(base_path, field: Field, config_hash=None):
    """Write <base>.json header and <base>.bin payload; returns header path."""
    g = field.grid
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "endianness": "little",
        "time": field.time,
        "payload": os.path.basename(f"{base_path}.bin"),
    }
    header.update(g.describe())
    if config_hash is not None:
        header["config_hash"] = config_hash
    payload = np.ascontiguousarray(field.values).astype("<c16").tobytes()
    atomic_write_bytes(f"{base_path}.bin", payload)
    atomic_write_text(f"{base_path}.json", json.dumps(header, sort_keys=True, indent=1))
    return f"{base_path}.json"


def read_field(header_path) -> Field:
    """Reconstruct a Field (and its grid) from a checkpoint header path."""
    if header_path.endswith(".bin"):
        header_path = header_path[:-4] + ".json"
    if not header_path.endswith(".json"):
        header_path = header_path + ".json"
    with open(header_path, "r", encoding="utf-8") as fh:
        header = json.load(fh)
    if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
        raise ValueError(f"{header_path}: not a field checkpoint")
    if header.get("endianness") != "little":
        raise ValueError("unsupported endianness tag")
    try:
        sizes = {k: header[k] for k in ("n", "L", "n_r", "r_max") if k in header}
        grid = Grid(header["d"], header["mode"], **sizes)
        payload_path = os.path.join(os.path.dirname(header_path), header["payload"])
        time = header["time"]
    except KeyError as exc:
        raise ValueError(f"{header_path}: header lacks {exc}") from exc
    with open(payload_path, "rb") as fh:
        payload = fh.read()
    if len(payload) != 16 * math.prod(grid.shape):
        raise ValueError(f"{payload_path}: {len(payload)} bytes do not hold a "
                         f"complex128 field of shape {grid.shape}")
    values = np.frombuffer(payload, dtype="<c16").reshape(grid.shape)
    return Field(grid, values.copy(), time)


def ground_state_basename(d, alpha):
    return f"groundstate_d{d}_alpha{alpha:g}"


def save_ground_state(directory, gs, solver_hash):
    """Persist profile (field checkpoint) plus a JSON sidecar of norms.

    solver_hash, of the solver settings that produced gs, identifies it.
    """
    os.makedirs(directory, exist_ok=True)
    base = os.path.join(directory, ground_state_basename(gs.d, gs.alpha))
    write_field(base, gs.field)
    sidecar = {
        "kind": "ground-state",
        "d": gs.d,
        "alpha": gs.alpha,
        "mass": gs.mass,
        "kinetic": gs.kinetic,
        "lp": gs.lp,
        "residual": gs.residual,
        "gn_constant": gs.gn_constant,
        "iterations": gs.iterations,
        "monotone_residual": gs.monotone_residual,
        "profile": os.path.basename(base) + ".json",
        "solver_hash": solver_hash,
    }
    atomic_write_text(
        base + "_norms.json", json.dumps(sidecar, sort_keys=True, indent=1)
    )
    return base


def load_ground_state(base_path, solver_hash=None):
    """Load a ground-state artifact written by save_ground_state.

    Given a solver_hash, returns None unless the artifact stores that hash.
    """
    from .groundstate import GroundState

    with open(base_path + "_norms.json", "r", encoding="utf-8") as fh:
        sidecar = json.load(fh)
    if solver_hash is not None and sidecar.get("solver_hash") != solver_hash:
        return None
    field = read_field(base_path + ".json")
    return GroundState(
        field=field,
        d=sidecar["d"],
        alpha=sidecar["alpha"],
        mass=sidecar["mass"],
        kinetic=sidecar["kinetic"],
        lp=sidecar["lp"],
        residual=sidecar["residual"],
        gn_constant=sidecar["gn_constant"],
        iterations=sidecar["iterations"],
        monotone_residual=sidecar.get("monotone_residual", True),
    )
