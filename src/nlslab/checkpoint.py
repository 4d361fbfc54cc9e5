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
from dataclasses import fields

import numpy as np

from .equation import check_domains
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


def atomic_write_bytes(path, data):
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
    # a view of the values on a little-endian host: the file gets their bytes
    payload = np.ascontiguousarray(field.values, dtype="<c16")
    atomic_write_bytes(f"{base_path}.bin", payload)
    atomic_write_text(f"{base_path}.json", json.dumps(header, sort_keys=True, indent=1))
    return f"{base_path}.json"


def read_field(header_path) -> Field:
    """Reconstruct a Field (and its grid) from a checkpoint's .json header."""
    with open(header_path, "r", encoding="utf-8") as fh:
        header = json.load(fh)
    if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
        raise ValueError(f"{header_path}: not a field checkpoint")
    if header.get("version") != FORMAT_VERSION:
        raise ValueError(f"{header_path}: unsupported checkpoint version "
                         f"{header.get('version')!r}")
    if header.get("endianness") != "little":
        raise ValueError("unsupported endianness tag")
    try:
        sizes = {k: header[k] for k in ("n", "L", "n_r", "r_max") if k in header}
        grid = Grid(header["d"], header["mode"], **sizes)
        payload_path = os.path.join(os.path.dirname(header_path), header["payload"])
        time = float(header["time"])
    except (KeyError, TypeError, OverflowError) as exc:  # a key absent or mistyped
        raise ValueError(f"{header_path}: bad header: {exc!r}") from exc
    with open(payload_path, "rb") as fh:
        payload = fh.read()
    if len(payload) != 16 * math.prod(grid.shape):
        raise ValueError(f"{payload_path}: {len(payload)} bytes do not hold a "
                         f"complex128 field of shape {grid.shape}")
    values = np.frombuffer(payload, dtype="<c16").reshape(grid.shape)
    return Field(grid, values.copy(), time)


def ground_state_basename(d, alpha):
    """alpha in the name as :g text where that reads back as alpha, else as
    repr, so that two alphas never share one artifact."""
    text = f"{alpha:g}"
    return f"groundstate_d{d}_alpha{text if float(text) == alpha else repr(alpha)}"


def save_ground_state(directory, gs, solver_hash):
    """Persist profile (field checkpoint) plus a JSON sidecar: every
    GroundState field but the profile, with kind, profile and solver_hash.

    solver_hash, of the solver settings that produced gs, identifies it.
    """
    os.makedirs(directory, exist_ok=True)
    base = os.path.join(directory, ground_state_basename(gs.d, gs.alpha))
    write_field(base, gs.field)
    sidecar = {f.name: getattr(gs, f.name) for f in fields(gs) if f.name != "field"}
    sidecar.update(kind="ground-state", profile=os.path.basename(base) + ".json",
                   solver_hash=solver_hash)
    atomic_write_text(
        base + "_norms.json", json.dumps(sidecar, sort_keys=True, indent=1)
    )
    return base


def load_ground_state(base_path, solver_hash):
    """The ground-state artifact written by save_ground_state, or None (solve
    it again) unless it stores solver_hash, reads back in declared domains
    and stores the norms its profile has."""
    from .groundstate import GroundState

    try:
        with open(base_path + "_norms.json", "r", encoding="utf-8") as fh:
            sidecar = json.load(fh)
    except (OSError, ValueError):  # absent, not JSON, or not UTF-8
        return None
    if not isinstance(sidecar, dict) or sidecar.get("solver_hash") != solver_hash:
        return None
    # a field the sidecar lacks (monotone_residual, in older ones) keeps
    # its dataclass default
    given = {f.name: sidecar[f.name] for f in fields(GroundState)
             if f.init and f.name != "field" and f.name in sidecar}
    try:
        gs = GroundState(field=read_field(base_path + ".json"), **given)
        check_domains(gs)
    except (OSError, ArithmeticError, ValueError, TypeError):  # a profile missing
        return None  # or rejected, a field absent, or a value outside its domain
    if any(sidecar.get(f.name) != getattr(gs, f.name) for f in fields(gs) if not f.init):
        return None  # a stored norm that is not the profile's
    return gs
