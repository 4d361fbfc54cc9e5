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


def _json_text(obj):
    # strict JSON: a NaN or infinite value raises ValueError
    return json.dumps(obj, sort_keys=True, indent=1, allow_nan=False)


def _header(grid, time, payload, config_hash=None):
    """The header write_field writes, the one statement of the format; the
    payload name and config_hash are text."""
    header = {"format": FORMAT_NAME, "version": FORMAT_VERSION, "endianness": "little",
              "time": time, "payload": str(payload), **grid.describe()}
    if config_hash is not None:
        header["config_hash"] = str(config_hash)
    return header


def write_field(base_path, field: Field, config_hash=None):
    """Write <base>.json header and <base>.bin payload; returns header path."""
    header = _header(field.grid, field.time, os.path.basename(f"{base_path}.bin"),
                     config_hash)
    # a view of the values on a little-endian host: the file gets their bytes
    payload = np.ascontiguousarray(field.values, dtype="<c16")
    atomic_write_bytes(f"{base_path}.bin", payload)
    atomic_write_text(f"{base_path}.json", _json_text(header))
    return f"{base_path}.json"


def read_field(header_path, grid=None) -> Field:
    """The Field of a checkpoint's .json header, on grid (default: the
    header's).  ValueError unless the header is, as JSON text, the one
    write_field writes for that grid, its time, payload and config_hash,
    and its payload is a bare file name, read from the header's directory."""
    with open(header_path, "r", encoding="utf-8") as fh:
        header = json.load(fh)
    try:
        if grid is None:
            grid = Grid.from_sizes(header["d"], header["mode"], header)
        expected = _header(grid, float(header["time"]), header["payload"],
                           header.get("config_hash"))
    except (KeyError, TypeError, OverflowError) as exc:  # a key absent or mistyped
        raise ValueError(f"{header_path}: bad header: {exc!r}") from exc
    if _json_text(header) != _json_text(expected):
        shown = {k: [json.dumps(h[k]) if k in h else "absent" for h in (header, expected)]
                 for k in sorted(header.keys() | expected.keys())}
        raise ValueError(f"{header_path}: header mismatch: " + ", ".join(
            f"{k} {read} (expected {want})" for k, (read, want) in shown.items()
            if read != want))
    payload = header["payload"]
    if payload in ("", ".", "..") or os.path.basename(payload) != payload:
        raise ValueError(f"{header_path}: payload {payload!r} is not a file name "
                         "in the header's directory")
    payload_path = os.path.join(os.path.dirname(header_path), payload)
    with open(payload_path, "rb") as fh:
        payload = fh.read()
    if len(payload) != 16 * math.prod(grid.shape):
        raise ValueError(f"{payload_path}: {len(payload)} bytes do not hold a "
                         f"complex128 field of shape {grid.shape}")
    values = np.frombuffer(payload, dtype="<c16").reshape(grid.shape)
    return Field(grid, values.copy(), expected["time"])


def ground_state_basename(d, alpha):
    """alpha in the name as :g text where that reads back as alpha, else as
    repr, so that two alphas never share one artifact."""
    text = f"{alpha:g}"
    return f"groundstate_d{d}_alpha{text if float(text) == alpha else repr(alpha)}"


def _sidecar(gs, profile, solver_hash):
    """The sidecar save_ground_state writes: every GroundState field but the
    profile, with kind, profile (the header's file name) and solver_hash."""
    sidecar = {f.name: getattr(gs, f.name) for f in fields(gs) if f.name != "field"}
    sidecar.update(kind="ground-state", profile=profile, solver_hash=solver_hash)
    return sidecar


def save_ground_state(directory, gs, solver_hash):
    """Persist profile (field checkpoint) plus a JSON sidecar; solver_hash,
    of the solver settings that produced gs, identifies it."""
    os.makedirs(directory, exist_ok=True)
    base = os.path.join(directory, ground_state_basename(gs.d, gs.alpha))
    write_field(base, gs.field)
    atomic_write_text(base + "_norms.json",
                      _json_text(_sidecar(gs, os.path.basename(base) + ".json", solver_hash)))
    return base


def load_ground_state(base_path, alpha, grid, solver_hash):
    """The ground state of alpha at base_path, its profile read on grid, or
    None (solve it again) unless its fields lie in their declared domains
    and the sidecar is, as JSON text, the one save_ground_state writes for
    it and solver_hash."""
    from .groundstate import GroundState

    try:
        with open(base_path + "_norms.json", "r", encoding="utf-8") as fh:
            sidecar = json.load(fh)
        gs = GroundState(read_field(base_path + ".json", grid), alpha, sidecar["residual"],
                         sidecar["iterations"], sidecar["monotone_residual"])
        check_domains(gs)
        expected = _sidecar(gs, os.path.basename(base_path) + ".json", solver_hash)
        return gs if _json_text(sidecar) == _json_text(expected) else None
    except (OSError, KeyError, ArithmeticError, ValueError, TypeError):  # absent, not
        return None  # JSON, a field missing, or a value outside its domain
