import json
import os
import sys
import threading

import numpy as np
import pytest

from nlslab.checkpoint import (
    atomic_write_bytes,
    load_ground_state,
    read_field,
    save_ground_state,
    write_field,
)
from nlslab.checks import random_band_limited_field, random_radial_field
from nlslab.grid import Field, Grid
from nlslab.groundstate import solve_ground_state


def test_roundtrip_cartesian(tmp_path):
    g = Grid(2, "cartesian", n=32, L=6.0)
    f = random_band_limited_field(g, 5)
    f.time = 1.25
    base = os.path.join(tmp_path, "state")
    header = write_field(base, f, config_hash="abc123")
    back = read_field(header)
    assert np.array_equal(back.values, f.values)
    assert back.time == 1.25
    assert back.grid.describe() == g.describe()


def test_roundtrip_radial(tmp_path):
    g = Grid(3, "radial", n_r=128, r_max=12.0)
    f = random_radial_field(g, 9)
    base = os.path.join(tmp_path, "rad")
    write_field(base, f)
    back = read_field(base + ".json")
    assert np.array_equal(back.values, f.values)


def test_header_contents(tmp_path):
    g = Grid(1, "cartesian", n=16, L=4.0)
    f = Field(g, np.ones(g.shape, complex), time=0.5)
    base = os.path.join(tmp_path, "hdr")
    write_field(base, f, config_hash="deadbeef")
    with open(base + ".json", encoding="utf-8") as fh:
        header = json.load(fh)
    assert header["endianness"] == "little"
    assert header["mode"] == "cartesian"
    assert header["d"] == 1 and header["n"] == 16 and header["L"] == 4.0
    assert header["time"] == 0.5
    assert header["config_hash"] == "deadbeef"
    # payload is interleaved little-endian float64 (re, im) pairs
    raw = np.fromfile(base + ".bin", dtype="<f8")
    assert raw.size == 2 * 16
    assert np.allclose(raw[0::2], 1.0) and np.allclose(raw[1::2], 0.0)


def test_no_temp_files_left(tmp_path):
    g = Grid(1, "cartesian", n=16, L=4.0)
    write_field(os.path.join(tmp_path, "x"), Field(g, np.ones(g.shape, complex)))
    assert not [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]


def test_rejects_non_checkpoint(tmp_path):
    path = os.path.join(tmp_path, "bogus.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"format": "other"}, fh)
    with pytest.raises(ValueError):
        read_field(path)


def test_ground_state_artifact_roundtrip(tmp_path):
    grid = Grid(1, "cartesian", n=256, L=15.0)
    gs = solve_ground_state(1, 2.0, grid)
    base = save_ground_state(tmp_path, gs, "ff00")
    loaded = load_ground_state(base)
    assert loaded.mass == gs.mass
    assert loaded.kinetic == gs.kinetic
    assert loaded.gn_constant == gs.gn_constant
    assert np.array_equal(loaded.field.values, gs.field.values)


def test_concurrent_writers_of_one_path(tmp_path):
    path = os.path.join(tmp_path, "shared.bin")
    payloads = [bytes([i]) * (1 << 18) for i in (1, 2)]
    errors = []
    together = threading.Barrier(2, timeout=60)  # each round's writes overlap

    def writer(data):
        try:
            for _ in range(200):
                together.wait()
                atomic_write_bytes(path, data)
        except (OSError, threading.BrokenBarrierError) as exc:
            errors.append(exc)
            together.abort()

    threads = [threading.Thread(target=writer, args=(p,)) for p in payloads]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    with open(path, "rb") as fh:
        assert fh.read() in payloads
    assert [n for n in os.listdir(tmp_path) if n.endswith(".tmp")] == []
    # the mode of a plain open(), not mkstemp's 0600
    umask = os.umask(0)
    os.umask(umask)
    assert os.stat(path).st_mode & 0o777 == 0o666 & ~umask
