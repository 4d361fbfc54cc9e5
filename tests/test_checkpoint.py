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
    f.time = 0.75
    header = write_field(os.path.join(tmp_path, "rad"), f, config_hash="abc123")
    back = read_field(header)
    assert np.array_equal(back.values, f.values)
    assert back.time == 0.75
    assert back.grid.describe() == g.describe()
    # written again from what was read: the same header, the same payload
    again = write_field(os.path.join(tmp_path, "again"), back, config_hash="abc123")
    with open(header, "rb") as a, open(again, "rb") as b:
        assert a.read().replace(b"rad.bin", b"again.bin") == b.read()
    with open(header[:-5] + ".bin", "rb") as a, open(again[:-5] + ".bin", "rb") as b:
        assert a.read() == b.read()


@pytest.mark.parametrize("grid, other, sizes", [
    (Grid(1, "cartesian", n=16, L=4.0), Grid(1, "cartesian", n=32, L=5.0),
     ["L 4.0 (expected 5.0)", "n 16 (expected 32)"]),
    (Grid(3, "radial", n_r=64, r_max=8.0), Grid(3, "radial", n_r=64, r_max=9.0),
     ["r_max 8.0 (expected 9.0)"]),
], ids=["cartesian", "radial"])
def test_read_on_another_grid_names_the_differing_sizes(tmp_path, grid, other, sizes):
    header = write_field(os.path.join(tmp_path, "x"), Field(grid, np.ones(grid.shape)))
    with pytest.raises(ValueError, match="header mismatch") as info:
        read_field(header, other)
    for size in sizes:
        assert size in str(info.value)
    assert read_field(header, grid).grid is grid


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


def test_rejects_unknown_version(tmp_path):
    g = Grid(1, "cartesian", n=16, L=4.0)
    header = write_field(os.path.join(tmp_path, "x"), Field(g, np.ones(g.shape, complex)))
    with open(header, encoding="utf-8") as fh:
        fields = json.load(fh)
    with open(header, "w", encoding="utf-8") as fh:
        json.dump({**fields, "version": 2}, fh)
    with pytest.raises(ValueError, match="version 2"):
        read_field(header)


@pytest.mark.parametrize("edit", [
    {"n": 16.7}, {"n": 16.0}, {"L": True}, {"L": 4}, {"time": "0.5"}, {"time": True},
    {"time": float("nan")}, {"extra": 1}, {"config_hash": None}, {"config_hash": 7},
], ids=["n-fraction", "n-float", "L-bool", "L-int", "time-string", "time-bool",
        "time-nan", "extra-key", "config_hash-null", "config_hash-number"])
def test_rejects_a_header_not_in_its_written_form(tmp_path, edit):
    g = Grid(1, "cartesian", n=16, L=4.0)
    f = Field(g, np.ones(g.shape, complex), time=0.5)
    header = write_field(os.path.join(tmp_path, "x"), f, config_hash="abc123")
    with open(header, encoding="utf-8") as fh:
        fields = json.load(fh)
    with open(header, "w", encoding="utf-8") as fh:
        json.dump({**fields, **edit}, fh)
    with pytest.raises(ValueError):
        read_field(header)


def _edit_payload(header, payload):
    with open(header, encoding="utf-8") as fh:
        fields = json.load(fh)
    with open(header, "w", encoding="utf-8") as fh:
        json.dump({**fields, "payload": payload}, fh)


@pytest.mark.parametrize("payload", ["../b/x.bin", "b/x.bin", "{tmp}/b/x.bin", "", ".", ".."],
                         ids=["up-and-over", "subdirectory", "absolute", "empty", "dot",
                              "dotdot"])
def test_reads_the_payload_only_from_the_headers_directory(tmp_path, payload):
    # a payload of the right size lies wherever a path could lead: a header
    # that names it by any path but a bare file name is refused, not followed
    g = Grid(1, "cartesian", n=16, L=4.0)
    for where in ("a", "b", os.path.join("a", "b")):
        os.makedirs(os.path.join(tmp_path, where))
        write_field(os.path.join(tmp_path, where, "x"), Field(g, np.full(g.shape, 2j)))
    header = os.path.join(tmp_path, "a", "x.json")
    assert np.array_equal(read_field(header).values, np.full(g.shape, 2j))
    _edit_payload(header, payload.replace("{tmp}", str(tmp_path)))
    with pytest.raises(ValueError, match="not a file name"):
        read_field(header)


def test_ground_state_whose_profile_names_another_directory_is_solved_again(tmp_path):
    grid = Grid(1, "cartesian", n=64, L=10.0)
    gs = solve_ground_state(1, 2.0, grid)
    base = save_ground_state(os.path.join(tmp_path, "a"), gs, "ff00")
    save_ground_state(os.path.join(tmp_path, "b"), gs, "ff00")
    assert load_ground_state(base, 2.0, grid, "ff00") is not None
    _edit_payload(base + ".json", "../b/" + os.path.basename(base) + ".bin")
    assert load_ground_state(base, 2.0, grid, "ff00") is None


def _ground_state_artifact_roundtrip(tmp_path, grid):
    gs = solve_ground_state(grid.d, 2.0, grid)
    base = save_ground_state(tmp_path, gs, "ff00")
    assert load_ground_state(base, 2.0, grid, "ee00") is None
    assert load_ground_state(base, 2.5, grid, "ff00") is None
    loaded = load_ground_state(base, 2.0, grid, "ff00")
    assert loaded.mass == gs.mass
    assert loaded.kinetic == gs.kinetic
    assert loaded.gn_constant == gs.gn_constant
    assert np.array_equal(loaded.field.values, gs.field.values)
    # save -> load -> save writes the same bytes
    again = save_ground_state(os.path.join(tmp_path, "again"), loaded, "ff00")
    for suffix in ("_norms.json", ".bin"):
        with open(base + suffix, "rb") as a, open(again + suffix, "rb") as b:
            assert a.read() == b.read()


def test_ground_state_artifact_roundtrip(tmp_path):
    _ground_state_artifact_roundtrip(tmp_path, Grid(1, "cartesian", n=256, L=15.0))


def test_ground_state_artifact_roundtrip_radial(tmp_path):
    _ground_state_artifact_roundtrip(tmp_path, Grid(3, "radial", n_r=512, r_max=10.0))


def test_ground_state_sidecar_without_monotone_residual(tmp_path):
    grid = Grid(1, "cartesian", n=256, L=15.0)
    gs = solve_ground_state(1, 2.0, grid)
    base = save_ground_state(tmp_path, gs, "ff00")
    with open(base + "_norms.json", encoding="utf-8") as fh:
        sidecar = json.load(fh)
    del sidecar["monotone_residual"]
    with open(base + "_norms.json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh)
    assert load_ground_state(base, 2.0, grid, "ff00") is None


@pytest.mark.parametrize("scale", [0.0, 1e110], ids=["zero", "norms-overflow"])
def test_ground_state_profile_without_a_sharp_constant_is_rejected(tmp_path, scale):
    # a zero profile has no gradient; scaled by 1e110, its mass is finite
    # and its power in the sharp constant overflows a float
    grid = Grid(1, "cartesian", n=256, L=15.0)
    base = save_ground_state(tmp_path, solve_ground_state(1, 2.0, grid), "ff00")
    profile = read_field(base + ".json")
    write_field(base, Field(grid, scale * profile.values))
    assert load_ground_state(base, 2.0, grid, "ff00") is None


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
