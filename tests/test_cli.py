import contextlib
import csv
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import nlslab._lapack
import nlslab.cli
import nlslab.config
from nlslab.checkpoint import load_ground_state, save_ground_state, write_field
from nlslab.cli import main
from nlslab.config import (build_grid, build_groundstate_grid, config_hash,
                            groundstate_solver_hash, load_config, parse_config)
from nlslab.grid import Field, Grid
from nlslab.groundstate import solve_ground_state

BASE = """\
[equation]
d = 1
c = 1.0
sigma = 0.5
alpha = 2.0
sign = defocusing

[grid]
mode = cartesian
n = 256
L = 12.0

[initial]
kind = gaussian
amplitude = 1.0
width = 1.0

[evolve]
dt0 = 1e-3
t_end = 0.2

[observables]
stride = 20

[groundstate]
n = 256
L = 15.0

[output]
directory = {outdir}
"""


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = os.path.join(tmp_path, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def test_template_subcommand(capsys):
    assert main(["template"]) == 0
    out = capsys.readouterr().out
    assert "[equation]" in out


def test_config_invalid_exit_code(tmp_path):
    path = write_cfg(tmp_path, "[equation]\nsigma = 9\n")
    assert main(["evolve", path]) == 2
    assert main(["evolve", os.path.join(tmp_path, "missing.cfg")]) == 2


@pytest.mark.parametrize(
    "old, new",
    [
        ("n = 256", "n = 100"),
        ("stride = 20", "stride = 0"),
        ("dt0 = 1e-3", "dt0 = nan"),
        ("t_end = 0.2", "t_end = inf"),
        ("L = 12.0", "L = nan"),
        ("stride = 20", "strid = 20"),
        ("[groundstate]\nn = 256", "[groundstate]\nn = 100"),
        ("[output]", "[sweep]\nparameter = evolve.dt0\nvalues = 1e-3 -1\n[output]"),
        ("[output]", "[sweep]\nparameter = grid.n\nvalues = 256 100\n[output]"),
        ("alpha = 2.0", "alpha = nan"),
        ("c = 1.0", "c = nan"),
        ("stride = 20", "stride = 20\nr_list = -1"),
        ("stride = 20", "stride = 20\nr_list = 0"),
        ("stride = 20", "stride = 20\nr_list = 8 1e-310"),
        ("c = 1.0", "c = 1.0\nepsilon_reg = -1"),
        ("c = 1.0", "c = 1.0\nepsilon_reg = nan"),
        ("width = 1.0", "width = 0"),
        ("width = 1.0", "width = -1"),
        ("amplitude = 1.0", "amplitude = nan"),
        ("amplitude = 1.0", "amplitude = 1.0\ncenter = nan"),
        ("amplitude = 1.0", "amplitude = 1.0\nphase_k = inf"),
        # phase_k x overflows at the node farthest from 0
        ("amplitude = 1.0", "amplitude = 1.0\nphase_k = 1e308"),
        ("kind = gaussian", "kind = groundstate-scaled\nscale = nan"),
        ("t_end = 0.2", "t_end = 0.2\nadaptivity = cfl-nonlinear\ncfl_constant = -1"),
        ("t_end = 0.2", "t_end = 0.2\ncfl_constant = nan"),
        ("t_end = 0.2", "t_end = 0.2\nblowup_grad_factor = nan"),
        ("t_end = 0.2", "t_end = 0.2\nblowup_dt_floor = nan"),
        ("t_end = 0.2", "t_end = 0.2\nblowup_dt_floor = -1"),
        ("stride = 20", "stride = 20\ntolerance = nan"),
        ("[groundstate]\n", "[groundstate]\nmax_iter = 0\n"),
        ("[groundstate]\n", "[groundstate]\ntol = nan\n"),
        ("[groundstate]\n", "[groundstate]\ntol = -1\n"),
        ("[output]\n", "[output]\nformats = xml\n"),
        ("[output]", "[sweep]\nparameter = evolve.dt0\nvalues = 1\nworkers = 0\n[output]"),
        ("[output]", "[sweep]\nparameter = evolve.dt0\nvalues = 1\nworkers = -3\n[output]"),
        ("kind = gaussian", "kind = checkpoint\npath = {tmp}/not_a_checkpoint.json"),
        ("kind = gaussian", "kind = checkpoint\npath = {tmp}/short.json"),
        ("kind = gaussian", "kind = checkpoint\npath = {tmp}/other_box.json"),
        ("kind = gaussian", "kind = checkpoint\npath = {tmp}/version_2.json"),
        ("kind = gaussian", "kind = checkpoint\npath = {tmp}/n_null.json"),
        ("kind = gaussian", "kind = checkpoint\npath = {tmp}/L_abc.json"),
        ("kind = gaussian", "kind = checkpoint\npath = {tmp}/n_inf.json"),
        ("kind = gaussian", "kind = checkpoint\npath = {tmp}/time_null.json"),
        ("kind = gaussian", "kind = checkpoint\npath = {tmp}/payload_5.json"),
        ("kind = gaussian", "kind = checkpoint\npath = {tmp}/prev/final_state.bin"),
        ("kind = gaussian", "kind = checkpoint\npath = {tmp}/absent.json"),
        ("kind = gaussian", "kind = checkpoint\npath = {tmp}/prev"),
        ("kind = gaussian", "kind = checkpoint\npath = {tmp}/no_payload.json"),
        ("kind = gaussian", "kind = checkpoint\npath = {tmp}/n_fraction.json"),
        ("kind = gaussian", "kind = checkpoint\npath = {tmp}/L_true.json"),
        ("kind = gaussian", "kind = checkpoint\npath = {tmp}/time_string.json"),
        ("kind = gaussian", "kind = checkpoint\npath = {tmp}/extra_key.json"),
        ("kind = gaussian", "kind = checkpoint\npath = {tmp}/config_hash_null.json"),
        ("kind = gaussian", "kind = checkpoint\npath = {tmp}/a/payload_up.json"),
        ("kind = gaussian", "kind = checkpoint\npath = {tmp}/payload_sub.json"),
        ("kind = gaussian", "kind = checkpoint\npath = {tmp}/payload_abs.json"),
        ("kind = gaussian", "kind = checkpoint\npath = {tmp}/payload_empty.json"),
        ("kind = gaussian", "kind = checkpoint\npath = {tmp}/payload_dot.json"),
        ("kind = gaussian", "kind = checkpoint\npath = {tmp}/payload_dotdot.json"),
        ("mode = cartesian\nn = 256\nL = 12.0", "mode = radial\nn_r = 256\nr_max = 1e200"),
        ("d = 1\nc = 1.0\nsigma = 0.5\nalpha = 2.0\nsign = defocusing\n\n"
         "[grid]\nmode = cartesian\nn = 256\nL = 12.0",
         "d = 2\nc = 1.0\nsigma = 0.5\nalpha = 2.0\nsign = defocusing\n\n"
         "[grid]\nmode = cartesian\nn = 64\nL = 1e200"),
        # the run directory that follows becomes a comment line
        ("directory = ", "directory = {tmp}/a\0b\n; "),
        # more than 4096**2 nodes
        ("d = 1\nc = 1.0\nsigma = 0.5\nalpha = 2.0\nsign = defocusing\n\n"
         "[grid]\nmode = cartesian\nn = 256",
         "d = 2\nc = 1.0\nsigma = 0.5\nalpha = 2.0\nsign = defocusing\n\n"
         "[grid]\nmode = cartesian\nn = 8192"),
    ],
    ids=["n-not-power-of-two", "stride-zero", "dt0-nan", "t_end-inf", "L-nan",
         "unknown-key", "groundstate-n-not-power-of-two", "sweep-dt0-negative",
         "sweep-n-not-power-of-two", "alpha-nan", "c-nan", "r_list-negative",
         "r_list-zero", "r_list-subnormal", "epsilon_reg-negative", "epsilon_reg-nan", "width-zero",
         "width-negative", "amplitude-nan", "center-nan", "phase_k-inf", "phase_k-overflow",
         "scale-nan", "cfl_constant-negative", "cfl_constant-nan", "blowup_grad_factor-nan",
         "blowup_dt_floor-nan", "blowup_dt_floor-negative", "tolerance-nan",
         "groundstate-max_iter-zero", "groundstate-tol-nan", "groundstate-tol-negative",
         "formats-xml", "sweep-workers-zero", "sweep-workers-negative",
         "checkpoint-path-not-a-checkpoint", "checkpoint-path-short-payload",
         "checkpoint-path-other-box", "checkpoint-path-other-version",
         "checkpoint-path-n-null", "checkpoint-path-L-string", "checkpoint-path-n-inf",
         "checkpoint-path-time-null", "checkpoint-path-payload-number",
         "checkpoint-path-names-the-payload", "checkpoint-path-missing",
         "checkpoint-path-a-directory", "checkpoint-path-payload-missing",
         "checkpoint-path-n-fraction", "checkpoint-path-L-bool",
         "checkpoint-path-time-string", "checkpoint-path-extra-key",
         "checkpoint-path-config_hash-null", "checkpoint-path-payload-up-and-over",
         "checkpoint-path-payload-in-a-subdirectory", "checkpoint-path-payload-absolute",
         "checkpoint-path-payload-empty", "checkpoint-path-payload-dot",
         "checkpoint-path-payload-dotdot",
         "radial-r_max-huge", "cartesian-2d-L-huge", "output-directory-nul",
         "cartesian-2d-n-over-cap"],
)
def test_bad_config_values_exit_code(tmp_path, capsys, old, new):
    # the first occurrence is the [grid] / [observables] / [evolve] key
    outdir = os.path.join(tmp_path, "run")
    not_a_checkpoint = os.path.join(tmp_path, "not_a_checkpoint.json")
    with open(not_a_checkpoint, "w", encoding="utf-8") as fh:
        json.dump({"config_hash": "0000"}, fh)
    # a checkpoint header of the run grid whose payload lacks its last byte
    grid = Grid(1, "cartesian", n=256, L=12.0)
    write_field(os.path.join(tmp_path, "short"), Field(grid, np.ones(256, complex)))
    with open(os.path.join(tmp_path, "short.bin"), "r+b") as fh:
        fh.truncate(16 * 256 - 1)
    # a checkpoint of the run grid's shape on another box (L = 5, not 12)
    other_box = Grid(1, "cartesian", n=256, L=5.0)
    write_field(os.path.join(tmp_path, "other_box"), Field(other_box, np.ones(256, complex)))
    # checkpoints of the run grid under a format version this code does not
    # read, or whose header holds a value of the wrong type or an extra key
    for name, edit in (("version_2", {"version": 2}), ("n_null", {"n": None}),
                       ("L_abc", {"L": "abc"}), ("n_inf", {"n": float("inf")}),
                       ("time_null", {"time": None}), ("payload_5", {"payload": 5}),
                       ("n_fraction", {"n": 256.7}), ("L_true", {"L": True}),
                       ("time_string", {"time": "0.5"}), ("extra_key", {"extra": 1}),
                       ("config_hash_null", {"config_hash": None})):
        header = write_field(os.path.join(tmp_path, name),
                             Field(grid, np.ones(256, complex)))
        with open(header, encoding="utf-8") as fh:
            fields = json.load(fh)
        with open(header, "w", encoding="utf-8") as fh:
            json.dump({**fields, **edit}, fh)
    # checkpoints of the run grid whose payload names a path, not a file
    # beside the header; b/other.bin is a valid payload of the run grid
    os.makedirs(os.path.join(tmp_path, "a"))
    os.makedirs(os.path.join(tmp_path, "b"))
    write_field(os.path.join(tmp_path, "b", "other"), Field(grid, np.ones(256, complex)))
    for name, payload in (("a/payload_up", "../b/other.bin"), ("payload_sub", "b/other.bin"),
                          ("payload_abs", os.path.join(tmp_path, "b", "other.bin")),
                          ("payload_empty", ""), ("payload_dot", "."), ("payload_dotdot", "..")):
        header = write_field(os.path.join(tmp_path, name), Field(grid, np.ones(256, complex)))
        with open(header, encoding="utf-8") as fh:
            fields = json.load(fh)
        with open(header, "w", encoding="utf-8") as fh:
            json.dump({**fields, "payload": payload}, fh)
    # a checkpoint of the run grid, named by its payload and not its header
    os.makedirs(os.path.join(tmp_path, "prev"))
    write_field(os.path.join(tmp_path, "prev", "final_state"),
                Field(grid, np.ones(256, complex)))
    # a checkpoint of the run grid whose payload is gone
    write_field(os.path.join(tmp_path, "no_payload"), Field(grid, np.ones(256, complex)))
    os.remove(os.path.join(tmp_path, "no_payload.bin"))
    new = new.replace("{tmp}", str(tmp_path))
    text = BASE.format(outdir=outdir).replace(old, new, 1)
    command = "sweep" if "[sweep]" in new else "evolve"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, write_cfg(tmp_path, text)]) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert capsys.readouterr().err.startswith("config-invalid: ")
    # a bad sweep value stops the sweep before its first member runs
    assert not os.path.exists(os.path.join(outdir, "run_000"))


# the keys of a run-grid checkpoint header that carries its config's hash,
# and one-key edits of it: a value replaced, the key deleted, or a key added
_HEADER_KEYS = ["L", "config_hash", "d", "endianness", "format", "mode", "n", "payload",
                "time", "version"]
_HEADER_VALUES = st.sampled_from([None, True, "x", -1, 2**70, 1e308, math.nan, math.inf])
_DELETED = object()
_HEADER_EDITS = st.one_of(
    st.tuples(st.sampled_from(_HEADER_KEYS), _HEADER_VALUES | st.just(_DELETED)),
    st.tuples(st.text(min_size=1, max_size=6).filter(lambda k: k not in _HEADER_KEYS),
              _HEADER_VALUES),
)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_HEADER_EDITS)
def test_edited_checkpoint_header_exits_0_or_2(edit):
    key, value = edit
    # mass-subcritical d = 1 data: classify solves no reference
    text = BASE.format(outdir="run").replace("n = 256\nL = 12.0", "n = 64\nL = 8.0", 1).replace(
        "kind = gaussian", "kind = checkpoint\npath = run/state.json")
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        path = write_cfg(tmp, text)
        os.makedirs("run")
        header = write_field(os.path.join("run", "state"),
                             Field(Grid(1, "cartesian", n=64, L=8.0), np.ones(64)),
                             config_hash=config_hash(load_config(path)))
        with open(header, encoding="utf-8") as fh:
            fields = json.load(fh)
        assert sorted(fields) == _HEADER_KEYS
        if value is _DELETED:
            refused = key != "config_hash"  # a header without the hash is well formed
            del fields[key]
        else:  # an added key, or a value of another type
            refused = key not in fields or type(value) is not type(fields[key])
            fields[key] = value
        with open(header, "w", encoding="utf-8") as fh:
            json.dump(fields, fh)
        # a restart from the header is refused where classify's read is
        for command in ("classify", "evolve"):
            code = main([command, path])
            assert code in ((2,) if refused else (0, 2)), command
        # only an edited config_hash differs from the config's
        check = main(["check", path])
        assert check == (4 if key == "config_hash" and value is not _DELETED else 0)


def test_evolve_just_above_the_mass_critical_power(tmp_path):
    # beta_c is about 4e7 here, so M^beta and M_Q^beta overflow a float
    outdir = os.path.join(tmp_path, "run")
    text = BASE.format(outdir=outdir).replace(
        "alpha = 2.0\nsign = defocusing", "alpha = 4.0000001\nsign = focusing").replace(
        "n = 256\nL = 12.0", "n = 64\nL = 8.0", 1).replace("t_end = 0.2", "t_end = 5e-3")
    assert main(["evolve", write_cfg(tmp_path, text)]) == 0
    with open(os.path.join(outdir, "summary.json"), encoding="utf-8") as fh:
        threshold = json.load(fh)["threshold"]
    assert threshold["regime"] == "intercritical"
    assert threshold["verdict"] == "global-branch"  # M < M_Q, as at alpha = 4


def _strict_json(path):
    def refuse(name):
        raise ValueError(f"{path}: {name} is not JSON")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=refuse)


def test_non_finite_summary_values_are_written_as_null(tmp_path):
    # at alpha = 4.0000001 the threshold quantities overflow to +-inf; the
    # verdict stands, and classify.json stays strict JSON
    outdir = os.path.join(tmp_path, "cls")
    text = BASE.format(outdir=outdir).replace(
        "alpha = 2.0\nsign = defocusing", "alpha = 4.0000001\nsign = focusing").replace(
        "amplitude = 1.0", "amplitude = 3.0").replace("L = 15.0", "L = 12.0")
    path = write_cfg(tmp_path, text)
    assert main(["classify", path]) == 0
    threshold = _strict_json(os.path.join(outdir, "classify.json"))["threshold"]
    assert threshold["verdict"] == "blowup-branch"
    assert [threshold[k] for k in ("bound_em", "bound_gm", "quantity_em", "quantity_gm")] \
        == [None] * 4
    assert main(["check", path]) == 0
    # nested in lists and dicts, and finite values unchanged
    summary = os.path.join(tmp_path, "s.json")
    payload = {"a": [1.5, math.nan, {"b": -math.inf}], "c": (math.inf, 2), "d": "x"}
    nlslab.cli._write_summary(summary, payload)
    assert _strict_json(summary) == {"a": [1.5, None, {"b": None}], "c": [None, 2], "d": "x"}
    finite = {"a": [1.5, {"b": -2.0}], "c": (3, 4.25)}
    nlslab.cli._write_summary(summary, finite)
    with open(summary, encoding="utf-8") as fh:
        assert fh.read() == json.dumps(finite, sort_keys=True, indent=1) + "\n"


def test_failed_reference_solve_is_a_warning_of_the_run(tmp_path, capsys):
    # one Petviashvili step cannot converge: evolve still runs and says why
    # it has no verdict, and classify, which needs the verdict, exits 4
    outdir = os.path.join(tmp_path, "run")
    text = _focusing_alpha6(outdir).replace("[groundstate]\n", "[groundstate]\nmax_iter = 1\n")
    path = write_cfg(tmp_path, text.replace("t_end = 0.2", "t_end = 0.01"))
    assert main(["evolve", path]) == 0
    summary = _strict_json(os.path.join(outdir, "summary.json"))
    assert summary["status"] == "completed"
    assert summary["threshold"] == {"verdict": "not-applicable"}
    [warning] = summary["warnings"]
    assert warning.startswith("threshold: no-convergence: ")
    assert f"warning: {warning}" in capsys.readouterr().out
    assert main(["classify", path]) == 4
    assert capsys.readouterr().err.startswith("numerical-failure: no-convergence: ")
    assert main(["check", path]) == 0


def test_main_exit_codes_without_config_and_below_a_file(tmp_path, capsys):
    assert main(["evolve"]) == 2
    assert capsys.readouterr().err == "error: config path required\n"
    blocker = os.path.join(tmp_path, "file")
    with open(blocker, "w", encoding="utf-8") as fh:
        fh.write("a regular file\n")
    path = write_cfg(tmp_path, BASE.format(outdir=os.path.join(blocker, "run")))
    for command in ("evolve", "classify"):
        assert main([command, path]) == 3, command
        assert capsys.readouterr().err.startswith("resource: "), command


def test_evolve_writes_artifacts(tmp_path):
    outdir = os.path.join(tmp_path, "run")
    path = write_cfg(tmp_path, BASE.format(outdir=outdir))
    assert main(["evolve", path]) == 0
    csv_path = os.path.join(outdir, "series.csv")
    with open(csv_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == (
        "t,mass,energy,kinetic,potential_term,nonlinear_term,virial,"
        "morawetz_abs,l4_density,linfty"
    )
    rows = [line.split(",") for line in lines[2:]]
    ts = [float(r[0]) for r in rows]
    assert ts == sorted(ts)
    masses = [float(r[1]) for r in rows]
    assert max(abs(m / masses[0] - 1.0) for m in masses) <= 1e-10
    with open(os.path.join(outdir, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    assert summary["status"] == "completed"
    assert summary["config_hash"] == lines[0].split("=", 1)[1]
    assert [sorted(c) for c in summary["identity_checks"]] == (
        3 * [["name", "passed", "rel_error", "tol"]])
    assert os.path.exists(os.path.join(outdir, "final_state.json"))
    assert os.path.exists(os.path.join(outdir, "final_state.bin"))


@pytest.mark.parametrize("old, new", [
    ("amplitude = 1.0", "amplitude = 0"),
    ("width = 1.0", "width = 1e-3"),  # narrower than the grid spacing
], ids=["amplitude-zero", "width-below-spacing"])
def test_evolve_of_a_zero_field(tmp_path, old, new):
    outdir = os.path.join(tmp_path, "run")
    text = BASE.format(outdir=outdir).replace(old, new)
    assert main(["evolve", write_cfg(tmp_path, text)]) == 0
    with open(os.path.join(outdir, "summary.json"), encoding="utf-8") as fh:
        checks = json.load(fh)["identity_checks"]
    [virial] = [c for c in checks if c["name"].startswith("virial-identity")]
    assert virial["rel_error"] == 0.0 and virial["passed"]


@pytest.mark.parametrize("r_list, columns", [
    ("4 8", ["virial_phiR_4", "virial_phiR_8"]),
    ("4 4", ["virial_phiR_4"]),  # one column per distinct R
], ids=["distinct", "repeated"])
def test_evolve_csv_with_phi_r_columns(tmp_path, r_list, columns):
    outdir = os.path.join(tmp_path, "run_phir")
    text = BASE.format(outdir=outdir).replace(
        "[observables]\nstride = 20",
        f"[observables]\nstride = 20\nr_list = {r_list}",
    ).replace("mode = cartesian\nn = 256\nL = 12.0",
              "mode = radial\nn_r = 256\nr_max = 12.0").replace(
        "d = 1", "d = 2")
    path = write_cfg(tmp_path, text)
    assert main(["evolve", path]) == 0
    with open(os.path.join(outdir, "series.csv"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[1].split(",")
    after_virial = header.index("virial") + 1
    assert header[after_virial:after_virial + len(columns)] == columns
    assert [name for name in header if name.startswith("virial_phiR_")] == columns
    assert all(len(line.split(",")) == len(header) for line in lines[2:])


def test_evolve_writes_strided_checkpoints(tmp_path):
    outdir = os.path.join(tmp_path, "run_ckpt")
    text = BASE.format(outdir=outdir).replace(
        "t_end = 0.2", "t_end = 0.1\ncheckpoint_stride = 50"
    )
    path = write_cfg(tmp_path, text)
    assert main(["evolve", path]) == 0
    assert os.path.exists(os.path.join(outdir, "checkpoint_000000.json"))
    assert os.path.exists(os.path.join(outdir, "checkpoint_000000.bin"))


def test_evolve_records_u0_once(tmp_path, monkeypatch):
    # the threshold verdict reads the record that becomes series.csv's first row
    calls = []
    record = nlslab.observables.record

    def counting_record(*args, **kwargs):
        calls.append(args[0].time)
        return record(*args, **kwargs)

    monkeypatch.setattr(nlslab.observables, "record", counting_record)
    monkeypatch.setattr(nlslab.cli, "record", counting_record)
    outdir = os.path.join(tmp_path, "once")
    assert main(["evolve", write_cfg(tmp_path, BASE.format(outdir=outdir))]) == 0
    with open(os.path.join(outdir, "summary.json"), encoding="utf-8") as fh:
        assert len(calls) == json.load(fh)["n_records"] == 11
    assert calls.count(0.0) == 1


def test_groundstate_command(tmp_path, capsys):
    outdir = os.path.join(tmp_path, "gs")
    path = write_cfg(tmp_path, BASE.format(outdir=outdir))
    assert main(["groundstate", path]) == 0
    base = os.path.join(outdir, "groundstates", "groundstate_d1_alpha2")
    assert os.path.exists(base + "_norms.json")
    assert os.path.exists(base + ".bin")
    # cached artifact is reused on the second call
    assert main(["groundstate", path]) == 0


def _cut_to_40_bytes(base):
    with open(base + "_norms.json", "r+b") as fh:
        fh.truncate(40)


def _rewrite_sidecar(edit):
    def damage(base):
        with open(base + "_norms.json", encoding="utf-8") as fh:
            sidecar = json.load(fh)
        with open(base + "_norms.json", "w", encoding="utf-8") as fh:
            json.dump(edit(sidecar), fh)
    return damage


def _cut_payload(base):
    with open(base + ".bin", "r+b") as fh:
        fh.truncate(16)


@pytest.mark.parametrize("damage", [
    _cut_to_40_bytes,
    _rewrite_sidecar(lambda sidecar: [sidecar]),
    _rewrite_sidecar(lambda sidecar: {k: v for k, v in sidecar.items() if k != "mass"}),
    lambda base: os.remove(base + ".json"),
    _cut_payload,
], ids=["not-json", "not-a-dict", "no-mass", "no-profile", "short-profile"])
def test_unreadable_ground_state_artifact_is_solved_again(tmp_path, capsys, damage):
    outdir = os.path.join(tmp_path, "gs")
    path = write_cfg(tmp_path, BASE.format(outdir=outdir).replace(
        "alpha = 2.0", "alpha = 6.0").replace("sign = defocusing", "sign = focusing"))
    assert main(["groundstate", path]) == 0
    first = capsys.readouterr().out
    base = os.path.join(outdir, "groundstates", "groundstate_d1_alpha6")
    damage(base)
    assert main(["groundstate", path]) == 0
    assert capsys.readouterr().out == first
    with open(base + "_norms.json", encoding="utf-8") as fh:
        assert json.load(fh)["kind"] == "ground-state"  # rewritten whole


def _focusing_alpha6(outdir):
    """BASE with focusing d = 1, alpha = 6 (intercritical) data and its
    ground state solved on n = 256, L = 20."""
    return BASE.format(outdir=outdir).replace("alpha = 2.0", "alpha = 6.0").replace(
        "sign = defocusing", "sign = focusing").replace("n = 256\nL = 15.0",
                                                        "n = 256\nL = 20.0")


@pytest.mark.parametrize("suffix, key, raw", [
    ("_norms", "mass", '"abc"'), ("_norms", "mass", "NaN"), ("_norms", "mass", "-1.0"),
    ("_norms", "kinetic", "1e400"), ("_norms", "d", "7"), ("_norms", "iterations", '"x"'),
    ("_norms", "monotone_residual", '"yes"'),
    # values inside their domains that are not the profile's, or the config's
    ("_norms", "mass", "3.0"), ("_norms", "d", "2"), ("_norms", "alpha", "4.0"),
    ("_norms", "lp", "1.0"), ("_norms", "gn_constant", "0.5"), ("", "L", "21.0"),
    # values equal to a domain's member but not of its type
    ("_norms", "iterations", "37.0"), ("_norms", "monotone_residual", "1"),
    ("_norms", "residual", "0"),
], ids=["type-swap", "nan", "negative", "overflow-to-inf", "bad-d", "bad-iterations",
        "bad-bool", "other-mass", "other-d", "other-alpha", "other-lp",
        "other-gn_constant", "profile-other-L", "float-iterations", "int-bool",
        "int-residual"])
def test_sidecar_value_outside_its_domain_is_solved_again(tmp_path, monkeypatch, suffix,
                                                          key, raw):
    solved = []

    def counting_solve(*args, **kw):
        solved.append(args)
        return solve_ground_state(*args, **kw)

    monkeypatch.setattr(nlslab.cli, "solve_ground_state", counting_solve)
    outdir = os.path.join(tmp_path, "cls")
    path = write_cfg(tmp_path, _focusing_alpha6(outdir))
    assert main(["classify", path]) == 0
    assert main(["classify", path]) == 0
    assert len(solved) == 1  # the clean artifact loads
    base = os.path.join(outdir, "groundstates", "groundstate_d1_alpha6")
    artifacts = (base + "_norms.json", base + ".json", os.path.join(outdir, "classify.json"))

    def contents():
        found = []
        for name in artifacts:
            with open(name, "rb") as fh:
                found.append(fh.read())
        return found

    clean = contents()
    target = base + suffix + ".json"
    edited, n = re.subn(rf'("{key}": )[^,\n]+', rf"\g<1>{raw}",
                        clean[artifacts.index(target)].decode())
    assert n == 1
    with open(target, "w", encoding="utf-8") as fh:
        fh.write(edited)
    assert main(["classify", path]) == 0
    assert len(solved) == 2
    assert contents() == clean  # the artifact solved again, the verdict unchanged


def test_loaded_ground_state_of_another_alpha_or_grid_is_solved_again(tmp_path):
    cfg = load_config(write_cfg(tmp_path, _focusing_alpha6(os.path.join(tmp_path, "cls"))))
    grid, solver_hash = build_groundstate_grid(cfg), groundstate_solver_hash(cfg)
    gdir = nlslab.cli._groundstate_dir(cfg)
    # the other grid's state sits where the config's artifact belongs
    for other in (solve_ground_state(1, 4.0, grid),
                  solve_ground_state(1, 6.0, Grid(1, "cartesian", n=256, L=21.0))):
        base = save_ground_state(gdir, other, solver_hash)
        assert load_ground_state(base, 6.0, grid, solver_hash) is None
    gs = nlslab.cli._solve_artifact_groundstate(cfg)
    assert gs.alpha == 6.0 and gs.field.grid.describe() == grid.describe()
    assert load_ground_state(base, 6.0, grid, solver_hash).mass == gs.mass


def test_ground_state_of_an_older_solver_revision_is_solved_again(tmp_path, monkeypatch):
    # the solver hash a sidecar of this config carried before the hash
    # covered the solver's revision
    older_hash = "192df3da10420a3fa9953b29df361d5ded134a7c01dcdfa80596bbaf87e3ff26"
    cfg = load_config(write_cfg(tmp_path, _focusing_alpha6(os.path.join(tmp_path, "cls"))))
    grid, solver_hash = build_groundstate_grid(cfg), groundstate_solver_hash(cfg)
    assert solver_hash != older_hash
    base = save_ground_state(nlslab.cli._groundstate_dir(cfg),
                             solve_ground_state(1, 6.0, grid), older_hash)
    solved = []

    def counting_solve(d, alpha, grid, **kw):
        solved.append(alpha)
        return solve_ground_state(d, alpha, grid, **kw)

    monkeypatch.setattr(nlslab.cli, "solve_ground_state", counting_solve)
    for _ in range(2):  # solved again once, then reused
        gs = nlslab.cli._solve_artifact_groundstate(cfg)
    assert solved == [6.0]
    assert load_ground_state(base, 6.0, grid, older_hash) is None
    assert load_ground_state(base, 6.0, grid, solver_hash).mass == gs.mass


def _defocused(amplitude):
    return lambda text: text.replace("sign = focusing", "sign = defocusing").replace(
        "amplitude = 1.0", f"amplitude = {amplitude}")


@pytest.mark.parametrize("command, summary, edit", [
    ("evolve", "summary.json", lambda text: text),
    ("classify", "classify.json", lambda text: text.replace("c = 1.0", "c = -1.0", 1)),
    ("classify", "classify.json", _defocused(0.5)),
    ("classify", "classify.json", _defocused(3.0)),
], ids=["mass-subcritical-evolve", "attractive-intercritical-classify",
        "defocusing-intercritical-0.5-classify", "defocusing-intercritical-3.0-classify"])
def test_uncovered_data_solves_no_reference(tmp_path, monkeypatch, command, summary, edit):
    # BASE is mass-subcritical (d = 1, alpha = 2); the classify cases edit
    # focusing intercritical data: an attractive potential (c < 0), or the
    # defocusing sign, whose data is global whatever its size
    solved = []
    monkeypatch.setattr(nlslab.cli, "solve_ground_state",
                        lambda *args, **kw: solved.append(args))
    outdir = os.path.join(tmp_path, "run")
    text = BASE.format(outdir=outdir) if command == "evolve" else _focusing_alpha6(outdir)
    assert main([command, write_cfg(tmp_path, edit(text))]) == 0
    with open(os.path.join(outdir, summary), encoding="utf-8") as fh:
        assert json.load(fh)["threshold"] == {"verdict": "not-applicable"}
    assert not os.path.exists(os.path.join(outdir, "groundstates"))
    assert solved == []


@pytest.mark.parametrize("amplitude, verdict", [(0.5, "global-branch"),
                                                (3.0, "blowup-branch")])
def test_energy_critical_data_is_classified_against_the_bubble(tmp_path, amplitude,
                                                                verdict):
    # d = 3, alpha = 4: the reference is the closed-form bubble, not a solve
    outdir = os.path.join(tmp_path, "cls")
    text = BASE.format(outdir=outdir).replace(
        "d = 1\nc = 1.0\nsigma = 0.5\nalpha = 2.0\nsign = defocusing",
        "d = 3\nc = 1.0\nsigma = 1.0\nalpha = 4.0\nsign = focusing").replace(
        "mode = cartesian\nn = 256\nL = 12.0", "mode = radial\nn_r = 1024\nr_max = 12.0").replace(
        "amplitude = 1.0", f"amplitude = {amplitude}")
    assert main(["classify", write_cfg(tmp_path, text)]) == 0
    with open(os.path.join(outdir, "classify.json"), encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["regime"] == "energy-critical"
    assert payload["threshold"]["verdict"] == verdict
    assert not os.path.exists(os.path.join(outdir, "groundstates"))


def test_restart_clock_starts_at_0(tmp_path):
    # the first run ends at t = 0.1; the restart is a run of its own from 0
    first = os.path.join(tmp_path, "first")
    text = BASE.format(outdir=first).replace("dt0 = 1e-3\nt_end = 0.2",
                                             "dt0 = 0.01\nt_end = 0.1").replace(
        "stride = 20", "stride = 5")
    assert main(["evolve", write_cfg(tmp_path, text, "first.cfg")]) == 0
    restart = os.path.join(tmp_path, "restart")
    text = text.replace(first, restart).replace(
        "kind = gaussian", f"kind = checkpoint\npath = {first}/final_state.json").replace(
        "dt0 = 0.01", "dt0 = 0.01\ncheckpoint_stride = 5")
    assert main(["evolve", write_cfg(tmp_path, text, "restart.cfg")]) == 0
    with open(os.path.join(restart, "series.csv"), encoding="utf-8") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    assert [float(row["t"]) for row in rows] == pytest.approx([0.0, 0.05, 0.1])
    times = []
    for i in range(2):
        with open(os.path.join(restart, f"checkpoint_{i:06d}.json"), encoding="utf-8") as fh:
            times.append(json.load(fh)["time"])
    assert times == pytest.approx([0.05, 0.1])
    checks = []
    for run in (first, restart):  # evenly strided, so the virial check runs
        with open(os.path.join(run, "summary.json"), encoding="utf-8") as fh:
            checks.append([c["name"] for c in json.load(fh)["identity_checks"]])
    assert checks[0] == checks[1]


@pytest.mark.skipif(nlslab._lapack._openblas() is None,
                    reason="numpy ships no scipy-openblas64 library here")
def test_radial_work_in_a_fresh_interpreter_imports_no_scipy(tmp_path):
    # the radial solves bind LAPACK from numpy's OpenBLAS, not scipy.linalg
    text = BASE.format(outdir=os.path.join(tmp_path, "run")).replace(
        "d = 1\nc = 1.0", "d = 3\nc = 1.0").replace(
        "mode = cartesian\nn = 256\nL = 12.0", "mode = radial\nn_r = 256\nr_max = 12.0")
    code = ("import sys, nlslab.cli\n"
            "from nlslab.grid import Grid\n"
            "from nlslab.groundstate import solve_ground_state\n"
            "assert nlslab.cli.main(['evolve', sys.argv[1]]) == 0\n"
            "solve_ground_state(3, 2.0, Grid(3, 'radial', n_r=1024, r_max=20.0))\n"
            "sys.exit(sorted(m for m in sys.modules if m.startswith('scipy')) or None)")
    src = os.path.dirname(os.path.dirname(nlslab.cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", code, write_cfg(tmp_path, text)], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert os.path.exists(os.path.join(tmp_path, "run", "final_state.bin"))


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_radial_evolve_on_scipy_routines_writes_the_default_bytes(tmp_path):
    # with numpy's library lookup patched out, the solves bind scipy's Cython
    # LAPACK and BLAS pointers and write the bytes of the default route
    run_dir = os.path.join(tmp_path, "run")
    text = BASE.format(outdir=run_dir).replace(
        "d = 1\nc = 1.0", "d = 3\nc = 1.0").replace(
        "mode = cartesian\nn = 256\nL = 12.0", "mode = radial\nn_r = 256\nr_max = 12.0").replace(
        "t_end = 0.2", "t_end = 0.2\ncheckpoint_stride = 50")
    cfg = write_cfg(tmp_path, text)
    assert main(["evolve", cfg]) == 0
    os.rename(run_dir, run_dir + "-default")
    code = ("import sys, nlslab._lapack, nlslab.cli\n"
            "nlslab._lapack._openblas = lambda: None\n"
            "assert nlslab.cli.main(['evolve', sys.argv[1]]) == 0\n"
            "sys.exit('scipy.linalg.cython_lapack' not in sys.modules)")
    src = os.path.dirname(os.path.dirname(nlslab.cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", code, cfg], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    names = sorted(os.listdir(run_dir))
    assert names == sorted(os.listdir(run_dir + "-default"))
    assert sum(name.startswith("checkpoint_") and name.endswith(".bin") for name in names) == 4
    for name in names:
        got, want = (_read_bytes(os.path.join(d, name)) for d in (run_dir, run_dir + "-default"))
        if name == "summary.json":  # equal apart from the wall time
            got, want = ({k: v for k, v in json.loads(t).items() if k != "wall_time_s"}
                         for t in (got, want))
        assert got == want, name


def test_cli_import_leaves_scipy_fft_out():
    # importing scipy.fft pulls in scipy.special, a cost every CLI start would
    # pay; nlslab.checks backs only the check command
    code = ("import sys, nlslab.cli; "
            "sys.exit(any(m in sys.modules for m in ('scipy.fft', 'nlslab.checks')))")
    src = os.path.dirname(os.path.dirname(nlslab.cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_groundstate_artifact_keyed_by_solver_settings(tmp_path, monkeypatch):
    # an artifact solved on a coarse grid must not stand in for the default one
    solved = []

    def counting_solve(d, alpha, grid, **kw):
        solved.append(grid.describe())
        return solve_ground_state(d, alpha, grid, **kw)

    monkeypatch.setattr(nlslab.cli, "solve_ground_state", counting_solve)
    gdir = os.path.join(tmp_path, "shared")
    base = BASE.format(outdir=os.path.join(tmp_path, "run")).replace(
        "[groundstate]\nn = 256\nL = 15.0", f"[groundstate]\ndirectory = {gdir}")
    coarse = base.replace("[groundstate]\n", "[groundstate]\nn = 64\nL = 4.0\n")
    assert main(["groundstate", write_cfg(tmp_path, coarse, "coarse.cfg")]) == 0
    assert main(["groundstate", write_cfg(tmp_path, coarse, "coarse.cfg")]) == 0
    assert [g["n"] for g in solved] == [64]  # same settings: reused
    assert main(["groundstate", write_cfg(tmp_path, base, "default.cfg")]) == 0
    assert [g["n"] for g in solved] == [64, 1024]
    header = os.path.join(gdir, "groundstate_d1_alpha2.json")
    with open(header, encoding="utf-8") as fh:
        assert json.load(fh)["n"] == 1024


@pytest.mark.parametrize("old, new", [
    ("", ""),
    ("d = 1\nc = 1.0\nsigma = 0.5\nalpha = 2.0\nsign = defocusing\n\n"
     "[grid]\nmode = cartesian\nn = 256\nL = 12.0",
     "d = 3\nc = 1.0\nsigma = 0.5\nalpha = 2.0\nsign = defocusing\n\n"
     "[grid]\nmode = radial\nn_r = 512\nr_max = 20.0"),
], ids=["cartesian-1d", "radial-3d"])
def test_groundstate_scaled_data_solved_with_the_configured_max_iter(tmp_path, monkeypatch,
                                                                     old, new):
    solved, built = [], []

    def recording_solve(d, alpha, grid, **kw):
        gs = solve_ground_state(d, alpha, grid, **kw)
        solved.append((grid.describe(), kw.get("max_iter"), gs))
        return gs

    def recording_build(cfg):
        built.append(nlslab.config.build_initial_field(cfg))
        return built[-1]

    monkeypatch.setattr(nlslab.config, "solve_ground_state", recording_solve)
    monkeypatch.setattr(nlslab.cli, "build_initial_field", recording_build)
    text = BASE.format(outdir=os.path.join(tmp_path, "cls")).replace(old, new, 1).replace(
        "kind = gaussian\namplitude = 1.0\nwidth = 1.0",
        "kind = groundstate-scaled\nscale = 0.5",
    ).replace("[groundstate]\n", "[groundstate]\nmax_iter = 321\nn_r = 1024\n")
    path = write_cfg(tmp_path, text)
    assert main(["classify", path]) == 0
    [(grid, max_iter, gs)] = solved  # one solve, on the run grid
    assert grid == build_grid(load_config(path)).describe() and max_iter == 321
    [u0] = built
    assert np.array_equal(u0.values, 0.5 * gs.field.values)


def test_alphas_that_print_alike_keep_their_own_ground_state_artifacts(tmp_path,
                                                                      monkeypatch):
    # alpha = 6.0000001 prints as 6 under :g
    solved = []

    def counting_solve(*args, **kw):
        solved.append(args)
        return solve_ground_state(*args, **kw)

    monkeypatch.setattr(nlslab.cli, "solve_ground_state", counting_solve)
    gdir = os.path.join(tmp_path, "shared")
    counts = []
    for alpha in ("6.0", "6.0000001", "6.0"):
        text = _focusing_alpha6(os.path.join(tmp_path, "cls")).replace(
            "alpha = 6.0", f"alpha = {alpha}").replace(
            "[groundstate]\n", f"[groundstate]\ndirectory = {gdir}\n")
        before = len(solved)
        assert main(["classify", write_cfg(tmp_path, text)]) == 0
        counts.append(len(solved) - before)
    assert counts == [1, 1, 0]
    assert sorted(name for name in os.listdir(gdir) if name.endswith("_norms.json")) == [
        "groundstate_d1_alpha6.0000001_norms.json", "groundstate_d1_alpha6_norms.json"]


def test_classify_groundstate_scaled(tmp_path, capsys):
    outdir = os.path.join(tmp_path, "cls")
    text = BASE.format(outdir=outdir).replace(
        "alpha = 2.0", "alpha = 6.0"
    ).replace("sign = defocusing", "sign = focusing").replace(
        "kind = gaussian\namplitude = 1.0\nwidth = 1.0",
        "kind = groundstate-scaled\nscale = 0.1",
    ).replace("n = 256\nL = 12.0", "n = 1024\nL = 20.0")
    path = write_cfg(tmp_path, text)
    assert main(["classify", path]) == 0
    out = capsys.readouterr().out
    assert "intercritical" in out
    assert "global-branch" in out
    with open(os.path.join(outdir, "classify.json"), encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["threshold"]["verdict"] == "global-branch"


def test_sweep_and_check(tmp_path):
    outdir = os.path.join(tmp_path, "sweep")
    text = BASE.format(outdir=outdir).replace("t_end = 0.2", "t_end = 0.05") + (
        "\n[sweep]\nparameter = initial.amplitude\nvalues = 0.5 1.0\nworkers = 1\n"
    )
    path = write_cfg(tmp_path, text)
    assert main(["sweep", path]) == 0
    table = os.path.join(outdir, "sweep_table.csv")
    with open(table, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[1].startswith("initial.amplitude,status")
    assert len(lines) == 4
    assert all("completed" in line for line in lines[2:])
    assert os.path.isdir(os.path.join(outdir, "run_000"))
    assert os.path.isdir(os.path.join(outdir, "run_001"))
    # each run_XXX embeds its member's hash, which check recomputes
    assert main(["check", path]) == 0


def _sweep_cfg(tmp_path, outdir, parameter, values):
    text = BASE.format(outdir=outdir).replace("t_end = 0.2", "t_end = 0.05")
    text += f"\n[sweep]\nparameter = {parameter}\nvalues = {values}\n"
    return write_cfg(tmp_path, text)


def test_check_validates_every_sweep_member(tmp_path, capsys):
    # the second member's phase_k x overflows at the box edge: check exits 2
    # on it, as sweep does, before its invariant suite runs
    path = _sweep_cfg(tmp_path, os.path.join(tmp_path, "out"), "initial.phase_k", "1.0 1e308")
    for command in ("sweep", "check"):
        assert main([command, path]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("config-invalid: [sweep] initial.phase_k = 1e+308")
        assert "PASS" not in out


def test_sweep_table_text(tmp_path):
    outdir = os.path.join(tmp_path, "sweep_table")
    path = _sweep_cfg(tmp_path, outdir, "initial.amplitude", "0.5 1")
    assert main(["sweep", path]) == 0
    with open(os.path.join(outdir, "sweep_table.csv"), encoding="utf-8") as fh:
        text = fh.read()
    # mass-subcritical data: no verdict, and no T* or Glassey bound to print
    assert text == (
        f"# config_hash={config_hash(load_config(path))}\n"
        "initial.amplitude,status,t_reached,tstar_estimate,glassey_bound,verdict\n"
        "0.5,completed,0.05,,,not-applicable\n"
        "1.0,completed,0.05,,,not-applicable\n"
    )


def _csv_rows(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()[2:]


def test_sweep_observables_stride_changes_records(tmp_path):
    outdir = os.path.join(tmp_path, "sweep_stride")
    assert main(["sweep", _sweep_cfg(tmp_path, outdir, "observables.stride", "10 50")]) == 0
    rows = [_csv_rows(os.path.join(outdir, f"run_00{i}", "series.csv")) for i in (0, 1)]
    assert len(rows[1]) < len(rows[0])


def test_sweep_equation_epsilon_reg(tmp_path):
    outdir = os.path.join(tmp_path, "sweep_eps")
    assert main(["sweep", _sweep_cfg(tmp_path, outdir, "equation.epsilon_reg", "0 0.5")]) == 0
    rows = [_csv_rows(os.path.join(outdir, f"run_00{i}", "series.csv")) for i in (0, 1)]
    # the floor changes the potential near the origin, so the energies differ
    assert rows[0][0] != rows[1][0]


def test_sweep_parallel_workers(tmp_path):
    outdir = os.path.join(tmp_path, "sweep_par")
    text = BASE.format(outdir=outdir).replace("t_end = 0.2", "t_end = 0.05") + (
        "\n[sweep]\nparameter = initial.amplitude\nvalues = 0.5 1.0\nworkers = 2\n"
    )
    path = write_cfg(tmp_path, text)
    assert main(["sweep", path]) == 0
    with open(os.path.join(outdir, "sweep_summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    assert summary["statuses"] == ["completed", "completed"]


def test_sweep_requires_parameter(tmp_path):
    outdir = os.path.join(tmp_path, "sx")
    path = write_cfg(tmp_path, BASE.format(outdir=outdir))
    assert main(["sweep", path]) == 2


def test_determinism_bit_identical_csv(tmp_path):
    out_a = os.path.join(tmp_path, "a")
    out_b = os.path.join(tmp_path, "b")
    path_a = write_cfg(tmp_path, BASE.format(outdir=out_a), "a.cfg")
    path_b = write_cfg(tmp_path, BASE.format(outdir=out_b), "b.cfg")
    assert main(["evolve", path_a]) == 0
    assert main(["evolve", path_b]) == 0
    with open(os.path.join(out_a, "series.csv"), "rb") as fh:
        bytes_a = fh.read()
    with open(os.path.join(out_b, "series.csv"), "rb") as fh:
        bytes_b = fh.read()
    # identical physics sections; differing output dir does not enter rows
    assert bytes_a.splitlines()[1:] == bytes_b.splitlines()[1:]


def test_check_after_two_evolves_in_one_directory(tmp_path):
    # the second run reuses the first run's ground-state artifact, which
    # carries the solver hash both configs share and no config hash
    outdir = os.path.join(tmp_path, "shared")
    text = BASE.format(outdir=outdir).replace("alpha = 2.0", "alpha = 4.0").replace(
        "sign = defocusing", "sign = focusing")
    first, second = (
        write_cfg(tmp_path, text.replace("amplitude = 1.0", f"amplitude = {a}"), name)
        for a, name in ((0.5, "a.cfg"), (0.6, "b.cfg")))
    assert main(["evolve", first]) == 0
    assert main(["evolve", second]) == 0
    norms = os.path.join(outdir, "groundstates", "groundstate_d1_alpha4_norms.json")
    with open(norms, encoding="utf-8") as fh:
        sidecar = json.load(fh)
    assert "solver_hash" in sidecar and "config_hash" not in sidecar
    assert main(["check", second]) == 0


def test_check_command_hash_consistency(tmp_path):
    outdir = os.path.join(tmp_path, "chk")
    path = write_cfg(tmp_path, BASE.format(outdir=outdir))
    assert main(["evolve", path]) == 0
    assert main(["check", path]) == 0
    # corrupt an embedded hash: check must fail
    bogus = os.path.join(outdir, "bogus_summary.json")
    with open(bogus, "w", encoding="utf-8") as fh:
        json.dump({"config_hash": "0000"}, fh)
    assert main(["check", path]) == 4


@pytest.mark.parametrize(
    "name, content",
    [("truncated.json", b'{"config_hash": "00'),
     ("latin1.csv", "# config_hash=caf\xe9\n".encode("latin-1")),
     ("array.json", b"[1, 2]")],
    ids=["truncated-json", "non-utf8-csv", "json-array"],
)
def test_check_on_an_unreadable_or_hashless_file(tmp_path, capsys, name, content):
    outdir = os.path.join(tmp_path, "chk")
    path = write_cfg(tmp_path, BASE.format(outdir=outdir))
    assert main(["evolve", path]) == 0
    with open(os.path.join(outdir, name), "wb") as fh:
        fh.write(content)
    capsys.readouterr()
    # a JSON value that is not an object carries no hash and is skipped
    hashless = name == "array.json"
    assert main(["check", path]) == (0 if hashless else 4)
    out = capsys.readouterr().out
    if not hashless:
        assert f"FAIL hash-consistency: {os.path.join(outdir, name)} " in out


# -- fixed-dt sweeps on small fields advance as one stack ------------------

STACK_2D = ("d = 1\nc = 1.0", "d = 2\nc = 1.0"), ("n = 256\nL = 12.0", "n = 64\nL = 8.0")
# mass-subcritical (alpha < 4/3) radial d = 3 data solves no reference
STACK_3D = (("d = 1\nc = 1.0", "d = 3\nc = 1.0"), ("alpha = 2.0", "alpha = 1.0"),
            ("mode = cartesian\nn = 256\nL = 12.0", "mode = radial\nn_r = 256\nr_max = 12.0"))


def _stack_sweep_text(outdir, d, workers):
    # 50 steps: records every 7 (not a divisor), checkpoints every 4
    text = BASE.format(outdir=outdir).replace(
        "t_end = 0.2", "t_end = 0.05\ncheckpoint_stride = 4").replace(
        "stride = 20", "stride = 7")
    for old, new in {1: (), 2: STACK_2D, 3: STACK_3D}[d]:
        text = text.replace(old, new, 1)
    return text + ("\n[sweep]\nparameter = initial.amplitude\n"
                   f"values = 0.5 1.0 1.5\nworkers = {workers}\n")


def _tree(directory):
    """{relative path: bytes} of every file under directory; summary.json
    without its wall time."""
    found = {}
    for root, _, files in os.walk(directory):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                data = fh.read()
            if name == "summary.json":
                summary = json.loads(data)
                del summary["wall_time_s"]
                data = summary
            found[os.path.relpath(path, directory)] = data
    return found


def _assert_members_equal_solo_runs(cfg_path, outdir):
    """Every run_XXX of the sweep in outdir is what `nlslab evolve` writes
    for that member's config."""
    cfg = load_config(cfg_path)
    swept = _tree(outdir)
    os.rename(outdir, outdir + "_sweep")
    for i, value in enumerate(cfg.sweep.values):
        member = nlslab.cli._sweep_member(cfg, value, i)
        nlslab.cli.cmd_evolve(member)
        solo = _tree(member.output.directory)
        run = os.path.basename(member.output.directory)
        assert solo == {os.path.relpath(k, run): v for k, v in swept.items()
                        if k.startswith(run + os.sep)}
    return swept


@pytest.fixture
def evolve_calls(monkeypatch):
    """Sizes of the stacks that cli.evolve was given."""
    sizes = []
    evolve = nlslab.cli.evolve

    def counting_evolve(u0, *args, **kwargs):
        sizes.append(len(u0))
        return evolve(u0, *args, **kwargs)

    monkeypatch.setattr(nlslab.cli, "evolve", counting_evolve)
    return sizes


@pytest.mark.parametrize("d", [1, 2, 3])  # d = 3: a radial grid
@pytest.mark.parametrize("workers", [1, 2])
def test_stacked_sweep_members_equal_their_solo_runs(tmp_path, evolve_calls, d, workers):
    outdir = os.path.join(tmp_path, "sweep")
    path = write_cfg(tmp_path, _stack_sweep_text(outdir, d, workers))
    assert main(["sweep", path]) == 0
    swept = _assert_members_equal_solo_runs(path, outdir)
    # one stack in this process, or two in the workers; then the solo runs
    assert evolve_calls == ([3] if workers == 1 else []) + [1, 1, 1]
    # 50 steps: 0, 7, ..., 49 and the end; 12, 24, ..., 48 and the end
    assert swept["run_002/series.csv"].count(b"\n") == 2 + 9
    assert sum(k.startswith("run_000/checkpoint_") for k in swept) == 2 * 13


@pytest.mark.parametrize("workers", [1, 2])
def test_radial_stack_past_numpys_temporary_elision_writes_solo_bytes(tmp_path, evolve_calls,
                                                                     workers):
    # one stack of 4 x 4 096 complex nodes is 256 KiB, numpy's threshold for
    # computing a product with a temporary in place; two workers step 2 + 2
    outdir = os.path.join(tmp_path, "sweep")
    text = _stack_sweep_text(outdir, 3, workers).replace("n_r = 256", "n_r = 4096").replace(
        "values = 0.5 1.0 1.5", "values = 0.5 1.0 1.5 2.0")
    path = write_cfg(tmp_path, text)
    assert main(["sweep", path]) == 0
    _assert_members_equal_solo_runs(path, outdir)
    assert evolve_calls == ([4] if workers == 1 else []) + [1] * 4


def test_sweep_over_initial_data_runs_as_one_stack(tmp_path, evolve_calls):
    outdir = os.path.join(tmp_path, "sweep")
    assert main(["sweep", write_cfg(tmp_path, _stack_sweep_text(outdir, 1, 1))]) == 0
    assert evolve_calls == [3]


def test_sweep_over_a_key_outside_the_loops_inputs_runs_as_one_stack(tmp_path,
                                                                     evolve_calls):
    # [observables] tolerance is read by each member's identity checks only
    outdir = os.path.join(tmp_path, "sweep")
    text = BASE.format(outdir=outdir).replace("t_end = 0.2", "t_end = 0.05") + (
        "\n[sweep]\nparameter = observables.tolerance\nvalues = 1e-10 1e-3\n")
    path = write_cfg(tmp_path, text)
    assert main(["sweep", path]) == 0
    assert evolve_calls == [2]
    _assert_members_equal_solo_runs(path, outdir)


def test_stacks_split_contiguously_over_workers(tmp_path):
    path = write_cfg(tmp_path, _stack_sweep_text(os.path.join(tmp_path, "s"), 1, 1)
                     .replace("values = 0.5 1.0 1.5", "values = 1 2 3 4 5 6 7"))
    cfg = load_config(path)
    members = [nlslab.cli._sweep_member(cfg, v, i) for i, v in enumerate(cfg.sweep.values)]
    for workers, sizes in ((1, [7]), (2, [3, 4]), (3, [2, 2, 3]), (9, [1] * 7)):
        stacks = nlslab.cli._sweep_stacks(members, workers)
        assert [len(s) for s in stacks] == sizes
        assert [m for s in stacks for m in s] == members


def test_member_leaving_the_stack_stops_at_its_solo_step(tmp_path, monkeypatch):
    # the chirped Gaussian of test_overflow_inside_merged_stretch_stops_at_the_same_step:
    # at amplitude 1 |u|^alpha overflows at step 9, at amplitude 0.5 it never does
    def chirped(cfg, profiles=None):
        grid = build_grid(cfg)
        z = 1.0 - 2.0j
        return Field(grid, cfg.initial.amplitude * 1.25
                     * np.exp(-grid.axis**2 / (2.0 * z)) / np.sqrt(z))

    monkeypatch.setattr(nlslab.cli, "build_initial_field", chirped)
    outdir = os.path.join(tmp_path, "sweep")
    text = BASE.format(outdir=outdir).replace(
        "c = 1.0", "c = 0.0").replace("alpha = 2.0", "alpha = 1e5").replace(
        "n = 256\nL = 12.0", "n = 256\nL = 20.0", 1).replace(
        "dt0 = 1e-3\nt_end = 0.2", "dt0 = 0.05\nt_end = 1.0\ncheckpoint_stride = 3").replace(
        "stride = 20", "stride = 5")
    text += "\n[sweep]\nparameter = initial.amplitude\nvalues = 1.0 0.5\n"
    path = write_cfg(tmp_path, text)
    assert main(["sweep", path]) == 0
    swept = _assert_members_equal_solo_runs(path, outdir)
    overflowed, completed = swept["run_000/summary.json"], swept["run_001/summary.json"]
    assert overflowed["status"] == "invalid"
    assert overflowed["t_reached"] == 9 * 0.05
    assert overflowed["warnings"] == ["non-finite field after step 9 (t=0.45)"]
    assert overflowed["n_records"] == 2  # t = 0 and step 5
    assert completed["status"] == "completed" and completed["n_records"] == 5


def test_groundstate_scaled_sweep_solves_q_once(tmp_path, monkeypatch):
    # three scales of one Q on one run grid: one solve, and each member's
    # artifacts are those of its solo run, which solves Q itself
    solved = []

    def counting_solve(*args, **kw):
        solved.append(args)
        return solve_ground_state(*args, **kw)

    monkeypatch.setattr(nlslab.config, "solve_ground_state", counting_solve)
    outdir = os.path.join(tmp_path, "sweep")
    text = _focusing_alpha6(outdir).replace("t_end = 0.2", "t_end = 0.05").replace(
        "kind = gaussian", "kind = groundstate-scaled")
    text += "\n[sweep]\nparameter = initial.scale\nvalues = 0.5 0.9 1.1\n"
    path = write_cfg(tmp_path, text)
    assert main(["sweep", path]) == 0
    assert len(solved) == 1
    _assert_members_equal_solo_runs(path, outdir)
    assert len(solved) == 4


def test_stacked_members_keep_their_own_glassey_margins(tmp_path, evolve_calls):
    # amplitude 1.0 is on neither branch; 1.629 is on the blow-up branch
    # with E >= 0, so its margin comes from negativity_margin through its
    # Member; 1.63 has E < 0, so evolve takes the negative-energy margin
    outdir = os.path.join(tmp_path, "sweep")
    text = _focusing_alpha6(outdir).replace("t_end = 0.2", "t_end = 0.05") + (
        "\n[sweep]\nparameter = initial.amplitude\nvalues = 1.0 1.629 1.63\n")
    path = write_cfg(tmp_path, text)
    assert main(["sweep", path]) == 0
    assert evolve_calls == [3]
    swept = _assert_members_equal_solo_runs(path, outdir)
    neither, nonnegative, negative = (
        swept[f"run_00{i}/summary.json"] for i in range(3))
    assert neither["threshold"]["verdict"] == "neither"
    assert neither["glassey_bound"] is None
    for summary in (nonnegative, negative):
        assert summary["threshold"]["verdict"] == "blowup-branch"
        assert summary["glassey_bound"] is not None
    assert nonnegative["threshold"]["quantity_em"] >= 0 > negative["threshold"]["quantity_em"]


@pytest.mark.parametrize("old, new, parameter, values", [
    ("t_end = 0.2", "t_end = 0.05\nadaptivity = cfl-nonlinear",
     "initial.amplitude", "0.5 1.0"),
    # 128^2 = 16 384 nodes, past STACK_NODES; mass-subcritical, so no reference
    ("d = 1\nc = 1.0\nsigma = 0.5\nalpha = 2.0", "d = 2\nc = 1.0\nsigma = 0.5\nalpha = 1.0",
     "initial.amplitude", "0.5 1.0"),
    ("t_end = 0.2", "t_end = 0.05", "observables.stride", "10 50"),
], ids=["adaptive", "large-field", "observables-stride"])
def test_ineligible_sweeps_run_member_by_member(tmp_path, evolve_calls, old, new,
                                                parameter, values):
    text = BASE.format(outdir=os.path.join(tmp_path, "sweep")).replace(old, new, 1)
    if "d = 2" in new:
        text = text.replace("t_end = 0.2", "t_end = 0.01").replace(
            "n = 256\nL = 12.0", "n = 128\nL = 12.0", 1)
    text += f"\n[sweep]\nparameter = {parameter}\nvalues = {values}\n"
    assert main(["sweep", write_cfg(tmp_path, text)]) == 0
    assert evolve_calls == [1, 1]


def test_c7c_ladder_runs_member_by_member():
    from test_acceptance import CFG_C7C

    cfg = parse_config(CFG_C7C.format(outdir="unused"))
    members = [nlslab.cli._sweep_member(cfg, v, i) for i, v in enumerate(cfg.sweep.values)]
    for workers in (1, 2):
        assert nlslab.cli._sweep_stacks(members, workers) == [[m] for m in members]
