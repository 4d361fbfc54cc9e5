import json
import os

import numpy as np
import pytest

import nlslab.cli
from nlslab.checkpoint import write_field
from nlslab.cli import main
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
        ("c = 1.0", "c = 1.0\nepsilon_reg = -1"),
        ("c = 1.0", "c = 1.0\nepsilon_reg = nan"),
        ("width = 1.0", "width = 0"),
        ("width = 1.0", "width = -1"),
        ("amplitude = 1.0", "amplitude = nan"),
        ("amplitude = 1.0", "amplitude = 1.0\ncenter = nan"),
        ("amplitude = 1.0", "amplitude = 1.0\nphase_k = inf"),
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
        ("mode = cartesian\nn = 256\nL = 12.0", "mode = radial\nn_r = 256\nr_max = 1e200"),
        ("d = 1\nc = 1.0\nsigma = 0.5\nalpha = 2.0\nsign = defocusing\n\n"
         "[grid]\nmode = cartesian\nn = 256\nL = 12.0",
         "d = 2\nc = 1.0\nsigma = 0.5\nalpha = 2.0\nsign = defocusing\n\n"
         "[grid]\nmode = cartesian\nn = 64\nL = 1e200"),
        # the run directory that follows becomes a comment line
        ("directory = ", "directory = {tmp}/a\0b\n; "),
    ],
    ids=["n-not-power-of-two", "stride-zero", "dt0-nan", "t_end-inf", "L-nan",
         "unknown-key", "groundstate-n-not-power-of-two", "sweep-dt0-negative",
         "sweep-n-not-power-of-two", "alpha-nan", "c-nan", "r_list-negative",
         "r_list-zero", "epsilon_reg-negative", "epsilon_reg-nan", "width-zero",
         "width-negative", "amplitude-nan", "center-nan", "phase_k-inf", "scale-nan",
         "cfl_constant-negative", "cfl_constant-nan", "blowup_grad_factor-nan",
         "blowup_dt_floor-nan", "blowup_dt_floor-negative", "tolerance-nan",
         "groundstate-max_iter-zero", "groundstate-tol-nan", "groundstate-tol-negative",
         "formats-xml", "sweep-workers-zero", "sweep-workers-negative",
         "checkpoint-path-not-a-checkpoint", "checkpoint-path-short-payload",
         "radial-r_max-huge", "cartesian-2d-L-huge", "output-directory-nul"],
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
    new = new.replace("{tmp}", str(tmp_path))
    text = BASE.format(outdir=outdir).replace(old, new, 1)
    command = "sweep" if "[sweep]" in new else "evolve"
    assert main([command, write_cfg(tmp_path, text)]) == 2
    assert capsys.readouterr().err.startswith("config-invalid: ")
    # a bad sweep value stops the sweep before its first member runs
    assert not os.path.exists(os.path.join(outdir, "run_000"))


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
    assert os.path.exists(os.path.join(outdir, "final_state.json"))
    assert os.path.exists(os.path.join(outdir, "final_state.bin"))


def test_evolve_csv_with_phi_r_columns(tmp_path):
    outdir = os.path.join(tmp_path, "run_phir")
    text = BASE.format(outdir=outdir).replace(
        "[observables]\nstride = 20",
        "[observables]\nstride = 20\nr_list = 4 8",
    ).replace("mode = cartesian\nn = 256\nL = 12.0",
              "mode = radial\nn_r = 256\nr_max = 12.0").replace(
        "d = 1", "d = 2")
    path = write_cfg(tmp_path, text)
    assert main(["evolve", path]) == 0
    with open(os.path.join(outdir, "series.csv"), encoding="utf-8") as fh:
        header = fh.read().splitlines()[1]
    assert "virial_phiR_4,virial_phiR_8" in header


def test_evolve_writes_strided_checkpoints(tmp_path):
    outdir = os.path.join(tmp_path, "run_ckpt")
    text = BASE.format(outdir=outdir).replace(
        "t_end = 0.2", "t_end = 0.1\ncheckpoint_stride = 50"
    )
    path = write_cfg(tmp_path, text)
    assert main(["evolve", path]) == 0
    assert os.path.exists(os.path.join(outdir, "checkpoint_000000.json"))
    assert os.path.exists(os.path.join(outdir, "checkpoint_000000.bin"))


def test_groundstate_command(tmp_path, capsys):
    outdir = os.path.join(tmp_path, "gs")
    path = write_cfg(tmp_path, BASE.format(outdir=outdir))
    assert main(["groundstate", path]) == 0
    base = os.path.join(outdir, "groundstates", "groundstate_d1_alpha2")
    assert os.path.exists(base + "_norms.json")
    assert os.path.exists(base + ".bin")
    # cached artifact is reused on the second call
    assert main(["groundstate", path]) == 0


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
