import json
import os

import numpy as np
import pytest

import nlslab.cli
from nlslab.checkpoint import write_field
from nlslab.cli import main
from nlslab.config import build_grid, load_config, parse_config
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


# -- sweeps over [initial] on fixed dt advance as one stack ---------------

STACK_2D = ("d = 1\nc = 1.0", "d = 2\nc = 1.0"), ("n = 256\nL = 12.0", "n = 64\nL = 8.0")


def _stack_sweep_text(outdir, d, workers):
    # 50 steps: records every 7 (not a divisor), checkpoints every 4
    text = BASE.format(outdir=outdir).replace(
        "t_end = 0.2", "t_end = 0.05\ncheckpoint_stride = 4").replace(
        "stride = 20", "stride = 7")
    if d == 2:
        for old, new in STACK_2D:
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


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("workers", [1, 2])
def test_stacked_sweep_members_equal_their_solo_runs(tmp_path, d, workers):
    outdir = os.path.join(tmp_path, "sweep")
    path = write_cfg(tmp_path, _stack_sweep_text(outdir, d, workers))
    assert main(["sweep", path]) == 0
    swept = _assert_members_equal_solo_runs(path, outdir)
    # 50 steps: 0, 7, ..., 49 and the end; 12, 24, ..., 48 and the end
    assert swept["run_002/series.csv"].count(b"\n") == 2 + 9
    assert sum(k.startswith("run_000/checkpoint_") for k in swept) == 2 * 13


def test_sweep_over_initial_data_runs_as_one_stack(tmp_path, evolve_calls):
    outdir = os.path.join(tmp_path, "sweep")
    assert main(["sweep", write_cfg(tmp_path, _stack_sweep_text(outdir, 1, 1))]) == 0
    assert evolve_calls == [3]


def test_stacks_split_contiguously_over_workers(tmp_path):
    path = write_cfg(tmp_path, _stack_sweep_text(os.path.join(tmp_path, "s"), 1, 1)
                     .replace("values = 0.5 1.0 1.5", "values = 1 2 3 4 5 6 7"))
    cfg = load_config(path)
    members = [nlslab.cli._sweep_member(cfg, v, i) for i, v in enumerate(cfg.sweep.values)]
    for workers, sizes in ((1, [7]), (2, [3, 4]), (3, [2, 2, 3]), (9, [1] * 7)):
        stacks = nlslab.cli._sweep_stacks(members, workers)
        assert [len(s) for s in stacks] == sizes
        assert [m for s in stacks for m in s] == members


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the alpha = 1e5 Q solve fails
def test_member_leaving_the_stack_stops_at_its_solo_step(tmp_path, monkeypatch):
    # the chirped Gaussian of test_overflow_inside_merged_stretch_stops_at_the_same_step:
    # at amplitude 1 |u|^alpha overflows at step 9, at amplitude 0.5 it never does
    def chirped(cfg):
        grid = build_grid(cfg)
        z = 1.0 - 2.0j
        return Field(grid, cfg.initial.amplitude * 1.25
                     * np.exp(-grid.axis**2 / (2.0 * z)) / np.sqrt(z))

    monkeypatch.setattr(nlslab.cli, "_initial_field", chirped)
    outdir = os.path.join(tmp_path, "sweep")
    text = BASE.format(outdir=outdir).replace(
        "c = 1.0", "c = 0.0").replace("alpha = 2.0", "alpha = 1e5").replace(
        "n = 256\nL = 12.0", "n = 256\nL = 20.0", 1).replace(
        "dt0 = 1e-3\nt_end = 0.2", "dt0 = 0.05\nt_end = 1.0\ncheckpoint_stride = 3").replace(
        "stride = 20", "stride = 5").replace("[groundstate]\n", "[groundstate]\nmax_iter = 1\n")
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


@pytest.mark.parametrize("old, new, parameter, values", [
    ("t_end = 0.2", "t_end = 0.05\nadaptivity = cfl-nonlinear",
     "initial.amplitude", "0.5 1.0"),
    ("d = 1\nc = 1.0", "d = 2\nc = 1.0", "initial.amplitude", "0.5 1.0"),
    ("t_end = 0.2", "t_end = 0.05", "observables.stride", "10 50"),
], ids=["adaptive", "radial", "observables-stride"])
def test_ineligible_sweeps_run_member_by_member(tmp_path, evolve_calls, old, new,
                                                parameter, values):
    text = BASE.format(outdir=os.path.join(tmp_path, "sweep")).replace(old, new, 1)
    if "d = 2" in new:
        text = text.replace("t_end = 0.2", "t_end = 0.05").replace(
            "mode = cartesian\nn = 256\nL = 12.0", "mode = radial\nn_r = 256\nr_max = 12.0")
    text += f"\n[sweep]\nparameter = {parameter}\nvalues = {values}\n"
    assert main(["sweep", write_cfg(tmp_path, text)]) == 0
    assert evolve_calls == [1, 1]


def test_c7c_ladder_runs_member_by_member():
    from test_acceptance import CFG_C7C

    cfg = parse_config(CFG_C7C.format(outdir="unused"))
    members = [nlslab.cli._sweep_member(cfg, v, i) for i, v in enumerate(cfg.sweep.values)]
    for workers in (1, 2):
        assert nlslab.cli._sweep_stacks(members, workers) == [[m] for m in members]
