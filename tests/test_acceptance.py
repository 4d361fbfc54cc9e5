"""Acceptance gate: one test per criterion, each printed as a PASS/FAIL line.

Heavy artifacts (ground states, CLI runs) are built once per session and
shared.  Criteria 5-7 run through the CLI so criterion 10 can re-execute
the identical configs and byte-compare the CSV outputs.
"""

import json
import os
import time

import numpy as np
import pytest

from nlslab.checks import random_band_limited_field, random_radial_field
from nlslab.cli import main as cli_main
from nlslab.equation import EquationSpec
from nlslab.evolve import EvolveConfig, evolve, glassey_upper_bound
from nlslab.grid import Field, Grid, h1_norm
from nlslab.groundstate import (
    gn_constant_closed_form,
    gn_inequality_oracle,
    hardy_oracle,
    make_bubble,
    solve_ground_state,
)
from nlslab.observables import (
    ObservableRecord,
    interaction_morawetz_l4,
    localized_virial_slack_ladder,
    scattering_cauchy_diagnostic,
    virial_identity_check,
    virial_rhs_forms,
)
from nlslab.weights import (
    BRIDGE_LEFT,
    BRIDGE_RIGHT,
    check_positivity_condition,
    eval_localized_weight,
    verify_bridge,
    zeta_prime,
)

GS_CASES = [(1, 2.0), (1, 4.0), (1, 6.0), (2, 2.0), (3, 2.0)]

CFG_C5_MASS = """\
[equation]
d = 1
c = 1.0
sigma = 0.5
alpha = 2.0
sign = defocusing
[grid]
mode = cartesian
n = 1024
L = 40.0
[initial]
kind = gaussian
amplitude = 1.0
width = 1.0
[evolve]
dt0 = 1e-3
t_end = 10.0
[observables]
stride = 100
[output]
directory = {outdir}
"""

CFG_C5_DT = """\
[equation]
d = 1
c = 1.0
sigma = 0.5
alpha = 2.0
sign = defocusing
[grid]
mode = cartesian
n = 1024
L = 40.0
[initial]
kind = gaussian
amplitude = 1.0
width = 1.0
[evolve]
dt0 = {dt}
t_end = 1.0
[observables]
stride = {stride}
[output]
directory = {outdir}
"""

CFG_C6 = """\
[equation]
d = 1
c = 0.3
sigma = 0.5
alpha = 4.0
sign = focusing
[grid]
mode = cartesian
n = 1024
L = 20.0
[initial]
kind = gaussian
amplitude = 1.0
width = 1.0
center = 4.0
[evolve]
dt0 = 1e-3
t_end = 0.4
[observables]
stride = 10
[output]
directory = {outdir}
"""

CFG_C7B = """\
[equation]
d = 1
c = 0.3
sigma = 0.5
alpha = 4.0
sign = focusing
[grid]
mode = cartesian
n = 4096
L = 8.0
[initial]
kind = gaussian
amplitude = 3.0
width = 0.7071067811865476
[evolve]
dt0 = 1e-3
t_end = 1.0
adaptivity = cfl-nonlinear
blowup_grad_factor = 8.0
blowup_dt_floor = 1e-5
[observables]
stride = 100
[groundstate]
n = 1024
L = 20.0
[output]
directory = {outdir}
"""

CFG_C7C = CFG_C7B + """\
[sweep]
parameter = initial.amplitude
values = 0.5 1.0 1.5 2.0 2.5 3.0
workers = 1
"""


def report(criterion, detail):
    print(f"\n[ACCEPTANCE] criterion {criterion}: PASS - {detail}")


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("# config_hash=")
    header = lines[1].split(",")
    rows = [dict(zip(header, map(float, line.split(",")))) for line in lines[2:]]
    return header, rows


def rows_to_records(rows):
    """ObservableRecords from series.csv rows, keyed by the header; the
    virial_phiR_* columns are dropped."""
    return [ObservableRecord(**{k: v for k, v in row.items()
                                if not k.startswith("virial_phiR_")})
            for row in rows]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def ground_states():
    t0 = time.perf_counter()
    out = {}
    for d, alpha in GS_CASES:
        if d == 1:
            grid = Grid(1, "cartesian", n=1024, L=20.0)
        else:
            grid = Grid(d, "radial", n_r=32768, r_max=20.0)
        out[(d, alpha)] = solve_ground_state(d, alpha, grid)
    out["runtime"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="module")
def run_c5_mass(workdir):
    outdir = os.path.join(workdir, "c5_mass")
    cfg = os.path.join(workdir, "c5_mass.cfg")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(CFG_C5_MASS.format(outdir=outdir))
    t0 = time.perf_counter()
    assert cli_main(["evolve", cfg]) == 0
    return outdir, time.perf_counter() - t0


@pytest.fixture(scope="module")
def run_c5_dtpair(workdir):
    outs = []
    t0 = time.perf_counter()
    for tag, dt, stride in (("c5_dt1", "1e-3", 1000), ("c5_dt2", "5e-4", 2000)):
        outdir = os.path.join(workdir, tag)
        cfg = os.path.join(workdir, f"{tag}.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(CFG_C5_DT.format(outdir=outdir, dt=dt, stride=stride))
        assert cli_main(["evolve", cfg]) == 0
        outs.append(outdir)
    return outs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def run_c6(workdir):
    outdir = os.path.join(workdir, "c6")
    cfg = os.path.join(workdir, "c6.cfg")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(CFG_C6.format(outdir=outdir))
    t0 = time.perf_counter()
    assert cli_main(["evolve", cfg]) == 0
    return outdir, time.perf_counter() - t0


@pytest.fixture(scope="module")
def run_c7b(workdir):
    outdir = os.path.join(workdir, "c7b")
    cfg = os.path.join(workdir, "c7b.cfg")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(CFG_C7B.format(outdir=outdir))
    t0 = time.perf_counter()
    assert cli_main(["evolve", cfg]) == 0
    return outdir, time.perf_counter() - t0


@pytest.fixture(scope="module")
def run_c7c(workdir):
    outdir = os.path.join(workdir, "c7c")
    cfg = os.path.join(workdir, "c7c.cfg")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(CFG_C7C.format(outdir=outdir))
    t0 = time.perf_counter()
    assert cli_main(["sweep", cfg]) == 0
    return outdir, time.perf_counter() - t0


@pytest.fixture(scope="module")
def run_c9():
    spec = EquationSpec(d=3, c=1.0, sigma=1.0, alpha=2.0, sign="defocusing")
    grid = Grid(3, "radial", n_r=3072, r_max=96.0)
    profile = np.exp(-grid.r**2 / 8.0)
    amp = 1e-2 / h1_norm(Field(grid, profile.astype(complex)))
    u0 = Field(grid, (amp * profile).astype(complex))
    checkpoints = []
    cfg = EvolveConfig(dt0=2e-3, t_end=20.0, record_stride=100,
                       checkpoint_stride=1000)
    t0 = time.perf_counter()
    outcome = evolve(u0, spec, cfg, checkpoint_cb=checkpoints.append)
    increments = scattering_cauchy_diagnostic(checkpoints, spec, dt=2e-3)
    return {
        "spec": spec,
        "outcome": outcome,
        "increments": increments,
        "runtime": time.perf_counter() - t0,
    }


def test_criterion_01_ground_state_oracle(ground_states):
    gs = ground_states[(1, 2.0)]
    exact = np.sqrt(2.0) / np.cosh(gs.field.grid.axis)
    profile_err = float(np.max(np.abs(gs.field.values.real - exact)))
    assert profile_err <= 1e-6
    worst = 0.0
    for case in GS_CASES:
        e1, e2 = ground_states[case].pohozaev_errors()
        assert e1 <= 1e-6 and e2 <= 1e-6
        worst = max(worst, e1, e2)
    runtime = ground_states["runtime"]
    assert runtime < 10.0
    report(1, f"sech profile err {profile_err:.2e}, worst Pohozaev {worst:.2e}, "
              f"runtime {runtime:.1f}s")


def test_criterion_02_sharp_constant_consistency(ground_states):
    worst_cross = 0.0
    worst_sat = 0.0
    for case in GS_CASES:
        gs = ground_states[case]
        cross = abs(gn_constant_closed_form(gs) - gs.gn_constant) / gs.gn_constant
        assert cross <= 1e-6
        worst_cross = max(worst_cross, cross)
        sat = gn_inequality_oracle(gs.field, gs)
        rel = abs(sat["lhs"] - sat["rhs"]) / sat["rhs"]
        assert rel <= 1e-6
        worst_sat = max(worst_sat, rel)
    grid = ground_states[(1, 2.0)].field.grid
    gs = ground_states[(1, 2.0)]
    violations = 0
    for seed in range(1000):
        f = random_band_limited_field(grid, seed, amplitude=1.5)
        if not gn_inequality_oracle(f, gs)["holds"]:
            violations += 1
    assert violations == 0
    report(2, f"closed-form agreement {worst_cross:.2e}, saturation {worst_sat:.2e}, "
              f"0/1000 GN violations")


def test_criterion_03_bubble_identities():
    t0 = time.perf_counter()
    results = {}
    for r_max, n_r in ((64.0, 8192), (128.0, 16384)):
        b = make_bubble(Grid(3, "radial", n_r=n_r, r_max=r_max))
        est = b.kinetic_truncation + b.critical_truncation
        assert abs(b.kinetic - b.critical_norm) <= est
        assert abs(b.energy - b.kinetic / 3.0) <= est
        results[r_max] = est
    shrink = results[64.0] / results[128.0]
    assert shrink >= 4.0
    runtime = time.perf_counter() - t0
    assert runtime < 5.0
    report(3, f"identities within estimates, estimate shrink {shrink:.1f}x, "
              f"runtime {runtime:.1f}s")


def test_criterion_04_hardy_oracle():
    fine = Grid(3, "radial", n_r=16384, r_max=12.0)
    f = Field(fine, np.exp(-fine.r**2 / 2.0).astype(complex))
    out = hardy_oracle(f)
    assert out["lhs"] == pytest.approx(0.25 * 2.0 * np.pi**1.5, rel=1e-6)
    assert out["rhs"] == pytest.approx(1.5 * np.pi**1.5, rel=1e-6)
    grid = Grid(3, "radial", n_r=4096, r_max=24.0)
    violations = 0
    for seed in range(1000):
        if not hardy_oracle(random_radial_field(grid, seed))["holds"]:
            violations += 1
    assert violations == 0
    report(4, "Gaussian moments to 1e-6, 0/1000 Hardy violations")


def test_criterion_05_conservation_and_order(run_c5_mass, run_c5_dtpair):
    outdir, rt_mass = run_c5_mass
    _, rows = read_csv(os.path.join(outdir, "series.csv"))
    assert len(rows) == 101  # 1e4 steps at stride 100
    m0 = rows[0]["mass"]
    drift = max(abs(r["mass"] / m0 - 1.0) for r in rows)
    assert drift <= 1e-10
    (dir1, dir2), rt_pair = run_c5_dtpair
    drifts = []
    for d in (dir1, dir2):
        _, rows_d = read_csv(os.path.join(d, "series.csv"))
        drifts.append(abs(rows_d[-1]["energy"] - rows_d[0]["energy"]))
    ratio = drifts[0] / drifts[1]
    assert 3.5 <= ratio <= 4.5
    runtime = rt_mass + rt_pair
    assert runtime < 30.0
    report(5, f"mass drift {drift:.2e} over 1e4 steps, dt-halving energy ratio "
              f"{ratio:.2f}, runtime {runtime:.1f}s")


def test_criterion_06_virial_identity(run_c6):
    outdir, runtime = run_c6
    spec = EquationSpec(d=1, c=0.3, sigma=0.5, alpha=4.0, sign="focusing")
    _, rows = read_csv(os.path.join(outdir, "series.csv"))
    records = rows_to_records(rows)
    chk = virial_identity_check(records, spec, tol=1e-3)
    assert chk.passed, f"virial identity rel error {chk.rel_error:.2e}"
    forms_err = 0.0
    for rec in records:
        f1, f2, f3 = virial_rhs_forms(rec, spec)
        scale = max(abs(f1), abs(f2), abs(f3))
        forms_err = max(forms_err, abs(f1 - f2) / scale, abs(f1 - f3) / scale)
    assert forms_err <= 1e-10
    assert runtime < 60.0
    report(6, f"second-difference error {chk.rel_error:.2e} (tol 1e-3), forms "
              f"agree to {forms_err:.1e}, runtime {runtime:.1f}s")


def test_criterion_07_blowup_global_dichotomy(run_c5_mass, run_c7b, run_c7c, run_c9):
    # (a) defocusing runs: no detection, kinetic <= 2 E(u0) + 1e-6
    outdir, _ = run_c5_mass
    _, rows = read_csv(os.path.join(outdir, "series.csv"))
    with open(os.path.join(outdir, "summary.json"), encoding="utf-8") as fh:
        assert json.load(fh)["status"] == "completed"
    e0 = rows[0]["energy"]
    assert all(r["kinetic"] <= 2.0 * e0 + 1e-6 for r in rows)
    out9 = run_c9["outcome"]
    assert out9.status == "completed"
    e0_9 = out9.records[0].energy
    assert all(r.kinetic <= 2.0 * e0_9 + 1e-6 for r in out9.records)

    # (b) negative-energy focusing run: detection inside the Glassey bound
    bdir, rt_b = run_c7b
    with open(os.path.join(bdir, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    _, rows_b = read_csv(os.path.join(bdir, "series.csv"))
    assert rows_b[0]["energy"] < 0.0
    assert summary["status"] == "blowup-detected"
    tstar = summary["tstar_estimate"]
    delta = -16.0 * rows_b[0]["energy"]
    vdot0 = 0.0  # real initial data carries no momentum flux
    bound = glassey_upper_bound(rows_b[0]["virial"], vdot0, delta)
    assert summary["glassey_bound"] == pytest.approx(bound, rel=1e-6)
    assert tstar <= 1.2 * bound

    # (c) amplitude ladder exhibits a completed -> blowup transition bracket
    cdir, rt_c = run_c7c
    with open(os.path.join(cdir, "sweep_table.csv"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    statuses = [line.split(",")[1] for line in lines[2:]]
    assert statuses[0] == "completed"
    assert statuses[-1] == "blowup-detected"
    flips = sum(1 for a, b in zip(statuses, statuses[1:]) if a != b)
    assert flips == 1
    transition = lines[2 + statuses.index("blowup-detected")].split(",")[0]
    # monotonicity diagnostic: detected T* nonincreasing along the ladder
    tstars = [float(line.split(",")[3]) for line in lines[2:]
              if line.split(",")[3]]
    assert all(a >= b for a, b in zip(tstars, tstars[1:]))
    runtime = rt_b + rt_c
    assert runtime < 300.0
    report(7, f"defocusing bounded, T*={tstar:.4f} <= 1.2x{bound:.4f}, "
              f"transition at amplitude {transition}, runtime {runtime:.1f}s")


def test_criterion_08_localized_virial_weights():
    t0 = time.perf_counter()
    verify_bridge()
    dense = np.linspace(1e-6, 3.0, 400001)
    for R in (1.0, 8.0, 64.0):
        radii = dense * R
        for d in (1, 2, 3):
            lw = eval_localized_weight(R, radii, d=d)
            assert np.all(lw.psi1 >= -1e-12)
            assert np.all(lw.psi2 >= -1e-12)
            assert np.all(2.0 - lw.dphi / radii >= -1e-12)
            assert np.all(lw.d2phi <= 2.0 + 1e-12)
        for d in (2, 3):
            lw = eval_localized_weight(R, radii, d=d)
            assert check_positivity_condition(lw, 1e-3, 1.0)
    inner = np.linspace(BRIDGE_LEFT, BRIDGE_RIGHT, 400001)[1:-1]
    assert np.all(zeta_prime(inner) < 0.0)

    # measured localization slack on a d = 2 radial focusing run
    spec = EquationSpec(d=2, c=0.05, sigma=0.5, alpha=2.0, sign="focusing")
    grid = Grid(2, "radial", n_r=4096, r_max=96.0)
    profile = 0.6 * (1.0 + grid.r**2) ** -1.0
    ramp = np.clip((grid.r - 70.0) / 20.0, 0.0, 1.0)
    profile = profile * np.cos(0.5 * np.pi * ramp) ** 2
    u0 = Field(grid, profile * np.exp(2j * np.sqrt(4.0 + grid.r**2)))
    cfg = EvolveConfig(dt0=2e-3, t_end=0.4, record_stride=10,
                       phi_r_list=(8.0, 16.0, 32.0))
    outcome = evolve(u0, spec, cfg)
    assert outcome.status == "completed"
    slacks, factors = localized_virial_slack_ladder(outcome, spec, (8.0, 16.0, 32.0))
    for f in factors:
        assert 2.0 <= f <= 8.0
    runtime = time.perf_counter() - t0
    assert runtime < 120.0
    report(8, f"weight inequalities on dense samples, slack per-doubling factors "
              f"{[f'{f:.2f}' for f in factors]}, runtime {runtime:.1f}s")


def test_criterion_09_scattering_surrogate(run_c9):
    incs = run_c9["increments"]
    out = run_c9["outcome"]
    assert out.max_boundary_mass_fraction <= 0.01
    assert all(a > b for a, b in zip(incs, incs[1:]))
    decay = incs[0] / incs[-1]
    assert decay >= 10.0
    rows = interaction_morawetz_l4(out.records, run_c9["spec"], (5.0, 10.0, 20.0))
    ratios = [r["ratio"] for r in rows]
    increments = [r["increment"] for r in rows]
    assert all(np.isfinite(ratios))
    assert ratios[1] <= ratios[0] * (1.0 + 1e-6)
    assert ratios[2] <= ratios[1] * (1.0 + 1e-6)
    assert increments[0] > increments[1] > increments[2] > 0.0
    runtime = run_c9["runtime"]
    assert runtime < 600.0
    report(9, f"Cauchy increments decay {decay:.0f}x monotonically, shell mass "
              f"{out.max_boundary_mass_fraction:.2%}, L4 ratios {ratios[0]:.3e} -> "
              f"{ratios[2]:.3e} nonincreasing, runtime {runtime:.1f}s")


def test_criterion_10_determinism(workdir, run_c5_mass, run_c5_dtpair, run_c6,
                                  run_c7b, run_c7c):
    # re-execute the identical configs into the same directories and demand
    # byte-identical CSV artifacts (hash line included)
    jobs = [
        ("c5_mass", "evolve", run_c5_mass[0], ["series.csv"]),
        ("c5_dt1", "evolve", run_c5_dtpair[0][0], ["series.csv"]),
        ("c5_dt2", "evolve", run_c5_dtpair[0][1], ["series.csv"]),
        ("c6", "evolve", run_c6[0], ["series.csv"]),
        ("c7b", "evolve", run_c7b[0], ["series.csv"]),
        ("c7c", "sweep", run_c7c[0],
         ["sweep_table.csv"] + [f"run_{i:03d}/series.csv" for i in range(6)]),
    ]
    compared = 0
    for name, command, outdir, csvs in jobs:
        before = {}
        for rel in csvs:
            with open(os.path.join(outdir, rel), "rb") as fh:
                before[rel] = fh.read()
        assert cli_main([command, os.path.join(workdir, f"{name}.cfg")]) == 0
        for rel in csvs:
            with open(os.path.join(outdir, rel), "rb") as fh:
                assert fh.read() == before[rel], f"{name}/{rel} changed on repeat"
            compared += 1
    report(10, f"{compared} CSV artifacts bit-identical across repeated runs")
