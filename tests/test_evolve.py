import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_banded

from nlslab.checks import random_band_limited_field
from nlslab.equation import EquationSpec
from nlslab.evolve import (
    EvolveConfig,
    Member,
    SplitStepper,
    _cfl_dt,
    evolve,
    evolve_linear,
    glassey_upper_bound,
)
from nlslab.grid import (
    Field,
    Grid,
    InvalidFieldError,
    gradient_norm_sq,
    h1_norm,
    mass,
)
from nlslab import observables
from nlslab.observables import scattering_cauchy_diagnostic

from helpers import random_radial_field, strang_step


def free_spec(d=1, sign="defocusing"):
    # c ~ 0: keeps the linear flow an exact free propagator on Cartesian grids
    return EquationSpec(d=d, c=0.0, sigma=0.5, alpha=2.0, sign=sign)


def test_free_gaussian_closed_form():
    g = Grid(1, "cartesian", n=512, L=20.0)
    u0 = Field(g, np.exp(-g.axis**2 / 2.0).astype(complex))
    t = 0.5
    got = evolve_linear(u0, free_spec(), t, dt=t)  # one exact step suffices
    z = 1.0 + 2j * t
    exact = np.exp(-g.axis**2 / (2.0 * z)) / np.sqrt(z)
    assert np.max(np.abs(got.values - exact)) <= 1e-10


def test_soliton_modulus_stationary():
    # u(t, x) = e^{it} sqrt(2) sech(x) solves the potential-free cubic NLS
    spec = EquationSpec(d=1, c=0.0, sigma=0.5, alpha=2.0, sign="focusing")
    g = Grid(1, "cartesian", n=512, L=16.0)
    sech = np.sqrt(2.0) / np.cosh(g.axis)
    stepper = SplitStepper(g, spec)
    u = sech.astype(complex)
    for _ in range(5000):
        u = stepper.step(u, 1e-3)
    assert np.max(np.abs(np.abs(stepper.settle(u)) - sech)) <= 1e-4


def test_mass_conserved_each_step():
    spec = EquationSpec(d=1, c=1.0, sigma=0.5, alpha=2.0, sign="defocusing")
    g = Grid(1, "cartesian", n=512, L=15.0)
    f = Field(g, np.exp(-g.axis**2 / 2.0).astype(complex))
    m0 = mass(f)
    stepper = SplitStepper(g, spec)
    for _ in range(1000):
        f = Field(g, stepper.settle(stepper.step(f.values, 1e-3)))
    assert abs(mass(f) / m0 - 1.0) <= 1e-12


def test_time_reversibility():
    # five steps of dt, then five of -dt, settled at both turns, return to
    # f0 on either grid kind
    spec = EquationSpec(d=1, c=0.5, sigma=0.5, alpha=3.0, sign="focusing")
    fields = [random_band_limited_field(Grid(1, "cartesian", n=256, L=10.0), 3),
              random_radial_field(Grid(1, "radial", n_r=256, r_max=10.0), 3)]
    for f0 in fields:
        g = f0.grid
        stepper = SplitStepper(g, spec)
        u = f0.values
        for dt in (2e-3, -2e-3):
            for _ in range(5):
                u = stepper.step(u, dt)
            u = stepper.settle(u)
        err = np.sqrt(g.integrate(np.abs(u - f0.values) ** 2)
                      / g.integrate(np.abs(f0.values) ** 2))
        assert err <= 1e-10


def test_linear_energy_drift_second_order():
    # quadratic-form drift of the linear flow shrinks ~4x when dt halves
    spec = EquationSpec(d=1, c=1.0, sigma=0.5, alpha=2.0, sign="defocusing")
    g = Grid(1, "cartesian", n=512, L=20.0)
    u0 = Field(g, np.exp(-g.axis**2 / 2.0).astype(complex))
    r = g.radius()

    def quad_form(f):
        return 0.5 * gradient_norm_sq(f) + 0.5 * g.integrate(
            r ** (-0.5) * np.abs(f.values) ** 2
        )

    e0 = quad_form(u0)
    drifts = []
    for dt in (1e-3, 5e-4):
        drifts.append(abs(quad_form(evolve_linear(u0, spec, 1.0, dt)) - e0))
    assert 3.0 <= drifts[0] / drifts[1] <= 5.0


def test_linear_mass_conservation_radial():
    spec = EquationSpec(d=3, c=1.0, sigma=1.0, alpha=2.0, sign="defocusing")
    g = Grid(3, "radial", n_r=1024, r_max=24.0)
    u0 = Field(g, np.exp(-g.r**2 / 2.0).astype(complex))
    out = evolve_linear(u0, spec, 1.0, 1e-3)
    assert abs(mass(out) / mass(u0) - 1.0) <= 1e-12


def test_radial_free_gaussian_vs_closed_form():
    spec = EquationSpec(d=3, c=0.0, sigma=1.0, alpha=2.0, sign="defocusing")
    g = Grid(3, "radial", n_r=2048, r_max=24.0)
    u0 = Field(g, np.exp(-g.r**2 / 2.0).astype(complex))
    t = 0.5
    got = evolve_linear(u0, spec, t, dt=5e-4)
    z = 1.0 + 2j * t
    exact = np.exp(-g.r**2 / (2.0 * z)) / z**1.5
    assert np.max(np.abs(got.values - exact)) <= 2e-4


def test_linear_pullback_inverts():
    spec = EquationSpec(d=3, c=1.0, sigma=1.0, alpha=2.0, sign="defocusing")
    g = Grid(3, "radial", n_r=512, r_max=16.0)
    u0 = Field(g, np.exp(-g.r**2).astype(complex))
    fwd = evolve_linear(u0, spec, 0.5, 1e-3)
    back = evolve_linear(fwd, spec, -0.5, 1e-3)
    assert np.max(np.abs(back.values - u0.values)) <= 1e-10
    # the first phase half rotates a copy of the caller's field
    assert np.array_equal(u0.values, np.exp(-g.r**2))


def c9_problem():
    # the scattering acceptance config: d=3 radial, n_r=3072, r_max=96
    spec = EquationSpec(d=3, c=1.0, sigma=1.0, alpha=2.0, sign="defocusing")
    g = Grid(3, "radial", n_r=3072, r_max=96.0)
    profile = np.exp(-g.r**2 / 8.0).astype(complex)
    u0 = Field(g, 1e-2 / h1_norm(Field(g, profile)) * profile)
    return spec, g, u0


def test_cayley_half_step_matches_two_sided_solve():
    _, g, _ = c9_problem()
    u = random_radial_field(g, 7).values
    dt = 4e-3
    z = 0.25j * dt  # half-step tau = dt/2, z = i tau/2
    bands = g.stencil()
    ab = np.zeros((3, g.n_r), dtype=complex)
    ab[0, 1:] = -z * bands.upper
    ab[1, :] = 1.0 - z * bands.diag
    ab[2, :-1] = -z * bands.lower
    ref = solve_banded((1, 1), ab, u + z * g.laplacian(u))
    got = g.free_propagator(0.5 * dt)(u)
    assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize("nonlinear", [True, False])
def test_operator_cache_keyed_by_step(nonlinear):
    # an adaptive run halves dt and returns: the cached operators must give
    # exactly what operators built afresh for every step give
    spec, g, u0 = c9_problem()
    cached, fresh = SplitStepper(g, spec), SplitStepper(g, spec)
    fresh._free = g.free_propagator
    u_cached = u_fresh = u0.values
    for dt in (4e-3, 2e-3, 4e-3, 4e-3):
        u_cached = cached.step(u_cached, dt, nonlinear=nonlinear)
        u_fresh = fresh.step(u_fresh, dt, nonlinear=nonlinear)
        assert np.array_equal(u_cached, u_fresh)
    assert np.array_equal(cached.settle(u_cached), fresh.settle(u_fresh))


def test_linear_pullback_cancels_forward_flow_c9():
    # the Cauchy increments rely on the backward sweep undoing the forward
    # linear integrator: checkpoints of the linear flow pull back to u0
    spec, g, u0 = c9_problem()
    checkpoints = [evolve_linear(u0, spec, t, 4e-3) for t in (0.4, 0.8, 1.2)]
    increments = scattering_cauchy_diagnostic(checkpoints, spec, 4e-3)
    assert max(increments) <= 1e-12


def test_radial_nonlinear_mass_drift():
    spec, g, u0 = c9_problem()
    stepper = SplitStepper(g, spec)
    u = u0.values
    for _ in range(1000):
        u = stepper.step(u, 4e-3)
    assert abs(mass(Field(g, stepper.settle(u))) / mass(u0) - 1.0) <= 1e-12


def test_zero_initial_data():
    spec = EquationSpec(d=1, c=1.0, sigma=0.5, alpha=2.0, sign="focusing")
    g = Grid(1, "cartesian", n=64, L=5.0)
    out = evolve(Field(g, np.zeros(g.shape, complex)),
                 spec, EvolveConfig(dt0=1e-2, t_end=0.1))
    assert out.status == "completed"
    assert all(r.mass == 0.0 and r.energy == 0.0 for r in out.records)


def test_defocusing_run_completes_with_kinetic_bound():
    spec = EquationSpec(d=1, c=1.0, sigma=0.5, alpha=2.0, sign="defocusing")
    g = Grid(1, "cartesian", n=512, L=20.0)
    u0 = Field(g, np.exp(-g.axis**2 / 2.0).astype(complex))
    out = evolve(u0, spec, EvolveConfig(dt0=1e-3, t_end=1.0, record_stride=100))
    assert out.status == "completed"
    assert out.tstar_estimate is None
    e0 = out.records[0].energy
    assert all(r.kinetic <= 2.0 * e0 + 1e-6 for r in out.records)


def test_blowup_detection_and_glassey_bound():
    spec = EquationSpec(d=1, c=0.3, sigma=0.5, alpha=4.0, sign="focusing")
    g = Grid(1, "cartesian", n=2048, L=8.0)
    u0 = Field(g, (3.0 * np.exp(-g.axis**2)).astype(complex))
    cfg = EvolveConfig(
        dt0=1e-3,
        t_end=1.0,
        adaptivity="cfl-nonlinear",
        blowup_grad_factor=8.0,
        blowup_dt_floor=1e-5,
        record_stride=100,
    )
    out = evolve(u0, spec, cfg)
    assert out.records[0].energy < 0.0
    assert out.status == "blowup-detected"
    assert out.tstar_estimate is not None and out.tstar_estimate > 0.0
    assert out.glassey_bound is not None
    assert out.tstar_estimate <= 1.2 * out.glassey_bound
    # detection precedes the first stride-100 record: the state at
    # detection is still recorded
    assert len(out.records) == 2
    assert out.records[-1].t == out.tstar_estimate


def test_adaptive_dt_subdivides_dt0():
    spec = EquationSpec(d=1, c=0.0, sigma=0.5, alpha=2.0, sign="focusing")
    g = Grid(1, "cartesian", n=128, L=8.0)
    u0 = Field(g, (2.0 * np.exp(-g.axis**2)).astype(complex))
    cfg = EvolveConfig(dt0=1e-2, t_end=0.05, adaptivity="cfl-nonlinear",
                       record_stride=1)
    out = evolve(u0, spec, cfg)
    dts = np.diff([r.t for r in out.records])
    # sup|u| = 2: cfl dt = 0.1/4 = 0.025 > dt0 except quantized subdivisions
    assert np.all(dts <= 1e-2 + 1e-12)


def test_adaptive_dt_below_the_floor_without_growth_is_clamped():
    # defocusing amplitude 30: the CFL dt 0.1 / 900 is under the floor from
    # the first step, but the gradient never grows, so the run completes
    spec = EquationSpec(d=1, c=1.0, sigma=0.5, alpha=2.0, sign="defocusing")
    g = Grid(1, "cartesian", n=256, L=12.0)
    u0 = Field(g, (30.0 * np.exp(-g.axis**2 / 2.0)).astype(complex))
    cfg = EvolveConfig(dt0=1e-3, t_end=1e-3, adaptivity="cfl-nonlinear",
                       blowup_dt_floor=5e-4, record_stride=1)
    out = evolve(u0, spec, cfg)
    assert out.status == "completed"
    assert [w.endswith("without gradient growth; clamped") for w in out.warnings] == [True]
    assert [r.t for r in out.records] == pytest.approx([0.0, 5e-4, 1e-3], abs=1e-15)


def test_tstar_past_the_glassey_bound_warns():
    # the amplitude-3 run of test_blowup_tstar_monotone_in_amplitude, given
    # a margin so large that its Glassey bound falls far below T*
    spec = EquationSpec(d=1, c=0.3, sigma=0.5, alpha=4.0, sign="focusing")
    g = Grid(1, "cartesian", n=2048, L=8.0)
    u0 = Field(g, (3.0 * np.exp(-g.axis**2)).astype(complex))
    cfg = EvolveConfig(dt0=1e-3, t_end=1.0, adaptivity="cfl-nonlinear",
                       blowup_grad_factor=8.0, blowup_dt_floor=1e-5, record_stride=100)
    [out] = evolve([Member(u0, glassey_delta=1e6)], spec, cfg)
    assert out.status == "blowup-detected"
    assert out.tstar_estimate > 1.2 * out.glassey_bound
    assert (f"Tstar estimate {out.tstar_estimate:.6g} exceeds the Glassey bound "
            f"{out.glassey_bound:.6g} by >20%") in out.warnings


def test_overflowing_data_rejected_not_propagated():
    # data whose observables overflow violates the entry contract loudly
    spec = EquationSpec(d=1, c=0.0, sigma=0.5, alpha=4.0, sign="focusing")
    g = Grid(1, "cartesian", n=64, L=5.0)
    u0 = Field(g, (1e160 * np.exp(-g.axis**2)).astype(complex))
    with pytest.raises(InvalidFieldError):
        evolve(u0, spec, EvolveConfig(dt0=1e-3, t_end=0.01, record_stride=1))


def test_invalid_status_keeps_last_good_field():
    spec = EquationSpec(d=1, c=0.0, sigma=0.5, alpha=2.0, sign="focusing")
    g = Grid(1, "cartesian", n=64, L=5.0)
    u0 = Field(g, np.exp(-g.axis**2).astype(complex))
    cfg = EvolveConfig(dt0=1e-3, t_end=1.0, record_stride=2, max_steps=7)
    out = evolve(u0, spec, cfg)
    assert out.status == "invalid"
    assert out.warnings and "max_steps" in out.warnings[0]
    assert out.final_field is not None and out.final_field.is_finite()


def test_max_steps_stop_settles_nothing(monkeypatch):
    # records at steps 2, 4 and 6 settle; the stop at step 7 keeps the
    # record of step 6, so it leaves its owed half unsettled
    spec = EquationSpec(d=1, c=0.0, sigma=0.5, alpha=2.0, sign="focusing")
    g = Grid(1, "cartesian", n=64, L=5.0)
    u0 = Field(g, np.exp(-g.axis**2).astype(complex))
    n_settles, settle = 0, SplitStepper.settle

    def counted_settle(self, u):
        nonlocal n_settles
        n_settles += self._owed is not None
        return settle(self, u)

    monkeypatch.setattr(SplitStepper, "settle", counted_settle)
    out = evolve(u0, spec, EvolveConfig(dt0=1e-3, t_end=1.0, record_stride=2, max_steps=7))
    assert out.status == "invalid" and n_settles == 3
    assert out.final_field.time == out.records[-1].t == 0.006


_OUTCOME_ATTRIBUTES = {"status", "t_reached", "tstar_estimate", "glassey_bound", "records",
                       "final_field", "warnings", "max_boundary_mass_fraction"}


def test_completed_outcome_is_the_trajectory_with_one_field():
    spec = EquationSpec(d=1, c=1.0, sigma=0.5, alpha=2.0, sign="defocusing")
    g = Grid(1, "cartesian", n=64, L=8.0)
    u0 = Field(g, np.exp(-g.axis**2).astype(complex))
    checkpoints = []
    out = evolve(u0, spec, EvolveConfig(dt0=1e-2, t_end=0.1, checkpoint_stride=5),
                 checkpoint_cb=checkpoints.append)
    assert out.status == "completed" and len(checkpoints) == 2
    assert {name for name in dir(out) if not name.startswith("_")} == _OUTCOME_ATTRIBUTES
    held = [name for name, value in vars(out).items()
            if isinstance(value, (Field, np.ndarray)) or callable(value)]
    assert held == ["final_field"]


@pytest.mark.parametrize("adaptivity", ["fixed", "cfl-nonlinear"])
def test_max_steps_equal_to_the_step_count_completes(adaptivity):
    # dt0 = 1e-2 reaches t_end = 0.1 in exactly 10 steps; max|u| = 1 keeps
    # the adaptive dt at dt0
    spec = EquationSpec(d=1, c=1.0, sigma=0.5, alpha=2.0, sign="defocusing")
    g = Grid(1, "cartesian", n=64, L=8.0)
    u0 = Field(g, np.exp(-g.axis**2).astype(complex))
    for max_steps, status in ((10, "completed"), (9, "invalid")):
        cfg = EvolveConfig(dt0=1e-2, t_end=0.1, adaptivity=adaptivity,
                           max_steps=max_steps)
        out = evolve(u0, spec, cfg)
        assert out.status == status, max_steps
        assert bool(out.warnings) == (status == "invalid")
    assert out.t_reached == pytest.approx(0.09, rel=1e-12)


def test_grid_refinement_consistency():
    # data away from the potential cusp: doubling n must leave E(u(t))
    # unchanged at spectral accuracy
    spec = EquationSpec(d=1, c=1.0, sigma=0.5, alpha=2.0, sign="defocusing")
    energies = []
    for n in (512, 1024):
        g = Grid(1, "cartesian", n=n, L=15.0)
        u0 = Field(g, np.exp(-((g.axis - 4.0) ** 2) / 2.0).astype(complex))
        out = evolve(u0, spec, EvolveConfig(dt0=1e-3, t_end=0.5, record_stride=500))
        energies.append(out.records[-1].energy)
    assert abs(energies[1] - energies[0]) <= 1e-6 * abs(energies[0])


def test_glassey_upper_bound_examples():
    assert glassey_upper_bound(1.0, 0.0, 2.0) == pytest.approx(1.0)
    assert glassey_upper_bound(1.0, -1.0, 2.0) == pytest.approx(
        (np.sqrt(5.0) - 1.0) / 2.0
    )
    assert glassey_upper_bound(4.0, 2.0, 1.0) == pytest.approx(2.0 + 2.0 * np.sqrt(3.0))
    with pytest.raises(ValueError):
        glassey_upper_bound(-1.0, 0.0, 1.0)


def test_evolve_rejects_a_non_finite_initial_field():
    spec = EquationSpec(d=1, c=0.0, sigma=0.5, alpha=2.0, sign="focusing")
    g = Grid(1, "cartesian", n=64, L=5.0)
    bad = np.ones(g.shape, complex)
    bad[0] = np.inf
    with pytest.raises(InvalidFieldError):
        evolve(Field(g, bad), spec, EvolveConfig(t_end=1e-2))


def per_step_run(u0, spec, dt, n_steps, record_stride, checkpoint_stride):
    """Reference for evolve: textbook Strang steps one by one."""
    u, records, checkpoints = u0.values, {0: u0.values}, {}
    with np.errstate(all="ignore"):
        for step in range(1, n_steps + 1):
            u = strang_step(u0.grid, spec, u, dt)
            if not np.all(np.isfinite(u)):
                return records, checkpoints, step
            if step % record_stride == 0 or step == n_steps:
                records[step] = u
            if step % checkpoint_stride == 0 or step == n_steps:
                checkpoints[step] = u
    return records, checkpoints, None


def adaptive_per_step_run(u0, spec, cfg):
    """Reference for an adaptive evolve that neither blows up nor meets the
    dt floor: textbook Strang steps one by one under evolve's CFL rule."""
    u, t, times, fields = u0.values, 0.0, [0.0], [u0.values]
    while t < cfg.t_end * (1.0 - 1e-12):
        dt = cfg.dt0
        raw = cfg.cfl_constant / np.max(np.abs(u)) ** spec.alpha
        if raw < dt:
            dt = cfg.dt0 * 2.0 ** (-np.ceil(np.log2(cfg.dt0 / raw)))
        dt = min(dt, cfg.t_end - t)
        u = strang_step(u0.grid, spec, u, dt)
        t += dt
        times.append(t)
        fields.append(u)
    return times, fields


def rel_err(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def cartesian_problem(d, n):
    spec = EquationSpec(d=d, c=1.0, sigma=0.5, alpha=2.0, sign="defocusing")
    g = Grid(d, "cartesian", n=n, L=8.0)
    return spec, g, random_band_limited_field(g, 11)


@pytest.mark.parametrize("problem, dt, n_steps", [
    pytest.param(lambda: cartesian_problem(1, 256), 1e-3, 53, id="1-256"),
    pytest.param(lambda: cartesian_problem(2, 64), 1e-3, 53, id="2-64"),
    pytest.param(c9_problem, 4e-3, 23, id="radial-c9"),
])
def test_merged_half_steps_match_per_step_loop(problem, dt, n_steps):
    # reads at strides 7 and 5 split the run into merged stretches of 1-5
    # steps: free halves merge on Cartesian grids, phase halves on radial ones
    spec, g, u0 = problem()
    checkpoints = []
    out = evolve(u0, spec, EvolveConfig(dt0=dt, t_end=n_steps * dt, record_stride=7,
                                        checkpoint_stride=5),
                 checkpoint_cb=checkpoints.append)
    ref_records, ref_checkpoints, _ = per_step_run(u0, spec, dt, n_steps, 7, 5)
    assert out.status == "completed"
    assert [r.t for r in out.records] == [k * dt for k in ref_records]
    for rec, u in zip(out.records, ref_records.values()):
        want = observables.record(Field(g, u, rec.t), spec)
        for name in ("mass", "energy", "kinetic", "virial", "linfty"):
            assert getattr(rec, name) == pytest.approx(getattr(want, name), rel=1e-12)
    assert [f.time for f in checkpoints] == [k * dt for k in ref_checkpoints]
    for f, u in zip(checkpoints, ref_checkpoints.values()):
        assert rel_err(f.values, u) <= 1e-12
    assert rel_err(out.final_field.values, ref_records[n_steps]) <= 1e-12


def test_merged_radial_steps_of_both_flows_match_per_step_loop():
    # a phase half owed by a nonlinear step is settled before a linear step
    spec, g, u0 = c9_problem()
    stepper = SplitStepper(g, spec)
    u, ref = u0.values, u0.values
    for nonlinear in (True, True, False, False, True):
        u = stepper.step(u, 4e-3, nonlinear=nonlinear)
        ref = strang_step(g, spec, ref, 4e-3, nonlinear=nonlinear)
    assert rel_err(stepper.settle(u), ref) <= 1e-12


@pytest.mark.parametrize("g", [Grid(1, "cartesian", n=256, L=20.0),
                               Grid(1, "radial", n_r=256, r_max=20.0)],
                         ids=["cartesian", "radial"])
def test_overflow_inside_merged_stretch_stops_at_the_same_step(g):
    # below |u| = 1 the power 1e5 leaves the flow free; a chirped Gaussian
    # focuses past |u| = e^(709.8/alpha) = 1.0071 at step 9, and |u|^alpha
    # overflows there, after the record at step 5 and inside merged steps
    # 6-9; on the radial grid the overflow is in the phase half step 9 owes
    spec = EquationSpec(d=1, c=0.0, sigma=0.5, alpha=1e5, sign="defocusing")
    z = 1.0 - 2.0j
    u0 = Field(g, 1.25 * np.exp(-g.coords(0)**2 / (2.0 * z)) / np.sqrt(z))
    dt = 0.05
    out = evolve(u0, spec, EvolveConfig(dt0=dt, t_end=1.0, record_stride=5))
    ref_records, _, bad_step = per_step_run(u0, spec, dt, 20, 5, 20)
    assert bad_step == 9
    assert out.status == "invalid"
    assert out.t_reached == bad_step * dt
    assert out.warnings == [f"non-finite field after step 9 (t={bad_step * dt:.6g})"]
    assert [r.t for r in out.records] == [0.0, 5 * dt]
    assert out.final_field.time == 5 * dt
    assert rel_err(out.final_field.values, ref_records[5]) <= 1e-12


@pytest.mark.parametrize("g", [Grid(1, "cartesian", n=256, L=20.0),
                               Grid(1, "radial", n_r=256, r_max=20.0)],
                         ids=["cartesian", "radial"])
def test_finite_rows_are_the_rows_a_rescan_finds_finite(g):
    # the chirped Gaussian above at amplitude 1 overflows |u|^alpha at step 9,
    # at amplitude 0.5 never; each merged step's flags are its output's rows
    spec = EquationSpec(d=1, c=0.0, sigma=0.5, alpha=1e5, sign="defocusing")
    z = 1.0 - 2.0j
    chirped = 1.25 * np.exp(-g.coords(0)**2 / (2.0 * z)) / np.sqrt(z)
    stepper = SplitStepper(g, spec)
    u, seen = np.stack([chirped, 0.5 * chirped]), []
    with np.errstate(all="ignore"):
        for _ in range(12):
            u = stepper.step(u, 0.05)
            rescan = np.isfinite(u.view(np.float64)).reshape(2, -1).all(axis=1)
            assert stepper.finite_rows.tolist() == rescan.tolist()
            seen.append(rescan.tolist())
    assert seen == [[True, True]] * 8 + [[False, True]] * 4


def test_radial_member_overflowing_in_a_stack_stops_at_its_solo_step():
    # the radial stack of the overflowing and the quiet chirped Gaussian:
    # the first stops at step 9 as its solo run does, the second completes,
    # each with its solo run's records and final field
    spec = EquationSpec(d=1, c=0.0, sigma=0.5, alpha=1e5, sign="defocusing")
    g = Grid(1, "radial", n_r=256, r_max=20.0)
    z = 1.0 - 2.0j
    chirped = 1.25 * np.exp(-g.r**2 / (2.0 * z)) / np.sqrt(z)
    fields = [Field(g, chirped), Field(g, 0.5 * chirped)]
    cfg = EvolveConfig(dt0=0.05, t_end=1.0, record_stride=5)
    stacked = evolve([Member(f) for f in fields], spec, cfg)
    assert [m.status for m in stacked] == ["invalid", "completed"]
    assert stacked[0].warnings == ["non-finite field after step 9 (t=0.45)"]
    for f, member in zip(fields, stacked):
        solo = evolve(f, spec, cfg)
        assert (member.status, member.t_reached) == (solo.status, solo.t_reached)
        assert member.warnings == solo.warnings and member.records == solo.records
        assert member.final_field.values.tobytes() == solo.final_field.values.tobytes()


def test_cartesian_linear_flow_forward_then_back():
    spec = EquationSpec(d=2, c=1.0, sigma=0.5, alpha=2.0, sign="defocusing")
    g = Grid(2, "cartesian", n=64, L=8.0)
    u0 = random_band_limited_field(g, 5)
    back = evolve_linear(evolve_linear(u0, spec, 0.5, 1e-3), spec, -0.5, 1e-3)
    assert np.max(np.abs(back.values - u0.values)) <= 1e-12 * np.max(np.abs(u0.values))


def test_stack_needs_one_grid_and_a_fixed_dt():
    spec = free_spec()
    g = Grid(1, "cartesian", n=64, L=5.0)
    u0 = Field(g, np.exp(-g.axis**2).astype(complex))
    other = Field(Grid(1, "cartesian", n=64, L=6.0), u0.values)
    with pytest.raises(ValueError, match="one grid"):
        evolve([Member(u0), Member(other)], spec, EvolveConfig(dt0=1e-3, t_end=0.01))
    with pytest.raises(ValueError, match="adaptive"):
        evolve([Member(u0), Member(u0)], spec,
               EvolveConfig(dt0=1e-3, t_end=0.01, adaptivity="cfl-nonlinear"))
    solo = evolve(u0, spec, EvolveConfig(dt0=1e-3, t_end=0.01, record_stride=3))
    [stacked] = evolve([Member(u0)], spec,
                       EvolveConfig(dt0=1e-3, t_end=0.01, record_stride=3))
    assert stacked.records == solo.records
    assert stacked.final_field.values.tobytes() == solo.final_field.values.tobytes()


def _adaptive_run_matches_per_step_loop(monkeypatch, record_stride):
    # sup|u| falls as the data disperses, so the CFL dt doubles twice and
    # the merged run carries its spectrum across each change of dt
    spec = EquationSpec(d=1, c=1.0, sigma=0.5, alpha=2.0, sign="defocusing")
    g = Grid(1, "cartesian", n=256, L=10.0)
    u0 = Field(g, (3.0 * np.exp(-g.axis**2 / 2.0)).astype(complex))
    cfg = EvolveConfig(dt0=0.05, t_end=0.5, adaptivity="cfl-nonlinear",
                       record_stride=record_stride)
    n_steps = n_settles = 0
    step, settle = SplitStepper.step, SplitStepper.settle

    def counted_step(self, *args, **kwargs):
        nonlocal n_steps
        n_steps += 1
        return step(self, *args, **kwargs)

    def counted_settle(self, u):
        nonlocal n_settles
        n_settles += self._owed is not None
        return settle(self, u)

    with monkeypatch.context() as patch:
        patch.setattr(SplitStepper, "step", counted_step)
        patch.setattr(SplitStepper, "settle", counted_settle)
        out = evolve(u0, spec, cfg)
    times, fields = adaptive_per_step_run(u0, spec, cfg)
    assert out.status == "completed"
    # dt 0.00625, 0.0125 and 0.025, and a last step cut to t_end
    assert np.unique(np.diff(times).round(12)).tolist() == [0.00625, 0.0125, 0.01875, 0.025]
    assert n_steps == len(times) - 1
    read = sorted({*range(0, len(times), record_stride), n_steps})
    assert [r.t for r in out.records] == [times[k] for k in read]
    for rec, k in zip(out.records, read):
        want = observables.record(Field(g, fields[k], rec.t), spec)
        for name in ("mass", "energy", "kinetic", "virial", "linfty"):
            assert getattr(rec, name) == pytest.approx(getattr(want, name), rel=1e-12)
    assert rel_err(out.final_field.values, fields[-1]) <= 1e-12
    return n_steps, n_settles


def test_adaptive_merge_matches_per_step_loop(monkeypatch):
    n_steps, n_settles = _adaptive_run_matches_per_step_loop(monkeypatch, record_stride=1)
    assert n_settles == n_steps


def test_adaptive_unread_steps_match_per_step_loop(monkeypatch):
    # six of every seven steps go unread: their dt comes from the bounds on
    # max|u| and their next step from the spectrum the bounds kept, unless
    # the bounds straddle an edge of dt's bracket, as at both doublings
    n_steps, n_settles = _adaptive_run_matches_per_step_loop(monkeypatch, record_stride=7)
    assert n_settles < n_steps


def test_adaptive_radial_run_settles_only_where_it_reads(monkeypatch):
    # a chirped Gaussian focuses, and dt halves five times; an owed phase
    # half keeps |u|, so every dt comes from max|u| of the unsettled field
    spec = EquationSpec(d=3, c=1.0, sigma=0.5, alpha=2.0, sign="focusing")
    g = Grid(3, "radial", n_r=512, r_max=16.0)
    u0 = Field(g, 3.0 * np.exp(-g.r**2 / 2.0 - 0.1j * g.r**2))
    cfg = EvolveConfig(dt0=0.01, t_end=0.19, adaptivity="cfl-nonlinear", record_stride=7)
    n_settles = 0
    settle = SplitStepper.settle

    def counted_settle(self, u):
        nonlocal n_settles
        n_settles += self._owed is not None
        return settle(self, u)

    monkeypatch.setattr(SplitStepper, "settle", counted_settle)
    out = evolve(u0, spec, cfg)
    times, fields = adaptive_per_step_run(u0, spec, cfg)
    assert out.status == "completed" and not out.warnings
    assert np.diff(times).min() == pytest.approx(0.01 / 32)
    read = sorted({*range(0, len(times), 7), len(times) - 1})
    assert [r.t for r in out.records] == [times[k] for k in read]
    assert n_settles == len(read) - 1
    for rec, k in zip(out.records, read):
        want = observables.record(Field(g, fields[k], rec.t), spec)
        for name in ("mass", "energy", "kinetic", "virial", "linfty"):
            assert getattr(rec, name) == pytest.approx(getattr(want, name), rel=1e-12)
    assert rel_err(out.final_field.values, fields[-1]) <= 1e-12


_BOUND_GRIDS = {1: Grid(1, "cartesian", n=128, L=8.0), 2: Grid(2, "cartesian", n=32, L=8.0)}


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([1, 2]), seed=st.integers(0, 2**32 - 1),
       owed=st.floats(1e-6, 1.0), amplitude=st.floats(0.1, 10.0))
def test_sup_bounds_contain_the_settled_maximum(d, seed, owed, amplitude):
    g = _BOUND_GRIDS[d]
    spec = EquationSpec(d=d, c=1.0, sigma=0.5, alpha=2.0, sign="focusing")
    stepper = SplitStepper(g, spec)
    u = stepper.step(random_band_limited_field(g, seed, amplitude).values[None], 2.0 * owed)
    exact = float(np.max(np.abs(g.free_propagator(owed)(u))))
    lo, hi = stepper.sup_bounds(u)
    settled = float(np.max(np.abs(stepper.settle(u))))
    assert lo <= settled <= hi
    assert lo <= exact <= hi
    # nothing owed: both bounds are the settled maximum
    assert stepper.sup_bounds(u) == (settled, settled)


@settings(max_examples=200, deadline=None)
@given(a=st.floats(0.0, 1e300), b=st.floats(0.0, 1e300),
       alpha=st.sampled_from([1e-3, 2.0, 4.0, 6.0]),
       cfl=st.floats(1e-6, 1e3), dt0=st.floats(1e-9, 1.0))
def test_cfl_dt_falls_as_the_maximum_grows(a, b, alpha, cfl, dt0):
    # an adaptive step trusts two bounds on max|u| only because the CFL dt
    # falls as max|u| grows, also where max|u|^alpha leaves the float range
    cfg = EvolveConfig(dt0=dt0, cfl_constant=cfl, adaptivity="cfl-nonlinear")
    lo, hi = sorted((a, b))
    assert _cfl_dt(cfg, alpha, 0.0) == dt0
    assert 0.0 <= _cfl_dt(cfg, alpha, hi) <= _cfl_dt(cfg, alpha, lo) <= dt0


def test_adaptive_run_of_data_whose_power_underflows_takes_dt0():
    # max|u|^alpha = 1e-400 is 0.0 in floats: the CFL dt is dt0, not a
    # division by zero
    spec = EquationSpec(d=1, c=1.0, sigma=0.5, alpha=2.0, sign="focusing")
    g = Grid(1, "cartesian", n=64, L=8.0)
    u0 = Field(g, (1e-200 * np.exp(-g.axis**2)).astype(complex))
    out = evolve(u0, spec, EvolveConfig(dt0=1e-3, t_end=1e-2, adaptivity="cfl-nonlinear",
                                        record_stride=1))
    assert out.status == "completed" and not out.warnings
    assert np.diff([r.t for r in out.records]) == pytest.approx([1e-3] * 10, abs=1e-15)


def _logged_transforms(monkeypatch, g):
    """The events of the runs on g that follow, in order: T a step, S a
    settle of an owed half, F a forward and I an inverse transform."""
    log = []
    fft, ifft = g._fft, g._ifft
    step, settle = SplitStepper.step, SplitStepper.settle

    def logged_step(self, *args, **kwargs):
        log.append("T")
        return step(self, *args, **kwargs)

    def logged_settle(self, u):
        if self._owed is not None:
            log.append("S")
        return settle(self, u)

    monkeypatch.setattr(g, "_fft", lambda u: log.append("F") or fft(u))
    monkeypatch.setattr(g, "_ifft", lambda u: log.append("I") or ifft(u))
    monkeypatch.setattr(SplitStepper, "step", logged_step)
    monkeypatch.setattr(SplitStepper, "settle", logged_settle)
    return log


def test_certified_unread_adaptive_step_makes_one_transform_each_way(monkeypatch):
    # max|u| stays near 3.8, inside (sqrt(10), sqrt(20)], where the CFL dt
    # is dt0/2: both bounds give it, and only the end reads the field
    spec = EquationSpec(d=1, c=1.0, sigma=0.5, alpha=2.0, sign="defocusing")
    g = Grid(1, "cartesian", n=128, L=8.0)
    u0 = Field(g, (3.8 * np.exp(-g.axis**2 / 2.0)).astype(complex))
    log = _logged_transforms(monkeypatch, g)
    out = evolve(u0, spec, EvolveConfig(dt0=1e-2, t_end=0.1, adaptivity="cfl-nonlinear",
                                        record_stride=1000))
    assert out.status == "completed"
    events = "".join(log)
    assert events.count("T") == 20
    # the first step transforms u0; each later one starts from the spectrum
    # its bounds kept, and the end settles
    assert events == "TFI" + "FTI" * 19 + "SFI"


def test_unread_radial_step_makes_one_solve_and_one_rotation(monkeypatch):
    # the radial counterpart of the test above: an unread nonlinear step
    # makes one Crank-Nicolson solve and one rotation (one cos/sin pair),
    # and a settle one rotation and no solve
    spec, g, u0 = c9_problem()
    stepper = SplitStepper(g, spec)
    log = []
    free_propagator, cos, sin = g.free_propagator, np.cos, np.sin

    def logged_free_propagator(tau):
        solve = free_propagator(tau)
        return lambda u: log.append("solve") or solve(u)

    monkeypatch.setattr(g, "free_propagator", logged_free_propagator)
    monkeypatch.setattr(np, "cos", lambda *args, **kw: log.append("cos") or cos(*args, **kw))
    monkeypatch.setattr(np, "sin", lambda *args, **kw: log.append("sin") or sin(*args, **kw))
    u = u0.values
    for _ in range(4):
        u = stepper.step(u, 4e-3)
    assert log == ["cos", "sin", "solve"] * 4
    log.clear()
    stepper.settle(u)
    assert log == ["cos", "sin"]


def test_adaptive_step_whose_bounds_straddle_an_edge_settles_from_the_kept_spectrum(
        monkeypatch):
    # cfl_constant puts the edge between dt0 and dt0/2 exactly at max|u| of
    # the true field after the first step, which is dt0/2 long (max|u0| is
    # above the edge): the bounds around it give two dts, and it settles
    spec = EquationSpec(d=1, c=1.0, sigma=0.5, alpha=2.0, sign="defocusing")
    g = Grid(1, "cartesian", n=128, L=8.0)
    u0 = Field(g, (3.8 * np.exp(-g.axis**2 / 2.0)).astype(complex))
    dt0 = 1e-2
    probe = SplitStepper(g, spec)
    edge = float(np.max(np.abs(probe.settle(probe.step(u0.values[None], dt0 / 2)))))
    assert edge < float(np.max(np.abs(u0.values)))
    log = _logged_transforms(monkeypatch, g)
    out = evolve(u0, spec, EvolveConfig(dt0=dt0, t_end=0.05, adaptivity="cfl-nonlinear",
                                        cfl_constant=dt0 * edge**2, record_stride=1000))
    assert out.status == "completed"
    events = "".join(log)
    # step, bound (F), settle from the kept spectrum (I alone), step from the
    # settled spectrum; no settle but the last makes a forward transform
    assert events.startswith("TFI" + "F" + "SI" + "TI")
    assert events.endswith("SFI") and "SF" not in events[:-3]


@pytest.mark.parametrize("adaptivity, d", [("fixed", 2), ("cfl-nonlinear", 1)])
def test_one_forward_transform_per_read_step(adaptivity, d):
    # a step that is read starts from the spectrum its settle kept: past
    # the first step's own start, each step takes one forward transform
    spec = EquationSpec(d=d, c=1.0, sigma=0.5, alpha=2.0, sign="focusing")
    g = Grid(d, "cartesian", n=64, L=8.0)
    u0 = random_band_limited_field(g, 3)
    forward = []
    transform = g._fft
    g._fft = lambda u: forward.append(u.shape) or transform(u)
    out = evolve(u0, spec, EvolveConfig(dt0=1e-3, t_end=0.03, adaptivity=adaptivity,
                                        record_stride=1))
    n_steps = len(out.records) - 1
    assert out.status == "completed" and n_steps >= 30
    assert forward == [(1, *g.shape)] * (n_steps + 1)


def test_member_invalid_at_a_record_leaves_the_rest_as_solo_runs():
    # the first member focuses until its |u|^4 overflows: its field stays
    # finite, but its record at step 78 fails, and the stack drops its row
    # while the stepper holds the stack's spectrum
    spec = EquationSpec(d=1, c=0.0, sigma=0.5, alpha=1e-3, sign="defocusing")
    g = Grid(1, "cartesian", n=256, L=40.0)
    z = 1.0 - 20.0j
    chirped = np.exp(-g.axis**2 / (2.0 * z)) / np.sqrt(z)
    fields = [Field(g, 1.2e77 * chirped), random_band_limited_field(g, 4),
              Field(g, chirped)]
    cfg = EvolveConfig(dt0=0.1, t_end=8.0, record_stride=1)
    bad, *rest = evolve([Member(f) for f in fields], spec, cfg)
    assert bad.status == "invalid" and bad.warnings[0].startswith("non-finite observable")
    assert len(bad.records) == 78 and bad.t_reached == 78 * 0.1
    assert bad.final_field.time == bad.records[-1].t == 77 * 0.1
    for f, stacked in zip(fields[1:], rest):
        solo = evolve(f, spec, cfg)
        assert stacked.status == solo.status == "completed"
        assert stacked.records == solo.records
        assert stacked.final_field.values.tobytes() == solo.final_field.values.tobytes()


@pytest.mark.parametrize("alpha", [2.0, 4.0])
@pytest.mark.parametrize("sign", ["defocusing", "focusing"])
@pytest.mark.parametrize("grid", [Grid(2, "cartesian", n=32, L=6.0),
                                  Grid(3, "radial", n_r=256, r_max=10.0)],
                         ids=["cartesian2d", "radial3d"])
def test_rotation_keeps_the_bits_of_cos_minus_i_sin(grid, sign, alpha):
    # the stepper folds the sign into the potential add and rotates by -tau;
    # the rotation keeps the bytes of cos(tau arg) - 1j sin(tau arg), with
    # arg = s|u|^alpha + V formed as a sign times the power, plus V
    spec = EquationSpec(d=grid.d, c=1.0, sigma=0.5, alpha=alpha, sign=sign)
    field = random_band_limited_field if grid.mode == "cartesian" else random_radial_field
    u = 2.0 * field(grid, 7).values
    stepper = SplitStepper(grid, spec)
    arg = u.real * u.real + u.imag * u.imag
    arg **= 0.5 * alpha
    arg *= spec.nonlinearity_sign
    arg += stepper.potential
    for tau in (1e-3, -2.5e-4, 0.7):
        want = np.cos(tau * arg) - 1j * np.sin(tau * arg)
        kept = stepper._phase_arg(u, True)
        assert kept.tobytes() == arg.tobytes()
        assert stepper._rotation(tau, kept, keep=True).tobytes() == want.tobytes()
        assert kept.tobytes() == arg.tobytes()
        assert stepper._rotation(tau, kept).tobytes() == want.tobytes()
