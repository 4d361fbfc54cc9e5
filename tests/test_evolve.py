import numpy as np
import pytest
from scipy.linalg import solve_banded

from nlslab.checks import random_band_limited_field, random_radial_field
from nlslab.equation import EquationSpec
from nlslab.evolve import (
    EvolveConfig,
    SplitStepper,
    evolve,
    evolve_linear,
    glassey_upper_bound,
    step_strang,
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
    assert np.max(np.abs(np.abs(u) - sech)) <= 1e-4


def test_mass_conserved_each_step():
    spec = EquationSpec(d=1, c=1.0, sigma=0.5, alpha=2.0, sign="defocusing")
    g = Grid(1, "cartesian", n=512, L=15.0)
    f = Field(g, np.exp(-g.axis**2 / 2.0).astype(complex))
    m0 = mass(f)
    for _ in range(1000):
        f = step_strang(f, spec, 1e-3)
    assert abs(mass(f) / m0 - 1.0) <= 1e-12


def test_time_reversibility():
    spec = EquationSpec(d=1, c=0.5, sigma=0.5, alpha=3.0, sign="focusing")
    g = Grid(1, "cartesian", n=256, L=10.0)
    f0 = random_band_limited_field(g, 3)
    f1 = step_strang(f0, spec, 2e-3)
    f2 = step_strang(f1, spec, -2e-3)
    err = np.sqrt(
        g.integrate(np.abs(f2.values - f0.values) ** 2)
        / g.integrate(np.abs(f0.values) ** 2)
    )
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
    ab = np.zeros((3, g.n_r), dtype=complex)
    ab[0, 1:] = -z * g.lap_upper
    ab[1, :] = 1.0 - z * g.lap_diag
    ab[2, :-1] = -z * g.lap_lower
    ref = solve_banded((1, 1), ab, u + z * g.laplacian(u))
    got = g.free_propagator(0.5 * dt)(u)
    assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize("nonlinear", [True, False])
def test_operator_cache_keyed_by_step(nonlinear):
    # an adaptive run halves dt and returns: one stepper must give exactly
    # what fresh steppers give at each step size
    spec, g, u0 = c9_problem()
    shared = SplitStepper(g, spec)
    u_shared = u_fresh = u0.values
    for dt in (4e-3, 2e-3, 4e-3):
        u_shared = shared.step(u_shared, dt, nonlinear=nonlinear)
        u_fresh = SplitStepper(g, spec).step(u_fresh, dt, nonlinear=nonlinear)
        assert np.array_equal(u_shared, u_fresh)


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
    assert abs(mass(Field(g, u)) / mass(u0) - 1.0) <= 1e-12


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


def test_step_strang_rejects_nan():
    spec = EquationSpec(d=1, c=0.0, sigma=0.5, alpha=2.0, sign="focusing")
    g = Grid(1, "cartesian", n=64, L=5.0)
    bad = np.ones(g.shape, complex)
    bad[0] = np.inf
    with pytest.raises(InvalidFieldError):
        step_strang(Field(g, bad), spec, 1e-3)


def per_step_run(u0, spec, dt, n_steps, record_stride, checkpoint_stride):
    """Reference for evolve: Strang steps one by one, each closed."""
    stepper = SplitStepper(u0.grid, spec)
    u, records, checkpoints = u0.values, {0: u0.values}, {}
    with np.errstate(all="ignore"):
        for step in range(1, n_steps + 1):
            u = stepper.step(u, dt)
            if not np.all(np.isfinite(u)):
                return records, checkpoints, step
            if step % record_stride == 0 or step == n_steps:
                records[step] = u
            if step % checkpoint_stride == 0 or step == n_steps:
                checkpoints[step] = u
    return records, checkpoints, None


def rel_err(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


@pytest.mark.parametrize("d, n", [(1, 256), (2, 64)])
def test_merged_half_steps_match_per_step_loop(d, n):
    # reads at strides 7 and 5 split the run into merged stretches of 1-5 steps
    spec = EquationSpec(d=d, c=1.0, sigma=0.5, alpha=2.0, sign="defocusing")
    g = Grid(d, "cartesian", n=n, L=8.0)
    u0 = random_band_limited_field(g, 11)
    dt, n_steps = 1e-3, 53
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


def test_radial_evolve_is_the_per_step_loop():
    # Crank-Nicolson halves do not compose: radial runs never merge
    spec, g, u0 = c9_problem()
    dt, n_steps = 4e-3, 23
    checkpoints = []
    out = evolve(u0, spec, EvolveConfig(dt0=dt, t_end=n_steps * dt, record_stride=7,
                                        checkpoint_stride=5),
                 checkpoint_cb=checkpoints.append)
    ref_records, ref_checkpoints, _ = per_step_run(u0, spec, dt, n_steps, 7, 5)
    assert [f.time for f in checkpoints] == [k * dt for k in ref_checkpoints]
    for f, u in zip(checkpoints, ref_checkpoints.values()):
        assert np.array_equal(f.values, u)
    assert np.array_equal(out.final_field.values, ref_records[n_steps])


def test_overflow_inside_merged_stretch_stops_at_the_same_step():
    # below |u| = 1 the power 1e5 leaves the flow free; a chirped Gaussian
    # focuses past |u| = e^(709.8/alpha) = 1.0071 at step 9, and |u|^alpha
    # overflows there, after the record at step 5 and inside merged steps 6-9
    spec = EquationSpec(d=1, c=0.0, sigma=0.5, alpha=1e5, sign="defocusing")
    g = Grid(1, "cartesian", n=256, L=20.0)
    z = 1.0 - 2.0j
    u0 = Field(g, 1.25 * np.exp(-g.axis**2 / (2.0 * z)) / np.sqrt(z))
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
        evolve([u0, other], spec, EvolveConfig(dt0=1e-3, t_end=0.01))
    with pytest.raises(ValueError, match="adaptive"):
        evolve([u0, u0], spec, EvolveConfig(dt0=1e-3, t_end=0.01,
                                            adaptivity="cfl-nonlinear"))
    solo = evolve(u0, spec, EvolveConfig(dt0=1e-3, t_end=0.01, record_stride=3))
    [stacked] = evolve([u0], spec, EvolveConfig(dt0=1e-3, t_end=0.01, record_stride=3))
    assert stacked.records == solo.records
    assert stacked.final_field.values.tobytes() == solo.final_field.values.tobytes()
