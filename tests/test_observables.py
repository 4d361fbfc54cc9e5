import json
import math
import random
import sys
from dataclasses import asdict

import numpy as np
import pytest

from nlslab.equation import EquationSpec, RegimeNotCoveredError
from nlslab.evolve import EvolveConfig, SplitStepper, evolve, evolve_linear
from nlslab.grid import Field, Grid, gradient_norm_sq, mass, weighted_norm
from nlslab.observables import (
    RADIAL_SOBOLEV_CONSTANTS,
    IdentityCheck,
    ObservableRecord,
    interaction_morawetz_l4,
    localized_virial_bound_check,
    localized_virial_slack_ladder,
    morawetz_action,
    radial_sobolev_oracle,
    record,
    scattering_cauchy_diagnostic,
    virial_identity_check,
    virial_rhs_forms,
)

from helpers import random_radial_field


def test_record_zero_field():
    spec = EquationSpec(d=1, c=1.0, sigma=0.5, alpha=2.0, sign="focusing")
    g = Grid(1, "cartesian", n=64, L=5.0)
    rec = record(Field(g, np.zeros(g.shape, complex)), spec)
    for name in ("mass", "energy", "kinetic", "potential_term", "nonlinear_term",
                 "virial", "morawetz_abs", "l4_density", "linfty"):
        assert getattr(rec, name) == 0.0


def test_record_energy_of_ground_state(gs_1d_cubic):
    # E0(Q) = (1/2)(4/3) - (1/4)(16/3) = -2/3 for the potential-free case
    spec = EquationSpec(d=1, c=0.0, sigma=0.5, alpha=2.0, sign="focusing")
    rec = record(gs_1d_cubic.field, spec)
    assert rec.energy == pytest.approx(-2.0 / 3.0, rel=1e-6)
    assert rec.energy == pytest.approx(
        0.5 * rec.kinetic + rec.potential_term + rec.nonlinear_term, rel=1e-14
    )


def test_record_on_a_radial_grid_keeps_the_bits_of_its_functionals():
    spec = EquationSpec(d=3, c=1.0, sigma=1.0, alpha=2.0, sign="defocusing")
    g = Grid(3, "radial", n_r=512, r_max=10.0)
    f = random_radial_field(g, 4)
    rec = record(f, spec)
    assert rec.kinetic == gradient_norm_sq(f)
    assert rec.morawetz_abs == morawetz_action(f)


def test_identity_check_from_numpy_scalars_serializes():
    for rel_error in (np.float64(1e-4), np.float64(0.5)):
        check = IdentityCheck("virial-identity", rel_error, np.float64(1e-3))
        assert type(check.rel_error) is float and type(check.passed) is bool
        assert json.loads(json.dumps(asdict(check)))["passed"] == (rel_error <= 1e-3)


def test_morawetz_real_field_vanishes():
    g = Grid(1, "cartesian", n=128, L=8.0)
    f = Field(g, np.exp(-g.axis**2).astype(complex))
    assert abs(morawetz_action(f, "abs")) <= 1e-14
    assert abs(morawetz_action(f, "quadratic")) <= 1e-14


def test_morawetz_plane_wave_envelope():
    # u = e^{ikx} g(x), a = |x|^2: M = 4k int x |g|^2 dx
    g = Grid(1, "cartesian", n=1024, L=20.0)
    env = np.exp(-((g.axis - 1.0) ** 2) / 2.0)
    k0 = 2.0 * np.pi / (2.0 * g.L) * 16  # exact grid mode
    f = Field(g, env * np.exp(1j * k0 * g.axis))
    want = 4.0 * k0 * g.integrate(g.axis * env**2)
    assert morawetz_action(f, "quadratic") == pytest.approx(want, rel=1e-8)


def test_variance_derivative_matches_morawetz():
    # central difference of ||x u||^2 equals M_{|x|^2} to O(dt^2), on a
    # 1-D box and on d = 2 and 3 radial shells (their quadratic-weight
    # flux); the chirp makes M of order one, where real data has M = O(dt)
    shells = [Grid(d, "radial", n_r=4096, r_max=15.0) for d in (2, 3)]
    for g in [Grid(1, "cartesian", n=512, L=15.0)] + shells:
        spec = EquationSpec(d=g.d, c=0.4, sigma=0.5, alpha=2.0, sign="defocusing")
        stepper = SplitStepper(g, spec)
        x = g.axis if g.d == 1 else g.r
        u = np.exp(-((x - 1.5) ** 2) / 2.0 + 0.05j * x**2)
        dt = 1e-3
        vs, ms = [], []
        for step in range(3):
            f = Field(g, u, step * dt)
            vs.append(weighted_norm(f, g.radius() ** 2))
            ms.append(morawetz_action(f, "quadratic"))
            u = stepper.settle(stepper.step(u, dt))
        dv = (vs[2] - vs[0]) / (2.0 * dt)
        assert dv == pytest.approx(ms[1], rel=5e-6)


def test_virial_rhs_forms_agree_and_reduce_at_c0():
    g = Grid(1, "cartesian", n=256, L=10.0)
    f = Field(g, (np.exp(-g.axis**2) * np.exp(0.3j * g.axis)).astype(complex))
    for c in (0.7, 0.0):
        spec = EquationSpec(d=1, c=c, sigma=0.5, alpha=4.0, sign="focusing")
        rec = record(f, spec)
        f1, f2, f3 = virial_rhs_forms(rec, spec)
        scale = max(abs(f1), 1e-30)
        assert abs(f1 - f2) <= 1e-10 * scale
        assert abs(f1 - f3) <= 1e-10 * scale
        if c == 0.0:
            assert rec.potential_term == 0.0
            la = abs(rec.nonlinear_term) * (spec.alpha + 2.0)
            assert f1 == pytest.approx(8.0 * rec.kinetic - (16.0 / 6.0) * la)


def test_virial_identity_focusing_run():
    spec = EquationSpec(d=1, c=0.3, sigma=0.5, alpha=4.0, sign="focusing")
    g = Grid(1, "cartesian", n=1024, L=20.0)
    u0 = Field(g, np.exp(-((g.axis - 4.0) ** 2) / 2.0).astype(complex))
    out = evolve(u0, spec, EvolveConfig(dt0=1e-3, t_end=0.2, record_stride=10))
    chk = virial_identity_check(out.records, spec)
    assert chk.passed and chk.rel_error <= 1e-3
    assert chk.name == "virial-identity"


def test_virial_identity_defocusing_analogue():
    spec = EquationSpec(d=1, c=0.3, sigma=0.5, alpha=2.0, sign="defocusing")
    g = Grid(1, "cartesian", n=1024, L=20.0)
    u0 = Field(g, np.exp(-((g.axis - 4.0) ** 2) / 2.0).astype(complex))
    out = evolve(u0, spec, EvolveConfig(dt0=1e-3, t_end=0.2, record_stride=10))
    chk = virial_identity_check(out.records, spec)
    assert chk.passed
    assert chk.name.endswith("defocusing-analogue")


def test_virial_identity_needs_records():
    spec = EquationSpec(d=1, c=0.3, sigma=0.5, alpha=2.0, sign="focusing")
    g = Grid(1, "cartesian", n=64, L=5.0)
    rec = record(Field(g, np.exp(-g.axis**2).astype(complex)), spec)
    with pytest.raises(ValueError):
        virial_identity_check([rec, rec], spec)


@pytest.mark.parametrize("virial, rel_error", [
    (lambda t: 0.0, 0.0),  # a zero field
    (lambda t: t * t, math.inf),  # a second difference against zero forms
], ids=["zero-field", "zero-forms"])
def test_virial_identity_at_zero_scale(virial, rel_error):
    spec = EquationSpec(d=1, c=0.3, sigma=0.5, alpha=2.0, sign="focusing")
    records = [ObservableRecord(t=t, mass=0.0, energy=0.0, kinetic=0.0,
                                potential_term=0.0, nonlinear_term=0.0,
                                virial=virial(t)) for t in (0.0, 0.5, 1.0)]
    chk = virial_identity_check(records, spec)
    assert chk.rel_error == rel_error
    assert chk.passed == (rel_error == 0.0)


def _heavy_tail_trajectory(r_list=(8.0, 16.0, 32.0), t_end=0.4):
    spec = EquationSpec(d=2, c=0.05, sigma=0.5, alpha=2.0, sign="focusing")
    g = Grid(2, "radial", n_r=4096, r_max=96.0)
    prof = 0.6 * (1.0 + g.r**2) ** -1.0
    ramp = np.clip((g.r - 70.0) / 20.0, 0.0, 1.0)
    prof = prof * np.cos(0.5 * np.pi * ramp) ** 2
    u0 = Field(g, (prof * np.exp(1j * 2.0 * np.sqrt(4.0 + g.r**2))))
    cfg = EvolveConfig(dt0=2e-3, t_end=t_end, record_stride=10, phi_r_list=r_list)
    return evolve(u0, spec, cfg), spec


def test_localized_virial_compact_support_equals_unlocalized():
    # data inside {r < R}: phi_R = r^2 there, so both virials coincide
    spec = EquationSpec(d=2, c=0.5, sigma=0.5, alpha=2.0, sign="focusing")
    g = Grid(2, "radial", n_r=2048, r_max=64.0)
    u0 = Field(g, np.exp(-g.r**2).astype(complex))
    cfg = EvolveConfig(dt0=1e-3, t_end=0.05, record_stride=5, phi_r_list=(32.0,))
    out = evolve(u0, spec, cfg)
    for rec in out.records:
        assert rec.virial_phi_r[32.0] == pytest.approx(rec.virial, rel=1e-12)
    chk = localized_virial_bound_check(out, spec, 32.0, tol=1e-8)
    assert chk.passed  # slack ~ 0 at this scale


def test_localized_virial_slack_ladder_scaling():
    out, spec = _heavy_tail_trajectory()
    slacks, factors = localized_virial_slack_ladder(out, spec, (8.0, 16.0, 32.0))
    assert all(v < 0.0 for v in slacks.values())  # bound holds with room
    for f in factors:
        assert 2.0 <= f <= 8.0


def test_localized_virial_requires_radial_focusing():
    spec = EquationSpec(d=1, c=0.3, sigma=0.5, alpha=2.0, sign="focusing")
    g = Grid(1, "cartesian", n=256, L=10.0)
    u0 = Field(g, np.exp(-g.axis**2).astype(complex))
    out = evolve(u0, spec, EvolveConfig(dt0=1e-3, t_end=0.02, record_stride=2,
                                        phi_r_list=(8.0,)))
    with pytest.raises(ValueError):
        localized_virial_bound_check(out, spec, 8.0)


def test_radial_sobolev_oracle():
    g = Grid(3, "radial", n_r=32768, r_max=16.0)
    zero = Field(g, np.zeros(g.shape, complex))
    assert radial_sobolev_oracle(zero)["holds"]
    f = Field(g, np.exp(-g.r**2 / 2.0).astype(complex))
    out = radial_sobolev_oracle(f)
    assert out["holds"]
    assert 0.0 < out["ratio"] < RADIAL_SOBOLEV_CONSTANTS[3]


def test_radial_sobolev_scaling_invariance():
    g = Grid(3, "radial", n_r=32768, r_max=16.0)
    ratios = []
    for lam in (0.5, 1.0, 2.0):
        f = Field(g, np.exp(-((lam * g.r) ** 2) / 2.0).astype(complex))
        ratios.append(radial_sobolev_oracle(f)["ratio"])
    assert abs(ratios[0] - ratios[1]) <= 1e-6 * ratios[1]
    assert abs(ratios[2] - ratios[1]) <= 1e-6 * ratios[1]


def test_radial_sobolev_not_radial():
    g = Grid(1, "cartesian", n=64, L=5.0)
    with pytest.raises(ValueError):
        radial_sobolev_oracle(Field(g, np.ones(g.shape, complex)))


def _small_defocusing_3d(t_end, n_r=1024, r_max=48.0, checkpoint_stride=0):
    spec = EquationSpec(d=3, c=1.0, sigma=1.0, alpha=2.0, sign="defocusing")
    g = Grid(3, "radial", n_r=n_r, r_max=r_max)
    u0 = Field(g, (0.05 * np.exp(-g.r**2 / 4.0)).astype(complex))
    checkpoints = []
    cb = (lambda f: checkpoints.append(f)) if checkpoint_stride else None
    cfg = EvolveConfig(dt0=2e-3, t_end=t_end, record_stride=50,
                       checkpoint_stride=checkpoint_stride)
    out = evolve(u0, spec, cfg, checkpoint_cb=cb)
    return out, spec, checkpoints


def test_interaction_morawetz_windows():
    out, spec, _ = _small_defocusing_3d(6.0)
    rows = interaction_morawetz_l4(out.records, spec, (2.0, 4.0, 6.0))
    assert rows[0]["lhs"] > 0.0
    incs = [r["increment"] for r in rows]
    assert incs[0] > incs[1] > incs[2] > 0.0  # dispersion saturates the integral
    assert all(np.isfinite(r["ratio"]) for r in rows)


def test_interaction_morawetz_linear_flow_saturates():
    # nonlinearity off: the space-time L4 mass accumulates sublinearly and
    # saturates as dispersion spreads the wave
    spec = EquationSpec(d=3, c=1.0, sigma=1.0, alpha=2.0, sign="defocusing")
    g = Grid(3, "radial", n_r=1024, r_max=48.0)
    u0 = Field(g, np.exp(-g.r**2 / 2.0).astype(complex))
    records = [record(u0, spec)]
    for t in np.arange(0.25, 4.01, 0.25):
        records.append(record(evolve_linear(u0, spec, float(t), 5e-3), spec))
    rows = interaction_morawetz_l4(records, spec, (1.0, 2.0, 4.0))
    assert rows[0]["lhs"] > 0.0
    incs = [r["increment"] for r in rows]
    assert incs[0] > incs[1] > incs[2] > 0.0


def test_interaction_morawetz_guards():
    spec_f = EquationSpec(d=3, c=1.0, sigma=1.0, alpha=2.0, sign="focusing")
    with pytest.raises(ValueError):
        interaction_morawetz_l4([], spec_f, (1.0,))
    spec_1d = EquationSpec(d=1, c=1.0, sigma=0.5, alpha=2.0, sign="defocusing")
    with pytest.raises(ValueError):
        interaction_morawetz_l4([], spec_1d, (1.0,))


def test_scattering_diagnostic_zero_for_linear_flow():
    spec = EquationSpec(d=3, c=1.0, sigma=1.0, alpha=2.0, sign="defocusing")
    g = Grid(3, "radial", n_r=512, r_max=24.0)
    u0 = Field(g, (0.01 * np.exp(-g.r**2 / 2.0)).astype(complex))
    cps = [evolve_linear(u0, spec, t, 1e-2) for t in (0.5, 1.0, 1.5)]
    incs = scattering_cauchy_diagnostic(cps, spec, dt=1e-2)
    assert max(incs) <= 1e-12


def test_scattering_diagnostic_decreasing_increments():
    out, spec, cps = _small_defocusing_3d(4.0, checkpoint_stride=500)
    incs = scattering_cauchy_diagnostic(cps, spec, dt=2e-3)
    assert len(incs) >= 2
    assert incs[0] > incs[-1] > 0.0


def _energy_norm(f, spec):
    g = f.grid
    return math.sqrt(mass(f) + gradient_norm_sq(f)
                     + weighted_norm(f, spec.c * g.radius_power(-spec.sigma, spec.epsilon_reg)))


def test_scattering_increments_equal_distances_of_full_pullbacks():
    # the linear flow conserves the E-norm, so one interval's pullback
    # measures what the distance of the two pullbacks to t = 0 does
    _, spec, cps = _small_defocusing_3d(4.0, checkpoint_stride=500)
    incs = scattering_cauchy_diagnostic(cps, spec, dt=2e-3)
    pulled = [evolve_linear(f, spec, -f.time, 2e-3) for f in cps]
    full = [_energy_norm(Field(a.grid, b.values - a.values, 0.0), spec)
            for a, b in zip(pulled[:-1], pulled[1:])]
    assert len(incs) == len(full) >= 2
    np.testing.assert_allclose(incs, full, rtol=1e-4)


def test_scattering_increments_ignore_checkpoint_order():
    _, spec, cps = _small_defocusing_3d(1.0, checkpoint_stride=100)
    assert len(cps) >= 4
    shuffled = list(cps)
    random.Random(0).shuffle(shuffled)
    assert shuffled != cps
    assert (scattering_cauchy_diagnostic(shuffled, spec, dt=2e-3)
            == scattering_cauchy_diagnostic(cps, spec, dt=2e-3))


def test_scattering_pulls_each_checkpoint_back_one_interval(monkeypatch):
    _, spec, cps = _small_defocusing_3d(1.0, checkpoint_stride=100)
    durations = []

    def counting_linear(u0, spec, duration, dt):
        durations.append(duration)
        return evolve_linear(u0, spec, duration, dt)

    monkeypatch.setattr(sys.modules["nlslab.evolve"], "evolve_linear", counting_linear)
    scattering_cauchy_diagnostic(cps, spec, dt=2e-3)
    times = sorted(f.time for f in cps)
    assert len(durations) == len(cps) - 1
    assert sum(abs(t) for t in durations) == pytest.approx(times[-1] - times[0])


@pytest.fixture(scope="module")
def floored_near_linear_run():
    # V = c max(r, 2)^(-sigma): the floor acts on the whole Gaussian core; an
    # amplitude of 1e-6 leaves a nonlinear phase of order 1e-12 over T = 0.5
    spec = EquationSpec(d=3, c=1.0, sigma=1.0, alpha=2.0, sign="defocusing",
                        epsilon_reg=2.0)
    g = Grid(3, "radial", n_r=512, r_max=20.0)
    u0 = Field(g, (1e-6 * np.exp(-g.r**2 / 2.0)).astype(complex))
    checkpoints = []
    cfg = EvolveConfig(dt0=1e-3, t_end=0.5, checkpoint_stride=100)
    out = evolve(u0, spec, cfg, checkpoint_cb=checkpoints.append)
    return spec, u0, out.final_field, checkpoints


def test_linear_pullback_of_a_floored_run_returns_to_u0(floored_near_linear_run):
    # the pullback steps under the forward run's potential, floor included
    spec, u0, final, _ = floored_near_linear_run
    back = evolve_linear(final, spec, -final.time, 1e-3)
    diff = Field(u0.grid, back.values - u0.values)
    assert math.sqrt(mass(diff) / mass(u0)) <= 1e-12


def test_scattering_increments_of_a_floored_run_sit_at_roundoff(floored_near_linear_run):
    spec, _, _, checkpoints = floored_near_linear_run
    assert len(checkpoints) == 5
    incs = scattering_cauchy_diagnostic(checkpoints, spec, dt=1e-3)
    assert max(incs) < 1e-17


def test_scattering_diagnostic_regime_guard():
    spec = EquationSpec(d=1, c=0.3, sigma=0.5, alpha=4.0, sign="focusing")
    with pytest.raises(RegimeNotCoveredError):
        scattering_cauchy_diagnostic([], spec, dt=1e-3)
