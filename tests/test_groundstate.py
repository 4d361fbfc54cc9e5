import numpy as np
import pytest

from nlslab import groundstate
from nlslab.checks import random_band_limited_field
from nlslab.grid import Field, Grid
from nlslab.groundstate import (
    GroundStateError,
    Bubble,
    _petviashvili,
    gn_constant_closed_form,
    gn_inequality_oracle,
    hardy_oracle,
    make_bubble,
    sharp_gn_constant,
    solve_ground_state,
)

from helpers import random_radial_field

SECH_MASS = 4.0            # ||sqrt(2) sech||_2^2
SECH_KINETIC = 4.0 / 3.0
SECH_L4 = 16.0 / 3.0


def test_cubic_profile_matches_sech(gs_1d_cubic):
    gs = gs_1d_cubic
    exact = np.sqrt(2.0) / np.cosh(gs.field.grid.axis)
    assert np.max(np.abs(gs.field.values.real - exact)) <= 1e-6
    assert gs.mass == pytest.approx(SECH_MASS, rel=1e-6)
    assert gs.kinetic == pytest.approx(SECH_KINETIC, rel=1e-6)
    assert gs.lp == pytest.approx(SECH_L4, rel=1e-6)


def test_cubic_gn_constant_exact_value(gs_1d_cubic):
    # ratio with exact sech norms: (16/3) / ((4/3)^{1/2} * 4^{3/2}) = 1/sqrt(3)
    assert gs_1d_cubic.gn_constant == pytest.approx(1.0 / np.sqrt(3.0), rel=1e-6)
    assert gn_constant_closed_form(gs_1d_cubic) == pytest.approx(
        gs_1d_cubic.gn_constant, rel=1e-6
    )


def test_quintic_mass_closed_form(gs_1d_quintic):
    # Q(x) = 3^{1/4} sech^{1/2}(2x): ||Q||^2 = sqrt(3) pi / 2
    assert gs_1d_quintic.mass == pytest.approx(np.sqrt(3.0) * np.pi / 2.0, rel=1e-6)
    # mass-critical closed form (d+2)/d ||Q||^{-4/d}
    want = 3.0 * gs_1d_quintic.mass ** (-2.0)
    assert gs_1d_quintic.gn_constant == pytest.approx(want, rel=1e-6)


def test_pohozaev_identities_sample_cases(gs_1d_cubic, gs_1d_quintic):
    for gs in (gs_1d_cubic, gs_1d_quintic):
        e1, e2 = gs.pohozaev_errors()
        assert e1 <= 1e-6 and e2 <= 1e-6


def test_townes_mass_sanity():
    grid = Grid(2, "radial", n_r=16384, r_max=20.0)
    gs = solve_ground_state(2, 2.0, grid)
    assert gs.mass == pytest.approx(11.7009, rel=1e-3)
    e1, e2 = gs.pohozaev_errors()
    assert e1 <= 1e-5 and e2 <= 1e-5


def test_residual_below_effective_tolerance(gs_1d_cubic):
    g = gs_1d_cubic.field.grid
    floor = 100.0 * np.finfo(float).eps * float(np.max(g.k_squared()))
    assert gs_1d_cubic.residual <= max(1e-10, floor)
    assert gs_1d_cubic.monotone_residual


def test_invalid_regime_rejected():
    grid = Grid(3, "radial", n_r=512, r_max=10.0)
    with pytest.raises(GroundStateError):
        solve_ground_state(3, 4.0, grid)
    with pytest.raises(GroundStateError):
        solve_ground_state(2, 2.0, grid)  # dimension mismatch


def test_undamped_growth_converges_in_the_damped_retry():
    # at alpha = 10 on this 2-D box the undamped iteration leaves the profile:
    # its residual, 1.5e-9 at iteration 20, grows six times past the burn-in
    # and the attempt aborts; the damped retry then converges
    grid = Grid(2, "cartesian", n=64, L=5.0)
    q, _, _, growths = _petviashvili(grid, 10.0, 1.0, 1e-10, 500)
    assert q is None and growths == 6
    gs = solve_ground_state(2, 10.0, grid)
    assert gs.iterations < 500 and gs.monotone_residual and gs.residual <= 1e-10
    damped = _petviashvili(grid, 10.0, 0.5, 1e-10, 1000)[0]
    assert gs.field.values.tobytes() == damped.astype(complex).tobytes()


def test_residual_growth_aborts_both_attempts():
    # a ball of radius 2.5 is too small for the alpha = 0.2 profile: past the
    # burn-in the residual grows six times, in each attempt, and the solve fails
    grid = Grid(3, "radial", n_r=2048, r_max=2.5)
    for damping, max_iter in ((1.0, 500), (0.5, 1000)):
        q, _, _, growths = _petviashvili(grid, 0.2, damping, 1e-10, max_iter)
        assert q is None and growths == 6
    with pytest.raises(GroundStateError, match="after damped retry"):
        solve_ground_state(3, 0.2, grid)


class _DoublingGrid:
    """A grid whose (1 - Lap)^(-1) adds 1e-10 * 2^k times the node-to-node
    alternating vector on its k-th call.  The residual then holds Lap of
    that term, about 4/dx^2 times its size, so past the first iterations it
    doubles on every step and never falls to the tolerance."""

    def __init__(self, grid):
        self.grid, self.calls = grid, 0

    def __getattr__(self, name):
        return getattr(self.grid, name)

    def inv_one_minus_lap(self, u):
        self.calls += 1
        alternating = (-1.0) ** np.arange(u.shape[-1])
        return self.grid.inv_one_minus_lap(u) + 1e-10 * 2.0 ** self.calls * alternating


def test_residual_that_doubles_aborts_both_attempts_after_six_growths(monkeypatch):
    # unlike the case above, the growth does not hinge on roundoff: each
    # attempt grows on every step past the burn-in and stops at step 26
    grid = _DoublingGrid(Grid(1, "cartesian", n=256, L=20.0))
    attempts = []

    def each_attempt_from_its_first_call(grid, *args):
        grid.calls = 0
        attempts.append((*_petviashvili(grid, *args), grid.calls))
        return attempts[-1][:4]

    monkeypatch.setattr(groundstate, "_petviashvili", each_attempt_from_its_first_call)
    with pytest.raises(GroundStateError, match="after damped retry"):
        solve_ground_state(1, 2.0, grid)
    assert [(q, growths, calls) for q, _, _, growths, calls in attempts] == [(None, 6, 26)] * 2


def test_gn_oracle_saturates_on_q(gs_1d_cubic):
    out = gn_inequality_oracle(gs_1d_cubic.field, gs_1d_cubic)
    assert out["holds"]
    assert out["lhs"] == pytest.approx(out["rhs"], rel=1e-9)
    # translation symmetry on the periodic grid preserves saturation
    rolled = Field(
        gs_1d_cubic.field.grid, np.roll(gs_1d_cubic.field.values, 37)
    )
    out = gn_inequality_oracle(rolled, gs_1d_cubic)
    assert out["lhs"] == pytest.approx(out["rhs"], rel=1e-9)


def test_gn_oracle_strict_gap_on_gaussian(gs_1d_cubic):
    g = gs_1d_cubic.field.grid
    f = Field(g, np.exp(-g.axis**2 / 2.0).astype(complex))
    out = gn_inequality_oracle(f, gs_1d_cubic)
    assert out["holds"]
    assert out["lhs"] < 0.99 * out["rhs"]


def test_gn_oracle_random_fields(gs_1d_cubic):
    g = gs_1d_cubic.field.grid
    for seed in range(200):
        f = random_band_limited_field(g, seed, amplitude=1.5)
        out = gn_inequality_oracle(f, gs_1d_cubic)
        assert out["holds"], f"violation at seed {seed}"


def test_hardy_gaussian_exact_values():
    g = Grid(3, "radial", n_r=16384, r_max=12.0)
    f = Field(g, np.exp(-g.r**2 / 2.0).astype(complex))
    out = hardy_oracle(f)
    assert out["lhs"] == pytest.approx(0.25 * 2.0 * np.pi**1.5, rel=1e-6)
    assert out["rhs"] == pytest.approx(1.5 * np.pi**1.5, rel=1e-6)
    assert out["holds"]


def test_hardy_far_field_and_random():
    g = Grid(3, "radial", n_r=2048, r_max=40.0)
    far = Field(g, np.exp(-((g.r - 25.0) ** 2)).astype(complex))
    out = hardy_oracle(far)
    assert out["holds"] and out["lhs"] < 0.01 * out["rhs"]
    for seed in range(200):
        out = hardy_oracle(random_radial_field(g, seed))
        assert out["holds"]


def test_hardy_wrong_dimension():
    g = Grid(2, "radial", n_r=256, r_max=8.0)
    with pytest.raises(ValueError):
        hardy_oracle(Field(g, np.exp(-g.r**2).astype(complex)))


def test_bubble_identities():
    g = Grid(3, "radial", n_r=8192, r_max=64.0)
    b = make_bubble(g)
    assert isinstance(b, Bubble)
    # W(0) = 1 from the closed form; first sample sits at dr/2
    assert b.field.values.real[0] == pytest.approx(1.0, abs=1e-4)
    exact_kin = 0.75 * np.sqrt(3.0) * np.pi**2
    assert b.kinetic == pytest.approx(exact_kin, rel=1e-3)
    assert abs(b.kinetic - b.critical_norm) <= b.kinetic_truncation + b.critical_truncation
    assert abs(b.energy - b.kinetic / 3.0) <= b.kinetic_truncation
    assert b.sobolev_constant == pytest.approx(b.kinetic**-2, rel=1e-12)


def test_bubble_hardy_holds():
    g = Grid(3, "radial", n_r=4096, r_max=64.0)
    b = make_bubble(g)
    assert hardy_oracle(b.field)["holds"]


def test_bubble_requires_radial_3d():
    with pytest.raises(ValueError):
        make_bubble(Grid(2, "radial", n_r=256, r_max=8.0))
    with pytest.raises(ValueError):
        make_bubble(Grid(3, "cartesian", n=16, L=4.0))


def test_gn_constant_power_form_consistency(gs_1d_cubic):
    # the power-form expression only uses the Pohozaev identities, so it
    # must agree with the extremizer ratio on both sides of mass-critical
    grid = Grid(1, "cartesian", n=1024, L=20.0)
    gs6 = solve_ground_state(1, 6.0, grid)
    for gs in (gs_1d_cubic, gs6):
        assert gn_constant_closed_form(gs) == pytest.approx(
            sharp_gn_constant(gs), rel=1e-6
        )
