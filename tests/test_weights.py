import numpy as np
import pytest

from nlslab.grid import Grid
from nlslab.weights import (
    BRIDGE_LEFT,
    BRIDGE_RIGHT,
    check_positivity_condition,
    chi,
    eval_localized_weight,
    verify_bridge,
    zeta,
    zeta_prime,
)

DENSE = np.linspace(1e-6, 3.0, 600001)


def test_chi_core_region():
    r = np.linspace(0.0, 1.0, 101)
    assert np.allclose(chi(r), r**2)
    lw = eval_localized_weight(2.0, np.array([1.0]), d=2)  # rho = 0.5
    assert lw.phi[0] == pytest.approx(4.0 * 0.25)
    assert lw.psi1[0] == 0.0
    assert lw.psi2[0] == 0.0


def test_psi1_cubic_region_value():
    # at rho = 1 + 1/(2 sqrt(3)): psi1 = 6 (rho-1)^2 = 1/2
    rho = 1.0 + 1.0 / (2.0 * np.sqrt(3.0))
    lw = eval_localized_weight(1.0, np.array([rho]), d=2)
    assert lw.psi1[0] == pytest.approx(0.5, rel=1e-14)


def test_plateau_region():
    for d in (1, 2, 3):
        lw = eval_localized_weight(4.0, np.array([8.0, 9.5, 100.0]), d=d)
        assert np.allclose(lw.dphi, 0.0)
        assert np.allclose(lw.psi1, 2.0)
        assert np.allclose(lw.psi2, 2.0 * d)
        assert np.allclose(np.diff(lw.phi), 0.0)


def test_pointwise_weight_inequalities():
    for R in (1.0, 8.0, 64.0):
        for d in (1, 2, 3):
            lw = eval_localized_weight(R, DENSE * R, d=d)
            assert np.all(lw.psi1 >= -1e-12)
            assert np.all(lw.psi2 >= -1e-12)
            assert np.all(2.0 - lw.dphi / (DENSE * R) >= -1e-12)


def test_chi_second_derivative_bound():
    assert np.all(zeta_prime(DENSE) <= 2.0 + 1e-12)


def test_zeta_c1_continuity():
    for point in (1.0, BRIDGE_LEFT, BRIDGE_RIGHT):
        eps = 1e-9
        assert zeta(np.array([point - eps]))[0] == pytest.approx(
            zeta(np.array([point + eps]))[0], abs=1e-7
        )
        assert zeta_prime(np.array([point - eps]))[0] == pytest.approx(
            zeta_prime(np.array([point + eps]))[0], abs=1e-6
        )


def test_profile_closed_forms_and_c2_joins():
    # the module docstring's closed forms on [0, 1] and (1, BRIDGE_LEFT]
    r = np.concatenate(
        [np.linspace(0.0, 1.0, 1001), np.linspace(1.0, BRIDGE_LEFT, 1001)[1:]]
    )
    core = r <= 1.0
    s = r - 1.0
    closed_forms = {
        zeta: np.where(core, 2.0 * r, 2.0 * (r - s**3)),
        zeta_prime: np.where(core, 2.0, 2.0 * (1.0 - 3.0 * s**2)),
        chi: np.where(core, r**2, r**2 - s**4 / 2.0),
    }
    for f, want in closed_forms.items():
        assert np.max(np.abs(f(r) - want)) <= 1e-13
    # chi' = zeta in all four pieces, by centred differences
    x = np.array([0.3, 0.9, 1.2, 1.5, 1.7, 1.95, 2.5])
    h = 1e-5
    assert np.max(np.abs((chi(x + h) - chi(x - h)) / (2.0 * h) - zeta(x))) <= 1e-8
    # zeta'' from either side of both bridge ends, by second-order one-sided
    # differences: they agree to O(h^2) where zeta is C^2, and a join that
    # were only C^1 would part them by O(1) (zeta''(BRIDGE_LEFT) = -4 sqrt(3))
    h = 1e-4
    weights = np.array([2.0, -5.0, 4.0, -1.0]) / h**2
    steps = np.arange(4) * h
    for p in (BRIDGE_LEFT, BRIDGE_RIGHT):
        left = weights @ zeta(p - steps)
        right = weights @ zeta(p + steps)
        assert left == pytest.approx(right, abs=1e-3)


def test_bridge_strictly_decreasing():
    verify_bridge()
    inner = np.linspace(BRIDGE_LEFT, BRIDGE_RIGHT, 200001)[1:-1]
    assert np.all(zeta_prime(inner) < 0.0)


def test_chi_continuity_across_regions():
    for point in (1.0, BRIDGE_LEFT, BRIDGE_RIGHT):
        eps = 1e-10
        lo = chi(np.array([point - eps]))[0]
        hi = chi(np.array([point + eps]))[0]
        assert lo == pytest.approx(hi, abs=1e-8)


def test_positivity_condition():
    radii = np.linspace(1e-4, 80.0, 200001)
    for d in (2, 3):
        lw = eval_localized_weight(8.0, radii, d=d)
        assert check_positivity_condition(lw, 0.0, 1.0)
        assert check_positivity_condition(lw, 1e-3, 1.0)
    # large epsilon violates in the cubic band (R, (1+1/sqrt(3)) R]
    lw2 = eval_localized_weight(8.0, radii, d=2)
    assert not check_positivity_condition(lw2, 10.0, 1.0)
    expr = lw2.psi1 - 10.0 * lw2.psi2
    bad = radii[expr < 0.0]
    assert np.any((bad > 8.0) & (bad <= 8.0 * BRIDGE_LEFT))


def test_bilaplacian_zero_in_core_and_scales():
    radii = np.linspace(1e-4, 3.0, 20001)
    lw1 = eval_localized_weight(1.0, radii, d=3)
    core = radii <= 1.0
    assert np.allclose(lw1.bilap[core], 0.0)
    # phi_R'''' scaling: bilap(r; R) = bilap(r/R; 1) / R^2 exactly
    lw2 = eval_localized_weight(2.0, 2.0 * radii, d=3)
    assert np.allclose(lw2.bilap, lw1.bilap / 4.0, atol=1e-12)


def test_eval_on_grids():
    gc = Grid(2, "cartesian", n=64, L=8.0)
    gr = Grid(3, "radial", n_r=256, r_max=16.0)
    for g in (gc, gr):
        lw = eval_localized_weight(4.0, g.radius(), g.d)
        assert lw.phi.shape == (np.prod(g.shape),)
        assert np.all(np.isfinite(lw.bilap))


def test_invalid_scale():
    with pytest.raises(ValueError):
        eval_localized_weight(0.0, np.array([1.0]), d=2)
