import sys
import threading

import numpy as np
import pytest

from nlslab.checks import random_band_limited_field, random_radial_field
from nlslab.equation import EquationSpec
from nlslab.evolve import SplitStepper
from nlslab.grid import (
    Field,
    Grid,
    GridError,
    InvalidFieldError,
    boundary_shell_mass_fraction,
    gradient_norm_sq,
    mass,
    mass_fourier,
    radius_weight,
    weighted_norm,
)


def test_cell_centered_1d_nodes():
    g = Grid(1, "cartesian", n=8, L=4.0)
    assert g.dx == 1.0
    assert np.allclose(g.axis, [-3.5, -2.5, -1.5, -0.5, 0.5, 1.5, 2.5, 3.5])


def test_cartesian_2d_size():
    g = Grid(2, "cartesian", n=256, L=16.0)
    assert g.shape == (256, 256)
    assert g.dx == 0.125
    assert np.prod(g.shape) == 65536


def test_radial_nodes():
    g = Grid(3, "radial", n_r=1024, r_max=32.0)
    j = np.arange(1024)
    assert np.allclose(g.r, 0.015625 * (2 * j + 1))
    assert g.r[0] > 0.0


def test_no_node_at_origin():
    for d in (1, 2, 3):
        g = Grid(d, "cartesian", n=16, L=4.0)
        assert np.min(g.radius()) > 0.0


def test_wavenumber_set():
    g = Grid(1, "cartesian", n=16, L=4.0)
    expected = (np.pi / 4.0) * np.array(
        [0, 1, 2, 3, 4, 5, 6, 7, -8, -7, -6, -5, -4, -3, -2, -1]
    )
    assert np.allclose(g.k, expected)


def test_grid_errors():
    with pytest.raises(GridError):
        Grid(4, "cartesian", n=64, L=4.0)
    with pytest.raises(GridError):
        Grid(1, "cartesian", n=4, L=4.0)
    with pytest.raises(GridError):
        Grid(1, "cartesian", n=100, L=4.0)  # not a power of two
    with pytest.raises(GridError):
        Grid(2, "radial", n_r=4, r_max=8.0)


@pytest.mark.parametrize("sizes", [
    dict(d=2, mode="cartesian", n=64, L=1e200),  # dx^d overflows
    dict(d=1, mode="cartesian", n=64, L=1e-300),  # |k|^2 overflows
    dict(d=3, mode="radial", n_r=64, r_max=1e200),  # dr^2 overflows
    dict(d=3, mode="radial", n_r=64, r_max=1e-200),  # dr^2 underflows
], ids=["cartesian-huge", "cartesian-tiny", "radial-huge", "radial-tiny"])
def test_grid_sizes_outside_the_float_range(sizes):
    with pytest.raises(GridError, match="outside the float range"):
        Grid(**sizes)


def test_memo_hands_one_object_to_racing_threads():
    # threads that build one entry at once all receive the stored array
    g = Grid(3, "radial", n_r=4096, r_max=32.0)
    barrier = threading.Barrier(8)
    got = []

    def build():
        barrier.wait(timeout=10)
        got.append(g.radius_power(-1.0, 0.0))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 8
    assert all(a is got[0] for a in got)
    assert g.radius_power(-1.0, 0.0) is got[0]


def test_gradient_norm_constant_is_zero():
    g = Grid(1, "cartesian", n=64, L=5.0)
    f = Field(g, np.full(g.shape, 2.0 + 1.0j))
    assert gradient_norm_sq(f) <= 1e-24


def test_gradient_norm_gaussian():
    # int x^2 e^{-x^2} dx = sqrt(pi)/2
    g = Grid(1, "cartesian", n=256, L=10.0)
    f = Field(g, np.exp(-g.axis**2 / 2.0).astype(complex))
    assert abs(gradient_norm_sq(f) - np.sqrt(np.pi) / 2.0) < 1e-8


def test_gradient_norm_single_mode():
    g = Grid(1, "cartesian", n=64, L=5.0)
    k0 = g.k[3]
    f = Field(g, np.exp(1j * k0 * g.axis))
    assert abs(gradient_norm_sq(f) - k0**2 * 2.0 * g.L) < 1e-10


def test_weighted_norm_is_mass():
    g = Grid(1, "cartesian", n=128, L=6.0)
    f = Field(g, (np.sin(g.axis) + 0.3j).astype(complex))
    assert abs(weighted_norm(f, 1.0) - mass(f)) < 1e-14


def test_weighted_norm_inverse_square_gaussian_3d():
    # 4 pi int e^{-r^2} dr = 2 pi^{3/2}
    g = Grid(3, "radial", n_r=4096, r_max=12.0)
    f = Field(g, np.exp(-g.r**2 / 2.0).astype(complex))
    got = weighted_norm(f, radius_weight(g, -2.0))
    assert abs(got - 2.0 * np.pi**1.5) < 1e-6


def test_weighted_norm_x2_gaussian_1d():
    g = Grid(1, "cartesian", n=256, L=10.0)
    f = Field(g, np.exp(-g.axis**2 / 2.0).astype(complex))
    got = weighted_norm(f, g.radius() ** 2)
    assert abs(got - np.sqrt(np.pi) / 2.0) < 1e-8


def test_weighted_norm_against_adaptive_quadrature():
    # independent oracle: scipy adaptive quadrature of the same integrand
    from scipy.integrate import quad

    g = Grid(1, "cartesian", n=1024, L=20.0)
    f = Field(g, np.exp(-((g.axis - 4.0) ** 2) / 2.0).astype(complex))
    got = weighted_norm(f, radius_weight(g, -0.5))
    want, err = quad(lambda x: abs(x) ** -0.5 * np.exp(-((x - 4.0) ** 2)),
                     -20.0, 20.0, points=[0.0], limit=200)
    assert abs(got - want) <= max(1e-9, 10 * err)


def test_parseval_random_fields():
    for seed in range(5):
        g = Grid(1, "cartesian", n=512, L=10.0)
        f = random_band_limited_field(g, seed)
        m = mass(f)
        assert abs(m - mass_fourier(f)) <= 1e-12 * m


def test_fft_roundtrip_identity():
    g = Grid(2, "cartesian", n=64, L=4.0)
    f = random_band_limited_field(g, 7)
    back = np.fft.ifftn(np.fft.fftn(f.values))
    assert np.max(np.abs(back - f.values)) <= 1e-12 * np.max(np.abs(f.values))


def test_invalid_field_detection():
    g = Grid(1, "cartesian", n=64, L=5.0)
    values = np.ones(g.shape, dtype=complex)
    values[3] = np.nan
    f = Field(g, values)
    with pytest.raises(InvalidFieldError):
        mass(f)
    with pytest.raises(InvalidFieldError):
        Field(g, np.ones(12, dtype=complex))


def test_radial_gradient_matches_laplacian_quadratic_form():
    # <-Lap u, u> must equal the face-difference gradient norm exactly
    g = Grid(3, "radial", n_r=512, r_max=10.0)
    f = random_radial_field(g, 11)
    lap = f.grid.laplacian(f.values)
    quad_form = -g.integrate(np.conj(f.values) * lap)
    assert abs(quad_form - gradient_norm_sq(f)) <= 1e-12 * abs(quad_form)


def test_potential_finite_and_monotone():
    g = Grid(2, "cartesian", n=128, L=8.0)
    v = SplitStepper(g, EquationSpec(d=2, c=1.0, sigma=0.7)).potential
    assert np.all(np.isfinite(v))
    assert np.all(v > 0.0)
    g1 = Grid(1, "cartesian", n=128, L=8.0)
    v1 = SplitStepper(g1, EquationSpec(d=1, c=2.0, sigma=0.5)).potential
    order = np.argsort(g1.radius())
    assert np.all(np.diff(v1[order]) <= 1e-12)


def test_potential_epsilon_floor():
    g = Grid(1, "cartesian", n=64, L=4.0)
    v = SplitStepper(g, EquationSpec(d=1, c=1.0, sigma=0.5), epsilon_reg=1.0).potential
    assert np.max(v) <= 1.0 + 1e-12


def test_boundary_shell_fraction():
    g = Grid(1, "cartesian", n=256, L=10.0)
    core = Field(g, np.exp(-g.axis**2).astype(complex))
    assert boundary_shell_mass_fraction(core) < 1e-10
    edge = Field(g, np.exp(-((np.abs(g.axis) - 10.0) ** 2)).astype(complex))
    assert boundary_shell_mass_fraction(edge) > 0.5


@pytest.mark.parametrize(
    "grid, random_field",
    [
        (Grid(2, "cartesian", n=64, L=8.0), random_band_limited_field),
        (Grid(3, "radial", n_r=512, r_max=10.0), random_radial_field),
    ],
    ids=["cartesian-2d", "radial-3d"],
)
def test_operator_inverse_pairs(grid, random_field):
    # the elliptic solve inverts the grid's own Laplacian on real and
    # complex fields, and the free propagator for -tau undoes the one for tau
    for u in (random_field(grid, 5).values.real, random_field(grid, 7).values):
        back = grid.inv_one_minus_lap(u - grid.laplacian(u))
        assert np.linalg.norm(back - u) <= 1e-12 * np.linalg.norm(u)
    v = random_field(grid, 6).values
    tau = 0.05
    there_and_back = grid.free_propagator(-tau)(grid.free_propagator(tau)(v))
    assert np.linalg.norm(there_and_back - v) <= 1e-13 * np.linalg.norm(v)


STACK_GRIDS = [
    Grid(1, "cartesian", n=1024, L=20.0),
    Grid(1, "cartesian", n=16384, L=200.0),
    Grid(2, "cartesian", n=64, L=8.0),
    Grid(2, "cartesian", n=128, L=8.0),
    Grid(3, "cartesian", n=16, L=4.0),
    Grid(3, "cartesian", n=32, L=4.0),
]


@pytest.mark.parametrize("grid", STACK_GRIDS, ids=lambda g: f"d{g.d}-n{g.n}")
def test_operators_on_a_stack_equal_the_per_member_calls(grid):
    # fields above and below 256 KiB, where the multiplier's operand order flips
    stack = np.stack([random_band_limited_field(grid, seed).values for seed in range(4)])
    ops = {
        "free": grid.free_propagator(0.05),
        "laplacian": grid.laplacian,
        "inv_one_minus_lap": grid.inv_one_minus_lap,
    }
    for rows in (slice(None), [0, 2, 3]):  # the full stack, then one member gone
        sub = stack[rows]
        for name, op in ops.items():
            got = op(sub)
            assert got.shape == sub.shape
            for row, u in zip(got, sub):
                assert row.tobytes() == op(u).tobytes(), name


@pytest.mark.parametrize("grid", STACK_GRIDS, ids=lambda g: f"d{g.d}-n{g.n}")
def test_free_propagator_keeps_the_bits_of_the_plain_product(grid):
    # a solo field gets exactly what numpy gives `ifftn(mult * fftn(u))`
    u = random_band_limited_field(grid, 1).values
    arg = 0.05 * grid.k_squared()
    mult = np.cos(arg) - 1j * np.sin(arg)
    want = np.fft.ifftn(mult * np.fft.fftn(u))
    assert grid.free_propagator(0.05)(u).tobytes() == want.tobytes()


def test_radial_free_propagator_on_a_stack():
    g = Grid(3, "radial", n_r=512, r_max=10.0)
    stack = np.stack([random_radial_field(g, seed).values for seed in range(3)])
    op = g.free_propagator(0.05)
    for sub in (stack, stack[[0, 2]]):
        got = op(sub)
        for row, u in zip(got, sub):
            assert row.tobytes() == op(u).tobytes()
