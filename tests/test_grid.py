import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import nlslab.grid
from nlslab.checks import random_band_limited_field
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
    weighted_norm,
)
from nlslab.weights import eval_localized_weight

from helpers import random_radial_field


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


def _handed_out_arrays(grid):
    """name -> a call returning one of the arrays grid hands out."""
    calls = {"radius()": grid.radius, "radius_power": lambda: grid.radius_power(-1.0, 0.5),
             "phi_weight": lambda: grid.phi_weight(2.0), "shell_mask": grid.shell_mask}
    if grid.mode == "radial":
        calls.update({"r": lambda: grid.r, "coords(0)": lambda: grid.coords(0)})
        for i, name in enumerate(grid.Stencil._fields):
            calls[f"stencil().{name}"] = lambda i=i: grid.stencil()[i]
        return calls
    calls.update({"axis": lambda: grid.axis, "k": lambda: grid.k,
                  "k_squared()": grid.k_squared})
    for ax in range(grid.d):
        calls.update({f"coords({ax})": lambda ax=ax: grid.coords(ax),
                      f"unit_vector({ax})": lambda ax=ax: grid.unit_vector(ax)})
    return calls


@pytest.mark.parametrize("sizes", [dict(d=1, mode="cartesian", n=16, L=4.0),
                                   dict(d=2, mode="cartesian", n=16, L=4.0),
                                   dict(d=3, mode="radial", n_r=64, r_max=8.0)],
                         ids=["cartesian1d", "cartesian2d", "radial3d"])
def test_every_array_a_grid_hands_out_is_read_only_and_kept(sizes):
    # the constructor keeps scalars and shape; each array is built on first
    # use, and every later access returns that same read-only object
    grid = Grid(**sizes)
    assert all(np.isscalar(v) or k in ("shape", "_memo") for k, v in vars(grid).items())
    assert grid._memo == {}
    for name, call in _handed_out_arrays(grid).items():
        first = call()
        assert isinstance(first, np.ndarray), name
        assert not first.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            first[...] = 0
        assert call() is first, name
    if grid.mode == "radial":
        assert grid.r is grid.radius()


def test_radial_grid_has_one_axis():
    g = Grid(3, "radial", n_r=64, r_max=8.0)
    assert g.coords(0) is g.r
    for axis in (1, 2, -1):
        with pytest.raises(IndexError):
            g.coords(axis)
    # the sum over axes is the one term over the one axis
    assert g.sum_over_axes(lambda ax: g.coords(ax) ** 2).tobytes() == (g.r**2).tobytes()


@pytest.mark.parametrize("sizes", [dict(d=1, mode="cartesian", n=16, L=4.0),
                                   dict(d=3, mode="cartesian", n=8, L=2.5),
                                   dict(d=2, mode="radial", n_r=64, r_max=8.0)],
                         ids=["cartesian1d", "cartesian3d", "radial2d"])
def test_describe_round_trips_through_from_sizes(sizes):
    grid = Grid(**sizes)
    assert grid.describe() == sizes
    assert list(grid.describe()) == ["mode", "d", *grid.sizes]
    # a mapping with other keys too, like a config section or a header
    again = Grid.from_sizes(sizes["d"], sizes["mode"], dict(grid.describe(), time=1.0))
    assert type(again) is type(grid) and again.describe() == grid.describe()


def test_sum_over_axes_adds_the_terms_in_axis_order():
    g = Grid(3, "cartesian", n=8, L=2.5)
    want = np.zeros(g.shape)
    for ax in range(3):
        want = want + (ax + 1.5) * g.coords(ax) ** 2
    got = g.sum_over_axes(lambda ax: (ax + 1.5) * g.coords(ax) ** 2)
    assert got.shape == g.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("mode", ["spherical", None, ""])
def test_unknown_mode_raises_grid_error(mode):
    with pytest.raises(GridError, match="unknown grid mode"):
        Grid.from_sizes(2, mode, {"n": 16, "L": 4.0, "n_r": 64, "r_max": 8.0})
    with pytest.raises(GridError, match="unknown grid mode"):
        Grid(2, mode, n=16, L=4.0)


@pytest.mark.parametrize("sizes", [dict(d=1, mode="cartesian", n=64, L=6.0),
                                   dict(d=2, mode="cartesian", n=32, L=6.0),
                                   dict(d=3, mode="cartesian", n=16, L=6.0),
                                   dict(d=3, mode="radial", n_r=128, r_max=12.0)],
                         ids=["cartesian1d", "cartesian2d", "cartesian3d", "radial3d"])
def test_phi_weight_is_the_sampled_localized_weight(sizes):
    # scales whose rho = |x|/R spans the core, the cubic, the bridge and zero
    grid = Grid(**sizes)
    for R in (0.5, 1.5, 4.0, 32.0):
        want = eval_localized_weight(R, grid.radius(), grid.d).phi.reshape(grid.shape)
        got = grid.phi_weight(R)
        assert got.shape == grid.shape
        assert got.tobytes() == want.tobytes(), R
    for R in (0.0, -1.0):
        with pytest.raises(ValueError, match="positive"):
            grid.phi_weight(R)


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
    got = weighted_norm(f, g.radius_power(-2.0, 0.0))
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
    got = weighted_norm(f, g.radius_power(-0.5, 0.0))
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


def test_field_of_any_memory_layout_holds_c_ordered_values():
    # is_finite views the values as float64 pairs, which needs a contiguous last axis
    from nlslab.observables import record

    g = Grid(2, "cartesian", n=16, L=4.0)
    spec = EquationSpec(d=2, c=1.0, sigma=0.5, alpha=2.0, sign="defocusing")
    values = random_band_limited_field(g, 3).values
    wide = np.zeros((16, 32), dtype=complex)
    wide[:, ::2] = values
    want = Field(g, values.copy())
    for layout in (np.asfortranarray(values), wide[:, ::2]):
        f = Field(g, layout)
        assert mass(f) == mass(want) and record(f, spec) == record(want, spec)
        assert f.values.flags.c_contiguous
    stack = np.stack([values, 2.0 * values])
    assert Field(g, stack[1]).values.base is stack  # a C-ordered row is not copied


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
    v = SplitStepper(g, EquationSpec(d=1, c=1.0, sigma=0.5, epsilon_reg=1.0)).potential
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
    # fields above and below 256 KiB, where numpy's `mult * s` would flip its operands
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
    # a solo field gets exactly what numpy gives `ifftn(np.multiply(mult, fftn(u)))`,
    # mult the first operand at every size
    u = random_band_limited_field(grid, 1).values
    arg = 0.05 * grid.k_squared()
    mult = np.cos(arg) - 1j * np.sin(arg)
    want = np.fft.ifftn(np.multiply(mult, np.fft.fftn(u)))
    assert grid.free_propagator(0.05)(u).tobytes() == want.tobytes()
    # and grad_sq, the sum over axes of ||ifft_j(i k_j fft_j(u))||^2, each
    # summed by einsum over the floats of the derivative
    kin = 0.0
    for ax in range(grid.d):
        ik = 1j * grid.k.reshape([-1 if a == ax else 1 for a in range(grid.d)])
        du = np.fft.ifft(np.fft.fft(u, axis=ax) * ik, axis=ax).view(np.float64).ravel()
        kin += np.einsum("i,i->", du, du)
    assert grid.grad_sq_and_flux(u)[0] == float(kin) * grid.cell_volume


@pytest.mark.parametrize("grid", STACK_GRIDS, ids=lambda g: f"d{g.d}-n{g.n}")
def test_flux_is_the_sum_of_im_conj_u_times_the_weighted_derivative(grid):
    # Im(conj(u) du_j a_j) = Re(conj(u) (-i du_j) a_j), and -i du_j is exact
    u = random_band_limited_field(grid, 4).values
    for weight in ("abs", "sq"):
        flux = 0.0
        for ax in range(grid.d):
            ik = 1j * grid.k.reshape([-1 if a == ax else 1 for a in range(grid.d)])
            du = np.fft.ifft(np.fft.fft(u, axis=ax) * ik, axis=ax)
            a = grid.unit_vector(ax) if weight == "abs" else 2.0 * grid.coords(ax)
            flow = (-1j * du * a).view(np.float64).ravel()
            flux += np.einsum("i,i->", u.view(np.float64).ravel(), flow)
        assert grid.grad_sq_and_flux(u, weight)[1] == float(flux) * grid.cell_volume


_REDUCTIONS = """
import numpy as np
from nlslab.checks import random_band_limited_field
from nlslab.grid import Grid
g = Grid(2, "cartesian", n=128, L=10.0)
u = random_band_limited_field(g, 5).values
kin, flux = g.grad_sq_and_flux(u)
print(kin.hex(), flux.hex(), g.shell_mass_fraction(u).hex())
"""


_SUP_BOUNDS = """
import numpy as np
from nlslab.checks import random_band_limited_field
from nlslab.equation import EquationSpec
from nlslab.evolve import SplitStepper
from nlslab.grid import Grid
g = Grid(2, "cartesian", n=128, L=10.0)
spec = EquationSpec(d=2, c=1.0, sigma=0.5, alpha=2.0, sign="focusing")
for seed in range(6):
    for dt in (1e-2, 1e-3):
        u0 = random_band_limited_field(g, seed).values
        for u in (u0, np.stack([u0, 0.5 * u0])):
            stepper = SplitStepper(g, spec)
            u = stepper.step(u, dt)
            print(*(bound.hex() for bound in stepper.sup_bounds(u)))
"""


def _on_one_and_two_blas_threads(script):
    """script's output in two fresh interpreters, on one and two BLAS threads."""
    src = os.path.dirname(os.path.dirname(nlslab.grid.__file__))
    got = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        got.append(subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, check=True).stdout)
    return got


def test_cartesian_reductions_do_not_depend_on_the_blas_thread_count():
    # OpenBLAS splits a dot product of more than about 1e4 elements across
    # its threads; 128^2 is past that
    got = _on_one_and_two_blas_threads(_REDUCTIONS)
    assert got[0] == got[1] and len(got[0].split()) == 3


def test_sup_bounds_do_not_depend_on_the_blas_thread_count():
    # a BLAS dgemv over a stack of two 128^2 spectra moved the drift bound's
    # last bits with the thread count (seeds 2-4 at dt = 1e-2)
    got = _on_one_and_two_blas_threads(_SUP_BOUNDS)
    assert got[0] == got[1] and len(got[0].split()) == 48


@pytest.mark.parametrize("grid", STACK_GRIDS, ids=lambda g: f"d{g.d}-n{g.n}")
def test_axis_transforms_keep_the_bits_of_fftn(grid):
    # _fft and _ifft give fftn's and ifftn's bits, on a field and on a stack,
    # and _fft leaves its argument, read-only or not, as it was
    axes = tuple(range(-grid.d, 0))
    u = random_band_limited_field(grid, 2).values
    stack = np.stack([u, random_band_limited_field(grid, 3).values])
    for v, read_only in ((u, False), (stack, False), (stack.copy(), True)):
        before = v.tobytes()
        v.flags.writeable = not read_only
        spectrum = grid._fft(v)
        assert v.tobytes() == before
        assert spectrum.tobytes() == np.fft.fftn(v, axes=axes).tobytes()
        want = np.fft.ifftn(spectrum, axes=axes)
        assert grid._ifft(spectrum).tobytes() == want.tobytes()


@pytest.mark.parametrize("d, n, L", [(1, 256, 12.0), (2, 128, 10.0), (3, 64, 9.0)])
def test_derivative_pass_on_a_chirped_gaussian(d, n, L):
    # u = exp(-|x|^2/2 + i b |x|^2) has grad u = (-1 + 2ib) x u, so
    # ||grad u||^2 = (1 + 4b^2) int |x|^2 e^{-|x|^2} = (1 + 4b^2) (d/2) pi^(d/2)
    # and x/|x| . Im(conj(u) grad u) = 2b |x| |u|^2 at every node, and
    # 2x . Im(conj(u) grad u) = 4b |x|^2 |u|^2 for the weight |x|^2
    b = 0.25
    g = Grid(d, "cartesian", n=n, L=L)
    r = g.radius()
    u = np.exp(-(r**2) / 2.0 + 1j * b * r**2)
    kin, flux = g.grad_sq_and_flux(u)
    assert kin == pytest.approx((1.0 + 4.0 * b * b) * d / 2.0 * np.pi ** (d / 2.0),
                                rel=1e-10, abs=0.0)
    assert flux == pytest.approx(2.0 * b * g.integrate(r * np.abs(u) ** 2),
                                 rel=1e-10, abs=0.0)
    assert g.grad_sq_and_flux(u, "quadratic")[1] == pytest.approx(
        4.0 * b * g.integrate(r**2 * np.abs(u) ** 2), rel=1e-10, abs=0.0)


def test_radial_free_propagator_on_a_stack():
    g = Grid(3, "radial", n_r=512, r_max=10.0)
    stack = np.stack([random_radial_field(g, seed).values for seed in range(3)])
    op = g.free_propagator(0.05)
    for sub in (stack, stack[[0, 2]]):
        got = op(sub)
        for row, u in zip(got, sub):
            assert row.tobytes() == op(u).tobytes()
