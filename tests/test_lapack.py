import ctypes

import numpy as np
import pytest

from nlslab import _lapack
from nlslab.grid import Grid

needs_openblas = pytest.mark.skipif(_lapack._openblas() is None,
                                    reason="numpy ships no scipy-openblas64 library here")


def _shifted_bands(grid, z):
    """Bands of I - z Lap, as RadialGrid.factor_shifted_laplacian forms them."""
    s = grid.stencil()
    return -z * s.lower, 1.0 - z * s.diag, -z * s.upper


def _both_routes(bands):
    """(numpy OpenBLAS solver, scipy Cython solver) of the same bands, each
    on its own copy."""
    complex_ = np.iscomplexobj(bands[1])
    dtype = np.complex128 if complex_ else np.float64
    return tuple(_lapack._solver(*table["z" if complex_ else "d"],
                                 *[np.array(b, dtype=dtype) for b in bands])
                 for table in (_lapack._openblas(), _lapack._scipy_cython()))


def _swapping_bands(n, complex_):
    """Bands whose tiny leading pivot makes ?gttrf swap rows 1 and 2."""
    diag = np.full(n, 4.0)
    diag[0] = 1e-8
    lower, upper = np.ones(n - 1), np.full(n - 1, 0.5)
    if not complex_:
        return lower, diag, upper
    return lower + 0j, diag + 1j * np.linspace(0.0, 1.0, n), upper + 0j


def _residual(bands, x, b):
    """max|A x - b| / max|b| for the tridiagonal A with these bands."""
    lower, diag, upper = bands
    ax = diag * x
    ax[..., 1:] += lower * x[..., :-1]
    ax[..., :-1] += upper * x[..., 1:]
    return np.max(np.abs(ax - b)) / np.max(np.abs(b))


def _gttrs_reference(bands, b):
    """b solved by scipy's ?gttrf and ?gttrs, whatever the pivots."""
    from scipy.linalg import get_lapack_funcs

    gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), bands)
    *factors, info = gttrf(*bands)
    x, status = gttrs(*factors, b)
    assert info == status == 0
    return x


def _right_hand_sides(n, complex_):
    rng = np.random.default_rng(n)
    one = rng.standard_normal(n)
    stack = rng.standard_normal((5, n))
    if complex_:
        one = one + 1j * rng.standard_normal(n)
        stack = stack + 1j * rng.standard_normal((5, n))
    return one, stack, np.asfortranarray(stack)


@needs_openblas
@pytest.mark.parametrize("z", [1e-3j, -1e-3j, 2e-3j, 1.0])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_ctypes_and_scipy_routes_give_the_same_bytes(d, z):
    # z = 1 is the real (1 - Lap)^(-1) that the elliptic solver applies part by part
    grid = Grid(d, "radial", n_r=512, r_max=20.0)
    ctypes_route, scipy_route = _both_routes(_shifted_bands(grid, z))
    for b in _right_hand_sides(grid.n_r, isinstance(z, complex)):
        before = b.tobytes()
        got, want = ctypes_route(b), scipy_route(b)
        assert got.dtype == want.dtype and got.shape == want.shape == b.shape
        assert got.flags.c_contiguous and got.tobytes() == want.tobytes()
        assert b.tobytes() == before


@needs_openblas
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_row_swapping_factorization_solves_through_gttrs_on_both_routes(complex_):
    bands = _swapping_bands(64, complex_)
    calls = []

    def counted(name, routine):
        def call(*args, **kw):
            calls.append(name)
            return routine(*args, **kw)
        return call

    solvers = []
    for route, table in (("numpy", _lapack._openblas()), ("scipy", _lapack._scipy_cython())):
        int_, gttrf, gttrs, tbsv = table["z" if complex_ else "d"]
        solvers.append(_lapack._solver(int_, gttrf, counted(f"{route} gttrs", gttrs),
                                       counted(f"{route} tbsv", tbsv),
                                       *[np.array(b) for b in bands]))
    for b in _right_hand_sides(64, complex_):
        got, want = (solve(b) for solve in solvers)
        assert got.tobytes() == want.tobytes()
        assert _residual(bands, got, b) <= 1e-14
    assert calls == ["numpy gttrs", "scipy gttrs"] * 3


def _scatter_and_ground_state_matrices():
    scatter = Grid(3, "radial", n_r=3072, r_max=96.0)
    ground_state = Grid(3, "radial", n_r=32768, r_max=20.0)
    return [(scatter, 2e-3j), (scatter, -2e-3j), (ground_state, 1.0)]


@needs_openblas
@pytest.mark.parametrize("grid, z", _scatter_and_ground_state_matrices(),
                         ids=["scatter+", "scatter-", "ground-state"])
def test_unit_sweeps_agree_with_gttrs(grid, z):
    # the scatter-radial3d matrix I - z Lap, z = i tau/2 with tau = +-4e-3, and
    # the elliptic 1 - Lap of a d = 3 ground-state solve
    bands = _shifted_bands(grid, z)
    ctypes_route, scipy_route = _both_routes(bands)
    for b in _right_hand_sides(grid.n_r, isinstance(z, complex)):
        got, want = ctypes_route(b), _gttrs_reference(bands, b.T).T
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        assert got.tobytes() == scipy_route(b).tobytes()


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n_r, r_max", [(8, 1.0), (512, 20.0), (3072, 96.0),
                                        (32768, 1000.0)])
def test_shifted_laplacians_factor_without_row_swaps(d, n_r, r_max, monkeypatch):
    # Re z >= 0 gives W (I - z Lap) a positive-definite Hermitian part, and
    # ?gttrf swaps no row: every solver takes the unit sweeps
    pivots_swapped = []
    real_swapped = _lapack._swapped

    def noting_swapped(ipiv):
        pivots_swapped.append(real_swapped(ipiv))
        return pivots_swapped[-1]

    monkeypatch.setattr(_lapack, "_swapped", noting_swapped)
    grid = Grid(d, "radial", n_r=n_r, r_max=r_max)
    for tau in (1e-6, 1e-3, 4e-3, 0.1, 10.0, 1e4):
        for z in (0.5j * tau, -0.5j * tau, tau):
            grid.factor_shifted_laplacian(z)
    assert pivots_swapped == [False] * 18


@pytest.mark.parametrize("z", [2e-3j, -2e-3j, 1.0])
def test_halved_matrix_solves_to_twice_the_solution(z, monkeypatch):
    # (I - z Lap)/2 keeps the multipliers and halves the pivots exactly, so
    # free_propagator's solve is the unscaled solve times 2 to the bit
    grid = Grid(3, "radial", n_r=512, r_max=20.0)
    one, stack, _ = _right_hand_sides(grid.n_r, isinstance(z, complex))
    routes = [lambda: None]  # the scipy fallback
    if _lapack._openblas() is not None:
        routes.append(_lapack._openblas)
    for route in routes:
        monkeypatch.setattr(_lapack, "_openblas", route)
        halved, whole = (grid.factor_shifted_laplacian(z, s) for s in (0.5, 1.0))
        for b in (one, stack):
            assert halved(b).tobytes() == (2.0 * whole(b)).tobytes()
    u = one + 0j
    assert (grid.free_propagator(4e-3)(u).tobytes()
            == (2.0 * grid.factor_shifted_laplacian(2e-3j)(u) - u).tobytes())


def test_fallback_route_gives_the_same_bytes(monkeypatch):
    grid = Grid(3, "radial", n_r=512, r_max=20.0)
    u = np.stack([np.exp(-grid.r**2) * (1.0 + 1j * k) for k in range(3)])
    step = grid.free_propagator(0.01)
    want = [step(u[0]).tobytes(), step(u).tobytes(), grid.inv_one_minus_lap(u[0]).tobytes()]
    monkeypatch.setattr(_lapack, "_openblas", lambda: None)
    fresh = Grid(3, "radial", n_r=512, r_max=20.0)
    step = fresh.free_propagator(0.01)
    got = [step(u[0]).tobytes(), step(u).tobytes(), fresh.inv_one_minus_lap(u[0]).tobytes()]
    assert got == want


def test_singular_shifted_laplacian_raises_on_both_routes(monkeypatch):
    # d = 1 with dr = 1: Lap v = -2 v for the alternating pairs v below, so
    # I - z Lap is exactly singular at z = -1/2, and ?gttrf's last pivot is 0
    grid = Grid(1, "radial", n_r=9, r_max=9.0)
    v = np.array([1.0, -1.0, -1.0, 1.0, 1.0, -1.0, -1.0, 1.0, 1.0])
    assert np.array_equal(grid.laplacian(v), -2.0 * v)
    routes = [lambda: None]  # the scipy fallback
    if _lapack._openblas() is not None:
        routes.append(_lapack._openblas)
    for route in routes:
        monkeypatch.setattr(_lapack, "_openblas", route)
        for z in (-0.5, -0.5 + 0j):
            with pytest.raises(np.linalg.LinAlgError, match="gttrf: pivot 9"):
                grid.factor_shifted_laplacian(z)


def test_nonzero_info_from_gttrs_raises_on_both_routes():
    bands = _swapping_bands(64, True)  # only a factorization that swapped reaches gttrs
    tables = [_lapack._scipy_cython()]
    if _lapack._openblas() is not None:
        tables.append(_lapack._openblas())
    solvers = []
    for table in tables:
        # the real zgttrs, handed NRHS = -1, reports argument 3 as illegal
        int_, gttrf, gttrs, tbsv = table["z"]

        def negative_nrhs(trans, n, nrhs, *rest, int_=int_, gttrs=gttrs):
            gttrs(trans, n, ctypes.byref(int_(-1)), *rest)

        solvers.append(_lapack._solver(int_, gttrf, negative_nrhs, tbsv,
                                       *[np.array(b) for b in bands]))
    for solve in solvers:
        with pytest.raises(np.linalg.LinAlgError, match="gttrs: argument 3 has an illegal"):
            solve(np.ones(64, dtype=complex))


@needs_openblas
def test_ctypes_solver_refuses_a_right_hand_side_of_another_length():
    grid = Grid(2, "radial", n_r=64, r_max=10.0)
    solve = grid.factor_shifted_laplacian(1e-3j)
    for b in (np.ones(63), np.ones((2, 65)), np.ones((2, 2, 64))):
        with pytest.raises(ValueError, match="right-hand side"):
            solve(b)
