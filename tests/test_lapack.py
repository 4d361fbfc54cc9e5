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
    """(ctypes solver, scipy solver) of the same bands, each on its own copy."""
    complex_ = np.iscomplexobj(bands[1])
    dtype = np.complex128 if complex_ else np.float64
    ctypes_route = _lapack._ctypes_solver(*_lapack._openblas()["z" if complex_ else "d"],
                                          *[np.array(b, dtype=dtype) for b in bands])
    scipy_route = _lapack._scipy_solver(*[np.array(b, dtype=dtype) for b in bands])
    return ctypes_route, scipy_route


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


def test_nonzero_info_from_gttrs_raises_on_both_routes(monkeypatch):
    import scipy.linalg

    bands = _shifted_bands(Grid(3, "radial", n_r=64, r_max=10.0), 1e-3j)
    real_funcs = scipy.linalg.get_lapack_funcs

    def reporting_minus_3(names, arrays):
        gttrf, gttrs = real_funcs(names, arrays)
        return gttrf, lambda *args: (gttrs(*args)[0], -3)

    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", reporting_minus_3)
    solvers = [_lapack._scipy_solver(*[np.array(b) for b in bands])]
    if _lapack._openblas() is not None:
        # the real zgttrs, handed NRHS = -1, reports argument 3 as illegal
        gttrf, gttrs = _lapack._openblas()["z"]

        def negative_nrhs(trans, n, nrhs, *rest):
            gttrs(trans, n, ctypes.byref(ctypes.c_int64(-1)), *rest)

        solvers.append(_lapack._ctypes_solver(gttrf, negative_nrhs,
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
