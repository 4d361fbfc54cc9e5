"""Tridiagonal LU solves through LAPACK ?gttrf / ?gttrs.

The routines are bound with ctypes from the OpenBLAS that numpy's wheel
ships and has already loaded (numpy.libs/libscipy_openblas64_*.so, whose
LAPACK symbols scipy_{d,z}gttr{f,s}_64_ take 64-bit integers), so a solve
needs no scipy import.  Where that library or a symbol is missing,
scipy.linalg.get_lapack_funcs supplies the same routines, imported on
first use.  Both routes give the same solver: b -> A^(-1) b, one copy of
b per call, LinAlgError on a nonzero LAPACK info.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os

import numpy as np

__all__ = ["factor_tridiagonal"]

_INT = ctypes.c_int64
_PTR = ctypes.c_void_p


@functools.cache
def _openblas():
    """{"d": (gttrf, gttrs), "z": (...)} bound from numpy's OpenBLAS, or None."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        try:
            lib = ctypes.CDLL(path)
            routines = {p: (getattr(lib, f"scipy_{p}gttrf_64_"),
                            getattr(lib, f"scipy_{p}gttrs_64_")) for p in "dz"}
        except (OSError, AttributeError):
            continue
        for gttrf, gttrs in routines.values():
            # gttrf(n, dl, d, du, du2, ipiv, info)
            gttrf.argtypes, gttrf.restype = [_PTR] * 7, None
            # gttrs(trans, n, nrhs, dl, d, du, du2, ipiv, b, ldb, info, len(trans)),
            # undeclared: the solver hands it ctypes objects only, and a declared
            # conversion of its 12 arguments costs about 1 us per solve
            gttrs.restype = None
        return routines
    return None


def _check(info, routine):
    if info > 0:
        raise np.linalg.LinAlgError(f"{routine}: pivot {info} is exactly zero; "
                                    "the matrix is singular")
    if info < 0:
        raise np.linalg.LinAlgError(f"{routine}: argument {-info} has an illegal value")


def factor_tridiagonal(lower, diag, upper):
    """LU-factor the tridiagonal matrix with these bands (?gttrf) and return
    its solver b -> A^(-1) b along b's last axis (one ?gttrs back-substitution),
    where b is one right-hand side of len(diag) or a (K, len(diag)) stack of them.

    The bands are real or complex; a real matrix solves real right-hand
    sides only.  LinAlgError if A is singular.
    """
    complex_ = any(np.iscomplexobj(band) for band in (lower, diag, upper))
    dtype = np.dtype(np.complex128 if complex_ else np.float64)
    bands = [np.array(band, dtype=dtype) for band in (lower, diag, upper)]
    routines = _openblas()
    if routines is None:
        return _scipy_solver(*bands)
    return _ctypes_solver(*routines["z" if complex_ else "d"], *bands)


def _ctypes_solver(gttrf, gttrs, dl, d, du):
    n = d.size
    if not dl.shape == du.shape == (n - 1,):
        raise ValueError(f"bands of lengths {dl.size}, {n}, {du.size} are not tridiagonal")
    # gttrf overwrites the bands with the factors, which this closure keeps alive
    factors = (dl, d, du, np.empty(max(n - 2, 1), d.dtype), np.empty(n, np.int64))
    pointers = tuple(_PTR(a.ctypes.data) for a in factors)
    size, info = _INT(n), _INT()
    gttrf(ctypes.byref(size), *pointers, ctypes.byref(info))
    _check(info.value, "gttrf")
    n_ref = ctypes.byref(size)  # N, and LDB of every right-hand side
    one_ref = ctypes.byref(_INT(1))  # NRHS of a single right-hand side
    trans, trans_len = ctypes.create_string_buffer(b"N"), ctypes.c_size_t(1)

    def solve(b):
        x = np.array(b, factors[1].dtype, order="C")  # the one copy; gttrs overwrites it
        if x.ndim not in (1, 2) or x.shape[-1] != n:
            raise ValueError(f"right-hand side of shape {x.shape} for a system of {n}")
        status = _INT()  # one per call, so that threads may share the solver
        # a C-ordered (K, n) stack is the column-major n x K matrix B of LAPACK
        nrhs = one_ref if x.size == n else ctypes.byref(_INT(x.size // n))
        gttrs(trans, n_ref, nrhs, *pointers, ctypes.byref(ctypes.c_char.from_buffer(x)),
              n_ref, ctypes.byref(status), trans_len)
        _check(status.value, "gttrs")
        return x

    return solve


def _scipy_solver(dl, d, du):
    from scipy.linalg import get_lapack_funcs

    gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), (dl, d, du))
    *factors, info = gttrf(dl, d, du)
    _check(info, "gttrf")

    def solve(b):
        x, status = gttrs(*factors, b.T)  # f2py's column-major copy of b.T is x.T
        _check(status, "gttrs")
        return x.T

    return solve
