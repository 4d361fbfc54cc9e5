"""Tridiagonal solves: LAPACK ?gttrf, then two unit-bidiagonal ?tbsv sweeps.

?gttrf factors A = L U with partial pivoting.  Where it swapped no row,
U = D V with V unit upper bidiagonal, and A^(-1) b = V^(-1) D^(-1) L^(-1) b
is a unit-lower ?tbsv sweep, one product with the reciprocal pivots 1/d,
and a unit-upper ?tbsv sweep: no division sits in a recurrence, as it
does in ?gttrs's back-substitution.  The radial solves need no swap:
with W the shell weights and A the symmetric flux stencil, W (I - z Lap)
= W - z A has a positive-definite Hermitian part for Re z >= 0 (the
Crank-Nicolson z = i tau/2, the elliptic z = 1), and elimination without
row swaps is stable for such matrices (Golub and Van Loan, Linear Algebra
Appl. 28 (1979) 85-97).  Whether ?gttrf swapped is read from its pivots,
not assumed, and a factorization that swapped rows is solved by ?gttrs.

The routines are bound with ctypes from the OpenBLAS that numpy's wheel
ships and has already loaded (numpy.libs/libscipy_openblas64_*.so, whose
symbols scipy_{d,z}gttr{f,s}_64_ and scipy_{d,z}tbsv_64_ take 64-bit
integers), so a solve needs no scipy import.  Where that library or a
symbol is missing, scipy.linalg.get_{lapack,blas}_funcs supply the same
routines, imported on first use.  Both routes give the same solver with
the same bytes: b -> A^(-1) b, one copy of b per call, LinAlgError on a
nonzero LAPACK info.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os

import numpy as np

__all__ = ["factor_tridiagonal"]

_INT = ctypes.c_int64


@functools.cache
def _openblas():
    """{"d": (gttrf, gttrs, tbsv), "z": (...)} bound from numpy's OpenBLAS, or None."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        try:
            lib = ctypes.CDLL(path)
            routines = {p: tuple(getattr(lib, f"scipy_{p}{name}_64_")
                                 for name in ("gttrf", "gttrs", "tbsv")) for p in "dz"}
        except (OSError, AttributeError):
            continue
        for gttrf, gttrs, tbsv in routines.values():
            # gttrf(n, dl, d, du, du2, ipiv, info)
            gttrf.argtypes, gttrf.restype = [ctypes.c_void_p] * 7, None
            # gttrs(trans, n, nrhs, dl, d, du, du2, ipiv, b, ldb, info, len(trans))
            # and tbsv(uplo, trans, diag, n, k, a, lda, x, incx, len(uplo),
            # len(trans), len(diag)), undeclared: the solvers hand them ctypes
            # objects only, and a declared conversion of 12 arguments costs
            # about 1 us per call
            gttrs.restype = tbsv.restype = None
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
    its solver b -> A^(-1) b along b's last axis, where b is one right-hand
    side of len(diag) or a (K, len(diag)) stack of them.

    Where the factorization swapped no row, as on every shifted radial
    Laplacian tried (see above), each right-hand side is two
    unit-bidiagonal ?tbsv sweeps with a product by the reciprocal pivots
    between them; otherwise it is one ?gttrs back-substitution.  The bands are real or complex; a real matrix solves
    real right-hand sides only.  LinAlgError if A is singular.
    """
    complex_ = any(np.iscomplexobj(band) for band in (lower, diag, upper))
    dtype = np.dtype(np.complex128 if complex_ else np.float64)
    bands = [np.array(band, dtype=dtype) for band in (lower, diag, upper)]
    n = bands[1].size
    if not bands[0].shape == bands[2].shape == (n - 1,):
        raise ValueError(f"bands of lengths {bands[0].size}, {n}, {bands[2].size} "
                         "are not tridiagonal")
    routines = _openblas()
    if routines is None:
        return _scipy_solver(*bands)
    return _ctypes_solver(*routines["z" if complex_ else "d"], *bands)


def _unit_factors(dl, d, du):
    """(band, 1/d) of a factorization that swapped no row: the C-ordered
    (n, 2) array band is, read column-major, the LDA = 2 band storage of
    both unit factors, since a unit sweep reads only its own off-diagonal
    row: band[j, 0] = du[j-1] / d[j-1] is V's superdiagonal, band[j, 1] =
    dl[j] L's subdiagonal."""
    band = np.zeros((d.size, 2), d.dtype)
    np.divide(du, d[:-1], out=band[1:, 0])
    band[:-1, 1] = dl
    return band, 1.0 / d


def _ref(a):
    """A reference to a contiguous array's first element, which keeps a alive."""
    return ctypes.byref(ctypes.c_char.from_buffer(a))


def _swapped(ipiv):
    """Whether ?gttrf's 1-based pivots record a row swap."""
    return not np.array_equal(ipiv, np.arange(1, ipiv.size + 1))


def _checked_copy(b, n, dtype):
    x = np.array(b, dtype, order="C")  # the one copy, which the routines overwrite
    if x.ndim not in (1, 2) or x.shape[-1] != n:
        raise ValueError(f"right-hand side of shape {x.shape} for a system of {n}")
    return x


def _ctypes_solver(gttrf, gttrs, tbsv, dl, d, du):
    n, dtype = d.size, d.dtype
    # gttrf overwrites the bands with the factors; each reference keeps its array alive
    factors = (dl, d, du, np.empty(max(n - 2, 1), dtype), np.empty(n, np.int64))
    refs = tuple(_ref(a) for a in factors)
    size, info = _INT(n), _INT()
    gttrf(ctypes.byref(size), *refs, ctypes.byref(info))
    _check(info.value, "gttrf")
    n_ref = ctypes.byref(size)  # N, and LDB of every right-hand side
    one_ref = ctypes.byref(_INT(1))  # K, INCX, and NRHS of a single right-hand side
    no, up, low = (ctypes.create_string_buffer(c) for c in (b"N", b"U", b"L"))
    length = ctypes.c_size_t(1)  # the hidden length of every character argument

    if _swapped(factors[4]):
        def solve(b):
            x = _checked_copy(b, n, dtype)
            status = _INT()  # one per call, so that threads may share the solver
            # a C-ordered (K, n) stack is the column-major n x K matrix B of LAPACK
            nrhs = one_ref if x.size == n else ctypes.byref(_INT(x.size // n))
            gttrs(no, n_ref, nrhs, *refs, _ref(x), n_ref, ctypes.byref(status), length)
            _check(status.value, "gttrs")
            return x

        return solve

    band, rinv = _unit_factors(dl, d, du)  # the solver keeps no array of gttrf's
    band_ref, two_ref = _ref(band), ctypes.byref(_INT(2))  # A and LDA

    def solve(b):
        x = _checked_copy(b, n, dtype)
        for row in (x,) if x.ndim == 1 else x:
            row_ref = _ref(row)
            # UPLO, TRANS = N, DIAG = U(nit), N, K = 1, A, LDA, X, INCX = 1
            tbsv(low, no, up, n_ref, one_ref, band_ref, two_ref, row_ref, one_ref,
                 length, length, length)
            row *= rinv
            tbsv(up, no, up, n_ref, one_ref, band_ref, two_ref, row_ref, one_ref,
                 length, length, length)
        return x

    return solve


def _scipy_solver(dl, d, du):
    from scipy.linalg import get_blas_funcs, get_lapack_funcs

    gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), (dl, d, du))
    *factors, info = gttrf(dl, d, du)
    _check(info, "gttrf")

    if _swapped(factors[4]):
        def solve(b):
            x, status = gttrs(*factors, b.T)  # f2py's column-major copy of b.T is x.T
            _check(status, "gttrs")
            return x.T

        return solve

    tbsv = get_blas_funcs("tbsv", (d,))
    band, rinv = _unit_factors(*factors[:3])
    band_f = band.T  # the Fortran-ordered (2, n) storage, no copy

    def solve(b):
        x = _checked_copy(b, rinv.size, rinv.dtype)
        for row in (x,) if x.ndim == 1 else x:
            y = tbsv(1, band_f, row, lower=1, diag=1, overwrite_x=1)
            y *= rinv
            row[...] = tbsv(1, band_f, y, lower=0, diag=1, overwrite_x=1)
        return x

    return solve
