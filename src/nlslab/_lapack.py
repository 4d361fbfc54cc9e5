"""Tridiagonal solves: LAPACK ?gttrf, then two unit-bidiagonal ?tbsv sweeps.

?gttrf factors A = L U with partial pivoting.  Where it swapped no row,
U = D V with V unit upper bidiagonal, and A^(-1) b = V^(-1) D^(-1) L^(-1) b
is a unit-lower ?tbsv sweep, one product with the reciprocal pivots 1/d,
and a unit-upper ?tbsv sweep: no division sits in a recurrence.  The
radial solves need no swap: with W the shell weights and A the symmetric
flux stencil, W (I - z Lap) = W - z A has a positive-definite Hermitian
part for Re z >= 0 (the Crank-Nicolson z = i tau/2, the elliptic z = 1),
and elimination without row swaps is stable for such matrices (Golub and
Van Loan, Linear Algebra Appl. 28 (1979) 85-97).  Whether ?gttrf swapped
is read from its pivots, not assumed, and a factorization that swapped
rows raises LinAlgError.  None of d = 1-3, n_r 8-32 768, r_max 1e-3-1e6
and |tau| 1e-12-1e15 swaps.

One solver serves two symbol tables, each called through ctypes.  The
first is the OpenBLAS that numpy's wheel ships and has already loaded
(numpy.libs/libscipy_openblas64_*.so, whose symbols scipy_{d,z}gttrf_64_
and scipy_{d,z}tbsv_64_ take 64-bit integers), so a solve needs no scipy
import.  Where that library or a symbol is missing, the second is scipy's
Cython LAPACK and BLAS API (scipy.linalg.cython_lapack and cython_blas,
32-bit integers), whose function pointers are read from the modules'
__pyx_capi__ capsules on first use.  The swap test, the sweeps and the
checks are the same lines on both: b -> A^(-1) b, one copy of b per call,
LinAlgError on a nonzero LAPACK info.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os

import numpy as np

__all__ = ["factor_tridiagonal"]

# Both routines return void.  gttrf(n, dl, d, du, du2, ipiv, info) takes
# seven pointers.  tbsv(uplo, trans, diag, n, k, a, lda, x, incx) is
# undeclared: the solver hands it ctypes objects only, and a declared
# conversion of 12 arguments costs about 1 us per call.  The OpenBLAS
# symbol then takes the hidden length of each character argument; the
# Cython pointer takes none, and a C call, whose caller pops the arguments,
# ignores the extra ones.
_GTTRF = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 7)
_UNDECLARED = ctypes.CFUNCTYPE(None)


def _table(int_, source):
    """{"d": (int_, gttrf, tbsv), "z": (...)}, where source(prefix, name) is
    a (symbol, library) pair or an address."""
    return {p: (int_, _GTTRF(source(p, "gttrf")), _UNDECLARED(source(p, "tbsv")))
            for p in "dz"}


@functools.cache
def _openblas():
    """The symbol table of numpy's OpenBLAS (64-bit integers), or None."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        try:
            lib = ctypes.CDLL(path)
            return _table(ctypes.c_int64, lambda p, name: (f"scipy_{p}{name}_64_", lib))
        except (OSError, AttributeError):
            continue
    return None


@functools.cache
def _scipy_cython():
    """The symbol table of scipy's Cython LAPACK and BLAS API (C ints)."""
    from scipy.linalg import cython_blas, cython_lapack

    api = ctypes.pythonapi
    name_of = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
    pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))

    def address(p, name):
        capsule = (cython_blas if name == "tbsv" else cython_lapack).__pyx_capi__[p + name]
        return pointer(capsule, name_of(capsule))

    return _table(ctypes.c_int, address)


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

    The routines are numpy's OpenBLAS's, or scipy's where that is missing
    (see above).  Each right-hand side is two unit-bidiagonal ?tbsv sweeps
    with a product by the reciprocal pivots between them.  The bands are
    real or complex; a real matrix solves real right-hand sides only.
    LinAlgError if A is singular or ?gttrf swapped rows, which no shifted
    radial Laplacian I - z Lap with Re z >= 0 has been seen to make.
    """
    complex_ = any(np.iscomplexobj(band) for band in (lower, diag, upper))
    dtype = np.dtype(np.complex128 if complex_ else np.float64)
    bands = [np.array(band, dtype=dtype) for band in (lower, diag, upper)]
    n = bands[1].size
    if not bands[0].shape == bands[2].shape == (n - 1,):
        raise ValueError(f"bands of lengths {bands[0].size}, {n}, {bands[2].size} "
                         "are not tridiagonal")
    table = _openblas() or _scipy_cython()
    return _solver(*table["z" if complex_ else "d"], *bands)


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


def _solver(int_, gttrf, tbsv, dl, d, du):
    n, dtype = d.size, d.dtype
    du2, ipiv = np.empty(max(n - 2, 1), dtype), np.empty(n, int_)
    size, info = int_(n), int_()
    # gttrf overwrites the bands with the factors; each reference keeps its array alive
    gttrf(ctypes.byref(size), *map(_ref, (dl, d, du, du2, ipiv)), ctypes.byref(info))
    _check(info.value, "gttrf")
    if _swapped(ipiv):
        raise np.linalg.LinAlgError("gttrf swapped rows; the unit sweeps solve only "
                                    "a factorization without row swaps")
    n_ref = ctypes.byref(size)  # N
    one_ref = ctypes.byref(int_(1))  # K and INCX
    no, up, low = (ctypes.create_string_buffer(c) for c in (b"N", b"U", b"L"))
    length = ctypes.c_size_t(1)  # OpenBLAS's hidden length of each character argument

    # the solver keeps no array of gttrf's: read column-major, the C-ordered
    # (n, 2) band is the LDA = 2 storage of both unit factors, since a unit
    # sweep reads only its own off-diagonal row: band[j, 0] = du[j-1] / d[j-1]
    # is V's superdiagonal, band[j, 1] = dl[j] L's subdiagonal
    band, rinv = np.zeros((n, 2), dtype), 1.0 / d
    np.divide(du, d[:-1], out=band[1:, 0])
    band[:-1, 1] = dl
    band_ref, two_ref = _ref(band), ctypes.byref(int_(2))  # A and LDA

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
