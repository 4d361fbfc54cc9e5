"""Flush-to-zero arithmetic for the stepping loops.

`flush_subnormals()` is a context manager that sets flush-to-zero and
denormals-are-zero (MXCSR bits 15 and 6) for the calling thread and
restores the saved floating-point environment on exit, also on an
exception.  Inside it, a result or an operand below the smallest normal
float64 (2.2e-308) reads as 0.  A dispersing field whose tail decays
through that range otherwise runs every numpy pass and every LAPACK
back-substitution over it in microcode assists, several times slower.

It acts on x86-64 Linux only, where fenv_t is eight 32-bit words with
MXCSR last (glibc and musl), fegetenv and fesetenv resolve in the
running process, and the saved word has the default exception masks
set.  Anywhere else it does nothing and arithmetic stays IEEE.  MXCSR is
per thread, so other threads and worker processes keep their own modes.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import sys

__all__ = ["flush_subnormals"]

_FTZ_DAZ = 0x8040  # MXCSR flush-to-zero (bit 15) and denormals-are-zero (bit 6)
_MASKS = 0x1F80  # MXCSR exception masks, all set by default


class _Env(ctypes.Structure):
    _fields_ = [("words", ctypes.c_uint32 * 8)]  # x86-64 fenv_t, MXCSR last


@functools.cache
def _fenv():
    """(fegetenv, fesetenv) of the running process, or None where the
    flush does not apply."""
    if sys.platform != "linux" or os.uname().machine != "x86_64":
        return None
    try:
        libc = ctypes.CDLL(None)  # the process's own symbols: CPython links libm
        get, set_ = libc.fegetenv, libc.fesetenv
    except (OSError, AttributeError):
        return None
    for routine in (get, set_):
        routine.argtypes, routine.restype = [ctypes.POINTER(_Env)], ctypes.c_int
    return get, set_


@contextlib.contextmanager
def flush_subnormals():
    """Flush-to-zero and denormals-are-zero for this thread inside the
    block; the caller's environment is restored on exit."""
    routines = _fenv()
    saved = _Env()
    # a word without the default masks is not an MXCSR this module knows
    if routines is None or routines[0](saved) != 0 or saved.words[7] & _MASKS != _MASKS:
        yield
        return
    flushing = _Env.from_buffer_copy(saved)
    flushing.words[7] |= _FTZ_DAZ
    routines[1](flushing)
    try:
        yield
    finally:
        routines[1](saved)
