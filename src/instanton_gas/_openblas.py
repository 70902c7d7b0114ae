"""Array operations on array('d') buffers by LAPACK and BLAS in scipy's bundled OpenBLAS, through ctypes.

scipy's Linux wheels ship the OpenBLAS build that scipy.linalg links
against as scipy.libs/libscipy_openblas-<hash>.so, beside the scipy
package, and it exports each LAPACK and BLAS routine under a scipy_
prefix (scipy_dstebz_, ...) with 32-bit Fortran integers.  load() finds
scipy with find_spec, which imports nothing, opens that file with
ctypes.CDLL once per process and binds the routines below, so neither
numpy nor any scipy module is imported.  The layout was checked with
scipy 1.17.1; a missing file or symbol raises ImportError naming it.

Each operation is named for the numpy or scipy expression whose bits it
keeps.  Only this module speaks the Fortran calling convention (scalars
by reference, arrays by address, hidden string lengths, stride-0
broadcasts, work buffers).  A LAPACK operation returns INFO beside its
results, as scipy.linalg.lapack does, for its caller to raise its own
error.  Routines run without the GIL, on buffers of their own call.
"""

from __future__ import annotations

import os
import sys
import threading
from array import array
from ctypes import CDLL, CFUNCTYPE, POINTER, byref, c_char_p, c_double, c_int, c_size_t, c_void_p
from functools import cache
from importlib.util import find_spec
from math import isfinite
from types import SimpleNamespace

# The file name's prefix and suffix, and the prefix of every symbol.
LIBRARY = ("libscipy_openblas-", ".so")
SYMBOL_PREFIX = "scipy_"


class _Array(c_void_p):
    """An array argument: an array('d') or array('i') passes its first item's address, anything else as it is."""

    @classmethod
    def from_param(cls, value):
        return c_void_p(value.buffer_info()[0]) if isinstance(value, array) else value


_char, _int, _double, _buf, _len = c_char_p, POINTER(c_int), POINTER(c_double), _Array, c_size_t

# Result type and argument types of each routine, as LAPACK, BLAS and OpenBLAS's Fortran interface declare them.
ROUTINES = {
    "dstebz": (
        None,
        _char, _char, _int,  # RANGE, ORDER, N
        _double, _double, _int, _int, _double,  # VL, VU, IL, IU, ABSTOL
        _buf, _buf, _int, _int,  # D, E, M, NSPLIT
        _buf, _buf, _buf, _buf, _buf, _int,  # W, IBLOCK, ISPLIT, WORK, IWORK, INFO
        _len, _len,
    ),
    "dgeev": (
        None,
        _char, _char, _int, _buf, _int,  # JOBVL, JOBVR, N, A, LDA
        _buf, _buf, _buf, _int, _buf, _int,  # WR, WI, VL, LDVL, VR, LDVR
        _buf, _int, _int,  # WORK, LWORK, INFO
        _len, _len,
    ),
    "dgelsd": (
        None,
        _int, _int, _int, _buf, _int, _buf, _int,  # M, N, NRHS, A, LDA, B, LDB
        _buf, _double, _int, _buf, _int, _buf, _int,  # S, RCOND, RANK, WORK, LWORK, IWORK, INFO
    ),
    "ddot": (c_double, _int, _buf, _int, _buf, _int),  # N, X, INCX, Y, INCY
    "dtbmv": (None, _char, _char, _char, _int, _int, _buf, _int, _buf, _int, _len, _len, _len),
    "daxpy": (None, _int, _double, _buf, _int, _buf, _int),  # N, ALPHA, X, INCX, Y, INCY
    "dscal": (None, _int, _double, _buf, _int),  # N, ALPHA, X, INCX
    "openblas_get_num_threads": (c_int,),
    "openblas_set_num_threads": (None, _int),
}

_LOAD_LOCK = threading.Lock()
# Held while polyval has the library on one thread, so that no other polyval reads that 1 as its caller's count.
_THREADS_LOCK = threading.Lock()


def library_path():
    """The path of scipy's bundled OpenBLAS; ImportError where there is not exactly one."""
    scipy = find_spec("scipy")
    if scipy is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    where = os.path.join(os.path.dirname(scipy.submodule_search_locations[0]), "scipy.libs")
    prefix, suffix = LIBRARY
    try:
        names = sorted(name for name in os.listdir(where) if name.startswith(prefix) and name.endswith(suffix))
    except OSError:
        names = []
    if len(names) != 1:
        raise ImportError(f"expected one {prefix}*{suffix} in {where}, found {len(names)}", path=where)
    return os.path.join(where, names[0])


@cache
def _bind():
    path = library_path()
    library = CDLL(path)
    routines = {}
    for name, (restype, *argtypes) in ROUTINES.items():
        symbol = f"{SYMBOL_PREFIX}{name}_"
        try:
            routines[name] = CFUNCTYPE(restype, *argtypes)((symbol, library))
        except AttributeError:
            raise ImportError(f"{path} has no symbol {symbol}", path=path) from None
    return SimpleNamespace(**routines)


def load():
    """The bound routines, as attributes named dstebz, dgeev, ...: the library is opened once, under a lock."""
    with _LOAD_LOCK:
        return _bind()


def linspace(start, stop, num):
    """np.linspace(start, stop, num) for num >= 2 and a nonzero step: the ramp 0, 1, ..., num - 1
    (doubled by appending its head plus its length), times the step, plus start, and stop last."""
    x = array("d", [0.0, 1.0])
    while len(x) < num:
        head = x[:num - len(x)]
        add(head, len(x))
        x += head
    scale(x, (stop - start) / (num - 1))
    add(x, start)
    x[-1] = stop
    return x


def polyval(coefficients, x):
    """numpy's polyval of coefficients (lowest degree first) at each point of the array('d') x.

    polyval's steps: the leading coefficient (plus x * 0, a zero at a finite x), then value * x
    (dtbmv, no band above the diagonal) + c for each lower c.  OpenBLAS threads dtbmv at every
    size, where its workers only add wake-ups (on an idle 2-core host, 3-5 us a call on 10 and 200
    points and 15-28 us on 4001 and 8001 with two threads, 2 and 5-8 us with one), so the loop
    runs on one thread and then restores the caller's count.
    """
    blas, n, zero, one, unit = load(), c_int(len(x)), c_int(0), c_int(1), c_double(1.0)
    value = array("d", [coefficients[-1]]) * len(x)
    at_x, at_value = _Array.from_param(x), _Array.from_param(value)
    with _THREADS_LOCK:
        threads = blas.openblas_get_num_threads()
        blas.openblas_set_num_threads(c_int(1))
        try:
            for c in coefficients[-2::-1]:
                blas.dtbmv(b"U", b"N", b"N", n, zero, at_x, one, at_value, one, 1, 1, 1)
                blas.daxpy(n, unit, byref(c_double(c)), zero, at_value, one)
        finally:
            blas.openblas_set_num_threads(c_int(threads))
    return value


def all_finite(x):
    """Whether every entry of the array('d') x is finite: x . 0 is 0 then, and NaN
    where an entry is not (0 inf is NaN), one ddot with a zero stride."""
    return isfinite(load().ddot(c_int(len(x)), x, c_int(1), array("d", [0.0]), c_int(0)))


def add(x, value):
    """x += value in place, numpy's broadcast sum: one daxpy of the scalar with a zero stride."""
    load().daxpy(c_int(len(x)), c_double(1.0), array("d", [value]), c_int(0), x, c_int(1))


def scale(x, factor):
    """x *= factor in place, numpy's broadcast product (dscal)."""
    load().dscal(c_int(len(x)), c_double(factor), x, c_int(1))


def dot(x, y):
    """x @ y for two array('d') of one length, by ddot as numpy's @ (math.fsum sums in another order)."""
    return load().ddot(c_int(len(x)), x, c_int(1), y, c_int(1))


def eigvals(a, n):
    """(real parts, imaginary parts, INFO) of numpy's eigvals of the n x n matrix a, an array('d') in
    column-major order that is overwritten: dgeev without eigenvectors, with the queried workspace."""
    real, imag, info, size, unit = array("d", [0.0]) * n, array("d", [0.0]) * n, c_int(), c_int(n), c_int(1)
    matrix = (b"N", b"N", size, a, size, real, imag, None, unit, None, unit)
    blas, work = load(), array("d", [0.0])
    blas.dgeev(*matrix, work, c_int(-1), info, 1, 1)  # the workspace query
    if info.value == 0:
        work = array("d", [0.0]) * int(work[0])
        blas.dgeev(*matrix, work, c_int(len(work)), info, 1, 1)
    return real, imag, info.value


def stebz(d, e, count, abstol):
    """(a list of the `count` smallest eigenvalues found, INFO) of the symmetric tridiagonal matrix with
    diagonal d and off-diagonal e, array('d')s of n and n - 1 entries: dstebz with the arguments of
    scipy.linalg.eigh_tridiagonal's select="i", lapack_driver="stebz" (range "I", order "E")."""
    n = len(d)
    w, work = array("d", [0.0]) * n, array("d", [0.0]) * (4 * n)
    iblock, isplit, iwork = array("i", [0]) * n, array("i", [0]) * n, array("i", [0]) * (3 * n)
    found, nsplit, info = c_int(), c_int(), c_int()
    load().dstebz(  # E gets one entry even at n = 1, where it needs none, so that its address is not NULL
        b"I", b"E", c_int(n), c_double(0.0), c_double(0.0), c_int(1), c_int(count), c_double(abstol),
        d, e or array("d", [0.0]), found, nsplit, w, iblock, isplit, work, iwork, info, 1, 1,
    )
    return w[:found.value].tolist(), info.value


def lstsq_line(x, y):
    """(slope, intercept, INFO) of numpy's lstsq line through the points (x_i, y_i): dgelsd on the
    design [x, 1] in column-major order, rcond = eps max(m, 2), with the queried workspace."""
    m = len(x)
    design, rhs = array("d", x) + array("d", [1.0]) * m, array("d", y)
    singular, rank, info, rows = array("d", [0.0, 0.0]), c_int(), c_int(), c_int(m)
    problem = (rows, c_int(2), c_int(1), design, rows, rhs, rows, singular,
               c_double(sys.float_info.epsilon * max(m, 2)), rank)
    blas, work, iwork = load(), array("d", [0.0]), array("i", [0])
    blas.dgelsd(*problem, work, c_int(-1), iwork, info)  # the workspace query
    if info.value == 0:
        work, iwork = array("d", [0.0]) * int(work[0]), array("i", [0]) * max(iwork[0], 1)
        blas.dgelsd(*problem, work, c_int(len(work)), iwork, info)
    return rhs[0], rhs[1], info.value
