"""LAPACK and BLAS routines from the OpenBLAS library in scipy's wheel, through ctypes.

scipy's Linux wheels ship the OpenBLAS build that scipy.linalg links
against as one file, scipy.libs/libscipy_openblas-<hash>.so, in the
directory that holds the scipy package, and that file exports each
LAPACK and BLAS routine under a scipy_ prefix (scipy_dstebz_, ...) with
32-bit Fortran integers.  load() finds the scipy package with find_spec,
which imports nothing, opens that file with ctypes.CDLL once per process,
and binds the routines that the grid commands call.  So neither numpy nor
any scipy module is imported.  The layout was checked with scipy 1.17.1;
where the file or a symbol is missing, load() raises ImportError naming it.

load() also sets the library to one thread.  The grid path's calls are
level-1 and level-2 operations on vectors and small LAPACK solves, where
OpenBLAS's worker threads only add wake-ups: dtbmv, which OpenBLAS
threads at every size, took 3-5 us a call on 10 and 200 points and 15-28
us on 4001 and 8001 points with two threads on an idle 2-core host,
against 2 us and 5-8 us on one.  The setting belongs to the library, so
a scipy.linalg imported later in the same process, which calls the same
library, runs on one thread as well.

Each routine is a CFUNCTYPE prototype on its symbol, and ctypes releases
the GIL while it runs.  Scalars are passed by reference, as Fortran takes
them, arrays as the address of an array('d') or array('i') (address()),
and each LAPACK character argument is followed by its hidden length.
"""

from __future__ import annotations

import os
import threading
from ctypes import CDLL, CFUNCTYPE, POINTER, c_char_p, c_double, c_int, c_size_t, c_void_p
from functools import cache
from importlib.util import find_spec
from types import SimpleNamespace

# The file name's prefix and suffix, and the prefix of every symbol.
LIBRARY = ("libscipy_openblas-", ".so")
SYMBOL_PREFIX = "scipy_"

_char, _int, _double, _buf, _len = c_char_p, POINTER(c_int), POINTER(c_double), c_void_p, c_size_t

# Result type and argument types of each routine, as LAPACK and BLAS declare them.
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
    "dcopy": (None, _int, _buf, _int, _buf, _int),  # N, X, INCX, Y, INCY
}

_LOAD_LOCK = threading.Lock()


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
    symbol = f"{SYMBOL_PREFIX}openblas_set_num_threads"
    try:
        set_threads = getattr(library, symbol)
    except AttributeError:
        raise ImportError(f"{path} has no symbol {symbol}", path=path) from None
    set_threads.argtypes = [c_int]
    set_threads(1)
    return SimpleNamespace(**routines)


def load():
    """The bound routines, as attributes named dstebz, dgeev, ...: the library is opened once.

    Threads whose first calls meet wait on one lock, so one of them opens
    it.
    """
    with _LOAD_LOCK:
        return _bind()


def address(buffer, offset=0):
    """The address of item `offset` of an array('d') or array('i'), for a routine's array argument."""
    return buffer.buffer_info()[0] + offset * buffer.itemsize
