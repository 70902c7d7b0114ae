"""Grid benchmark: exact low spectrum of -psi''/2 + V psi.

Second-order central differences on a uniform grid with Dirichlet walls
turn the operator into a symmetric tridiagonal matrix whose lowest
eigenvalues are found by LAPACK bisection (`stebz`).
The doublet gap of the benchmark family

    V(x) = lam (x^2-1)^2 (x^2 + b x + 1),   |b| < 2,

(degenerate minima at +-1 with curvatures 8 lam (2 -+ b)) provides an
independent check of the summed-gas splitting formula: the extracted
coupling should scale like e^(-S) with the tunneling action S.

The gap is a difference of two eigenvalues of a matrix whose norm is about
2/h^2, so it carries an absolute floor near 1e-10 on the default grids:
symmetric wells lose their gap from lam ~ 130 on.

numpy is imported by the functions that compute with it, so importing the
module for its grid defaults loads no numpy.  The solver calls the Fortran
`dstebz` that scipy's LAPACK wrapper, scipy.linalg._flapack, is built on,
through ctypes, which releases the GIL for the call; the wrapper is loaded
on first use without running the scipy or scipy.linalg package and their
imports.  So
numeric_gap solves its two grids at once, the coarse one in a second
thread, with the bits of one grid after the other.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass
from functools import cache
from importlib.machinery import PathFinder
from importlib.util import find_spec, module_from_spec, spec_from_file_location
from math import isfinite
from typing import TYPE_CHECKING, NamedTuple

from .potential import (
    ComputationError,
    ParameterError,
    PolynomialPotential,
    WellParameters,
    find_minima,
    well_parameters,
)
from .spectrum import energies, extract_coupling

if TYPE_CHECKING:
    import numpy as np

DEFAULT_GRID = None  # set below, after GridSpec is defined

# Absolute bisection tolerance handed to stebz.  Its default, eps ||T||_1,
# is about 6e-10 on the 8001-point grid, above the gap floor itself, and
# moves the lam=96 symmetric gap by 4e-10; at 1e-13 the bisection error
# stays well below the floor.
EIGENVALUE_TOL = 1e-13

# Most points of any grid, a refined one included: `benchmark --points
# 500001`, refined to this many, peaks at about 135 MiB.
MAX_POINTS = 1_000_001
# Widest range of the grid spacing h, so that 1/h^2 is a finite float.
SPACING_RANGE = (1e-150, 1e150)


class SolverError(ComputationError):
    """Base error for the grid solver."""


class DomainError(SolverError):
    """Boundary potential too low to confine the states of interest."""


class BracketError(SolverError):
    """The operator has fewer eigenvalues than were requested."""


class ScalingError(SolverError):
    """Scaling study has too few usable points."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on [x_min, x_max] with the given number of points.

    At most MAX_POINTS points; refined() refuses a grid whose refinement
    would exceed it, and numeric_gap refines before it solves, so a grid
    too large for the benchmark is refused before any array exists.
    """

    x_min: float
    x_max: float
    points: int

    def __post_init__(self):
        if self.points < 3:
            raise SolverError("need at least 3 grid points")
        if self.points > MAX_POINTS:
            raise SolverError(f"at most {MAX_POINTS} grid points, refined grids included")
        if not (isfinite(self.x_min) and isfinite(self.x_max)):
            raise SolverError("x_min and x_max must be finite")
        if not self.x_max > self.x_min:
            raise SolverError("x_max must exceed x_min")
        low, high = SPACING_RANGE
        if not low <= self.spacing <= high:
            raise SolverError(f"grid spacing must lie in [{low:g}, {high:g}]")

    @property
    def spacing(self):
        return (self.x_max - self.x_min) / (self.points - 1)

    def array(self):
        import numpy as np

        return np.linspace(self.x_min, self.x_max, self.points)

    def refined(self):
        """Same domain with halved spacing."""
        return GridSpec(self.x_min, self.x_max, 2 * self.points - 1)


DEFAULT_GRID = GridSpec(-3.5, 3.5, 4001)


@dataclass(frozen=True)
class TridiagonalOperator:
    """Dirichlet discretization: diagonal 1/h^2 + V(x_k), off-diagonal -1/(2h^2).

    The strictly negative off-diagonal makes the matrix irreducible, so all
    eigenvalues are simple.
    """

    diagonal: np.ndarray
    off_diagonal: float
    size: int

    def __post_init__(self):
        import numpy as np

        if not (isfinite(self.off_diagonal) and self.off_diagonal < 0.0):
            raise SolverError("off-diagonal must be finite and strictly negative")
        if len(self.diagonal) != self.size:
            raise SolverError("diagonal length must equal size")
        if not np.isfinite(self.diagonal).all():
            raise SolverError("diagonal entries must be finite")


def discretize(potential, grid, min_boundary_potential=None):
    """Central-difference operator for -psi''/2 + V psi on interior points.

    `potential` is any callable accepting an array of positions (the
    polynomial potentials of this package, or a plain function for
    validation cases like the harmonic oscillator).
    """
    import numpy as np

    x = grid.array()
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.broadcast_to(np.asarray(potential(x), dtype=float), x.shape)
    if not np.all(np.isfinite(values)):
        raise DomainError("the potential is not finite on the grid")
    if min_boundary_potential is not None:
        v_edge = min(values[0], values[-1])
        if v_edge < min_boundary_potential:
            raise DomainError(
                f"domain too small: boundary potential {v_edge:.6g} < "
                f"required {min_boundary_potential:.6g}"
            )
    h = grid.spacing
    values = values[1:-1]
    diag = 1.0 / h**2 + values
    return TridiagonalOperator(diagonal=diag, off_diagonal=-0.5 / h**2, size=grid.points - 2)


def sturm_count(operator, x):
    """Number of eigenvalues strictly below x (negative LDL pivots).

    A pure-Python reference that the solver does not call.  It stays
    because the benchmark declares its span metrics in BENCHMARK.json and
    perfbench/run.py reads its call count; it goes when they do.  Pivots
    inside the pivmin window are clamped to -pivmin *before* counting, so
    an exactly singular leading minor registers as a crossing; clamping
    only the divisor would silently drop such eigenvalues.
    """
    diag = operator.diagonal.tolist()
    off_sq = operator.off_diagonal**2
    pivmin = 1e-290 * max(1.0, off_sq)
    t = diag[0] - x
    if abs(t) < pivmin:
        t = -pivmin
    count = 1 if t < 0.0 else 0
    for a in diag[1:]:
        t = (a - x) - off_sq / t
        if abs(t) < pivmin:
            t = -pivmin
        if t < 0.0:
            count += 1
    return count


_FLAPACK = "scipy.linalg._flapack"


class _FlapackHandover:
    """Meta-path finder that hands _dstebz's scipy.linalg._flapack to scipy.linalg.

    An import binds a submodule to its package only when it loads the
    submodule, so scipy.linalg would lack the attribute _flapack if it
    found the extension already in sys.modules.  When scipy.linalg is about
    to be imported, this drops the extension from sys.modules, and the
    package imports it again: the extension is initialised once per
    process, so the new module shares its objects, dstebz among them.  It
    finds no module itself.
    """

    @staticmethod
    def find_spec(name, path=None, target=None):
        if name == "scipy.linalg":
            sys.modules.pop(_FLAPACK, None)
        return None


@cache
def _dstebz():
    """LAPACK's dstebz from scipy.linalg._flapack, loaded once.

    The extension is found in scipy's linalg directory and loaded under its
    own name, so neither scipy/__init__.py nor scipy/linalg/__init__.py, nor
    the modules they import, run: find_spec locates the scipy package
    without importing it.  The module registers itself in sys.modules, and
    _FlapackHandover passes it on to a later `import scipy.linalg`; if
    scipy.linalg came first, its module is used.
    """
    module = sys.modules.get(_FLAPACK)
    if module is None:
        scipy = find_spec("scipy")
        if scipy is None:
            raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
        where = [f"{scipy.submodule_search_locations[0]}/linalg"]
        found = PathFinder.find_spec("_flapack", where)
        if found is None:
            raise ImportError(f"no {_FLAPACK} extension in {where[0]}", name=_FLAPACK)
        spec = spec_from_file_location(_FLAPACK, found.origin)
        module = module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.meta_path.insert(0, _FlapackHandover)
    return module.dstebz


_LOAD_LOCK = threading.Lock()


@cache
def _dstebz_routine():
    """The Fortran dstebz behind _dstebz(), as a ctypes function.

    f2py keeps the routine's address in the wrapper's `_cpointer` capsule.
    ctypes releases the GIL while the routine runs, where the wrapper holds
    it.  The integers are LP64, as in scipy's wrapper, and the two trailing
    arguments are the hidden lengths of the character arguments RANGE and
    ORDER.  Threads whose first solves meet, as numeric_gap's two do, load
    the extension once: _dstebz() is called under a lock.
    """
    from ctypes import (
        CFUNCTYPE, POINTER, PYFUNCTYPE, c_char_p, c_double, c_int, c_size_t, c_void_p, py_object, pythonapi,
    )

    capsule_pointer = PYFUNCTYPE(c_void_p, py_object, c_char_p)(("PyCapsule_GetPointer", pythonapi))
    int_p, double_p, array = POINTER(c_int), POINTER(c_double), c_void_p
    prototype = CFUNCTYPE(
        None,
        c_char_p, c_char_p, int_p,  # RANGE, ORDER, N
        double_p, double_p, int_p, int_p, double_p,  # VL, VU, IL, IU, ABSTOL
        array, array,  # D, E
        int_p, int_p,  # M, NSPLIT
        array, array, array, array, array,  # W, IBLOCK, ISPLIT, WORK, IWORK
        int_p,  # INFO
        c_size_t, c_size_t,
    )
    with _LOAD_LOCK:
        wrapper = _dstebz()
    return prototype(capsule_pointer(wrapper._cpointer, None))


def lowest_eigenvalues(operator, count):
    """The `count` smallest eigenvalues by LAPACK bisection (`dstebz`).

    The routine gets the arguments that scipy.linalg.eigh_tridiagonal
    passes with select="i" and lapack_driver="stebz": range "I", il..iu =
    1..count, and order "E", which sorts the whole matrix.  So the
    eigenvalues are the same bits.  Each eigenvalue is bisected to absolute
    width EIGENVALUE_TOL; eigenvalues of the irreducible operator are
    simple, so the returned list of floats is strictly increasing.  The
    routine runs without the GIL, on buffers of its own call, so threads
    may solve at once.  A LAPACK error or a short result raises SolverError.
    """
    if count < 1 or count > 4:
        raise SolverError("count must be between 1 and 4")
    if count > operator.size:
        raise BracketError(
            f"cannot find {count} eigenvalues of a {operator.size}-row operator"
        )
    from ctypes import byref, c_double, c_int

    import numpy as np

    d = np.ascontiguousarray(operator.diagonal, dtype=float)
    n = len(d)
    off = np.full(n - 1, operator.off_diagonal)
    eigs = np.empty(n)
    iblock, isplit = np.empty(n, np.intc), np.empty(n, np.intc)
    work, iwork = np.empty(4 * n), np.empty(3 * n, np.intc)
    found, nsplit, info = c_int(), c_int(), c_int()
    _dstebz_routine()(
        b"I", b"E", byref(c_int(n)),
        byref(c_double(0.0)), byref(c_double(0.0)), byref(c_int(1)), byref(c_int(count)),
        byref(c_double(EIGENVALUE_TOL)),
        d.ctypes.data, off.ctypes.data, byref(found), byref(nsplit),
        eigs.ctypes.data, iblock.ctypes.data, isplit.ctypes.data, work.ctypes.data, iwork.ctypes.data,
        byref(info), 1, 1,
    )
    found, info = found.value, info.value
    if info != 0 or found != count:
        raise SolverError(f"stebz returned info {info} with {found} of {count} eigenvalues")
    return eigs[:found].tolist()


class GapEstimate(NamedTuple):
    """Doublet gap with its Richardson error estimate."""

    gap: float
    error_estimate: float


def _solve_into(operator, outcome):
    """Thread target: append the two lowest eigenvalues of operator, or the error raised."""
    try:
        outcome.append(lowest_eigenvalues(operator, 2))
    except BaseException as exc:  # handed to the joining thread, which raises it
        outcome.append(exc)


def numeric_gap(potential, grid, min_boundary_potential=None):
    """Doublet gap E1 - E0 with a Richardson error estimate.

    Solves on the given grid and on the spacing-halved grid; the returned
    gap is the fine-grid value and the error estimate (gap_fine -
    gap_coarse)/3 follows from the second-order convergence of the stencil.
    The coarse operator is solved in a second thread while this one
    discretizes and solves the fine grid; the solver releases the GIL, so
    the two solves overlap.  Each solve is the one a sequential run would
    make, so the results are the same bits, and an error is the first one
    that order would meet: coarse discretization, coarse solve, fine
    discretization, fine solve.
    """
    fine_grid = grid.refined()
    coarse = discretize(potential, grid, min_boundary_potential)
    outcome = []
    worker = threading.Thread(target=_solve_into, args=(coarse, outcome), name="numeric_gap coarse solve")
    worker.start()
    try:
        e0, e1 = lowest_eigenvalues(discretize(potential, fine_grid, min_boundary_potential), 2)
    finally:
        worker.join()
        coarse_result = outcome[0]
        if isinstance(coarse_result, BaseException):
            raise coarse_result
    c0, c1 = coarse_result
    fine_gap, coarse_gap = e1 - e0, c1 - c0
    return GapEstimate(fine_gap, abs(fine_gap - coarse_gap) / 3.0)


def benchmark_potential(lam, b):
    """The double-well family lam (x^2-1)^2 (x^2 + b x + 1)."""
    if not (isfinite(lam) and isfinite(b)):
        raise SolverError("lam and b must be finite")
    if not abs(b) < 2:
        raise SolverError("need |b| < 2 for two harmonic minima")
    if not lam > 0:
        raise SolverError("lam must be positive")
    coeffs = (1.0, b, -1.0, -2.0 * b, -1.0, b, 1.0)
    return PolynomialPotential(tuple(lam * c for c in coeffs))


@dataclass(frozen=True)
class BenchmarkRecord:
    """One row of the scaling study."""

    lam: float
    s_inst: float
    omega0: float
    omega1: float
    gap_numeric: float
    b_prime: float
    refinement_error: float


@dataclass(frozen=True)
class ScalingStudy:
    """Fit of ln B' against the tunneling action across the family."""

    records: tuple
    slope: float
    intercept: float
    residuals: tuple
    excluded: tuple
    predicted_gaps: tuple = ()


def benchmark_point(lam, b, grid=None):
    """Single family member: frequencies, action, numeric gap, coupling.

    Returns (record, asymmetry_dominated flag).
    """
    grid = grid or DEFAULT_GRID
    pot = benchmark_potential(lam, b)
    minima = [w for w in find_minima(pot) if w.harmonic]
    if len(minima) != 2:
        raise SolverError(f"expected two harmonic minima, found {len(minima)}")
    params = well_parameters(pot, minima[0], minima[1])
    confine = 25.0 * max(params.omega0, params.omega1)
    gap, err = numeric_gap(pot, grid, min_boundary_potential=confine)
    coupling = extract_coupling(gap, params.omega0, params.omega1)
    record = BenchmarkRecord(
        lam=lam,
        s_inst=params.s_inst,
        omega0=params.omega0,
        omega1=params.omega1,
        gap_numeric=gap,
        b_prime=coupling.b_prime,
        refinement_error=err,
    )
    return record, coupling.asymmetry_dominated


def scaling_study(b, lambdas, K_hint=None, grid=None):
    """Test the exponential suppression law ln B' ~ const - S across the family.

    For each lam the well frequencies, tunneling action and numeric doublet
    gap are computed and the coupling extracted; points whose extraction is
    clamped or fails the regime guard (gap^2 - d^2 must exceed 10x its
    numerical uncertainty) are excluded and reported.  The remaining points
    (at least 3) are fitted by least squares; the lambdas must be strictly
    ascending.  With K_hint given (finite and >= 0), the gap predicted by
    the splitting formula at that prefactor, spectrum.energies' gap at
    B = K_hint e^(-s_inst), is attached per record as `predicted_gaps`.
    """
    import numpy as np

    lambdas = [float(v) for v in lambdas]
    if any(lo >= hi for lo, hi in zip(lambdas, lambdas[1:])):
        raise SolverError("lambdas must be strictly ascending")
    if K_hint is not None and not (isfinite(K_hint) and K_hint >= 0.0):
        raise ParameterError("k_hint", f"K_hint must be finite and >= 0, got {K_hint!r}")
    grid = grid or DEFAULT_GRID
    results = [benchmark_point(lam, b, grid) for lam in lambdas]

    records = []
    excluded = []
    usable = []
    for lam, (rec, clamped) in zip(lambdas, results):
        records.append(rec)
        if clamped:
            excluded.append((lam, "clamped"))
            continue
        delta = (rec.omega0 - rec.omega1) / 2.0
        disc = rec.gap_numeric**2 - delta**2
        uncertainty = 2.0 * rec.gap_numeric * rec.refinement_error
        if disc <= 10.0 * uncertainty:
            excluded.append((lam, "regime-guard"))
            continue
        usable.append(rec)
    if len(usable) < 3:
        raise ScalingError(
            f"fewer than 3 usable points ({len(usable)} of {len(lambdas)}); "
            f"excluded: {excluded}"
        )
    s = np.array([rec.s_inst for rec in usable])
    lnb = np.log(np.array([rec.b_prime for rec in usable]))
    design = np.vstack([s, np.ones_like(s)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, lnb, rcond=None)
    residuals = lnb - (slope * s + intercept)
    predicted = ()
    if K_hint is not None:
        predicted = tuple(
            energies(WellParameters(rec.omega0, rec.omega1, T=1.0, K=K_hint, s_inst=rec.s_inst)).gap
            for rec in records
        )
    return ScalingStudy(
        records=tuple(records),
        slope=float(slope),
        intercept=float(intercept),
        residuals=tuple(float(rv) for rv in residuals),
        excluded=tuple(excluded),
        predicted_gaps=predicted,
    )
