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

Neither numpy nor scipy is imported.  The grid, V on it and the operator
are array('d') buffers, and every step on them, the solve included, is an
operation of _openblas, which keeps the bits of the numpy or scipy.linalg
expression it is named for.  Those release the GIL, so numeric_gap solves
its two grids at once, the coarse one in a second thread, with the bits
of one grid after the other.
"""

from __future__ import annotations

import threading
from array import array
from dataclasses import dataclass
from math import isfinite, log
from typing import NamedTuple

from ._openblas import add, all_finite, linspace, lstsq_line, polyval, stebz
from .potential import (
    ComputationError,
    ParameterError,
    PolynomialPotential,
    WellParameters,
    find_minima,
    well_parameters,
)
from .spectrum import energies, extract_coupling

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
        """The points, as an array('d') with the bits of np.linspace(x_min, x_max, points)."""
        return linspace(self.x_min, self.x_max, self.points)

    def refined(self):
        """Same domain with halved spacing."""
        return GridSpec(self.x_min, self.x_max, 2 * self.points - 1)


DEFAULT_GRID = GridSpec(-3.5, 3.5, 4001)


@dataclass(frozen=True)
class TridiagonalOperator:
    """Dirichlet discretization: diagonal 1/h^2 + V(x_k), off-diagonal -1/(2h^2).

    The diagonal is held as an array('d'); any other sequence of floats
    is copied into one.  The strictly negative off-diagonal makes the
    matrix irreducible, so all eigenvalues are simple.
    """

    diagonal: array
    off_diagonal: float
    size: int

    def __post_init__(self):
        if not (isinstance(self.diagonal, array) and self.diagonal.typecode == "d"):
            object.__setattr__(self, "diagonal", array("d", self.diagonal))
        if not (isfinite(self.off_diagonal) and self.off_diagonal < 0.0):
            raise SolverError("off-diagonal must be finite and strictly negative")
        if len(self.diagonal) != self.size:
            raise SolverError("diagonal length must equal size")
        if not all_finite(self.diagonal):
            raise SolverError("diagonal entries must be finite")


def discretize(potential, grid, min_boundary_potential=None):
    """Central-difference operator for -psi''/2 + V psi on interior points.

    A PolynomialPotential is evaluated on the whole grid at once
    (_openblas.polyval); any other `potential` is a callable of one
    position, called at each point, such as the harmonic oscillator of a
    validation case.
    """
    return _operator(_values(potential, grid), grid, min_boundary_potential)


def _values(potential, grid):
    x = grid.array()
    if isinstance(potential, PolynomialPotential):
        return polyval(potential.coefficients, x)
    return array("d", map(potential, x))


def _operator(values, grid, min_boundary_potential):
    """discretize's operator from V's values at the grid's points: the diagonal
    is 1/h^2 + V, with the bits of numpy's sum."""
    if not all_finite(values):
        raise DomainError("the potential is not finite on the grid")
    if min_boundary_potential is not None:
        v_edge = min(values[0], values[-1])
        if v_edge < min_boundary_potential:
            raise DomainError(
                f"domain too small: boundary potential {v_edge:.6g} < "
                f"required {min_boundary_potential:.6g}"
            )
    h = grid.spacing
    diag = values[1:-1]
    add(diag, 1.0 / h**2)
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


def lowest_eigenvalues(operator, count):
    """The `count` smallest eigenvalues by LAPACK bisection (_openblas.stebz), with eigh_tridiagonal's bits.

    Each is bisected to absolute width EIGENVALUE_TOL; eigenvalues of the
    irreducible operator are simple, so the returned list of floats is
    strictly increasing.  Threads may solve at once.  A LAPACK error or a
    short result raises SolverError.
    """
    if count < 1 or count > 4:
        raise SolverError("count must be between 1 and 4")
    if count > operator.size:
        raise BracketError(
            f"cannot find {count} eigenvalues of a {operator.size}-row operator"
        )
    off = array("d", [operator.off_diagonal]) * (operator.size - 1)
    eigs, info = stebz(operator.diagonal, off, count, EIGENVALUE_TOL)
    if info != 0 or len(eigs) != count:
        raise SolverError(f"stebz returned info {info} with {len(eigs)} of {count} eigenvalues")
    return eigs


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
    V is evaluated once, on the fine grid, whose every other point is the
    given grid's, bit for bit: a callable `potential` is called 2 points - 1
    times, and one that raises does so before either solve.  The coarse
    operator is solved in a second thread while this one forms and solves
    the fine one; the solver releases the GIL, so they overlap.  Each solve
    is the one a sequential run would make, so the results are the same
    bits, and any other error is the first that order would meet: coarse
    operator, coarse solve, fine operator, fine solve.
    """
    fine_grid = grid.refined()
    fine_values = _values(potential, fine_grid)
    coarse = _operator(fine_values[::2], grid, min_boundary_potential)
    outcome = []
    worker = threading.Thread(target=_solve_into, args=(coarse, outcome), name="numeric_gap coarse solve")
    worker.start()
    try:
        fine = _operator(fine_values, fine_grid, min_boundary_potential)
        e0, e1 = lowest_eigenvalues(fine, 2)
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


def _fit_line(x, y):
    """(slope, intercept) of the least-squares line through the points (x_i, y_i), with
    the bits of numpy's lstsq (_openblas.lstsq_line)."""
    slope, intercept, info = lstsq_line(x, y)
    if info != 0:
        raise ScalingError(f"the least-squares fit failed: dgelsd returned info {info}")
    return slope, intercept


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
    s = [rec.s_inst for rec in usable]
    # the C library's log: on AVX-512 hosts np.log, used before, differs by 1 ulp at ~0.2% of arguments
    lnb = [log(rec.b_prime) for rec in usable]
    slope, intercept = _fit_line(s, lnb)
    residuals = [y - (slope * x + intercept) for x, y in zip(s, lnb)]
    predicted = ()
    if K_hint is not None:
        predicted = tuple(
            energies(WellParameters(rec.omega0, rec.omega1, T=1.0, K=K_hint, s_inst=rec.s_inst)).gap
            for rec in records
        )
    return ScalingStudy(
        records=tuple(records),
        slope=slope,
        intercept=intercept,
        residuals=tuple(residuals),
        excluded=tuple(excluded),
        predicted_gaps=predicted,
    )
