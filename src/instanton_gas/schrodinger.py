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

numpy and scipy.linalg are imported by the functions that compute with
them, so importing the module for its grid defaults loads neither.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import TYPE_CHECKING, NamedTuple

from .potential import ComputationError, PolynomialPotential, find_minima, well_parameters
from .spectrum import extract_coupling

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
        if not self.off_diagonal < 0.0:
            raise SolverError("off-diagonal must be strictly negative")
        if len(self.diagonal) != self.size:
            raise SolverError("diagonal length must equal size")


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


def lowest_eigenvalues(operator, count):
    """The `count` smallest eigenvalues by LAPACK bisection (`stebz`).

    Each eigenvalue is bisected to absolute width EIGENVALUE_TOL;
    eigenvalues of the irreducible operator are simple, so the returned
    list of floats is strictly increasing.
    """
    if count < 1 or count > 4:
        raise SolverError("count must be between 1 and 4")
    if count > operator.size:
        raise BracketError(
            f"cannot find {count} eigenvalues of a {operator.size}-row operator"
        )
    import numpy as np
    from scipy.linalg import eigh_tridiagonal

    off = np.full(operator.size - 1, operator.off_diagonal)
    eigs = eigh_tridiagonal(
        operator.diagonal, off, eigvals_only=True, select="i",
        select_range=(0, count - 1), lapack_driver="stebz", tol=EIGENVALUE_TOL,
    )
    return eigs.tolist()


class GapEstimate(NamedTuple):
    """Doublet gap with its Richardson error estimate."""

    gap: float
    error_estimate: float


def numeric_gap(potential, grid, min_boundary_potential=None):
    """Doublet gap E1 - E0 with a Richardson error estimate.

    Solves on the given grid and on the spacing-halved grid; the returned
    gap is the fine-grid value and the error estimate (gap_fine -
    gap_coarse)/3 follows from the second-order convergence of the stencil.
    """
    gaps = []
    for g in (grid, grid.refined()):
        op = discretize(potential, g, min_boundary_potential)
        e0, e1 = lowest_eigenvalues(op, 2)
        gaps.append(e1 - e0)
    return GapEstimate(gaps[1], abs(gaps[1] - gaps[0]) / 3.0)


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
    (at least 3) are fitted by least squares.  With K_hint given, the gap
    predicted by the splitting formula at that prefactor is attached per
    record as `predicted_gaps`.
    """
    import numpy as np

    lambdas = [float(v) for v in lambdas]
    if lambdas != sorted(lambdas):
        raise SolverError("lambdas must be ascending")
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
            float(np.hypot(rec.omega1 - rec.omega0, 4.0 * K_hint * np.exp(-rec.s_inst)) / 2.0)
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
