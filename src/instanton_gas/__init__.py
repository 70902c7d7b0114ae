"""Dilute-gas summation of tunneling amplitudes in asymmetric double wells.

The package evaluates the family of multi-event overlap integrals that sum
the dilute instanton gas for a one-dimensional double well whose two minima
are degenerate in energy but have different curvatures.  It provides three
independent evaluation routes for the integrals (closed form, recursion,
quadrature) and Kummer's series for near-equal curvatures, an
exact-rational verification of the combinatorial triangle behind the
closed form, the summed two-level spectrum, and a finite difference
Schrodinger benchmark of the resulting splitting formula.
"""

from .potential import (
    PolynomialPotential,
    WellMinimum,
    WellParameters,
    find_minima,
    instanton_action,
    well_parameters,
)
from .moments import (
    MomentKey,
    MomentTable,
    MomentValue,
    moment_closed,
    moment_kummer,
    moment_quadrature,
    moment_recursive,
    moment_symmetric,
    multi_instanton,
    sweep_grid,
)
from .triangle import (
    BasisCoefficient,
    CoefficientTriangle,
    ColumnCoefficients,
    build_triangle,
    central_sequence,
    closed_form_coefficients,
    column_coefficients,
    series_a0_a1,
    verify_column_relations,
)
from .spectrum import (
    SpectrumResult,
    energies,
    extract_coupling,
    gas_sum_closed,
    gas_sum_partial,
    truncated_hamiltonian,
)
from .schrodinger import (
    BenchmarkRecord,
    GridSpec,
    TridiagonalOperator,
    benchmark_potential,
    discretize,
    lowest_eigenvalues,
    numeric_gap,
    scaling_study,
)

__version__ = "0.1.0"
