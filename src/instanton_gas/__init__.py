"""Dilute-gas summation of tunneling amplitudes in asymmetric double wells.

The package evaluates the family of multi-event overlap integrals that sum
the dilute instanton gas for a one-dimensional double well whose two minima
are degenerate in energy but have different curvatures.  It provides three
independent evaluation routes for the integrals (closed form, recursion,
quadrature) and Kummer's series for near-equal curvatures, an
exact-rational verification of the combinatorial triangle behind the
closed form, the summed two-level spectrum, and a finite difference
Schrodinger benchmark of the resulting splitting formula.

The names below are exported from the submodules that define them, but a
bare ``import instanton_gas`` loads none of those submodules: each name is
looked up in ``_EXPORTS`` and its module imported on first access (PEP
562).  A CLI command thus loads, and compiles when bytecode is not cached,
only the modules that it computes with.
"""

from importlib import import_module

__version__ = "0.1.0"

# Exported name -> the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "potential": (
            "PolynomialPotential",
            "WellMinimum",
            "WellParameters",
            "find_minima",
            "instanton_action",
            "well_parameters",
        ),
        "moments": (
            "MomentKey",
            "MomentTable",
            "MomentValue",
            "moment_closed",
            "moment_kummer",
            "moment_quadrature",
            "moment_recursive",
            "moment_symmetric",
            "multi_instanton",
            "sweep_grid",
        ),
        "triangle": (
            "BasisCoefficient",
            "CoefficientTriangle",
            "ColumnCoefficients",
            "build_triangle",
            "central_sequence",
            "closed_form_coefficients",
            "column_coefficients",
            "series_a0_a1",
            "verify_column_relations",
        ),
        "spectrum": (
            "SpectrumResult",
            "energies",
            "extract_coupling",
            "gas_sum_closed",
            "gas_sum_partial",
            "truncated_hamiltonian",
        ),
        "schrodinger": (
            "BenchmarkRecord",
            "GridSpec",
            "TridiagonalOperator",
            "benchmark_potential",
            "discretize",
            "lowest_eigenvalues",
            "numeric_gap",
            "scaling_study",
        ),
    }.items()
    for name in names
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
