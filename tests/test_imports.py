"""Import budget: the CLI loads only the package modules, numpy, mpmath and scipy that a command calls.

A bare `import instanton_gas` loads no submodule: its names resolve on
first access.  No command loads scipy.integrate: the quadrature oracle
integrates by Gauss-Legendre in numpy, the gas sum needs no numpy at any
asymmetry, and only the grid commands load scipy.linalg.  Every check of
what is loaded runs in a fresh interpreter, because the pytest process
itself imports whatever the other test modules use.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

_SCRIPT = """
import contextlib, io, json, sys
import instanton_gas.cli as cli
argv = json.loads(sys.argv[1])
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    assert code == 0, code
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "mpmath", "scipy", "instanton_gas"))))
"""

_WELL = ("--omega0", "1", "--omega1", "2", "--B", "0.3")


def fresh(*args):
    """A fresh interpreter run with args, with src first on its path."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args], env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
    )


def loaded(*argv):
    """numpy, mpmath, scipy and package modules loaded after importing the CLI and running argv, if given."""
    proc = fresh("-c", _SCRIPT, json.dumps(argv))
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def heavy_loaded(*argv):
    return {m for m in loaded(*argv) if m.split(".")[0] != "instanton_gas"}


def package_loaded(*argv):
    """Short names of the instanton_gas submodules loaded after importing the CLI and running argv."""
    return {m.partition(".")[2] for m in loaded(*argv) if m.startswith("instanton_gas.")}


def scipy_loaded(*argv):
    return {m for m in heavy_loaded(*argv) if m.split(".")[0] == "scipy"}


def test_cli_import_loads_no_scipy():
    assert scipy_loaded() == set()


@pytest.mark.parametrize("argv", [(), ("spectrum", *_WELL)])
def test_cli_import_and_spectrum_load_no_numpy_mpmath_or_scipy(argv):
    assert heavy_loaded(*argv) == set()


@pytest.mark.parametrize("argv", [
    ("sum", *_WELL, "--T", "2", "--terms", "40"),
    ("triangle-verify", "--depth", "12", "--ratio", "2/5"),
])
def test_float_and_exact_commands_load_no_numpy(argv):
    assert not any(m.split(".")[0] == "numpy" for m in heavy_loaded(*argv))


@pytest.mark.parametrize("argv", [
    ("spectrum", *_WELL),
    ("sum", *_WELL, "--T", "2", "--terms", "5"),
])
def test_closed_form_commands_leave_scipy_unloaded(argv):
    assert scipy_loaded(*argv) == set()


def test_benchmark_loads_linalg_not_integrate():
    loaded = heavy_loaded(
        "benchmark", "--lambda", "4", "--b", "0.5", "--points", "1201", "--x-min", "-3", "--x-max", "3",
    )
    assert "numpy" in loaded
    assert "scipy.linalg" in loaded
    assert "scipy.integrate" not in loaded


@pytest.mark.parametrize("argv", [
    ("moments", "--n", "1", "--m", "1", *_WELL, "--T", "2", "--method", "quadrature"),
    ("moments", "--n", "3", "--m", "4", *_WELL, "--T", "2", "--method", "all"),
])
def test_quadrature_loads_numpy_and_no_scipy(argv):
    loaded = heavy_loaded(*argv)
    assert "numpy" in loaded
    assert not any(m.split(".")[0] == "scipy" for m in loaded)


def test_near_symmetric_sum_loads_no_numpy_mpmath_or_scipy():
    # |d| T = 1.5e-5: every term is a Kummer series in plain floats
    argv = ("sum", "--omega0", "2.00001", "--omega1", "2", "--B", "0.5", "--T", "3", "--terms", "40")
    assert heavy_loaded(*argv) == set()


# Every name that `instanton_gas` exports, by the submodule that defines it.
EXPORTS = {
    "potential": (
        "PolynomialPotential", "WellMinimum", "WellParameters", "find_minima", "instanton_action",
        "well_parameters",
    ),
    "moments": (
        "MomentKey", "MomentTable", "MomentValue", "moment_closed", "moment_kummer", "moment_quadrature",
        "moment_recursive", "moment_symmetric", "multi_instanton", "sweep_grid",
    ),
    "triangle": (
        "BasisCoefficient", "CoefficientTriangle", "ColumnCoefficients", "build_triangle", "central_sequence",
        "closed_form_coefficients", "column_coefficients", "series_a0_a1", "verify_column_relations",
    ),
    "spectrum": (
        "SpectrumResult", "energies", "extract_coupling", "gas_sum_closed", "gas_sum_partial",
        "truncated_hamiltonian",
    ),
    "schrodinger": (
        "BenchmarkRecord", "GridSpec", "TridiagonalOperator", "benchmark_potential", "discretize",
        "lowest_eigenvalues", "numeric_gap", "scaling_study",
    ),
}
ALL_NAMES = sorted(name for names in EXPORTS.values() for name in names)

_RESOLVE = """
import importlib, json, sys
import instanton_gas
exports, style = json.loads(sys.argv[1]), sys.argv[2]
wrong = []
for module, names in exports.items():
    for name in names:
        if style == "attribute":
            value = getattr(instanton_gas, name)
        else:
            scope = {}
            exec(f"from instanton_gas import {name}", scope)
            value = scope[name]
        if value is not getattr(importlib.import_module(f"instanton_gas.{module}"), name):
            wrong.append(name)
print(json.dumps(wrong))
"""


class TestPackageModules:
    """Each command loads the package modules it computes with, and no other."""

    def test_bare_package_import_loads_no_submodule(self):
        code = "import sys, instanton_gas; print(sorted(m for m in sys.modules if m.startswith('instanton_gas.')))"
        proc = fresh("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_spectrum(self):
        assert package_loaded("spectrum", *_WELL) == {"cli", "potential", "spectrum"}

    def test_sum_adds_only_moments(self):
        assert package_loaded("sum", *_WELL, "--T", "2", "--terms", "5") == {
            "cli", "potential", "spectrum", "moments",
        }

    def test_triangle_verify(self):
        assert package_loaded("triangle-verify", "--depth", "12", "--ratio", "2/5") == {
            "cli", "potential", "triangle",
        }

    def test_benchmark_loads_neither_moments_nor_triangle(self):
        modules = package_loaded(
            "benchmark", "--lambda", "4", "--b", "0.5", "--points", "1201", "--x-min", "-3", "--x-max", "3",
        )
        assert "schrodinger" in modules
        assert not modules & {"moments", "triangle"}


class TestLazyNamespace:
    @pytest.mark.parametrize("style", ["attribute", "from-import"])
    def test_each_name_is_the_defining_modules_object(self, style):
        # a fresh interpreter, so that each name's first access goes through the lookup
        proc = fresh("-c", _RESOLVE, json.dumps(EXPORTS), style)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == []

    def test_all_and_dir_list_every_name(self):
        import instanton_gas

        assert sorted(instanton_gas.__all__) == ALL_NAMES
        assert set(ALL_NAMES) <= set(dir(instanton_gas))

    def test_unknown_name_is_attribute_error_naming_it(self):
        import instanton_gas

        with pytest.raises(AttributeError, match="no_such_name"):
            instanton_gas.no_such_name
        with pytest.raises(ImportError, match="no_such_name"):
            exec("from instanton_gas import no_such_name", {})


@pytest.mark.parametrize("argv, code, error", [
    (("sum", "--omega0", "1", "--omega1", "2", "--B", "100", "--T", "10"), 1,
     {"code": "SpectrumError", "message": "e^(-E+ T) overflows float64 at E+ T = -992.5031249951172",
      "parameter": None}),
    (("benchmark", "--lambda", "4", "--b", "0.5", "--points", "2"), 1,
     {"code": "SolverError", "message": "need at least 3 grid points", "parameter": None}),
    (("benchmark", "--lambda", "1e308", "--b", "0", "--points", "101"), 1,
     {"code": "PotentialError", "message": "coefficients must be finite, and so must those of V''",
      "parameter": None}),
    (("scaling", "--b", "0", "--lambdas", "16"), 1,
     {"code": "ScalingError", "message": "fewer than 3 usable points (1 of 1); excluded: []", "parameter": None}),
    (("moments", "--n", "1", "--m", "1", "--omega0", "1", "--omega1", "2", "--B", "0.3", "--T", "1e7",
      "--method", "all"), 1,
     {"code": "numerical", "message": "stripped I(1, 1) exceeds float64", "parameter": "method"}),
])
def test_error_object_from_fresh_process(argv, code, error):
    # the pytest process has every module loaded, so only a fresh process shows that the
    # error handling needs no module the command did not import
    proc = fresh("-m", "instanton_gas.cli", *argv, "--format", "json")
    assert (proc.returncode, proc.stderr) == (code, "")
    assert json.loads(proc.stdout) == error
