"""Import budget: the CLI loads only the package modules, numpy, mpmath and scipy that a command calls.

A bare `import instanton_gas` loads no submodule: its names resolve on
first access.  No command loads scipy.integrate, and moments loads no
numpy: the quadrature oracle integrates by Gauss-Legendre rules kept as
constants, in plain floats and ints, and the gas sum needs no numpy at any
asymmetry.  The grid commands load scipy's compiled LAPACK wrapper,
scipy.linalg._flapack, without the scipy and scipy.linalg packages.  No
command loads numpy.polynomial: potential evaluates and solves its
polynomials itself.  Every check of what is loaded runs in a fresh
interpreter, because the pytest process itself imports whatever the other
test modules use.
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
print(json.dumps(sorted(sys.modules)))
"""

_WELL = ("--omega0", "1", "--omega1", "2", "--B", "0.3")


def fresh(*args):
    """A fresh interpreter run with args, with src first on its path."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args], env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
    )


def loaded(*argv, roots=("numpy", "mpmath", "scipy", "instanton_gas")):
    """Modules under roots loaded after importing the CLI and running argv, if given."""
    proc = fresh("-c", _SCRIPT, json.dumps(argv))
    assert proc.returncode == 0, proc.stderr
    return {m for m in json.loads(proc.stdout) if m.split(".")[0] in roots}


def heavy_loaded(*argv):
    return {m for m in loaded(*argv) if m.split(".")[0] != "instanton_gas"}


def package_loaded(*argv):
    """Short names of the instanton_gas submodules loaded after importing the CLI and running argv."""
    return {m.partition(".")[2] for m in loaded(*argv) if m.startswith("instanton_gas.")}


def scipy_loaded(*argv):
    return {m for m in heavy_loaded(*argv) if m.split(".")[0] == "scipy"}


def test_cli_import_loads_no_scipy():
    assert scipy_loaded() == set()


@pytest.mark.parametrize("argv", [
    (),
    ("spectrum", *_WELL),
    ("moments", "--n", "1", "--m", "2", "--omega0", "1.5", "--omega1", "1.5", "--B", "0.3", "--T", "2",
     "--method", "symmetric"),
])
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


grid_commands = pytest.mark.parametrize("argv", [
    ("benchmark", "--lambda", "4", "--b", "0.5", "--points", "1201", "--x-min", "-3", "--x-max", "3"),
    ("scaling", "--b", "0", "--lambdas", "4,6,8", "--points", "2001"),
], ids=["benchmark", "scaling"])


@grid_commands
def test_grid_commands_load_flapack_not_linalg_package_or_integrate(argv):
    loaded = heavy_loaded(*argv)
    assert "numpy" in loaded
    assert {m for m in loaded if m.split(".")[0] == "scipy"} == {"scipy.linalg._flapack"}


_LINALG_AFTER_BENCHMARK = """
import contextlib, io, json, sys
import instanton_gas.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(json.loads(sys.argv[1])) == 0
scipy_modules = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
flapack = sys.modules["scipy.linalg._flapack"]
import scipy.linalg
bound = scipy.linalg._flapack
print(json.dumps([scipy_modules, bound is sys.modules["scipy.linalg._flapack"], bound.dstebz is flapack.dstebz]))
"""


def test_scipy_linalg_imported_after_benchmark_binds_its_flapack():
    # the benchmark's solve loads the extension without running scipy/__init__.py; a later
    # `import scipy.linalg` binds the extension, with the dstebz that the solver called
    argv = ["benchmark", "--lambda", "4", "--b", "0.5", "--points", "1201", "--x-min", "-3", "--x-max", "3"]
    proc = fresh("-c", _LINALG_AFTER_BENCHMARK, json.dumps(argv))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [["scipy.linalg._flapack"], True, True]


_EVERY_COMMAND = """
import contextlib, io, json, sys
import instanton_gas.cli as cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(json.dumps(sorted(sys.modules)))
"""


def test_no_command_loads_numpy_polynomial():
    # sys.modules only grows, so one process running all six commands shows it for each
    commands = [
        ("spectrum", *_WELL),
        ("sum", *_WELL, "--T", "2", "--terms", "40"),
        ("moments", "--n", "3", "--m", "4", *_WELL, "--T", "2", "--method", "all"),
        ("triangle-verify", "--depth", "12", "--ratio", "2/5"),
        ("benchmark", "--lambda", "4", "--b", "0.5", "--points", "1201", "--x-min", "-3", "--x-max", "3"),
        ("scaling", "--b", "0", "--lambdas", "4,6,8", "--points", "2001"),
    ]
    proc = fresh("-c", _EVERY_COMMAND, json.dumps(commands))
    assert proc.returncode == 0, proc.stderr
    modules = json.loads(proc.stdout)
    assert "numpy" in modules and "instanton_gas.schrodinger" in modules
    assert [m for m in modules if m.startswith("numpy.polynomial")] == []


@grid_commands
def test_grid_commands_load_no_concurrent_futures(argv):
    # numeric_gap solves its coarse grid in one plain thread, with no executor to import
    assert loaded(*argv, roots=("concurrent",)) == set()


_SOLVE_AROUND_LINALG = """
import json, sys
from instanton_gas import schrodinger
op = schrodinger.discretize(schrodinger.benchmark_potential(64.0, 0.3), schrodinger.GridSpec(-3.5, 3.5, 4001))
solves = []
if sys.argv[1] == "linalg-first":
    import scipy.linalg
solves.append([e.hex() for e in schrodinger.lowest_eigenvalues(op, 4)])
import scipy.linalg
solves.append([e.hex() for e in schrodinger.lowest_eigenvalues(op, 4)])
print(json.dumps({"solves": solves, "shared": schrodinger._dstebz() is scipy.linalg.lapack._flapack.dstebz}))
"""


def test_solver_gives_the_same_bits_before_and_after_scipy_linalg_import():
    # the solver's own load of scipy.linalg._flapack and the scipy.linalg package's
    # import of it share one extension module, whichever comes first
    runs = {}
    for order in ("solver-first", "linalg-first"):
        proc = fresh("-c", _SOLVE_AROUND_LINALG, order)
        assert proc.returncode == 0, proc.stderr
        runs[order] = json.loads(proc.stdout)
        assert runs[order]["shared"]
        first, second = runs[order]["solves"]
        assert first == second
    assert runs["solver-first"]["solves"] == runs["linalg-first"]["solves"]


_LINALG_AFTER_SOLVE = """
from instanton_gas import schrodinger
op = schrodinger.discretize(schrodinger.benchmark_potential(4.0, 0.5), schrodinger.GridSpec(-3.0, 3.0, 101))
schrodinger.lowest_eigenvalues(op, 2)
import scipy.linalg
print(scipy.linalg._flapack.dstebz is schrodinger._dstebz())
"""


def test_linalg_imported_after_a_solve_has_its_flapack_attribute():
    # the package binds _flapack only when it loads it, so the solver's own load
    # must not keep it from doing so
    proc = fresh("-c", _LINALG_AFTER_SOLVE)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "True\n")


_FIRST_GAP = """
import sys
from instanton_gas import schrodinger
schrodinger.numeric_gap(schrodinger.benchmark_potential(16.0, 0.0), schrodinger.DEFAULT_GRID)
print(schrodinger._dstebz.cache_info().misses, sys.meta_path.count(schrodinger._FlapackHandover))
"""


def test_first_gap_loads_flapack_once():
    # the two threads of the first numeric_gap reach the solver together; one of them loads the extension
    proc = fresh("-c", _FIRST_GAP)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "1 1\n")


def test_moments_loads_neither_numpy_nor_scipy():
    # sys.modules only grows, so one process running every method shows it for each
    symmetric = ("--omega0", "1.5", "--omega1", "1.5", "--B", "0.3")
    commands = [
        ("moments", "--n", "3", "--m", "4", *(symmetric if method == "symmetric" else _WELL), "--T", "2",
         "--method", method)
        for method in ("closed", "recursive", "quadrature", "symmetric", "all")
    ]
    proc = fresh("-c", _EVERY_COMMAND, json.dumps(commands))
    assert proc.returncode == 0, proc.stderr
    modules = json.loads(proc.stdout)
    assert "instanton_gas.moments" in modules and "mpmath" in modules
    assert [m for m in modules if m.split(".")[0] in ("numpy", "scipy")] == []


def test_no_module_names_longdouble():
    # np.longdouble has 64 mantissa bits only on x86 Linux; elsewhere it is float64
    assert [p.name for p in sorted((SRC / "instanton_gas").glob("*.py")) if "longdouble" in p.read_text()] == []


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
        "moment_recursive", "multi_instanton", "sweep_grid",
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
