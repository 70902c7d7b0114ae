"""Import budget: the CLI loads only the package modules, mpmath and libraries that a command calls.

A bare `import instanton_gas` loads no submodule: its names resolve on
first access.  No command loads numpy or any scipy module: moments
integrates by Gauss-Legendre rules kept as constants, in plain floats and
ints, and the grid commands call LAPACK and BLAS in scipy's bundled
OpenBLAS through ctypes (instanton_gas._openblas), on array('d')
buffers.  The commands that solve no grid load neither that module nor
ctypes or array.  Every check of what is loaded runs in a fresh interpreter,
because the pytest process itself imports whatever the other test
modules use.
"""
import ast
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
def test_grid_commands_load_neither_numpy_nor_scipy(argv):
    modules = loaded(*argv, roots=("numpy", "scipy", "instanton_gas"))
    assert "instanton_gas._openblas" in modules
    assert [m for m in modules if m.split(".")[0] in ("numpy", "scipy")] == []


_NON_GRID_COMMANDS = [
    ("spectrum", *_WELL),
    ("sum", *_WELL, "--T", "2", "--terms", "40"),
    ("moments", "--n", "3", "--m", "4", *_WELL, "--T", "2", "--method", "all"),
    ("triangle-verify", "--depth", "12", "--ratio", "2/5"),
]


@pytest.mark.parametrize("argv", _NON_GRID_COMMANDS, ids=lambda argv: argv[0])
def test_commands_without_a_grid_load_neither_the_library_loader_nor_ctypes(argv):
    # they make up most cold calls: the loader's import, and ctypes' and array's, would be paid for nothing
    modules = loaded(*argv, roots=("array", "ctypes", "_ctypes", "instanton_gas"))
    assert "instanton_gas.cli" in modules
    assert not modules & {"array", "ctypes", "_ctypes", "instanton_gas._openblas"}


_EVERY_COMMAND = """
import contextlib, io, json, sys
import instanton_gas.cli as cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(json.dumps(sorted(sys.modules)))
"""


def test_no_command_loads_numpy_or_scipy():
    # sys.modules only grows, so one process running all six commands shows it for each
    commands = [
        *_NON_GRID_COMMANDS,
        ("benchmark", "--lambda", "4", "--b", "0.5", "--points", "1201", "--x-min", "-3", "--x-max", "3"),
        ("scaling", "--b", "0", "--lambdas", "4,6,8", "--points", "2001"),
    ]
    proc = fresh("-c", _EVERY_COMMAND, json.dumps(commands))
    assert proc.returncode == 0, proc.stderr
    modules = json.loads(proc.stdout)
    assert "instanton_gas.schrodinger" in modules
    assert [m for m in modules if m.split(".")[0] in ("numpy", "scipy")] == []


@grid_commands
def test_grid_commands_load_no_concurrent_futures(argv):
    # numeric_gap solves its coarse grid in one plain thread, with no executor to import
    assert loaded(*argv, roots=("concurrent",)) == set()


_SOLVE_AROUND_IMPORT = """
import importlib, json, sys
from instanton_gas import schrodinger
library, order = sys.argv[1:]
grid = schrodinger.GridSpec(-3.5, 3.5, 4001)
op = schrodinger.discretize(schrodinger.benchmark_potential(64.0, 0.3), grid)
solves = []
if order == "library-first":
    importlib.import_module(library)
solves.append([e.hex() for e in schrodinger.lowest_eigenvalues(op, 4)])
module = importlib.import_module(library)
solves.append([e.hex() for e in schrodinger.lowest_eigenvalues(op, 4)])
# the library works beside the solver: the same eigenvalues, and the same grid points
if library == "scipy.linalg":
    theirs = module.eigh_tridiagonal(
        op.diagonal, [op.off_diagonal] * (op.size - 1), eigvals_only=True, select="i", select_range=(0, 3),
        lapack_driver="stebz", tol=schrodinger.EIGENVALUE_TOL,
    )
    works = [e.hex() for e in theirs.tolist()] == solves[-1]
else:
    works = module.linspace(grid.x_min, grid.x_max, grid.points).tolist() == grid.array().tolist()
print(json.dumps({"solves": solves, "works": works}))
"""


@pytest.mark.parametrize("library", ["scipy.linalg", "numpy"])
def test_solver_gives_the_same_bits_before_and_after_a_later_import(library):
    # the solver opens scipy's OpenBLAS by itself; a later scipy.linalg (which links the same
    # library) or numpy (which brings its own) still works, and the solver keeps its bits
    runs = {}
    for order in ("solver-first", "library-first"):
        proc = fresh("-c", _SOLVE_AROUND_IMPORT, library, order)
        assert proc.returncode == 0, proc.stderr
        runs[order] = json.loads(proc.stdout)
        assert runs[order]["works"]
        first, second = runs[order]["solves"]
        assert first == second
    assert runs["solver-first"]["solves"] == runs["library-first"]["solves"]


_FIRST_GAP = """
import threading
from instanton_gas import _openblas, schrodinger
opened, real_cdll = [], _openblas.CDLL


def slow_cdll(path):
    # a slow open, so that threads that meet in load() would each open the library without the lock
    opened.append(path)
    threading.Event().wait(0.05)
    return real_cdll(path)


_openblas.CDLL = slow_cdll
pot = schrodinger.benchmark_potential(16.0, 0.0)
schrodinger.numeric_gap(pot, schrodinger.DEFAULT_GRID)
first_gap = len(opened)
_openblas._bind.cache_clear()
start = threading.Barrier(4)
threads = [threading.Thread(target=lambda: (start.wait(), _openblas.load())) for _ in range(4)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=30)
print(first_gap, len(opened) - first_gap, sum(thread.is_alive() for thread in threads))
"""


def test_first_gap_opens_the_library_once():
    # numeric_gap's two threads share one open of the library, and so do threads whose first loads meet
    proc = fresh("-c", _FIRST_GAP)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "1 1 0\n")


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


def test_only_the_library_loader_imports_ctypes():
    # the Fortran calling convention (addresses, by-reference scalars, work buffers) stays behind _openblas
    importers = set()
    for path in sorted((SRC / "instanton_gas").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "ctypes" for name in names):
                importers.add(path.stem)
    assert importers == {"_openblas"}


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
