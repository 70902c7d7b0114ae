"""Import budget: the CLI loads only the numpy, mpmath and scipy that a command calls.

No command loads scipy.integrate: the quadrature oracle integrates by
Gauss-Legendre in numpy, the gas sum needs no numpy at any asymmetry, and
only the grid commands load scipy.linalg.  Every check runs in a fresh
interpreter, because the pytest process itself imports whatever the
other test modules use.
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
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "mpmath", "scipy"))))
"""

_WELL = ("--omega0", "1", "--omega1", "2", "--B", "0.3")


def heavy_loaded(*argv):
    """numpy, mpmath and scipy modules loaded after importing the CLI and running argv, if given."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, json.dumps(argv)],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True,
    )
    return set(json.loads(proc.stdout))


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
