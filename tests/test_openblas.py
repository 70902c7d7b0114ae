"""The loader of scipy's bundled OpenBLAS: every grid routine from one library, opened once, or a loud failure.

The library's file name and its symbol prefix are private to scipy's
wheel, so a scipy laid out otherwise must fail with an ImportError that
names what is missing, and the CLI must report it as an error object.
"""

import json
import re

import pytest

from instanton_gas import _openblas, cli

_BENCHMARK = ("benchmark", "--lambda", "4", "--b", "0.5", "--points", "101", "--x-min", "-3", "--x-max", "3")
_SCALING = ("scaling", "--b", "0", "--lambdas", "4,6,8", "--points", "101")


@pytest.fixture
def unbound(monkeypatch):
    # the library is bound again by the next load(), with the test's patches, and after them without
    _openblas._bind.cache_clear()
    yield monkeypatch
    _openblas._bind.cache_clear()


def no_library(monkeypatch):
    monkeypatch.setattr(_openblas, "LIBRARY", ("libscipy_openblas-", ".so.absent"))
    return r"expected one libscipy_openblas-\*\.so\.absent in .*scipy\.libs, found 0"


def no_symbol(monkeypatch):
    monkeypatch.setitem(_openblas.ROUTINES, "dabsent", (None,))
    return r"libscipy_openblas-.*\.so has no symbol scipy_dabsent_"


def no_scipy(monkeypatch):
    monkeypatch.setattr(_openblas, "find_spec", lambda name: None)
    return r"No module named 'scipy'"


BREAKS = pytest.mark.parametrize("breaks", [no_library, no_symbol, no_scipy], ids=lambda f: f.__name__)


def test_routines_are_bound_once():
    blas = _openblas.load()
    assert blas is _openblas.load()
    assert sorted(vars(blas)) == sorted(_openblas.ROUTINES)


@BREAKS
def test_missing_piece_is_import_error_naming_it(unbound, breaks):
    message = breaks(unbound)
    with pytest.raises(ImportError, match=message):
        _openblas.load()
    with pytest.raises(ImportError, match=message):  # refused again, not cached
        _openblas.load()


@BREAKS
@pytest.mark.parametrize("argv", [_BENCHMARK, _SCALING], ids=["benchmark", "scaling"])
def test_cli_reports_a_missing_piece_as_an_error_object(unbound, breaks, argv, capsys):
    message = breaks(unbound)
    assert cli.main([*argv, "--format", "json"]) == 1
    out, err = capsys.readouterr()
    error = json.loads(out)
    assert (err, error["code"], error["parameter"]) == ("", "missing-library", None)
    assert re.search(message, error["message"])
    assert cli.main(list(argv)) == 1  # the table format reports on stderr, without a traceback
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "Traceback" not in err and err.count("\n") == 1


def test_load_after_a_failure_opens_the_library(unbound):
    no_library(unbound)
    with pytest.raises(ImportError):
        _openblas.load()
    unbound.undo()
    assert _openblas.load().ddot is not None
