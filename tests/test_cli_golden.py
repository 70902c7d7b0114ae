"""Byte-level regression of every CLI output format.

`cli_golden.json` holds the stdout and exit code of each command in every
format.  The grid commands (benchmark, scaling) depend on the LAPACK build,
so their numbers are compared at 1e-12 relative; everything else must match
byte for byte.  After a deliberate output change, rewrite the fixture with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from instanton_gas.cli import main

FIXTURE = Path(__file__).with_name("cli_golden.json")

_WELL = ("--omega0", "1", "--omega1", "2", "--B", "0.3")
_GRID = ("--points", "1201", "--x-min", "-3", "--x-max", "3")
CASES = {
    "spectrum": ("spectrum", *_WELL),
    "spectrum-decoupled": ("spectrum", "--omega0", "1", "--omega1", "2", "--B", "0"),
    "spectrum-prefactor": ("spectrum", "--omega0", "1.5", "--omega1", "1.5", "--K", "2", "--S-inst", "1"),
    "moments": ("moments", "--n", "2", "--m", "3", *_WELL, "--T", "2"),
    "moments-symmetric": ("moments", "--n", "1", "--m", "2", "--omega0", "1.5", "--omega1", "1.5",
                          "--B", "0.3", "--T", "2", "--method", "symmetric"),
    "sum": ("sum", *_WELL, "--T", "2", "--terms", "5"),
    "sum-decoupled": ("sum", "--omega0", "1", "--omega1", "2", "--B", "0", "--T", "2", "--terms", "3"),
    "triangle-verify": ("triangle-verify", "--depth", "8", "--ratio=-3/7"),
    "benchmark": ("benchmark", "--lambda", "4", "--b", "0.5", *_GRID),
    "scaling": ("scaling", "--b", "0", "--lambdas", "16,20,25", "--points", "1501",
                "--x-min", "-3", "--x-max", "3"),
    "scaling-k-hint": ("scaling", "--b", "0", "--lambdas", "16,20,25", "--K-hint", "1.5",
                       "--points", "1501", "--x-min", "-3", "--x-max", "3"),
    "error-missing": ("spectrum", "--omega0", "1"),
    "error-contradictory": ("spectrum", *_WELL, "--K", "1", "--S-inst", "0"),
}
FORMATS = ("json", "csv", "table")
GRID_COMMANDS = ("benchmark", "scaling")
_NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _split(text):
    """Text with every number replaced by a marker, and the numbers."""
    return _NUMBER.sub("#", text), [float(tok) for tok in _NUMBER.findall(text)]


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_output_unchanged(golden, case, fmt):
    key = f"{case}/{fmt}"
    expected = golden[key]
    code, out, err = run(CASES[case] + ("--format", fmt))
    assert code == expected["code"]
    assert err == expected["stderr"]
    if CASES[case][0] not in GRID_COMMANDS:
        assert out == expected["stdout"]
        return
    shape, numbers = _split(out)
    want_shape, want_numbers = _split(expected["stdout"])
    assert shape == want_shape
    assert numbers == pytest.approx(want_numbers, rel=1e-12, abs=0.0)


if __name__ == "__main__":
    record = {}
    for case, argv in sorted(CASES.items()):
        for fmt in FORMATS:
            code, out, err = run(argv + ("--format", fmt))
            record[f"{case}/{fmt}"] = {
                "argv": list(argv) + ["--format", fmt], "code": code, "stdout": out, "stderr": err,
            }
    FIXTURE.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
