"""In-process time of one gas sum and of one closed-form I(n, m), on two trees.

Usage:
    python3 tools/layer_time.py BASE_TREE CHANGE_TREE

Each tree is a checkout of this repository, with the package at
src/instanton_gas.  Its package sources are copied to a temporary directory
without any __pycache__, as tools/cold_start.py does.  Each round starts one
fresh process per tree and row, with the order of the trees alternating
from one round to the next.  The process imports the package, makes one
untimed call (which loads what the call imports), and times the call with
timeit: autorange picks the number of calls per repeat, and the process
reports the median of REPEATS repeats per call.  The table gives the median
of RUNS rounds in microseconds.  The rows are `gas_sum_partial(params, 40)`
at one near-symmetric point (|d| T = 1.5e-5, the Kummer route) and one
asymmetric point (|d| T = 1, the closed form in mpmath), and the closed
form's route alone, `moment_closed` at I(3, 4) and I(20, 20).  Standard
library only.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from cold_start import copy_sources

RUNS = 9
REPEATS = 5

# Label, timed call and (omega0, omega1, B, T) of each row; the call reads
# `params`, the WellParameters of the row.
ROWS = (
    ("gas_sum_partial, near-symmetric (2.00001, 2, B 0.5, T 3)", "spectrum.gas_sum_partial(params, 40)",
     (2.00001, 2.0, 0.5, 3.0)),
    ("gas_sum_partial, asymmetric (1, 2, B 0.3, T 2)", "spectrum.gas_sum_partial(params, 40)",
     (1.0, 2.0, 0.3, 2.0)),
    ("moment_closed I(3, 4) (1, 2.3, B 0.5, T 3)", "moments.moment_closed((3, 4), params)",
     (1.0, 2.3, 0.5, 3.0)),
    ("moment_closed I(20, 20) (1, 2.3, B 0.5, T 3)", "moments.moment_closed((20, 20), params)",
     (1.0, 2.3, 0.5, 3.0)),
)

_CHILD = f"""
import statistics, sys, timeit
from instanton_gas import moments, spectrum
from instanton_gas.potential import WellParameters
w0, w1, b, t = map(float, sys.argv[2:])
params = WellParameters(omega0=w0, omega1=w1, T=t, B=b)
timer = timeit.Timer(sys.argv[1], globals=dict(moments=moments, spectrum=spectrum, params=params))
timer.timeit(1)
number, _ = timer.autorange()
print(statistics.median(timer.repeat({REPEATS}, number)) / number * 1e6)
"""


def call_us(call, point, env):
    """Microseconds per call at the point in a fresh process."""
    argv = [sys.executable, "-c", _CHILD, call, *map(repr, point)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"the timing process exited {proc.returncode}:\n{proc.stderr}")
    return float(proc.stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("base", help="checkout of the repository before the change")
    parser.add_argument("change", help="checkout of the repository with the change")
    args = parser.parse_args(argv)
    trees = [args.base, args.change]

    base_env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    base_env["PYTHONDONTWRITEBYTECODE"] = "1"
    times = [{label: [] for label, *_ in ROWS} for _ in trees]
    with tempfile.TemporaryDirectory() as scratch:
        envs = [dict(base_env, PYTHONPATH=str(copy_sources(tree, Path(scratch) / str(i))))
                for i, tree in enumerate(trees)]
        for run in range(RUNS):
            for side in ((0, 1) if run % 2 == 0 else (1, 0)):
                for label, call, point in ROWS:
                    times[side][label].append(call_us(call, point, envs[side]))

    print(f"us per call; median of {RUNS} rounds")
    print(f"| call | {args.base} | {args.change} |")
    print("|---|---:|---:|")
    for label, *_ in ROWS:
        base, change = (statistics.median(side[label]) for side in times)
        print(f"| {label} | {base:.0f} | {change:.0f} |")


if __name__ == "__main__":
    main()
