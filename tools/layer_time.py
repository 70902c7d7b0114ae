"""In-process time of the moment, gas-sum, triangle, potential and Schrodinger layers, on two trees.

Usage:
    python3 tools/layer_time.py BASE_TREE CHANGE_TREE

Each tree is a checkout of this repository, with the package at
src/instanton_gas.  Its package sources are copied to a temporary directory
without any __pycache__, as tools/cold_start.py does.  Each round starts one
fresh process per tree and row; the two trees run each row back to back,
so that the host's drift over a round moves both sides of a row alike,
and their order alternates from one round to the next.  The process
imports the package, makes one untimed call (which loads what the call
imports), and times the call with timeit: autorange picks the number of
calls per repeat, and the process reports the least of REPEATS repeats
per call, the one that the host's other load slowed least.  The table
gives, in microseconds, the median over RUNS rounds of each tree's time,
and the median of the per-round ratio change/base, which the drift of the
host between rounds moves less than it moves either time.  The
rows are `gas_sum_partial(params, 40)` at two near-symmetric points
(|d| T = 1.5e-5, and 0.09, where the Kummer route's series are longest) and
one asymmetric point (|d| T = 1, the closed form in mpmath), then one row
per moment route: `moment_closed` at I(3, 4) and I(20, 20),
`moment_recursive` over the 9 x 9 rectangle, `moment_quadrature` at
I(3, 4), `moment_kummer` at I(3, 4) and I(20, 20) near symmetry
(|d| T = 1.5e-5), and `multi_instanton(20)` at |d| T = 0.09.  The
triangle layer follows, `build_triangle` and `verify_column_relations`
at depths 12 and 24 (ratio 2/5; the verification is timed on a triangle
built beforehand, and build_triangle makes the triangle's diagonal-sum
table), then the two in one call at depth 24.  The potential rows time
`find_minima` and `well_parameters` at (lam 16, b 0) and (lam 64, b 0.5),
each on a benchmark potential built in the timed call, as
`benchmark_point` builds one (the minima that `well_parameters` reads are
found beforehand).
The Schrodinger rows time `lowest_eigenvalues(op, 2)` on the operators of
the default 4001-point grid and its 8001-point refinement (lam 64, b 0.5;
each operator is discretized beforehand), then `numeric_gap` on the
default grid and `benchmark_point` at (lam 16, b 0) and (lam 64, b 0.5).
Standard library only.
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

# Label, set-up statement and timed call of each row.
_WELL = "params = WellParameters(omega0={}, omega1={}, B={}, T={})"
ROWS = (
    ("gas_sum_partial, near-symmetric (2.00001, 2, B 0.5, T 3)", _WELL.format(2.00001, 2.0, 0.5, 3.0),
     "spectrum.gas_sum_partial(params, 40)"),
    ("gas_sum_partial, near-symmetric (2.06, 2, B 0.5, T 3)", _WELL.format(2.06, 2.0, 0.5, 3.0),
     "spectrum.gas_sum_partial(params, 40)"),
    ("gas_sum_partial, asymmetric (1, 2, B 0.3, T 2)", _WELL.format(1.0, 2.0, 0.3, 2.0),
     "spectrum.gas_sum_partial(params, 40)"),
    ("moment_closed I(3, 4) (1, 2.3, B 0.5, T 3)", _WELL.format(1.0, 2.3, 0.5, 3.0),
     "moments.moment_closed((3, 4), params)"),
    ("moment_closed I(20, 20) (1, 2.3, B 0.5, T 3)", _WELL.format(1.0, 2.3, 0.5, 3.0),
     "moments.moment_closed((20, 20), params)"),
    ("moment_recursive 8 x 8 (1, 2.3, B 0.5, T 3)", _WELL.format(1.0, 2.3, 0.5, 3.0),
     "moments.moment_recursive(8, 8, params)"),
    ("moment_quadrature I(3, 4) (1, 2.3, B 0.5, T 3)", _WELL.format(1.0, 2.3, 0.5, 3.0),
     "moments.moment_quadrature((3, 4), params)"),
    *((f"moment_kummer I({n}, {m}) (2.00001, 2, B 0.5, T 3)", _WELL.format(2.00001, 2.0, 0.5, 3.0),
       f"moments.moment_kummer(({n}, {m}), params)")
      for n, m in ((3, 4), (20, 20))),
    ("multi_instanton(20) (2.06, 2, B 0.5, T 3)", _WELL.format(2.06, 2.0, 0.5, 3.0),
     "moments.multi_instanton(20, params)"),
    *((f"build_triangle depth {depth}, ratio 2/5", "", f"triangle.build_triangle({depth}, Fraction(2, 5))")
      for depth in (12, 24)),
    *((f"verify_column_relations depth {depth}, ratio 2/5",
       f"tri = triangle.build_triangle({depth}, Fraction(2, 5))", "triangle.verify_column_relations(tri)")
      for depth in (12, 24)),
    ("build_triangle + verify_column_relations depth 24, ratio 2/5", "",
     "triangle.verify_column_relations(triangle.build_triangle(24, Fraction(2, 5)))"),
    *((f"find_minima (lam {lam:g}, b {b:g})", "",
       f"potential.find_minima(schrodinger.benchmark_potential({lam}, {b}))")
      for lam, b in ((16.0, 0.0), (64.0, 0.5))),
    *((f"well_parameters (lam {lam:g}, b {b:g})",
       f"left, right = potential.find_minima(schrodinger.benchmark_potential({lam}, {b}))",
       f"potential.well_parameters(schrodinger.benchmark_potential({lam}, {b}), left, right)")
      for lam, b in ((16.0, 0.0), (64.0, 0.5))),
    *((f"lowest_eigenvalues, {points}-point operator (lam 64, b 0.5)",
       f"op = schrodinger.discretize(schrodinger.benchmark_potential(64.0, 0.5), "
       f"schrodinger.GridSpec(-3.5, 3.5, {points}))",
       "schrodinger.lowest_eigenvalues(op, 2)")
      for points in (4001, 8001)),
    *((f"numeric_gap, default grid (lam {lam:g}, b {b:g})", f"pot = schrodinger.benchmark_potential({lam}, {b})",
       "schrodinger.numeric_gap(pot, schrodinger.DEFAULT_GRID)")
      for lam, b in ((16.0, 0.0), (64.0, 0.5))),
    *((f"benchmark_point (lam {lam:g}, b {b:g})", "", f"schrodinger.benchmark_point({lam}, {b})")
      for lam, b in ((16.0, 0.0), (64.0, 0.5))),
)

# The names that every set-up statement and timed call sees.
NAMES = """
from fractions import Fraction
from instanton_gas import moments, potential, schrodinger, spectrum, triangle
from instanton_gas.potential import WellParameters
"""

_CHILD = f"""
import sys, timeit
names = {{}}
exec({NAMES!r}, names)
exec(sys.argv[1], names)
timer = timeit.Timer(sys.argv[2], globals=names)
timer.timeit(1)
number, _ = timer.autorange()
print(min(timer.repeat({REPEATS}, number)) / number * 1e6)
"""


def call_us(setup, call, env):
    """Microseconds per call, after the set-up, in a fresh process."""
    argv = [sys.executable, "-c", _CHILD, setup, call]
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
            for label, setup, call in ROWS:
                for side in ((0, 1) if run % 2 == 0 else (1, 0)):
                    times[side][label].append(call_us(setup, call, envs[side]))

    print(f"us per call, the least of {REPEATS} repeats per process; median of {RUNS} rounds")
    print(f"| call | {args.base} | {args.change} | change/base |")
    print("|---|---:|---:|---:|")
    for label, *_ in ROWS:
        base, change = (statistics.median(side[label]) for side in times)
        ratio = statistics.median(c / b for b, c in zip(times[0][label], times[1][label]))
        print(f"| {label} | {base:.0f} | {change:.0f} | {ratio:.2f} |")


if __name__ == "__main__":
    main()
