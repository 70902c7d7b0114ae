"""Cold start of the CLI: the wall time of one fresh `python -m instanton_gas.cli` call per command.

Usage:
    python3 tools/cold_start.py BASE_TREE CHANGE_TREE

Each tree is a checkout of this repository, with the package at
src/instanton_gas.  Its package sources are copied to a temporary directory
without any __pycache__, and every call runs with PYTHONDONTWRITEBYTECODE=1,
so each call compiles every package module that it imports, as a call does
when no bytecode is cached.  Each round times `python -c pass` once and every
command once on each tree, with the order of the trees alternating from one
round to the next.  The table gives the median of RUNS rounds in
milliseconds.  Standard library only.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

RUNS = 9
_WELL = ("--omega0", "1", "--omega1", "2", "--B", "0.3")

# Label, argv and expected exit code of each timed call.
COMMANDS = (
    ("spectrum", ("spectrum", *_WELL), 0),
    ("spectrum edge (omega1 < 0)", ("spectrum", "--omega0", "1", "--omega1", "-2", "--B", "0.3"), 2),
    ("sum --terms 40", ("sum", *_WELL, "--T", "2", "--terms", "40"), 0),
    ("moments --method all", ("moments", "--n", "3", "--m", "4", *_WELL, "--T", "2", "--method", "all"), 0),
    ("triangle-verify --depth 18", ("triangle-verify", "--depth", "18", "--ratio", "2/5"), 0),
    ("benchmark", ("benchmark", "--lambda", "4", "--b", "0.5"), 0),
    ("scaling", ("scaling", "--b", "0", "--lambdas", "4,6,8", "--points", "2001"), 0),
)


def wall_ms(argv, env, expected_code):
    """Wall time of one call, in ms; a call that exits with another code stops the run."""
    start = perf_counter()
    proc = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    elapsed = (perf_counter() - start) * 1e3
    if proc.returncode != expected_code:
        sys.exit(f"{' '.join(argv)} exited {proc.returncode}, not {expected_code}:\n{proc.stderr}")
    return elapsed


def copy_sources(tree, scratch):
    """A copy of tree's src/instanton_gas under scratch without bytecode; returns the copy's src."""
    package = Path(tree) / "src" / "instanton_gas"
    if not (package / "__init__.py").is_file():
        sys.exit(f"no instanton_gas package under {tree}/src")
    src = Path(scratch) / "src"
    shutil.copytree(package, src / "instanton_gas", ignore=shutil.ignore_patterns("__pycache__"))
    return src


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("base", help="checkout of the repository before the change")
    parser.add_argument("change", help="checkout of the repository with the change")
    args = parser.parse_args(argv)
    trees = [args.base, args.change]

    base_env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    base_env["PYTHONDONTWRITEBYTECODE"] = "1"
    times = [{label: [] for label, _, _ in COMMANDS} for _ in trees]
    startup = []
    with tempfile.TemporaryDirectory() as scratch:
        envs = [dict(base_env, PYTHONPATH=str(copy_sources(tree, Path(scratch) / str(i))))
                for i, tree in enumerate(trees)]
        for run in range(RUNS):
            startup.append(wall_ms([sys.executable, "-c", "pass"], base_env, 0))
            for side in ((0, 1) if run % 2 == 0 else (1, 0)):
                for label, cli_argv, code in COMMANDS:
                    argv = [sys.executable, "-m", "instanton_gas.cli", *cli_argv, "--format", "json"]
                    times[side][label].append(wall_ms(argv, envs[side], code))

    print(f"median of {RUNS} rounds, ms; python -c pass: {statistics.median(startup):.0f}")
    print(f"| command | {args.base} | {args.change} |")
    print("|---|---:|---:|")
    for label, _, _ in COMMANDS:
        base, change = (statistics.median(side[label]) for side in times)
        print(f"| `{label}` | {base:.0f} | {change:.0f} |")


if __name__ == "__main__":
    main()
