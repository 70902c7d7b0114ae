"""Run one instanton-gas CLI call with the layer tracer installed.

    python3 perfbench/launcher.py TRACE_FILE CLI_ARG...

Behaves like ``python -m instanton_gas.cli CLI_ARG...`` (same output, exit
code and uncaught tracebacks) and writes the call's spans and counters, with
the times it entered, imported the package and left ``main``, to TRACE_FILE
as JSON.
"""

from time import perf_counter

entered = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import_start = perf_counter()
import instanton_gas.cli  # noqa: E402

import_end = perf_counter()

from layertrace import Tracer  # noqa: E402

tracer = Tracer()
tracer.install()
tracer.op = 0
trace_path, argv = sys.argv[1], sys.argv[2:]
code = 1
try:
    code = instanton_gas.cli.main(argv)
finally:
    left = perf_counter()
    record = tracer.export()
    record.update(entered=entered, import_start=import_start, import_end=import_end, left=left)
    Path(trace_path).write_text(json.dumps(record))
sys.exit(code)
