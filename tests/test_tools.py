"""The timing tools in tools/ and the benchmark's declared metrics name what exists, so that a
renamed function or flag fails here."""

import importlib
import inspect
import json
from pathlib import Path

from instanton_gas import cli

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"


def test_every_timed_row_and_command_runs_once(monkeypatch, capsys):
    # each layer_time row's set-up and call, and each cold_start command through cli.main
    monkeypatch.syspath_prepend(str(TOOLS))
    import cold_start
    import layer_time

    for _, setup, call in layer_time.ROWS:
        names = {}
        exec(layer_time.NAMES, names)
        exec(setup, names)
        exec(call, names)
    for label, argv, code in cold_start.COMMANDS:
        assert cli.main([*argv, "--format", "json"]) == code, label
    capsys.readouterr()


def test_benchmark_metrics_name_public_functions():
    # a metric <layer>.<function>.self_ms or .calls (or .route.<name>) is recorded by wrapping a
    # public function defined in that layer, and <layer>.quad_calls by patching <layer>.quad: a
    # deleted or renamed one would show only as "metrics not measured" in a traced benchmark run
    declared = [metric["name"] for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    layers = ("potential", "moments", "triangle", "spectrum", "schrodinger", "cli")
    checked = 0
    for name in declared:
        layer, _, rest = name.partition(".")
        if layer not in layers:
            continue
        module = importlib.import_module(f"instanton_gas.{layer}")
        function, _, kind = rest.partition(".")
        if rest == "quad_calls":
            assert callable(getattr(module, "quad", None)), name
        elif kind in ("self_ms", "calls") or kind.startswith("route."):
            fn = getattr(module, function, None)
            assert inspect.isfunction(fn) and fn.__module__ == module.__name__, name
            assert not function.startswith("_"), name
        else:
            continue
        checked += 1
    assert checked >= 20
