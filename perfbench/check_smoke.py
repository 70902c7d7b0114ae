"""Smoke test of the benchmark: every workload with one operation per phase.

    python3 perfbench/check_smoke.py

Run from the root of a source checkout.  It checks that

- each workload, untraced and traced, ends with a result line that holds
  exactly the metrics BENCHMARK.json names, each with its unit, and that
  the untraced run prints every end-to-end metric with a sample count;
- a seed always gives the same inputs and two seeds give different ones;
- an untraced run records no spans: no wrapper is installed in process and
  no CLI child writes a trace, while a traced run records spans;
- the output checks name the failure reasons they should, and every run
  is correct with no failed timed op.

It exits nonzero at the first check that fails.  It is not collected by
pytest, so the package's test suite does not run the benchmark.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from layertrace import LAYERS, Tracer, public_functions  # noqa: E402
from workloads import WORKLOADS, Invocation, check_gap  # noqa: E402

SEED = 7


def expect(condition, what):
    if not condition:
        raise SystemExit(f"smoke: FAIL: {what}")
    print(f"smoke: ok: {what}")


def run_command(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        print(proc.stderr[-2000:], file=sys.stderr)
    expect(proc.returncode == 0, f"{workload} trace={trace} exits 0")
    return proc.stdout.splitlines()


def check_result_lines(workload, spec):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        lines = run_command(workload, trace)
        result = json.loads(lines[-1])
        expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{workload} result keys")
        expect(result["attempted"] == (2 if trace else 1), f"{workload} runs one op per phase")
        expect(result["correct"] and result["failed"] == 0, f"{workload} trace={trace} is correct, no op failed")
        declared = {m["name"]: m["unit"] for m in spec[section]}
        measured = {name: m["unit"] for name, m in result["metrics"].items()}
        expect(measured == declared, f"{workload} trace={trace} prints every {section} metric with its unit")
        if not trace:
            for name, unit in declared.items():
                printed = [line for line in lines if line.split()[:1] == [name]]
                expect(printed and f" {unit} " in printed[0] and "(" in printed[0],
                       f"{workload} shows {name} with unit {unit} and sample count")


def wrapped_functions():
    import importlib

    return [
        f"{layer}.{name}"
        for layer in LAYERS
        for name, fn in public_functions(importlib.import_module(f"instanton_gas.{layer}")).items()
        if hasattr(fn, "__wrapped__")
    ]


def check_spans_in_process():
    workload = WORKLOADS["gas-sweep"]
    inputs, runner = run.set_up(workload, SEED)
    run.run_phase(workload, inputs, runner, 0)
    expect(not wrapped_functions(), "untraced in-process run installs no wrapper")
    tracer = Tracer()
    tracer.install()
    try:
        run.run_phase(workload, inputs, runner, 0, tracer)
    finally:
        tracer.uninstall()
    expect(len(tracer.spans) > 0 and not wrapped_functions(), "traced run records spans and uninstalls")


def check_spans_child():
    workload = WORKLOADS["cli-cold"]
    invocation = workload.warmup()
    for traced in (False, True):
        runner = run.ChildProcess(traced=traced)
        try:
            tracer = Tracer()
            ops = run.run_phase(workload, [invocation], runner, 0, tracer)
        finally:
            runner.close()
        expect(ops[0].output[0] == 0, f"cli child exits 0 (traced={traced})")
        expect(bool(tracer.spans) == traced, f"cli child records spans only when traced (traced={traced})")


def check_reasons():
    cli = WORKLOADS["cli-cold"]
    edge = Invocation("spectrum", (), edge=True)
    plain = Invocation("spectrum", (), params=(2.0, 1.0, 0.5))
    error = '{"code": "bad-value", "message": "m", "parameter": "B"}'
    cases = [
        (cli.check(edge, (0, '{"gap": NaN}', "")).reason, "non-finite"),
        (cli.check(edge, (0, '{"gap": Infinity}', "")).reason, "non-finite"),
        (cli.check(edge, (1, "", "Traceback (most recent call last):\n  ...")).reason, "traceback"),
        (cli.check(edge, (2, "usage", "")).reason, "invalid-json"),
        (cli.check(edge, (2, error, "")).reason, None),
        (cli.check(edge, (0, '{"gap": 1.0}', "")).reason, None),
        (cli.check(plain, (1, error, "")).reason, "exception:bad-value"),
        (cli.check(plain, (0, '{"e_plus": 0.0, "e_minus": 1.0, "gap": 1.0}', "")).reason, "wrong-value"),
        (check_gap(0.0, 0.0).reason, "zero-gap"),
        (check_gap(-2.3e-10, 3e-11).reason, "wrong-value"),
        (check_gap(2.3e-10, 3e-11).reason, "wrong-value"),
        (check_gap(float("nan"), 0.0).reason, "non-finite"),
        (check_gap(0.05, 1e-9).reason, None),
    ]
    for got, want in cases:
        expect(got == want, f"checker gives {want!r}")
    workload = WORKLOADS["gas-sweep"]
    ops = [run.Op(("asymmetric", 2.0, 1.0, 0.5, 2.0), 0.0, 0.0, error=ZeroDivisionError())]
    run.check(workload, ops)
    expect(ops[0].outcome.reason == "exception:ZeroDivisionError", "exceptions are named by type")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "BENCHMARK.json lists the workloads")
    for name, workload in WORKLOADS.items():
        expect(workload.inputs(1, 64) == workload.inputs(1, 64), f"{name}: a seed repeats its inputs")
        expect(workload.inputs(1, 64) != workload.inputs(2, 64), f"{name}: seeds differ")
    check_reasons()
    check_spans_in_process()
    check_spans_child()
    for name in WORKLOADS:
        check_result_lines(name, spec)
    print("smoke: all checks passed")


if __name__ == "__main__":
    main()
