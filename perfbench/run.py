"""Benchmark of instanton-gas: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the package is imported from
``src/`` (never from an installed copy) and the command fails, printing no
result, when ``src/instanton_gas`` is missing.  Workloads are defined in
``workloads.py``; ``BENCHMARK.json`` at the checkout root names the metrics.

With ``--trace 0`` the run times the workload for S seconds with no tracing
and reports the end-to-end metrics.  With ``--trace 1`` it runs S/2 seconds
untraced and S/2 seconds with ``layertrace.Tracer`` installed, probes the
import cost in fresh interpreters, and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it show every
metric with its unit and sample count.  After the timed loop the workload's
defect probes run once, untimed: ``correct`` is false when a timed operation
fails or a probe fails other than as its known defect.  A full record
(provenance, failure reasons, probe outcomes, spans of a traced run) is
written under ``.perfbench_out/``.
"""

from time import perf_counter

STARTED = perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS, Outcome  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Fixed per workload so that a faster program, which completes more
# operations in a run, is compared at the same percentile.  In process they
# sit below the highest percentile with ten operations beyond it, whose
# value follows short stalls of the host: gas-sweep's p95 and doublet-gap's
# p90 spread about 10% between seeds, twice as much as p90 and p80.
# cli-cold completes only 22-30 operations in a 35 s run, so p55 is the
# highest that keeps ten beyond it.
TAIL_PERCENTILE = {"gas-sweep": 90, "doublet-gap": 80, "cli-cold": 55}
# The speed of a shared host drifts by up to a quarter over tens of
# seconds.  Between operations each runner times a fixed reference task
# that resembles its operations and does not use the package, and every
# reported time is scaled to a host on which that task takes the runner's
# REFERENCE_S (see InProcess and ChildProcess).  Set-up is mostly imports,
# which that in-process task does not track, so SETUP_SAMPLES fresh set-ups
# alternate with fresh interpreters importing numpy and mpmath, and every
# set-up is scaled by the median of those to a host on which one takes
# SETUP_REFERENCE_S (see setup_samples).
SETUP_SAMPLES = 3
SETUP_REFERENCE_S = 0.25
SETUP_REFERENCE_ARGV = ("-c", "import numpy, mpmath")
IMPORT_PROBE_RUNS = 3
IMPORT_MODULES = (
    "instanton_gas",
    "instanton_gas.potential",
    "instanton_gas.moments",
    "instanton_gas.triangle",
    "instanton_gas.spectrum",
    "instanton_gas.schrodinger",
    "numpy",
    "scipy.integrate",
    "scipy.linalg",
    "mpmath",
)
FAILURE_REASONS = ("traceback", "invalid-json", "non-finite", "wrong-value", "zero-gap", "exception")


class BenchmarkError(Exception):
    """The benchmark cannot produce a valid result."""


@dataclass
class Op:
    """One attempted operation of the timed loop."""

    input: object
    start: float
    end: float
    output: object = None
    error: Exception = None
    rss_kb: int = 0
    outcome: Outcome = None
    scale: float = 1.0  # reference time of a nominal host over the one measured around the op

    @property
    def wall(self):
        return self.end - self.start

    @property
    def latency(self):
        return self.wall * self.scale


def timed(task):
    """(start, seconds) of one call of task()."""
    start = perf_counter()
    task()
    return start, perf_counter() - start


def float_mpmath_loop():
    """Float and mpmath arithmetic, close to the mix of the gas sums."""
    import mpmath

    x = 0.0
    for i in range(20_000):
        x = math.sqrt(x + i) * 0.5 + math.exp(-1.0)
    # The context's own method: the tracer counts calls of mpmath.workdps.
    with mpmath.mp.workdps(80):
        a = mpmath.mpf(1)
        for i in range(400):
            a = a * mpmath.mpf(1.0001) + mpmath.mpf(i) / 7


def pivot_loop():
    """The pivot recurrence of a Sturm count, in pure Python like schrodinger's."""
    diag = [2.0 + 0.01 * (i % 97) for i in range(25_000)]
    for x in (0.5, 1.5):
        t, count = diag[0] - x, 0
        for a in diag[1:]:
            t = (a - x) - 1.0 / t
            if abs(t) < 1e-290:
                t = -1e-290
            if t < 0.0:
                count += 1


# The in-process reference task of each workload and the number of probes
# on each side of an op that scale it.  On a shared 2-core host whose speed
# swung by 20%, the p80 of benchmark_point over 17 s windows spread 3% when
# scaled by the pivot loop's one adjacent probe on each side, 7% with four
# on each side, and 8-15% with the float and mpmath loop.
REFERENCE_TASKS = {"gas-sweep": (float_mpmath_loop, 4), "doublet-gap": (pivot_loop, 1)}


def child_env():
    """The caller's environment with the package on the path.

    INSTANTON_GAS_THREADS is dropped: it would make `scaling` run on a
    thread pool, and every workload has a single caller and no threads.
    """
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    env.pop("INSTANTON_GAS_THREADS", None)
    return env


def require_source():
    if not (SRC / "instanton_gas" / "__init__.py").is_file():
        raise BenchmarkError(f"no instanton_gas package under {SRC}")


def import_package():
    require_source()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import instanton_gas

    if not Path(instanton_gas.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchmarkError(f"instanton_gas imported from {instanton_gas.__file__}, not {SRC}")


class InProcess:
    """Calls the workload's operation in this process."""

    REFERENCE_S = 0.010
    PROBE_INTERVAL_S = 0.25

    def __init__(self, workload):
        self.workload = workload
        self.task, self.probes_per_side = REFERENCE_TASKS[workload.name]

    def reference(self):
        return timed(self.task)

    def __call__(self, item):
        return self.workload.run(item)

    def collect(self, op, tracer):
        return op.output

    def close(self):
        pass


class ChildProcess:
    """Runs each operation as a fresh CLI process; one child at a time.

    The child's output goes to files that are read after it has exited, and
    its peak RSS comes from ``os.wait4``.  With a tracer the child is started
    through ``launcher.py`` and its spans are merged into the tracer.  The
    reference task is a fresh interpreter importing the package's
    dependencies, since start-up and import dominate a CLI call.
    """

    REFERENCE_S = 0.5
    PROBE_INTERVAL_S = 5.0
    probes_per_side = 2
    REFERENCE_ARGV = ("-c", "import numpy, scipy.linalg, mpmath")

    def __init__(self, traced=False):
        require_source()
        OUT.mkdir(exist_ok=True)
        stem = OUT / f"child-{os.getpid()}"
        self.env = child_env()
        self.stdout = open(f"{stem}.out", "w+", encoding="utf-8")
        self.stderr = open(f"{stem}.err", "w+", encoding="utf-8")
        self.trace_path = Path(f"{stem}.trace.json")
        if traced:
            self.prefix = [sys.executable, str(HERE / "launcher.py"), str(self.trace_path)]
        else:
            self.prefix = [sys.executable, "-m", "instanton_gas.cli"]

    def _spawn(self, argv):
        for stream in (self.stdout, self.stderr):
            stream.seek(0)
            stream.truncate()
        proc = subprocess.Popen(argv, stdout=self.stdout, stderr=self.stderr, env=self.env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage.ru_maxrss

    def __call__(self, invocation):
        return self._spawn(self.prefix + list(invocation.argv))

    def reference(self):
        return timed(lambda: self._spawn([sys.executable, *self.REFERENCE_ARGV]))

    def collect(self, op, tracer):
        code, op.rss_kb = op.output
        self.stdout.seek(0)
        self.stderr.seek(0)
        if tracer is not None and self.trace_path.exists():
            child = json.loads(self.trace_path.read_text())
            self.trace_path.unlink()
            tracer.merge(child, [
                ("process.startup", op.start, child["import_start"]),
                ("process.import", child["import_start"], child["import_end"]),
                ("process.exit", child["left"], op.end),
            ])
        return code, self.stdout.read(), self.stderr.read()

    def close(self):
        for stream in (self.stdout, self.stderr):
            stream.close()
            Path(stream.name).unlink(missing_ok=True)


def set_up(workload, seed):
    """Import, generate the inputs and run one untimed warm-up operation."""
    if workload.in_process:
        import_package()
        workload.load()
        runner = InProcess(workload)
    else:
        runner = ChildProcess()
    inputs = workload.inputs(seed, workload.input_count)
    runner(workload.warmup())
    return inputs, runner


def run_phase(workload, inputs, runner, seconds, tracer=None):
    """Closed loop over the inputs for `seconds`; returns the ops.

    The operation in flight at the deadline completes, so a phase holds at
    least one op.  The runner's reference task is timed between operations,
    at most every PROBE_INTERVAL_S, and each op is scaled by the median of
    the probes_per_side probes before it and as many after it.
    """
    ops = []
    probes = [runner.reference()]
    deadline = perf_counter() + seconds
    while True:
        item = inputs[len(ops) % len(inputs)]
        if tracer is not None:
            tracer.op = len(ops)
        t0 = perf_counter()
        try:
            output, error = runner(item), None
        except Exception as exc:  # a failing operation is counted, not fatal
            output, error = None, exc
        op = Op(item, t0, perf_counter(), output, error)
        if error is None:
            op.output = runner.collect(op, tracer)
        ops.append(op)
        done = op.end >= deadline
        if done or perf_counter() - probes[-1][0] >= runner.PROBE_INTERVAL_S:
            probes.append(runner.reference())
        if done:
            break
    starts = [t for t, _ in probes]
    side = runner.probes_per_side
    for op in ops:
        after = bisect.bisect_left(starts, op.end)
        nearby = probes[max(0, after - side):after + side]
        op.scale = runner.REFERENCE_S / statistics.median(seconds for _, seconds in nearby)
    return ops


def check(workload, ops):
    for op in ops:
        if op.error is not None:
            op.outcome = workload.check_error(op.input, op.error)
        else:
            op.outcome = workload.check(op.input, op.output)


def probe_defects(workload):
    """(probe, outcome) of each of the workload's defect probes, in this process."""
    import_package()
    results = []
    for probe in workload.PROBES:
        try:
            outcome = workload.check(probe.item, workload.probe(probe.item))
        except Exception as exc:  # the defect may be an exception
            outcome = workload.check_error(probe.item, exc)
        results.append((probe, outcome))
    return results


def percentile(values, q):
    values = sorted(values)
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def rate(ops):
    """Completed ops per (scaled) second of operation time."""
    return len(ops) / sum(op.latency for op in ops)


# Reported beside the end-to-end metrics without a bound in BENCHMARK.json:
# failed_frac is 0 while no timed op fails, and accuracy_digits is a worst case
# over too few ops on cli-cold to be steady between seeds.
UNBOUNDED_UNITS = {"failed_frac": "frac", "accuracy_digits": "digits"}


def end_to_end(workload, ops, setups):
    """Every end-to-end metric as name -> (value, sample note)."""
    latency = [op.latency * 1e3 for op in ops]
    q = TAIL_PERCENTILE[workload.name]
    tail = percentile(latency, q)
    beyond = sum(v > tail for v in latency)
    digits = [op.outcome.digits for op in ops if op.outcome.reason is None and op.outcome.digits is not None]
    failed = sum(op.outcome.reason is not None for op in ops)
    if workload.in_process:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rss_note = "peak of this process"
    else:
        rss = statistics.median(op.rss_kb for op in ops) / 1024.0
        rss_note = f"median peak of {len(ops)} children"
    n = len(ops)
    return {
        "setup_s": (statistics.median(setups), f"median of {len(setups)} fresh set-ups"),
        "ops_per_s": (rate(ops), f"{n} ops, host scale {statistics.median(op.scale for op in ops):.3f}"),
        "op_p50_ms": (statistics.median(latency), f"n={n}"),
        "op_tail_ms": (tail, f"p{q}, {beyond} ops beyond, n={n}"),
        "failed_frac": (failed / n, f"{failed} of {n}"),
        "accuracy_digits": (min(digits) if digits else 0.0, f"worst of {len(digits)} checked ops"),
        "rss_mb": (rss, rss_note),
    }


def failure_counts(outcomes):
    reasons = Counter(o.reason for o in outcomes if o.reason is not None)
    grouped = Counter({f"failures.{r}": 0 for r in FAILURE_REASONS})
    for reason, count in reasons.items():
        grouped["failures." + reason.split(":", 1)[0]] += count
    return dict(grouped), dict(reasons)


def import_probe(runs=IMPORT_PROBE_RUNS):
    """Medians over fresh interpreters: bare start-up and `-X importtime` of the CLI."""
    env = child_env()
    startup, cumulative = [], {name: [] for name in IMPORT_MODULES + ("instanton_gas.cli",)}
    for _ in range(runs):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        startup.append((perf_counter() - t0) * 1e3)
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import instanton_gas.cli"],
            env=env, capture_output=True, text=True, check=True,
        )
        seen = {}
        for line in proc.stderr.splitlines():
            if line.startswith("import time:") and "|" in line:
                _, cum, name = line[len("import time:"):].split("|")
                if cum.strip().isdigit():
                    seen[name.strip()] = int(cum) / 1e3
        for name in cumulative:
            cumulative[name].append(seen.get(name, 0.0))
    metrics = {f"{name}.import_ms": statistics.median(v) for name, v in cumulative.items()}
    metrics["cli.import_ms"] = metrics.pop("instanton_gas.cli.import_ms")
    metrics["cli.python_startup_ms"] = statistics.median(startup)
    return metrics


def per_layer(tracer, traced_ops, untraced_rate, traced_rate, failures, probe):
    """Per-layer metrics of the traced phase, per operation unless a rate or a maximum.

    Span times are not host-scaled, so they are compared with unscaled op wall
    times; the overhead compares the host-scaled rates of the two phases.
    """
    from layertrace import LAYERS, self_times, span_names

    import_package()
    n = len(traced_ops)
    own, calls, top_level = self_times(tracer.spans)
    for name in span_names():
        own.setdefault(name, 0.0)
        calls.setdefault(name, 0)
    op_time = sum(op.wall for op in traced_ops)
    values = dict(probe)
    values.update(failures)
    for name in own:
        values[f"{name}.self_ms"] = own[name] * 1e3 / n
        values[f"{name}.calls"] = calls[name] / n
    for layer in LAYERS:
        values[f"{layer}.self_ms"] = sum(t for k, t in own.items() if k.startswith(layer + ".")) * 1e3 / n
    for stage in ("startup", "import", "exit"):
        values[f"process.{stage}_ms"] = own.get(f"process.{stage}", 0.0) * 1e3 / n
    for name, count in tracer.counters.items():
        values[name] = count / n
    verify_time = sum(e - s for name, s, e, _, _ in tracer.spans if name == "triangle.verify_column_relations")
    eigenvalues = tracer.counters["schrodinger.eigenvalues"]
    values.update({
        "moments.mp_digits_max": tracer.digits_max.get("moments", 0),
        "schrodinger.bisection_steps_per_eig": calls["schrodinger.sturm_count"] / eigenvalues if eigenvalues else 0.0,
        "triangle.identities_per_s": tracer.counters["triangle.identities_checked"] / verify_time if verify_time else 0.0,
        "trace_overhead_frac": 1.0 - traced_rate / untraced_rate,
        "trace.unaccounted_frac": 1.0 - top_level / op_time,
        "trace.op_ms": op_time * 1e3 / n,
        "trace.ops": n,
    })
    return values


def provenance(seed, load_before):
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    nproc = len(os.sched_getaffinity(0))
    versions = {}
    for dist in ("numpy", "scipy", "mpmath"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "commit": commit,
        "seed": seed,
        "nproc": nproc,
        "load_before": load_before,
        "load_after": os.getloadavg(),
        "load_high": load_before[0] > nproc,
        "python": sys.version.split()[0],
        **versions,
    }


def setup_samples(args):
    """Host-scaled seconds of SETUP_SAMPLES set-ups, each in a fresh interpreter.

    A reference probe runs before the first set-up and after each one, and
    every set-up is scaled by the median of the probes.
    """
    env = child_env()
    argv = [sys.executable, *SETUP_REFERENCE_ARGV]

    def probe():
        return timed(lambda: subprocess.run(argv, env=env, check=True))[1]

    probes, elapsed = [probe()], []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        elapsed.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
        probes.append(probe())
    return [e * SETUP_REFERENCE_S / statistics.median(probes) for e in elapsed]


def declared_metrics(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[section]]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    load_before = os.getloadavg()
    workload = WORKLOADS[args.workload]

    inputs, runner = set_up(workload, args.seed)
    if args.setup_only:
        runner.close()
        print(json.dumps({"setup_s": perf_counter() - STARTED}))
        return 0

    tracer = None
    if args.trace:
        from layertrace import Tracer

        seconds = args.seconds / 2.0
        untraced = run_phase(workload, inputs, runner, seconds)
        tracer = Tracer()
        if workload.in_process:
            tracer.install()
        else:
            runner.close()
            runner = ChildProcess(traced=True)
        traced = run_phase(workload, inputs, runner, seconds, tracer)
        tracer.uninstall()
        ops = untraced + traced
    else:
        ops = run_phase(workload, inputs, runner, args.seconds)
    runner.close()
    check(workload, ops)
    probes = probe_defects(workload)
    failures, reasons = failure_counts([op.outcome for op in ops] + [o for _, o in probes])

    if args.trace:
        values = per_layer(tracer, traced, rate(untraced), rate(traced), failures, import_probe())
        shown = {name: (value, "") for name, value in values.items()}
    else:
        shown = end_to_end(workload, ops, setup_samples(args))
    section = "per_layer" if args.trace else "end_to_end"
    declared = declared_metrics(section)
    missing = [name for name, _ in declared if name not in shown]
    if missing:
        raise BenchmarkError(f"metrics not measured: {missing}")
    metrics = {name: {"value": shown[name][0], "unit": unit} for name, unit in declared}
    attempted, failed = len(ops), sum(op.outcome.reason is not None for op in ops)
    correct = failed == 0 and all(o.reason in (None, probe.defect) for probe, o in probes)
    prov = provenance(args.seed, load_before)

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "trace": args.trace, "provenance": prov, "correct": correct,
        "attempted": attempted, "failed": failed, "failure_reasons": reasons,
        "probes": [{"label": probe.label, "defect": probe.defect, "reason": o.reason} for probe, o in probes],
        "metrics": {name: {"value": value, "note": note} for name, (value, note) in shown.items()},
        "ops": [
            {"ms": op.latency * 1e3, "reason": op.outcome.reason, "input": repr(op.input)}
            for op in ops
        ],
    }
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        Path(f"{stem}.spans.json").write_text(json.dumps(tracer.spans))

    print(f"# {args.workload} seed={args.seed} trace={args.trace} commit={prov['commit']} "
          f"nproc={prov['nproc']} load={prov['load_before'][0]:.2f}->{prov['load_after'][0]:.2f}"
          f"{' LOAD-HIGH' if prov['load_high'] else ''} python={prov['python']} numpy={prov['numpy']} "
          f"scipy={prov['scipy']} mpmath={prov['mpmath']}")
    units = dict(declared) | UNBOUNDED_UNITS
    for name, (value, note) in shown.items():
        if name in units:
            print(f"{name:<44} {value:>14.6g} {units[name]:<9} {f'({note})' if note else ''}".rstrip())
    for probe, o in probes:
        state = "fixed" if o.reason is None else "shows" if o.reason == probe.defect else "CHANGED"
        print(f"probe {probe.label:<20} known defect {probe.defect:<12} {state}: {o.reason or 'passes'}")
    print(f"failures of ops and probes: {json.dumps(reasons, sort_keys=True) if reasons else 'none'}; "
          f"{failed} of {attempted} timed ops failed; correct={correct}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        sys.exit(f"perfbench: {exc}")
