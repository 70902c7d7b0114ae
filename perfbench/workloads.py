"""The three benchmark workloads: seeded inputs, one operation, output checks.

Every workload is a closed loop with one caller: the next operation starts
when the previous one has returned.  Inputs depend only on the seed.  Draws
that set an operation's cost (well depth, triangle depth, asymmetry) come
from randomly shifted Halton sequences, so every run sees the same spread
of costs and only the shift depends on the seed.

An operation's output is checked after the timed loop.  A failed check
names its reason: ``traceback``, ``invalid-json``, ``non-finite``,
``wrong-value``, ``zero-gap`` or ``exception:<Type>``.  The timed inputs
stay where the program was correct when the benchmark was written, so every
failure of a timed operation is a regression.  The defects known then are
run as fixed ``PROBES`` after every timed loop: each probe names the reason
its defect shows as, and passes once the defect is fixed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import traceback
from dataclasses import dataclass

# Agreement the package's own acceptance criteria demand: criterion 5 for
# the gas sum, criterion 1 for the three moment routes.
SUM_RTOL = 1e-10
ROUTES_RTOL = 1e-8
# A doublet gap whose Richardson error estimate exceeds this share of the
# gap has fewer than three correct digits.
GAP_RTOL = 1e-3
# The eigenvalue subtraction has an absolute floor of about 1e-10, which
# reaches GAP_RTOL of the symmetric gap from lam about 130: the first
# failure is at lam = 133, and lam = 128 keeps only 3.3 digits.  Timed
# symmetric wells stop where about four digits remain; the deeper ones are
# the floor probes.
SYMMETRIC_LAMBDA_MAX = 96.0
MAX_DIGITS = 16.0


@dataclass(frozen=True)
class Outcome:
    """Result of checking one operation."""

    reason: str | None = None  # None when the output passed every check
    digits: float | None = None  # correct digits against the reference, if any


PASS = Outcome()


@dataclass(frozen=True)
class Probe:
    """A fixed input that showed a known defect when the benchmark was written."""

    label: str
    item: object
    defect: str  # the failure reason the defect shows as


def radical_inverse(k, base):
    """k-th point of the van der Corput sequence in the given base."""
    value, scale = 0.0, 1.0 / base
    while k:
        k, digit = divmod(k, base)
        value += digit * scale
        scale /= base
    return value


class Stratified:
    """Randomly shifted Halton points: stratified draws in [0, 1)^d.

    One base per dimension; a single base yields floats, several yield tuples.
    """

    def __init__(self, rng, *bases):
        self.shifts = [rng.random() for _ in bases]
        self.bases = bases
        self.k = 0

    def __call__(self):
        u = tuple((radical_inverse(self.k, b) + s) % 1.0 for b, s in zip(self.bases, self.shifts))
        self.k += 1
        return u if len(u) > 1 else u[0]


def log_uniform(u, lo, hi):
    return lo * (hi / lo) ** u


def rel_dev(a, b):
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0.0 else abs(a - b) / scale


def digits_of(rel):
    return MAX_DIGITS if rel <= 0.0 else min(MAX_DIGITS, -math.log10(rel))


def finite(*values):
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def asymmetric_point(draw, min_dt=0.0):
    """omega0, omega1 in [1, 3], B in [0.1, 1], T in [1, 5]; BT <= 2, |d|T <= 2.

    `draw` returns four uniforms; points outside the constraints are redrawn.
    """
    while True:
        u0, u1, u2, u3 = draw()
        w0, w1, b, t = 1.0 + 2.0 * u0, 1.0 + 2.0 * u1, 0.1 + 0.9 * u2, 1.0 + 4.0 * u3
        dt = abs(w0 - w1) / 2.0 * t
        if b * t <= 2.0 and min_dt <= dt <= 2.0:
            return w0, w1, b, t


def check_gap(gap, err):
    """Doublet gap of benchmark_point against its Richardson error estimate."""
    if not finite(gap, err):
        return Outcome("non-finite")
    if gap == 0.0:
        return Outcome("zero-gap")
    rel = err / abs(gap)
    if gap < 0.0 or rel > GAP_RTOL:
        return Outcome("wrong-value")
    return Outcome(digits=digits_of(rel))


class Workload:
    """Defaults shared by the workloads."""

    in_process = True
    PROBES = ()

    def load(self):
        """Import what the operation calls; part of the timed set-up."""

    def warmup(self):
        """The untimed operation of the set-up; the same for every seed."""
        return self.WARMUP

    def check_error(self, item, error):
        """Outcome of an operation that raised."""
        return Outcome(f"exception:{type(error).__name__}")

    def probe(self, item):
        """Output of one probe, run in this process after the timed loop."""
        return self.run(item)


class GasSweep(Workload):
    """gas_sum_partial(40), gas_sum_closed and energies at one parameter point.

    Half the points lie in the paper's asymmetric range, half are near
    symmetric with |d|T log-uniform over [1e-7, 1e-1], so multi_instanton
    takes its closed, quadrature and symmetric-limit routes.
    """

    name = "gas-sweep"
    input_count = 5000
    WARMUP = ("asymmetric", 2.0, 1.5, 0.5, 2.0)

    def load(self):
        # Functions are looked up on the module at call time, so that the
        # wrappers of a traced run see these calls.
        from instanton_gas import potential, spectrum

        self._potential, self._spectrum = potential, spectrum

    def inputs(self, seed, count):
        rng = random.Random(f"{self.name}:{seed}")
        # Small |d|T and small B make a near-symmetric point dear, and the
        # dearest of them set op_p50_ms, so all three are stratified.
        asym, near = Stratified(rng, 2, 3, 5, 7), Stratified(rng, 2, 3, 5)
        out = []
        for k in range(count):
            if k % 2 == 0:
                out.append(("asymmetric",) + asymmetric_point(asym))
                continue
            w1 = rng.uniform(1.0, 3.0)
            while True:
                u_dt, u_b, u_t = near()
                b, t = 0.1 + 0.9 * u_b, 1.0 + 4.0 * u_t
                if b * t <= 2.0:
                    break
            d = rng.choice((-1.0, 1.0)) * log_uniform(u_dt, 1e-7, 1e-1) / t
            out.append(("near-symmetric", w1 + 2.0 * d, w1, b, t))
        return out

    def run(self, point):
        spectrum = self._spectrum
        _, w0, w1, b, t = point
        params = self._potential.WellParameters(omega0=w0, omega1=w1, T=t, B=b)
        partial, _ = spectrum.gas_sum_partial(params, 40)
        closed = spectrum.gas_sum_closed(params)
        res = spectrum.energies(params)
        return partial, closed, res.e_plus, res.e_minus, res.gap

    def check(self, point, output):
        _, w0, w1, b, t = point
        partial, closed, e_plus, e_minus, gap = output
        if not finite(partial, closed, e_plus, e_minus, gap):
            return Outcome("non-finite")
        bad_gap = rel_dev(gap, math.hypot((w0 - w1) / 2.0, 2.0 * b)) > 1e-12
        bad_levels = abs(e_minus - e_plus - gap) > 1e-12 * max(1.0, abs(e_minus))
        rel = rel_dev(partial, closed)
        if bad_gap or bad_levels or rel > SUM_RTOL:
            return Outcome("wrong-value")
        return Outcome(digits=digits_of(rel))


class DoubletGap(Workload):
    """benchmark_point(lam, b) on DEFAULT_GRID.

    Every other operation is the symmetric family b = 0 with lam log-uniform
    over [2, SYMMETRIC_LAMBDA_MAX]; the rest have lam log-uniform over
    [2, 256] and b uniform in [-1.5, 1.5].  The probes are deep symmetric
    wells, where the subtraction floor swamps the gap.
    """

    name = "doublet-gap"
    input_count = 4000
    WARMUP = (16.0, 0.5)
    PROBES = (
        Probe("floor-lam160", (160.0, 0.0), "wrong-value"),
        Probe("floor-lam256", (256.0, 0.0), "zero-gap"),
    )

    def load(self):
        from instanton_gas import schrodinger

        self._schrodinger = schrodinger

    def inputs(self, seed, count):
        rng = random.Random(f"{self.name}:{seed}")
        sym_lam, asym_lam, asym_b = Stratified(rng, 2), Stratified(rng, 3), Stratified(rng, 5)
        out = []
        for _ in range(count // 2):
            pair = [
                (log_uniform(sym_lam(), 2.0, SYMMETRIC_LAMBDA_MAX), 0.0),
                (log_uniform(asym_lam(), 2.0, 256.0), -1.5 + 3.0 * asym_b()),
            ]
            rng.shuffle(pair)
            out.extend(pair)
        return out

    def run(self, point):
        record, _ = self._schrodinger.benchmark_point(*point)
        return record.gap_numeric, record.refinement_error

    def check(self, point, output):
        return check_gap(*output)


def _arg(value):
    return repr(float(value))


class NonFiniteJson(ValueError):
    """Strict JSON parse met NaN or Infinity."""


def _reject_constant(name):
    raise NonFiniteJson(name)


def strict_json(text):
    return json.loads(text, parse_constant=_reject_constant)


def _error_object(obj):
    return isinstance(obj, dict) and set(obj) == {"code", "message", "parameter"}


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its arguments and what the check needs to know."""

    command: str
    argv: tuple
    edge: bool = False
    params: tuple = ()


def _call(command, *flags, edge=False):
    """A CLI call of one of the probes, with JSON output."""
    return Invocation(command, (command, *flags, "--format", "json"), edge=edge)


class CliCold(Workload):
    """One fresh `python -m instanton_gas.cli ... --format json` per operation.

    The calls follow a fixed cycle of sixteen, so every stretch of a run has
    the same mix: spectrum four times, sum and moments three times each,
    triangle-verify twice, benchmark and scaling once, and two edge calls
    that the CLI must refuse (a negative B, omega1 or T, or a decimal
    ratio).  The seed sets the parameters of each call and the order of the
    edge kinds.  Calls dominated by start-up and import make up about 70% of
    the cycle, so the median and the p55 tail both fall inside that group
    instead of on the edge between it and the compute-heavy calls.

    The probes are the edge calls the CLI got wrong when the benchmark was
    written, and a benchmark call on the subtraction floor.
    """

    name = "cli-cold"
    in_process = False
    input_count = 800
    CYCLE = (
        "spectrum", "triangle-verify", "sum", "moments", "spectrum", "benchmark", "sum", "edge",
        "moments", "spectrum", "scaling", "sum", "moments", "triangle-verify", "spectrum", "edge",
    )
    EDGES = ("B-negative", "omega1-negative", "T-negative", "ratio-decimal")
    _WELL = ("--omega0", "2.0", "--omega1", "1.0", "--B", "0.5")
    PROBES = (
        Probe("B-nan", _call("spectrum", "--omega0", "2.0", "--omega1", "1.5", "--B", "nan", edge=True),
              "non-finite"),
        Probe("omega1-inf", _call("spectrum", "--omega0", "2.0", "--omega1", "inf", "--B", "0.5", edge=True),
              "non-finite"),
        Probe("moments-n70", _call("moments", "--n", "70", "--m", "3", *_WELL, "--T", "2.0", edge=True),
              "traceback"),
        Probe("sum-T3e3", _call("sum", *_WELL, "--T", "3000.0", edge=True), "non-finite"),
        Probe("sum-T3e4-B0.95", _call("sum", "--omega0", "2.0", "--omega1", "1.0", "--B", "0.95",
                                      "--T", "30000.0", edge=True), "traceback"),
        Probe("benchmark-floor", _call("benchmark", "--lambda", "256.0", "--b", "0.0"), "zero-gap"),
    )

    def inputs(self, seed, count):
        rng = random.Random(f"{self.name}:{seed}")
        depth, tri_sign = Stratified(rng, 2), Stratified(rng, 3)
        bench_lam, bench_b, sym_lam = Stratified(rng, 2), Stratified(rng, 3), Stratified(rng, 5)
        sum_point, moments_point = Stratified(rng, 2, 3, 5, 7), Stratified(rng, 2, 3, 5, 7)
        builders = {
            "spectrum": lambda: self._spectrum(rng),
            "sum": lambda: self._sum(*asymmetric_point(sum_point)),
            "moments": lambda: self._moments(rng, moments_point),
            "triangle-verify": lambda: self._triangle(rng, depth, tri_sign),
            "benchmark": lambda: self._benchmark(rng, bench_lam, bench_b, sym_lam),
            "scaling": lambda: self._scaling(rng),
        }
        out, edges = [], []
        for k in range(count):
            name = self.CYCLE[k % len(self.CYCLE)]
            if name != "edge":
                out.append(builders[name]())
                continue
            if not edges:
                edges = list(self.EDGES)
                rng.shuffle(edges)
            out.append(self._edge(rng, edges.pop()))
        return out

    def warmup(self):
        return self._spectrum_call(2.0, 1.5, 0.5)

    @staticmethod
    def _well_flags(w0, w1, b, t=None):
        flags = ["--omega0", _arg(w0), "--omega1", _arg(w1), "--B", _arg(b)]
        return flags + ([] if t is None else ["--T", _arg(t)])

    def _spectrum(self, rng):
        return self._spectrum_call(rng.uniform(1.0, 3.0), rng.uniform(1.0, 3.0), rng.uniform(0.1, 1.0))

    def _spectrum_call(self, w0, w1, b):
        argv = ("spectrum", *self._well_flags(w0, w1, b), "--format", "json")
        return Invocation("spectrum", argv, params=(w0, w1, b))

    def _sum(self, w0, w1, b, t):
        argv = ("sum", *self._well_flags(w0, w1, b, t), "--terms", "40", "--format", "json")
        return Invocation("sum", argv)

    def _moments(self, rng, draw):
        w0, w1, b, t = asymmetric_point(draw, min_dt=0.1)
        argv = ("moments", "--n", str(rng.randint(0, 8)), "--m", str(rng.randint(0, 8)),
                *self._well_flags(w0, w1, b, t), "--method", "all", "--format", "json")
        return Invocation("moments", argv)

    def _triangle(self, rng, depth, sign):
        p, q = rng.randint(1, 9), rng.randint(1, 9)
        p = -p if sign() < 0.5 else p
        argv = ("triangle-verify", "--depth", str(12 + int(13 * depth())), f"--ratio={p}/{q}",
                "--format", "json")
        return Invocation("triangle-verify", argv)

    def _benchmark(self, rng, lam_u, b_u, sym_u):
        symmetric = rng.random() < 0.5
        if symmetric:
            lam, b = log_uniform(sym_u(), 2.0, SYMMETRIC_LAMBDA_MAX), 0.0
        else:
            lam, b = log_uniform(lam_u(), 2.0, 256.0), -1.5 + 3.0 * b_u()
        argv = ("benchmark", "--lambda", _arg(lam), "--b", _arg(b), "--format", "json")
        return Invocation("benchmark", argv)

    def _scaling(self, rng):
        lambdas = ",".join(_arg(v) for v in sorted(rng.uniform(16.0, 25.0) for _ in range(3)))
        argv = ("scaling", "--b", "0", "--lambdas", lambdas, "--format", "json")
        return Invocation("scaling", argv)

    def _edge(self, rng, kind):
        if kind == "ratio-decimal":
            argv = ("triangle-verify", "--depth", str(rng.randint(12, 24)),
                    f"--ratio={rng.uniform(0.1, 0.9):.3f}", "--format", "json")
            return Invocation("triangle-verify", argv, edge=True, params=(kind,))
        w0, w1, b, t = rng.uniform(1.0, 3.0), rng.uniform(1.0, 3.0), rng.uniform(0.1, 1.0), rng.uniform(1.0, 5.0)
        if kind == "T-negative":
            flags = self._well_flags(w0, w1, b, -t)
            return Invocation("sum", ("sum", *flags, "--format", "json"), edge=True, params=(kind,))
        flags = self._well_flags(w0, -w1, b) if kind == "omega1-negative" else self._well_flags(w0, w1, -b)
        return Invocation("spectrum", ("spectrum", *flags, "--format", "json"), edge=True, params=(kind,))

    def probe(self, inv):
        """Run the call through cli.main in this process.

        An exception that escapes main is printed as the traceback a fresh
        process would print, with exit code 1.
        """
        from instanton_gas import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(inv.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                traceback.print_exc()
                code = 1
        return code, out.getvalue(), err.getvalue()

    def check(self, inv, output):
        code, stdout, stderr = output
        edge = inv.edge
        if "Traceback (most recent call last)" in stderr:
            return Outcome("traceback")
        try:
            obj = strict_json(stdout)
        except NonFiniteJson:
            return Outcome("non-finite")
        except ValueError:
            return Outcome("invalid-json")
        if code != 0:
            if _error_object(obj):
                return PASS if edge else Outcome(f"exception:{obj['code']}")
            return Outcome("invalid-json")
        if edge:
            return PASS
        try:
            return getattr(self, "_check_" + inv.command.replace("-", "_"))(inv, obj)
        except (KeyError, TypeError, IndexError):
            return Outcome("invalid-json")

    def _check_spectrum(self, inv, obj):
        w0, w1, b = inv.params
        e_plus, e_minus, gap = obj["e_plus"], obj["e_minus"], obj["gap"]
        if rel_dev(gap, math.hypot((w0 - w1) / 2.0, 2.0 * b)) > 1e-12:
            return Outcome("wrong-value")
        if abs(e_minus - e_plus - gap) > 1e-12 * max(1.0, abs(e_minus)):
            return Outcome("wrong-value")
        return PASS

    def _check_sum(self, inv, obj):
        rel = rel_dev(obj["partial"], obj["closed"])
        if len(obj["terms"]) != 40 or rel > SUM_RTOL:
            return Outcome("wrong-value")
        return Outcome(digits=digits_of(rel))

    def _check_moments(self, inv, obj):
        values = [row["stripped"] for row in obj["rows"]]
        if [row["method"] for row in obj["rows"]] != ["closed", "recursive", "quadrature"]:
            return Outcome("wrong-value")
        worst = max(rel_dev(a, b) for i, a in enumerate(values) for b in values[i + 1:])
        if worst > ROUTES_RTOL:
            return Outcome("wrong-value")
        return Outcome(digits=digits_of(worst))

    def _check_triangle_verify(self, inv, obj):
        if obj["total_failures"] != 0 or obj["total_checked"] <= 0:
            return Outcome("wrong-value")
        return PASS

    def _check_benchmark(self, inv, obj):
        return Outcome(check_gap(obj["gap_numeric"], obj["refinement_error"]).reason)

    def _check_scaling(self, inv, obj):
        if len(obj["records"]) != 3 or not obj["slope"] < 0.0:
            return Outcome("wrong-value")
        return PASS


WORKLOADS = {wl.name: wl for wl in (GasSweep(), DoubletGap(), CliCold())}
