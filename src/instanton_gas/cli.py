"""Command-line front end: parameter sweeps and plot-ready CSV/JSON output.

Every command validates its parameter subset before computing, emits to
stdout or --output, and is deterministic: identical configurations produce
byte-identical output.  Machine formats (csv, json) print floats with full
round-trip precision; the human table uses 6 significant digits.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .moments import (
    MomentError,
    MomentKey,
    moment_closed,
    moment_quadrature,
    moment_recursive,
    moment_symmetric,
)
from .potential import PotentialError, WellParameters
from .schrodinger import (
    DEFAULT_GRID,
    GridSpec,
    SolverError,
    benchmark_point,
    scaling_study,
)
from .spectrum import energies, gas_sum_closed, gas_sum_partial
from .triangle import TriangleError, build_triangle, verify_column_relations

FORMATS = ("csv", "json", "table")
COMMANDS = ("moments", "triangle-verify", "sum", "spectrum", "benchmark", "scaling")

_REQUIRED = {
    "moments": ("n", "m", "omega0", "omega1", "T"),
    "triangle-verify": ("depth", "ratio"),
    "sum": ("omega0", "omega1", "T"),
    "spectrum": ("omega0", "omega1"),
    "benchmark": ("lam", "b"),
    "scaling": ("b", "lambdas"),
}


class CliError(Exception):
    """Structured CLI failure: code, message, offending parameter."""

    def __init__(self, code, message, parameter=None):
        super().__init__(message)
        self.code = code
        self.parameter = parameter

    def to_json(self):
        return json.dumps(
            {"code": self.code, "message": str(self), "parameter": self.parameter},
            sort_keys=True,
        )


@dataclass
class RunConfig:
    """One validated invocation: command, parameters, output routing."""

    command: str
    parameters: dict = field(default_factory=dict)
    output_format: str = "table"
    output_path: str = None

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise CliError("usage", f"unknown command {self.command!r}", "command")
        if self.output_format not in FORMATS:
            raise CliError(
                "bad-value", f"unknown format {self.output_format!r}", "format"
            )
        for name in _REQUIRED[self.command]:
            if self.parameters.get(name) is None:
                raise CliError(
                    "missing-parameter",
                    f"command {self.command!r} requires --{name.replace('_', '-')}",
                    name,
                )

    @classmethod
    def from_json_file(cls, path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise CliError("io-error", f"cannot read config: {exc}", "config")
        except json.JSONDecodeError as exc:
            raise CliError("bad-value", f"config is not valid JSON: {exc}", "config")
        return cls(
            command=data.get("command", ""),
            parameters=data.get("parameters", {}),
            output_format=data.get("output_format", "table"),
            output_path=data.get("output_path"),
        )


def _parse_ratio(text):
    text = str(text).strip()
    if "." in text or "e" in text.lower():
        raise CliError(
            "bad-value", "exact rational required (p/q); decimals are rejected", "ratio"
        )
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError("bad-value", f"cannot parse ratio {text!r}: {exc}", "ratio")


def _well_parameters(p, default_T=1.0):
    b, k, s = p.get("B"), p.get("K"), p.get("s_inst")
    if b is None and (k is None or s is None):
        raise CliError(
            "missing-parameter", "supply --B or both --K and --S-inst", "B"
        )
    try:
        return WellParameters(
            omega0=p["omega0"],
            omega1=p["omega1"],
            T=p.get("T", default_T),
            B=b,
            K=k,
            s_inst=s,
        )
    except ValueError as exc:
        code = "contradictory-parameters" if "inconsistent" in str(exc) else "bad-value"
        raise CliError(code, str(exc), "B")


def _fmt17(x):
    return format(float(x), ".17g")


def _fmt6(x):
    return format(float(x), ".6g")


def _table(pairs):
    width = max(len(name) for name, _ in pairs)
    return "\n".join(f"{name:<{width}}  {_fmt6(value)}" for name, value in pairs) + "\n"


def _run_spectrum(p):
    res = energies(_well_parameters(p))
    fields = (
        ("e_plus", res.e_plus),
        ("e_minus", res.e_minus),
        ("gap", res.gap),
        ("amplitude_coefficient", res.amplitude_coefficient),
    )
    obj = {name: value for name, value in fields}
    csv_text = (
        ",".join(name for name, _ in fields)
        + "\n"
        + ",".join(_fmt17(v) for _, v in fields)
        + "\n"
    )
    return obj, csv_text, _table(fields)


def _run_moments(p):
    params = _well_parameters(p)
    n, m = int(p["n"]), int(p["m"])
    method = p.get("method", "all")
    known = ("closed", "recursive", "quadrature", "symmetric", "all")
    if method not in known:
        raise CliError("bad-value", f"method must be one of {known}", "method")
    rows = []

    def add(name, value):
        rows.append(
            {"method": name, "n": n, "m": m, "stripped": value.stripped, "full": value.full}
        )

    try:
        if method in ("closed", "all"):
            add("closed", moment_closed(MomentKey(n, m), params))
        if method in ("recursive", "all"):
            add("recursive", moment_recursive(n, m, params).value(n, m))
        if method in ("quadrature", "all"):
            add("quadrature", moment_quadrature(MomentKey(n, m), params))
        if method == "symmetric":
            if params.delta != 0.0:
                raise CliError(
                    "bad-value", "symmetric method requires omega0 == omega1", "method"
                )
            add("symmetric", moment_symmetric(MomentKey(n, m), params.B, params.T, params.omega0))
    except MomentError as exc:
        raise CliError("numerical", str(exc), "method")

    csv_lines = ["method,n,m,stripped,full"]
    table_lines = [f"{'method':<12}{'stripped':>24}{'full':>24}"]
    for row in rows:
        csv_lines.append(
            f"{row['method']},{row['n']},{row['m']},{_fmt17(row['stripped'])},{_fmt17(row['full'])}"
        )
        table_lines.append(
            f"{row['method']:<12}{_fmt6(row['stripped']):>24}{_fmt6(row['full']):>24}"
        )
    return (
        {"n": n, "m": m, "rows": rows},
        "\n".join(csv_lines) + "\n",
        "\n".join(table_lines) + "\n",
    )


def _run_sum(p):
    params = _well_parameters(p)
    n_terms = int(p.get("terms", 40))
    closed = gas_sum_closed(params)
    partial, terms = gas_sum_partial(params, n_terms)
    obj = {
        "closed": closed,
        "partial": partial,
        "n_terms": n_terms,
        "terms": terms,
        "no_tunneling": params.B == 0.0,
    }
    csv_lines = ["quantity,value", f"closed,{_fmt17(closed)}", f"partial,{_fmt17(partial)}"]
    csv_lines += [f"term_{i},{_fmt17(t)}" for i, t in enumerate(terms)]
    pairs = [("closed", closed), ("partial", partial)] + [
        (f"term_{i}", t) for i, t in enumerate(terms)
    ]
    return obj, "\n".join(csv_lines) + "\n", _table(pairs)


def _run_triangle_verify(p):
    depth = int(p["depth"])
    ratio = _parse_ratio(p["ratio"])
    try:
        triangle = build_triangle(depth, ratio)
        report = verify_column_relations(triangle)
    except TriangleError as exc:
        raise CliError("bad-value", str(exc), "depth")
    obj = json.loads(report.to_json())
    csv_lines = ["family,checked,failed"]
    for name, (checked, failed) in sorted(report.families.items()):
        csv_lines.append(f"{name},{checked},{failed}")
    return obj, "\n".join(csv_lines) + "\n", report.summary() + "\n"


def _grid_from(p):
    points = int(p.get("points", DEFAULT_GRID.points))
    x_min = float(p.get("x_min", DEFAULT_GRID.x_min))
    x_max = float(p.get("x_max", DEFAULT_GRID.x_max))
    return GridSpec(x_min, x_max, points)


def _run_benchmark(p):
    record, clamped = benchmark_point(float(p["lam"]), float(p["b"]), _grid_from(p))
    names = (
        "lambda",
        "s_inst",
        "omega0",
        "omega1",
        "gap_numeric",
        "b_prime",
        "refinement_error",
    )
    values = record.csv_row()
    obj = dict(zip(names, values))
    obj["asymmetry_dominated"] = clamped
    csv_text = ",".join(names) + "\n" + ",".join(_fmt17(v) for v in values) + "\n"
    return obj, csv_text, _table(list(zip(names, values)))


def _run_scaling(p):
    lambdas = p["lambdas"]
    if isinstance(lambdas, str):
        try:
            lambdas = [float(tok) for tok in lambdas.split(",") if tok.strip()]
        except ValueError as exc:
            raise CliError("bad-value", f"cannot parse lambdas: {exc}", "lambdas")
    study = scaling_study(
        float(p["b"]),
        lambdas,
        K_hint=p.get("k_hint"),
        grid=_grid_from(p),
    )
    obj = json.loads(study.to_json())
    table_lines = [
        f"slope      {_fmt6(study.slope)}",
        f"intercept  {_fmt6(study.intercept)}",
        f"records    {len(study.records)}",
        f"excluded   {len(study.excluded)}",
    ]
    return obj, study.to_csv(), "\n".join(table_lines) + "\n"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError("usage", message)


def build_parser():
    parser = _Parser(prog="instanton-gas", description=__doc__)
    parser.add_argument("--config", help="JSON file holding the full run configuration")
    sub = parser.add_subparsers(dest="command")

    def common(sp):
        sp.add_argument("--format", choices=FORMATS, default="table")
        sp.add_argument("--output", default=None)

    def well_flags(sp, with_T=True):
        sp.add_argument("--omega0", type=float)
        sp.add_argument("--omega1", type=float)
        sp.add_argument("--B", type=float, default=None)
        sp.add_argument("--K", type=float, default=None)
        sp.add_argument("--S-inst", dest="s_inst", type=float, default=None)
        if with_T:
            sp.add_argument("--T", type=float, default=None)

    sp = sub.add_parser("moments", description="evaluate one overlap integral")
    well_flags(sp)
    sp.add_argument("--n", type=int)
    sp.add_argument("--m", type=int)
    sp.add_argument("--method", default="all")
    common(sp)

    sp = sub.add_parser("triangle-verify", description="exact column-identity check")
    sp.add_argument("--depth", type=int)
    sp.add_argument("--ratio", type=str)
    common(sp)

    sp = sub.add_parser("sum", description="partial and closed gas sums")
    well_flags(sp)
    sp.add_argument("--terms", type=int, default=40)
    common(sp)

    sp = sub.add_parser("spectrum", description="two-level energies and gap")
    well_flags(sp, with_T=False)
    sp.add_argument("--T", type=float, default=None)
    common(sp)

    def grid_flags(sp):
        sp.add_argument("--points", type=int, default=None)
        sp.add_argument("--x-min", dest="x_min", type=float, default=None)
        sp.add_argument("--x-max", dest="x_max", type=float, default=None)

    sp = sub.add_parser("benchmark", description="numeric doublet gap of the family")
    sp.add_argument("--lambda", dest="lam", type=float)
    sp.add_argument("--b", type=float)
    grid_flags(sp)
    common(sp)

    sp = sub.add_parser("scaling", description="ln B' vs action scaling study")
    sp.add_argument("--b", type=float)
    sp.add_argument("--lambdas", type=str)
    sp.add_argument("--K-hint", dest="k_hint", type=float, default=None)
    grid_flags(sp)
    common(sp)

    return parser


def _config_from_namespace(ns):
    skip = {"command", "format", "output", "config"}
    parameters = {
        k: v for k, v in vars(ns).items() if k not in skip and v is not None
    }
    return RunConfig(
        command=ns.command or "",
        parameters=parameters,
        output_format=ns.format,
        output_path=ns.output,
    )


def dispatch(config):
    p = config.parameters
    if config.command == "spectrum":
        return _run_spectrum(p)
    if config.command == "moments":
        return _run_moments(p)
    if config.command == "sum":
        return _run_sum(p)
    if config.command == "triangle-verify":
        return _run_triangle_verify(p)
    if config.command == "benchmark":
        return _run_benchmark(p)
    if config.command == "scaling":
        return _run_scaling(p)
    raise CliError("usage", f"unknown command {config.command!r}", "command")


def _emit(text, path):
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError("io-error", f"cannot write output: {exc}", "output")


def main(argv=None):
    parser = build_parser()
    out_format = "table"
    try:
        ns = parser.parse_args(argv)
        out_format = getattr(ns, "format", "table")
        if ns.config:
            config = RunConfig.from_json_file(ns.config)
            if "ratio" in config.parameters:
                config.parameters["ratio"] = str(config.parameters["ratio"])
        else:
            if not ns.command:
                raise CliError("usage", "a command is required (or use --config)")
            config = _config_from_namespace(ns)
        out_format = config.output_format
        obj, csv_text, table_text = dispatch(config)
        if config.output_format == "json":
            _emit(json.dumps(obj, sort_keys=True, indent=2) + "\n", config.output_path)
        elif config.output_format == "csv":
            _emit(csv_text, config.output_path)
        else:
            _emit(table_text, config.output_path)
        return 0
    except CliError as exc:
        _report_error(exc, out_format)
        usage_codes = ("usage", "missing-parameter", "bad-value", "contradictory-parameters")
        return 2 if exc.code in usage_codes else 1
    except (MomentError, PotentialError, SolverError, TriangleError) as exc:
        err = CliError(type(exc).__name__, str(exc))
        _report_error(err, out_format)
        return 1


def _report_error(exc, out_format):
    if out_format == "json":
        sys.stdout.write(exc.to_json() + "\n")
    else:
        sys.stderr.write(f"error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
