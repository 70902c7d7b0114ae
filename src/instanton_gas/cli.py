"""Command-line front end: parameter sweeps and plot-ready CSV/JSON output.

Every command validates its parameter subset before computing, emits to
stdout or --output, and is deterministic: identical configurations produce
byte-identical output.  Machine formats (csv, json) print floats with full
round-trip precision; the human table uses 6 significant digits.  A
--config file is the command line spelled as JSON: it becomes flags and
goes through the same parser.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import astuple, fields

# Every command needs potential; each _run_* imports the other modules it
# computes with, so that a command loads (and compiles) no module it does not run.
from .potential import ComputationError, InconsistentParametersError, ParameterError, WellParameters

FORMATS = ("csv", "json", "table")

# Top-level config keys besides "command" and "parameters", by the dest they set.
_CONFIG_KEYS = {"output_format": "format", "output_path": "output"}


class CliError(Exception):
    """Structured CLI failure: code, message, offending parameter."""

    def __init__(self, code, message, parameter=None):
        super().__init__(message)
        self.code = code
        self.parameter = parameter


def _well_parameters(a):
    if a.B is None and (a.K is None or a.s_inst is None):
        raise CliError("missing-parameter", "supply --B or both --K and --S-inst", "B")
    return WellParameters(a.omega0, a.omega1, a.T, a.B, a.K, a.s_inst)


def _fmt6(x):
    return format(float(x), ".6g")


def _json(obj):
    try:
        return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise CliError("non-finite-result", "the result is not finite (NaN or infinity)")


def _cell(value):
    return format(value, ".17g") if isinstance(value, float) else str(value)


def _csv(header, rows):
    lines = [",".join(header)] + [",".join(_cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _table(pairs):
    width = max(len(name) for name, _ in pairs)
    return "\n".join(f"{name:<{width}}  {_fmt6(value)}" for name, value in pairs) + "\n"


# One row of benchmark and scaling output: the fields of a BenchmarkRecord.
_RECORD_HEADER = ("lambda", "s_inst", "omega0", "omega1", "gap_numeric", "b_prime", "refinement_error")


def _grid(a):
    """The grid of --x-min, --x-max and --points; an absent flag takes DEFAULT_GRID's value."""
    from .schrodinger import DEFAULT_GRID, GridSpec

    return GridSpec(
        DEFAULT_GRID.x_min if a.x_min is None else a.x_min,
        DEFAULT_GRID.x_max if a.x_max is None else a.x_max,
        DEFAULT_GRID.points if a.points is None else a.points,
    )


def _run_spectrum(a):
    from .spectrum import energies

    res = energies(_well_parameters(a))
    pairs = [(f.name, getattr(res, f.name)) for f in fields(res)]
    return dict(pairs), _csv([name for name, _ in pairs], [[v for _, v in pairs]]), _table(pairs)


def _run_moments(a):
    from .moments import (
        MomentError,
        MomentKey,
        SymmetricLimitError,
        moment_closed,
        moment_kummer,
        moment_quadrature,
        moment_recursive,
    )

    params = _well_parameters(a)
    n, m, method = a.n, a.m, a.method
    key = MomentKey(n, m)
    known = ("closed", "recursive", "quadrature", "symmetric", "all")
    if method not in known:
        raise CliError("bad-value", f"method must be one of {known}", "method")
    values = []
    try:
        if method in ("closed", "all"):
            values.append(("closed", moment_closed(key, params)))
        if method in ("recursive", "all"):
            values.append(("recursive", moment_recursive(n, m, params).value(n, m)))
        if method in ("quadrature", "all"):
            values.append(("quadrature", moment_quadrature(key, params)))
        if method == "symmetric":
            values.append(("symmetric", moment_kummer(key, params)))
    except ParameterError as exc:
        if exc.parameter != "delta":
            raise
        # moment_kummer's domain |delta| T < 0.1, set by three flags, is where --method symmetric runs
        raise CliError("bad-value", str(exc), "method")
    except SymmetricLimitError as exc:  # its advice names moment_kummer, which --method symmetric runs
        raise CliError("numerical", str(exc).replace("moment_kummer", "--method symmetric"), "method")
    except MomentError as exc:
        raise CliError("numerical", str(exc), "method")

    header = ("method", "n", "m", "stripped", "full")
    rows = [(name, n, m, value.stripped, value.full) for name, value in values]
    table_lines = [f"{'method':<12}{'stripped':>24}{'full':>24}"]
    table_lines += [
        f"{name:<12}{_fmt6(value.stripped):>24}{_fmt6(value.full):>24}" for name, value in values
    ]
    return (
        {"n": n, "m": m, "rows": [dict(zip(header, row)) for row in rows]},
        _csv(header, rows),
        "\n".join(table_lines) + "\n",
    )


def _run_sum(a):
    from .moments import DEPTH_CAP
    from .spectrum import gas_sum_closed, gas_sum_partial

    params = _well_parameters(a)
    if not 1 <= a.terms <= DEPTH_CAP + 1:
        raise CliError("bad-value", f"terms must be from 1 to {DEPTH_CAP + 1}", "terms")
    closed = gas_sum_closed(params)
    partial, terms = gas_sum_partial(params, a.terms)
    obj = {
        "closed": closed,
        "partial": partial,
        "n_terms": a.terms,
        "terms": terms,
        "no_tunneling": params.B == 0.0,
    }
    pairs = [("closed", closed), ("partial", partial)] + [
        (f"term_{i}", t) for i, t in enumerate(terms)
    ]
    return obj, _csv(("quantity", "value"), pairs), _table(pairs)


def _run_triangle_verify(a):
    from .triangle import build_triangle, verify_column_relations

    report = verify_column_relations(build_triangle(a.depth, a.ratio))
    families = sorted(report.families.items())
    obj = {
        "depth": report.depth,
        "ratio": str(report.ratio),
        "families": {name: {"checked": c, "failed": f} for name, (c, f) in families},
        "total_checked": report.total_checked,
        "total_failures": report.total_failures,
    }
    rows = [(name, c, f) for name, (c, f) in families]
    summary = [f"{name}: checked {c}, failed {f}" for name, c, f in rows]
    summary.append(
        f"relations checked: {len(families)} families, failures: {report.total_failures}"
    )
    return obj, _csv(("family", "checked", "failed"), rows), "\n".join(summary) + "\n"


def _run_benchmark(a):
    from .schrodinger import benchmark_point

    record, clamped = benchmark_point(a.lam, a.b, _grid(a))
    pairs = list(zip(_RECORD_HEADER, astuple(record)))
    obj = dict(pairs)
    obj["asymmetry_dominated"] = clamped
    return obj, _csv(_RECORD_HEADER, [astuple(record)]), _table(pairs)


def _run_scaling(a):
    from .schrodinger import scaling_study

    try:
        lambdas = [float(tok) for tok in a.lambdas.split(",") if tok.strip()]
    except ValueError as exc:
        raise CliError("bad-value", f"cannot parse lambdas: {exc}", "lambdas")
    study = scaling_study(a.b, lambdas, K_hint=a.k_hint, grid=_grid(a))
    rows = [astuple(rec) for rec in study.records]
    obj = {
        "slope": study.slope,
        "intercept": study.intercept,
        "residuals": list(study.residuals),
        "excluded": [{"lambda": lam, "reason": reason} for lam, reason in study.excluded],
        "records": [dict(zip(_RECORD_HEADER, row)) for row in rows],
    }
    if study.predicted_gaps:
        obj["predicted_gaps"] = list(study.predicted_gaps)
    pairs = [
        ("slope", study.slope),
        ("intercept", study.intercept),
        ("records", len(study.records)),
        ("excluded", len(study.excluded)),
    ]
    return obj, _csv(_RECORD_HEADER, rows), _table(pairs)


class _Parser(argparse.ArgumentParser):
    """Raises CliError on bad usage; `flags` maps each option's dest to its flag."""

    def __init__(self, **kwargs):
        self.flags = {}
        super().__init__(**kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.flags[action.dest] = action.option_strings[-1]
        return action

    def error(self, message):
        raise CliError("usage", message)


def build_parser():
    parser = _Parser(prog="instanton-gas", description=__doc__)
    parser.add_argument("--config", help="JSON file holding the full run configuration")
    sub = parser.add_subparsers(dest="command")
    parser.commands = sub.choices  # command name -> its parser

    def command(name, run, description, *required):
        """A subcommand computed by run(namespace); required lists the dests it cannot lack."""
        sp = sub.add_parser(name, description=description)
        sp.add_argument("--format", choices=FORMATS, default="table")
        sp.add_argument("--output", default=None)
        sp.set_defaults(run=run, required=required)
        return sp

    def well_flags(sp):
        sp.add_argument("--omega0", type=float)
        sp.add_argument("--omega1", type=float)
        sp.add_argument("--B", type=float)
        sp.add_argument("--K", type=float)
        sp.add_argument("--S-inst", dest="s_inst", type=float)
        sp.add_argument("--T", type=float)

    def grid_flags(sp):  # absent flags default to DEFAULT_GRID, read by _grid
        sp.add_argument("--points", type=int)
        sp.add_argument("--x-min", dest="x_min", type=float)
        sp.add_argument("--x-max", dest="x_max", type=float)

    sp = command("moments", _run_moments, "evaluate one overlap integral",
                 "n", "m", "omega0", "omega1", "T")
    well_flags(sp)
    sp.add_argument("--n", type=int)
    sp.add_argument("--m", type=int)
    sp.add_argument("--method", default="all")

    sp = command("triangle-verify", _run_triangle_verify, "exact column-identity check",
                 "depth", "ratio")
    sp.add_argument("--depth", type=int)
    sp.add_argument("--ratio")

    sp = command("sum", _run_sum, "partial and closed gas sums", "omega0", "omega1", "T")
    well_flags(sp)
    sp.add_argument("--terms", type=int, default=40)

    sp = command("spectrum", _run_spectrum, "two-level energies and gap", "omega0", "omega1")
    well_flags(sp)
    sp.set_defaults(T=1.0)  # the energies do not depend on T

    sp = command("benchmark", _run_benchmark, "numeric doublet gap of the family", "lam", "b")
    sp.add_argument("--lambda", dest="lam", type=float)
    sp.add_argument("--b", type=float)
    grid_flags(sp)

    sp = command("scaling", _run_scaling, "ln B' vs action scaling study", "b", "lambdas")
    sp.add_argument("--b", type=float)
    sp.add_argument("--lambdas")
    sp.add_argument("--K-hint", dest="k_hint", type=float)
    grid_flags(sp)

    return parser


def _requested_format(argv):
    """The --format that argv asks for, known before parsing so that usage errors follow it."""
    fmt = "table"
    for i, arg in enumerate(argv):
        if arg == "--format" and i + 1 < len(argv):
            fmt = argv[i + 1]
        elif arg.startswith("--format="):
            fmt = arg.partition("=")[2]
    return fmt


def _read_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CliError("io-error", f"cannot read config: {exc}", "config")
    except ValueError as exc:
        raise CliError("bad-value", f"config is not valid JSON: {exc}", "config")
    if not isinstance(data, dict):
        raise CliError("bad-value", "config must be a JSON object", "config")
    return data


def _flag_text(value):
    """A config value as its flag's text: a string as it is, a list comma-joined, else JSON."""
    if isinstance(value, list):
        return ",".join(v if isinstance(v, str) else json.dumps(v) for v in value)
    return value if isinstance(value, str) else json.dumps(value)


def _config_argv(data, commands):
    """The command line that a config spells: [command, "--flag=value", ...]; null is absent."""
    command = data.get("command")
    if not isinstance(command, str) or command not in commands:
        raise CliError("usage", f"unknown command {command!r}", "command")
    parameters = data.get("parameters", {})
    if not isinstance(parameters, dict):
        raise CliError("bad-value", "config parameters must be a JSON object", "parameters")
    flags = commands[command].flags
    keys = [(_CONFIG_KEYS.get(key), key, value) for key, value in data.items()
            if key not in ("command", "parameters")]
    keys += [(None if key in ("help", *_CONFIG_KEYS.values()) else key, key, value)
             for key, value in parameters.items()]
    argv = [command]
    for dest, key, value in keys:
        if dest not in flags:
            raise CliError("usage", f"unknown config key {key!r} for command {command!r}", key)
        if value is not None:
            argv.append(f"{flags[dest]}={_flag_text(value)}")
    return argv


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
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    out_format = _requested_format(argv)
    try:
        ns = parser.parse_args(argv)
        if ns.config is not None:
            if ns.command is not None:
                raise CliError("usage", "give either a command or --config, not both", "config")
            data = _read_config(ns.config)
            out_format = data.get("output_format")
            ns = parser.parse_args(_config_argv(data, parser.commands))
        if ns.command is None:
            raise CliError("usage", "a command is required (or use --config)")
        out_format = ns.format
        flags = parser.commands[ns.command].flags
        for name in ns.required:
            if getattr(ns, name) is None:
                message = f"command {ns.command!r} requires {flags[name]}"
                raise CliError("missing-parameter", message, name)
        try:
            obj, csv_text, table_text = ns.run(ns)
        except ParameterError as exc:  # a well parameter, or a package function's argument
            code = "contradictory-parameters" if isinstance(exc, InconsistentParametersError) else "bad-value"
            raise CliError(code, str(exc), exc.parameter)
        except ImportError as exc:  # a library the command calls is missing, or laid out otherwise
            raise CliError("missing-library", str(exc))
        # rendered in every format, so that no format prints NaN or infinity
        texts = {"json": _json(obj), "csv": csv_text, "table": table_text}
        _emit(texts[ns.format], ns.output)
        return 0
    except CliError as exc:
        _report_error(exc, out_format)
        usage_codes = ("usage", "missing-parameter", "bad-value", "contradictory-parameters")
        return 2 if exc.code in usage_codes else 1
    except ComputationError as exc:
        err = CliError(type(exc).__name__, str(exc))
        _report_error(err, out_format)
        return 1


def _report_error(exc, out_format):
    if out_format == "json":
        error = {"code": exc.code, "message": str(exc), "parameter": exc.parameter}
        sys.stdout.write(json.dumps(error, sort_keys=True) + "\n")
    else:
        sys.stderr.write(f"error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
