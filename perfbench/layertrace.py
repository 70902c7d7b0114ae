"""Spans and counters recorded at the public boundary of each package layer.

``Tracer.install`` replaces every public module-level function of the six
layers of ``instanton_gas`` with a wrapper that records one span per call:
name, start, end, the index of the enclosing span and the operation index.
The wrapper is rebound under every name a package module imported the
function by, so calls across layers are seen as well.  The tracer also
counts ``quad`` calls (and the IntegrationWarnings they raise) in
``moments`` and ``potential``, mpmath ``workdps`` entries with the digits
requested, the route of every ``multi_instanton`` result, Sturm sweeps with
the rows they cover, and the identities the triangle verifies.  Spans stay
in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import warnings
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "instanton_gas"
LAYERS = ("potential", "moments", "triangle", "spectrum", "schrodinger", "cli")


def _route(counters, args, kwargs, result):
    counters[f"moments.multi_instanton.route.{result.method}"] += 1


def _sweep_rows(counters, args, kwargs, result):
    counters["schrodinger.row_ops"] += (args[0] if args else kwargs["operator"]).size


def _eigenvalues(counters, args, kwargs, result):
    counters["schrodinger.eigenvalues"] += len(result)


def _identities(counters, args, kwargs, result):
    counters["triangle.identities_checked"] += result.total_checked


COUNTERS = (
    "moments.multi_instanton.route.closed",
    "moments.multi_instanton.route.quadrature",
    "moments.multi_instanton.route.symmetric-limit",
    "moments.quad_calls",
    "moments.integration_warnings",
    "moments.mp_escalations",
    "potential.quad_calls",
    "potential.integration_warnings",
    "schrodinger.row_ops",
    "schrodinger.eigenvalues",
    "triangle.identities_checked",
)

AFTER_CALL = {
    "moments.multi_instanton": _route,
    "schrodinger.sturm_count": _sweep_rows,
    "schrodinger.lowest_eigenvalues": _eigenvalues,
    "triangle.verify_column_relations": _identities,
}


def public_functions(module):
    """Public functions defined in (not imported into) the module."""
    return {
        name: fn
        for name, fn in vars(module).items()
        if inspect.isfunction(fn) and not name.startswith("_") and fn.__module__ == module.__name__
    }


def span_names():
    """Name of every span the wrappers can record."""
    names = []
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        names += [f"{layer}.{name}" for name in public_functions(module)]
    return names


class Tracer:
    """Span and counter store; wrappers are installed by ``install``."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op index]
        self.counters = Counter(dict.fromkeys(COUNTERS, 0))
        self.digits_max = defaultdict(int)
        self.op = -1
        self._stack = []
        self._undo = []

    def install(self):
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for name, fn in public_functions(module).items():
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for module_name, module in list(sys.modules.items()):
            if module_name != PACKAGE and not module_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patch(module, attr, entry[1])
        for layer in ("moments", "potential"):
            self._patch(modules[layer], "quad", self._counted_quad(layer, modules[layer].quad))
        import mpmath

        self._patch(mpmath, "workdps", self._counted_workdps(mpmath.workdps))

    def uninstall(self):
        while self._undo:
            module, attr, value = self._undo.pop()
            setattr(module, attr, value)

    def add_span(self, name, start, end):
        """A top-level span measured outside the wrappers."""
        self.spans.append([name, start, end, -1, self.op])

    def _patch(self, module, attr, value):
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def _current_layer(self):
        return self.spans[self._stack[-1]][0].split(".", 1)[0] if self._stack else "none"

    def _wrap(self, name, fn):
        spans, stack, counters, after = self.spans, self._stack, self.counters, AFTER_CALL.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(counters, args, kwargs, result)
            return result

        return traced

    def _counted_quad(self, layer, quad):
        from scipy.integrate import IntegrationWarning

        counters = self.counters

        @functools.wraps(quad)
        def counted(*args, **kwargs):
            counters[f"{layer}.quad_calls"] += 1
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", IntegrationWarning)
                result = quad(*args, **kwargs)
            counters[f"{layer}.integration_warnings"] += sum(
                issubclass(w.category, IntegrationWarning) for w in caught
            )
            return result

        return counted

    def _counted_workdps(self, workdps):
        @functools.wraps(workdps)
        def counted(n, *args, **kwargs):
            layer = self._current_layer()
            self.counters[f"{layer}.mp_escalations"] += 1
            self.digits_max[layer] = max(self.digits_max[layer], int(n))
            return workdps(n, *args, **kwargs)

        return counted

    def export(self):
        return {"spans": self.spans, "counters": dict(self.counters), "digits_max": dict(self.digits_max)}

    def merge(self, exported, extra_spans=()):
        """Append another process's spans (re-indexed) and counters."""
        offset = len(self.spans)
        for name, start, end, parent, _ in exported["spans"]:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1, self.op])
        for name, start, end in extra_spans:
            self.add_span(name, start, end)
        self.counters.update(exported["counters"])
        for layer, digits in exported["digits_max"].items():
            self.digits_max[layer] = max(self.digits_max[layer], digits)


def self_times(spans):
    """Per span name: total self time (s) and call count; plus top-level time.

    A span's self time is its duration minus the durations of its direct
    children; the tracer runs in one thread, so children never overlap.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    own, calls = Counter(), Counter()
    top_level = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        own[name] += (end - start) - covered[i]
        calls[name] += 1
        if parent < 0:
            top_level += end - start
    return own, calls, top_level
