"""Spans around the public functions of every landau module, recorded from outside.

`Tracer.install` replaces each public function of each `landau` submodule, in
every `landau` namespace that holds it, by a wrapper that records a span.  A
caller that looks the function up in its module, as `landau.stepper` does for
`compute_coefficients`, then goes through the wrapper.  A span is the list
[name, start, end, parent, attributes]: name is "<module>.<function>", start
and end come from `time.perf_counter`, parent is the index of the enclosing
span or -1, and attributes are the counts a hook read off the call.  Spans
stay in memory until the run writes them out.

`layer_metrics` turns the spans of a traced run into the per-layer metrics of
BENCHMARK.json.  The layers are the modules of `src/landau`.
"""

import functools
import importlib
import inspect
import os
import pkgutil
import time


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def install(self, package, hooks=None):
        """Wrap every public function of every submodule of `package`."""
        hooks = hooks or {}
        modules = [importlib.import_module(f"{package.__name__}.{info.name}")
                   for info in pkgutil.iter_modules(package.__path__)]
        namespaces = [package] + modules
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            public = [(name, fn) for name, fn in vars(mod).items()
                      if not name.startswith("_") and inspect.isfunction(fn)
                      and fn.__module__ == mod.__name__]
            for name, fn in public:
                span_name = f"{layer}.{name}"
                wrapped = self._wrap(span_name, fn, hooks.get(span_name))
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, attr, wrapped)

    def _wrap(self, name, fn, hook):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                span[4] = hook(args, result)
            return result

        return wrapper


def program_hooks():
    """Counts read off calls at the layer boundaries, keyed by span name."""
    from landau.stepper import CLIP_BUDGET

    def cells(args, result):
        f = args[0]
        return {"cells": int(f.values.size // f.grid.n_v ** f.grid.d_v)}

    def bytes_written(args, result):
        return {"bytes": os.path.getsize(args[0])}

    def run_summary(args, result):
        mass0 = result.records[0].mass
        return {"records": len(result.records),
                "clip_budget_used": result.clipped_mass / (CLIP_BUDGET * mass0)}

    return {
        "coefficients.compute_coefficients": cells,
        "cli.save_checkpoint": bytes_written,
        "cli.write_ndjson": bytes_written,
        "stepper.run": run_summary,
    }


def _inside(span, window):
    return window[0] <= span[1] and span[2] <= window[1]


def _duration(span):
    return span[2] - span[1]


def _busy(spans, selected, names):
    """Time covered by spans named in `names`, counting nested ones once."""
    total = 0.0
    for i in selected:
        span = spans[i]
        if span[0] not in names:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            total += _duration(span)
    return total


def self_times(spans, selected):
    """Self time per layer: each span's duration minus its children's."""
    own = {i: _duration(spans[i]) for i in selected}
    for i in selected:
        parent = spans[i][3]
        if parent in own:
            own[parent] -= _duration(spans[i])
    layers = {}
    for i, value in own.items():
        layer = spans[i][0].split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + value
    return layers


def coverage(spans, selected, windows):
    """Share of the operations' wall time that top-level spans cover."""
    covered = sum(_duration(spans[i]) for i in selected if spans[i][3] < 0)
    return covered / sum(b - a for a, b in windows)


def layer_metrics(spans, setup_window, op_windows):
    """Per-layer metrics: set-up figures from the set-up, the rest per round."""
    setup = [i for i, s in enumerate(spans) if _inside(s, setup_window)]
    ops = [i for i, s in enumerate(spans) if any(_inside(s, w) for w in op_windows)]
    rounds = len(op_windows)

    def named(name):
        return [spans[i] for i in ops if spans[i][0] == name]

    def count(name):
        return len(named(name)) / rounds

    def busy(*names):
        return _busy(spans, ops, set(names)) / rounds

    def attr_sum(name, key):
        return sum(s[4][key] for s in named(name)) / rounds

    substeps = sum(1 for i in ops if spans[i][0] == "collision.apply_collision_divergence"
                   and spans[i][3] >= 0 and spans[spans[i][3]][0] == "stepper.collision_substep")
    record_s = 0.0
    stepping = {"stepper.strang_step", "transport.transport_shift",
                "config.initial_data", "config.validate_config"}
    runs = [i for i in ops if spans[i][0] == "stepper.run"]
    for i in runs:
        children = sum(_duration(spans[j]) for j in ops
                       if spans[j][3] == i and spans[j][0] in stepping)
        record_s += _duration(spans[i]) - children
    model_evals = sum(1 for i in ops if spans[i][0] == "maxwellian.maxwellian_sharp_field"
                      and _has_ancestor(spans, i, "maxwellian.fit_maxwellian"))
    values = {
        "config.setup_s": (_busy(spans, setup, {"config.parse_config", "config.initial_data",
                                                "config.validate_config"}), "s"),
        "coefficients.tables_s": (_busy(spans, setup, {"coefficients.kernel_tables"}), "s"),
        "coefficients.calls": (count("coefficients.compute_coefficients"), "count"),
        "coefficients.cells": (attr_sum("coefficients.compute_coefficients", "cells"), "count"),
        "coefficients.s": (busy("coefficients.compute_coefficients"), "s"),
        "collision.calls": (count("collision.apply_collision_divergence"), "count"),
        "collision.s": (busy("collision.apply_collision_divergence"), "s"),
        "stepper.steps": (count("stepper.strang_step"), "count"),
        "stepper.substeps": (substeps / 2 / rounds, "count"),
        "stepper.substep_s": (busy("stepper.collision_substep"), "s"),
        "stepper.clip_budget_used": (spans[runs[-1]][4]["clip_budget_used"] if runs else 0.0,
                                     "1"),
        "transport.calls": (count("transport.transport_shift"), "count"),
        "transport.s": (busy("transport.transport_shift"), "s"),
        "diagnostics.records": (attr_sum("stepper.run", "records"), "count"),
        "diagnostics.record_s": (record_s / rounds, "s"),
        "diagnostics.norms_s": (busy("diagnostics.z_norm", "diagnostics.e_norm",
                                     "coefficients.coefficient_sup_norms",
                                     "diagnostics.macroscopic_fields",
                                     "diagnostics.sharp_cauchy_diff"), "s"),
        "maxwellian.fits": (count("maxwellian.fit_maxwellian"), "count"),
        "maxwellian.model_evals": (model_evals / rounds, "count"),
        "maxwellian.fit_s": (busy("maxwellian.fit_maxwellian"), "s"),
        "cli.io_s": (busy("cli.write_ndjson", "cli.save_checkpoint", "cli.load_checkpoint"), "s"),
        "cli.bytes_written": (attr_sum("cli.save_checkpoint", "bytes")
                              + attr_sum("cli.write_ndjson", "bytes"), "B"),
    }
    summary = {"coverage": coverage(spans, ops, op_windows),
               "self_s": {k: v / rounds for k, v in sorted(self_times(spans, ops).items())}}
    return values, summary


def _has_ancestor(spans, i, name):
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
