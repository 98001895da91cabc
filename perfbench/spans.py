"""Tracing wrappers around the public functions of each coclass layer.

`Tracer.install` replaces each wrapped function wherever callers look it
up: every module attribute of a loaded coclass module that holds the
original function object (so `localsym.conic_search`, bound at import,
and `_kernels.perm_centralizer`, read at call time, are both covered),
and class attributes for methods. `uninstall` puts the originals back.

A span records (case, span id, parent span id, layer, start ns, end ns).
Spans stay in memory and are written once, at the end of the run. A
layer's self time is its span time minus the time of its child spans.
Count-only layers record no time, so that their wrappers stay cheap on
functions called hundreds of thousands of times.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

CLI = "cli-oneshot"
CODEC = "codec-roundtrip"
GROUP = "group-cohomology"
LOCAL = "local-symbols"

# (layer name, [(module, attribute)], mode, emitted metrics, workloads that
# must hit it). "span" layers get spans and self time; "count" layers only
# count calls. The traced run fails if a layer is not hit on a workload
# listed for it.
LAYERS = [
    ("cli.run", [("coclass.cli", "run")], "span", ("self_ms",), {CLI}),
    ("exactpoly.factor_rationals", [("coclass.exactpoly.factor", "factor_rationals")],
     "span", ("calls", "self_ms"), {CLI, CODEC}),
    ("exactpoly.trager_norm", [("coclass.exactpoly.extension", "trager_norm")],
     "span", ("calls", "self_ms"), {CODEC}),
    ("exactpoly.resultant", [("coclass.exactpoly.poly", "resultant")],
     "span", ("self_ms",), {CLI, CODEC}),
    ("exactpoly.numeric_roots", [("coclass.exactpoly.roots", "numeric_roots")],
     "span", ("self_ms",), set()),
    ("exactpoly.modp.gf_factor_squarefree",
     [("coclass.exactpoly.modp", "gf_factor_squarefree")], "count", ("calls",), {CLI, CODEC}),
    ("exactpoly.modp.gf_mul", [("coclass.exactpoly.modp", "gf_mul")],
     "count", ("calls",), {CLI, CODEC}),
    ("exactpoly.modp.gf_divmod", [("coclass.exactpoly.modp", "gf_divmod")],
     "count", ("calls",), {CLI, CODEC}),
    ("etalealg.galois_group", [("coclass.etalealg", "galois_group")],
     "span", ("self_ms",), {CLI, CODEC}),
    ("etalealg.frobenius_cycle_types", [("coclass.etalealg", "frobenius_cycle_types")],
     "span", ("self_ms",), {CLI, CODEC}),
    ("etalealg.EtaleAlgebra.isomorphic", [("coclass.etalealg", "EtaleAlgebra.isomorphic")],
     "span", ("self_ms",), {CODEC}),
    ("etalealg.cubic_resolvent", [("coclass.etalealg", "cubic_resolvent")],
     "span", ("self_ms",), {CLI}),
    ("kummerh1.encode", [("coclass.kummerh1", f) for f in ("c3_encode", "v4_encode", "c4_encode")],
     "span", ("self_ms",), {CLI, CODEC}),
    ("kummerh1.decode", [("coclass.kummerh1", f) for f in ("c3_decode", "v4_decode", "c4_decode")],
     "span", ("self_ms",), {CLI, CODEC}),
    ("groupcoh.cohomology", [("coclass.groupcoh", "cohomology")],
     "span", ("calls", "self_ms"), {CLI, GROUP}),
    ("groupcoh.smith_normal_form", [("coclass.groupcoh", "smith_normal_form")],
     "span", ("calls", "self_ms", "cells"), {CLI, GROUP}),
    ("groupcoh.kernel_basis", [("coclass.groupcoh", "kernel_basis")],
     "span", ("self_ms",), {GROUP}),
    ("groupcoh.lattice_basis", [("coclass.groupcoh", "lattice_basis")],
     "span", ("self_ms",), {GROUP}),
    ("groupcoh.h1_via_hol", [("coclass.groupcoh", "h1_via_hol")],
     "span", ("self_ms",), {CLI, GROUP}),
    ("permstruct.centralizer_in_sym", [("coclass.permstruct", "centralizer_in_sym")],
     "span", ("self_ms",), {GROUP}),
    ("kernels.perm_centralizer", [("coclass._kernels", "perm_centralizer")],
     "span", ("calls", "self_ms"), {GROUP}),
    ("kernels.conic_search", [("coclass._kernels", "conic_search")],
     "span", ("calls", "self_ms"), {LOCAL}),
    ("localsym.hilbert2", [("coclass.localsym", "hilbert2")],
     "span", ("calls", "self_ms"), {CLI, LOCAL}),
    ("localsym.tate_pair_c3", [("coclass.localsym", "tate_pair_c3")],
     "span", ("self_ms",), {LOCAL}),
    ("localsym.tate_pair_v4", [("coclass.localsym", "tate_pair_v4")],
     "span", ("self_ms",), {LOCAL}),
]

# Metrics the traced run measures outside the wrappers (run.py).
EXTRA_METRICS = [("python.startup_ms", "ms"), ("cli.import_ms", "ms"),
                 ("cli.import_numpy_ms", "ms"), ("trace.overhead_pct", "%")]


def metric_names():
    """Every per-layer metric with its unit, in a fixed order."""
    out = list(EXTRA_METRICS)
    for name, _, _, emitted, _ in LAYERS:
        for m in emitted:
            out.append((f"{name}.{m}", "ms" if m == "self_ms" else "count"))
    return out


def _resolve(module, attr):
    obj = importlib.import_module(module)
    owner = obj
    for part in attr.split("."):
        owner, obj = obj, getattr(obj, part)
    return owner, attr.split(".")[-1], obj


class Tracer:
    def __init__(self):
        self.spans = []          # (case, id, parent, layer, start_ns, end_ns)
        self.calls = Counter()
        self.self_ns = Counter()
        self.cells = Counter()
        self.case = 0
        self._stack = []         # [span id, start_ns, child_ns]
        self._patched = []       # (owner, attribute, original)

    def _span(self, layer, fn, cells=False):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[layer] += 1
            if cells and args and args[0]:
                self.cells[layer] += len(args[0]) * len(args[0][0])
            sid = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [sid, clock(), 0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                self.self_ns[layer] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                spans[sid] = (self.case, sid, parent, layer, frame[1], end)
        return wrapper

    def _count(self, layer, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[layer] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        importlib.import_module("coclass.cli")  # loads every layer
        for layer, targets, mode, emitted, _ in LAYERS:
            for module, attr in targets:
                owner, name, original = _resolve(module, attr)
                if mode == "count":
                    wrapper = self._count(layer, original)
                else:
                    wrapper = self._span(layer, original, cells="cells" in emitted)
                if isinstance(owner, type):
                    self._patched.append((owner, name, original))
                    setattr(owner, name, wrapper)
                    continue
                hits = 0
                for mod_name, mod in list(sys.modules.items()):
                    if not mod_name.startswith("coclass"):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, key, original))
                            setattr(mod, key, wrapper)
                            hits += 1
                if not hits:
                    raise RuntimeError(f"no binding of {module}.{attr} to wrap")

    def uninstall(self):
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def missed_layers(self, workload):
        """Layers that the workload should hit but never did."""
        return [layer for layer, _, _, _, must in LAYERS
                if workload in must and not self.calls[layer]]

    def metrics(self):
        out = {}
        for layer, _, _, emitted, _ in LAYERS:
            for m in emitted:
                if m == "calls":
                    out[f"{layer}.calls"] = self.calls[layer]
                elif m == "cells":
                    out[f"{layer}.cells"] = self.cells[layer]
                else:
                    out[f"{layer}.self_ms"] = self.self_ns[layer] / 1e6
        return out

    def write(self, path):
        """Write the spans and totals as JSON, once, at the end of a run."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["case", "id", "parent", "layer", "start_ns", "end_ns"],
                       "spans": self.spans, "calls": dict(self.calls),
                       "self_ms": {k: v / 1e6 for k, v in self.self_ns.items()},
                       "cells": dict(self.cells)}, fh)
