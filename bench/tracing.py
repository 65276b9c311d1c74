"""Span tracing of bundleqm from outside the package.

`Tracer.install()` wraps the public functions of each layer module and
rebinds every module attribute of the package that refers to one of them,
so calls made through `from .x import f` bindings (for example
`oscillator.hermite_basis`) and through module attributes (`cli`'s
`oscillator.husimi`) are both seen.  Each call records a span (id, parent,
request, name, start, end); spans stay in memory and are written out by
`Tracer.dump` when the run ends.  `Tracer.uninstall()` restores the
original bindings.

A span's self time is its duration minus the time covered by its child
spans; calls are nested and single-threaded, so children never overlap.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

# Layers traced, in the package's dependency order.  `errors` does no work.
LAYERS = ("classical", "sections", "bundles", "polarizations", "oscillator",
          "orbifold", "cli")

# Functions wrapped per layer: every public function defined in the module,
# except in `cli`, where only the commands are wrapped (its helpers such as
# `format_float` run once per printed number and are the formatting work
# that `cli.self_s` measures).
CLI_FUNCTIONS = ("cmd_spectrum", "cmd_simulate", "cmd_husimi", "cmd_verify")

# Per-function groups whose self times are reported on their own.  A group
# holds the public function and the public helpers it calls, so that moving
# work between them does not move the metric.
SELF_TIME_GROUPS = {
    "polarizations.gauss_hermite": {"polarizations.gauss_hermite"},
    "polarizations.hermite": {"polarizations.hermite_functions",
                              "polarizations.hermite_basis"},
    "polarizations.bargmann": {"polarizations.bargmann_transform",
                               "polarizations.bargmann_inverse"},
    "polarizations.dolbeault": {"polarizations.dolbeault_residual"},
    "oscillator.husimi": {"oscillator.husimi", "oscillator.bargmann_function"},
    "oscillator.hamiltonian_matrix": {"oscillator.coordinate_hamiltonian_matrix"},
    "oscillator.laplacian": {"oscillator.laplacian_consistency"},
    "orbifold.transport": {"orbifold.levi_civita_transport"},
}

# Bytes moved per Fock term and grid cell by the Husimi term recurrence,
# modelled as one read and one write of a complex128 grid array.  Computed
# from array sizes, not measured.
HUSIMI_BYTES_PER_TERM_CELL = 2 * 16

# (name, unit) of every per-layer metric, each a mean per operation.
PER_LAYER_METRICS = (
    [("classical.self_s", "s/op"),
     ("sections.csv_write_s", "s/op"), ("sections.csv_read_s", "s/op"),
     ("sections.bin_write_s", "s/op"), ("sections.bin_read_s", "s/op"),
     ("sections.bytes_written", "bytes/op"), ("sections.bytes_read", "bytes/op"),
     ("bundles.calls", "count/op"), ("bundles.self_s", "s/op"),
     ("bundles.cells", "count/op"),
     ("polarizations.gauss_hermite.self_s", "s/op"),
     ("polarizations.hermite.self_s", "s/op"),
     ("polarizations.bargmann.self_s", "s/op"),
     ("polarizations.quad_nodes", "count/op"),
     ("polarizations.dolbeault.self_s", "s/op"),
     ("oscillator.husimi.self_s", "s/op"), ("oscillator.husimi.calls", "count/op"),
     ("oscillator.husimi.terms", "count/op"),
     ("oscillator.husimi.bytes_computed", "bytes/op"),
     ("oscillator.hamiltonian_matrix.self_s", "s/op"),
     ("oscillator.laplacian.self_s", "s/op"),
     ("orbifold.transport.self_s", "s/op"), ("orbifold.loop_points", "count/op"),
     ("cli.self_s", "s/op"), ("cli.bytes_written", "bytes/op")]
    + [(f"{layer}.errors", "count/op") for layer in LAYERS]
    + [("trace.overhead_s", "s/op")]
)

# Time spent inside these functions (span duration, children included).
INCLUSIVE_TIMES = {
    "sections.write_grid_csv": "sections.csv_write_s",
    "sections.read_grid_csv": "sections.csv_read_s",
    "sections.write_grid_binary": "sections.bin_write_s",
    "sections.read_grid_binary": "sections.bin_read_s",
}


def _count_work(name: str, args, kwargs, counts) -> None:
    """Counts taken from a call's arguments, at the layer boundary."""
    def arg(i, key):
        return args[i] if len(args) > i else kwargs[key]

    if name == "bundles.covariant_derivative":
        counts["bundles.cells"] += arg(0, "sec").values.size
    elif name == "polarizations.gauss_hermite":
        counts["polarizations.quad_nodes"] += int(arg(0, "order"))
    elif name == "oscillator.husimi":
        state = arg(0, "state")
        cells = len(arg(1, "u")) * len(arg(2, "v"))
        terms = (state.truncation + 1) * cells
        counts["oscillator.husimi.terms"] += terms
        counts["oscillator.husimi.bytes_computed"] += HUSIMI_BYTES_PER_TERM_CELL * terms
    elif name == "orbifold.levi_civita_transport":
        counts["orbifold.loop_points"] += len(arg(0, "loop"))


def _count_io(name: str, args, kwargs, counts) -> None:
    """File sizes of grid files written or read, after the call returned."""
    if name in ("sections.write_grid_csv", "sections.write_grid_binary"):
        path = args[1] if len(args) > 1 else kwargs["path"]
        counts["sections.bytes_written"] += os.path.getsize(path)
    elif name in ("sections.read_grid_csv", "sections.read_grid_binary"):
        path = args[0] if args else kwargs["path"]
        counts["sections.bytes_read"] += os.path.getsize(path)


class Tracer:
    """In-memory span recorder plus the bindings it installed."""

    def __init__(self):
        self.spans = []          # [id, parent, request, name, start, end]
        self.counts = defaultdict(float)
        self.request = None
        self.active = False      # spans are recorded only while set
        self._stack = []
        self._patched = []       # (module, attribute, original)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, layer: str, fn):
        name = f"{layer}.{fn.__name__}"
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            span = [len(tracer.spans), parent[0] if parent else None,
                    tracer.request, name, time.perf_counter(), None]
            tracer.spans.append(span)
            tracer._stack.append(span)
            try:
                _count_work(name, args, kwargs, tracer.counts)
                result = fn(*args, **kwargs)
            except BaseException:
                if parent is None or parent[3].split(".")[0] != layer:
                    tracer.counts[f"{layer}.errors"] += 1
                raise
            finally:
                span[5] = time.perf_counter()
                tracer._stack.pop()
            _count_io(name, args, kwargs, tracer.counts)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        package = [m for n, m in list(sys.modules.items())
                   if n == "bundleqm" or n.startswith("bundleqm.")]
        for layer in LAYERS:
            module = importlib.import_module(f"bundleqm.{layer}")
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                if layer == "cli" and attr not in CLI_FUNCTIONS:
                    continue
                wrapped = self._wrap(layer, fn)
                for mod in package:
                    for binding, value in list(vars(mod).items()):
                        if value is fn:
                            self._patched.append((mod, binding, fn))
                            setattr(mod, binding, wrapped)

    def uninstall(self) -> None:
        for mod, binding, fn in reversed(self._patched):
            setattr(mod, binding, fn)
        self._patched.clear()

    def count(self, name: str, value: float) -> None:
        self.counts[name] += value

    # -- aggregation -------------------------------------------------------

    def layer_metrics(self, n_ops: int) -> dict:
        """Per-layer metrics as means per operation over `n_ops` operations."""
        child_time = defaultdict(float)
        for sid, parent, _req, _name, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals = defaultdict(float, self.counts)
        for sid, _parent, _req, name, start, end in self.spans:
            layer = name.split(".")[0]
            self_s = (end - start) - child_time[sid]
            totals[f"{layer}.self_s"] += self_s
            if layer == "bundles":
                totals["bundles.calls"] += 1
            if name == "oscillator.husimi":
                totals["oscillator.husimi.calls"] += 1
            if name in INCLUSIVE_TIMES:
                totals[INCLUSIVE_TIMES[name]] += end - start
            for group, members in SELF_TIME_GROUPS.items():
                if name in members:
                    totals[f"{group}.self_s"] += self_s
        return {name: totals[name] / n_ops for name, _unit in PER_LAYER_METRICS
                if name != "trace.overhead_s"}

    def dump(self, path, header: dict) -> None:
        """Write the header line, then one JSON line per span."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for sid, parent, req, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "request": req,
                                     "name": name, "start": start, "end": end}) + "\n")
