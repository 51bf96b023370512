"""Spans and counters for the traced benchmark run, recorded from outside zetabf.

``Tracer.install`` replaces the public functions named in ``SPANNED`` (and the
methods named there as ``Class.method``) by wrappers that record one span per
call: name, start, end, parent span and operation id.  The wrapper is bound
under every name a zetabf module holds for the function, so calls made through
``from .complexes import analytic_torsion`` are seen as well.  ``COUNTED``
functions only count calls (``BFFieldSpace.omega`` runs ~10^5 times a pass).
The ``kernel`` layer counts LAPACK/scipy calls by the zetabf module that made
them.  ``uninstall`` puts every original back.

Spans stay in memory; ``write_spans`` stores them when the run ends.  A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time
from collections import defaultdict

# layer -> public functions that get a span per call
SPANNED = {
    "orbits": ("enumerate_primitive_orbits", "write_orbit_spectrum",
               "load_orbit_spectrum"),
    "zeta": ("log_zeta_k", "log_zeta_full", "mellin_log_zeta",
             "flat_trace_pairing", "decomposition_residual",
             "zeta_value_at_zero", "zeta_grid_rows"),
    "complexes": ("build_twisted_complex", "TwistedComplex.betti_numbers",
                  "torsion_routes", "analytic_torsion", "schwarz_partition",
                  "det_relations_report"),
    "graded": ("flat_det",),
    "bv": ("build_bf_fields", "metric_gauge", "hodge_contraction",
           "random_contraction", "contraction_gauge", "partition_function",
           "homotopy_scan", "is_lagrangian"),
    "observables": ("bv_laplacian", "antibracket", "gaussian_expectation"),
}
# layer -> functions whose calls are counted without a span
COUNTED = {"bv": ("BFFieldSpace.omega",)}

CRITERIA = 12
CLI_COMMANDS = ("torsion", "bf", "zeta", "orbits", "verify")

# kernel name -> numpy.linalg attributes counted under it
NUMPY_KERNELS = {"svd": ("svd",), "eig": ("eigvals", "eigvalsh", "eigh")}
# modules whose kernel calls make up kernel.<name>.calls; calls from
# complexes are kept apart as kernel.<name>.complexes_calls
KERNEL_CALLERS = ("zetabf.graded", "zetabf.bv")


def per_layer_names():
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for layer, funcs in SPANNED.items():
        for f in funcs:
            out.append((f"{layer}.{f}.calls", "count"))
            out.append((f"{layer}.{f}.self_s", "s"))
        for f in COUNTED.get(layer, ()):
            out.append((f"{layer}.{f}.calls", "count"))
    out += [(f"verification.criterion_{i}.wall_s", "s")
            for i in range(1, CRITERIA + 1)]
    out += [(f"cli.{c}.wall_s", "s") for c in CLI_COMMANDS]
    for k in NUMPY_KERNELS:
        out.append((f"kernel.{k}.calls", "count"))
        out.append((f"kernel.{k}.complexes_calls", "count"))
    out.append(("kernel.expm.calls", "count"))
    out.append(("trace.overhead_s", "s"))
    return out


def _zetabf_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "zetabf" or name.startswith("zetabf."))]


class Tracer:
    """Records spans and counts while installed; one instance per traced phase."""

    def __init__(self):
        self.op = -1
        self.spans = []                  # (id, name, start, end, parent, op)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.wall_s = defaultdict(float)
        self._stack = []                 # [span id, child seconds]
        self._ids = itertools.count()
        self._patches = []               # (owner, attribute, original)

    # -- wrappers -------------------------------------------------------------

    def _spanned(self, name, fn, name_of_call=None):
        stack, spans, ids = self._stack, self.spans, self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name_of_call(args) if name_of_call else name
            sid = next(ids)
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.calls[span_name + ".calls"] += 1
                self.self_s[span_name] += duration - frame[1]
                self.wall_s[span_name] += duration
                spans.append((sid, span_name, start, end, parent, self.op))
        return wrapper

    def _counted(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _kernel(self, kernel, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__")
            if caller in KERNEL_CALLERS:
                calls[f"kernel.{kernel}.calls"] += 1
            elif caller == "zetabf.complexes":
                calls[f"kernel.{kernel}.complexes_calls"] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- patching -------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper):
        """Bind ``wrapper`` wherever a zetabf module holds ``original``."""
        for mod in _zetabf_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def _wrap(self, module, qualname, make):
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            self._set(owner, attr, make(getattr(owner, attr)))
        else:
            original = getattr(module, attr)
            self._rebind(original, make(original))

    def install(self):
        import numpy.linalg
        import zetabf
        from zetabf import cli, verification

        for layer, funcs in SPANNED.items():
            module = getattr(zetabf, layer)
            for f in funcs:
                self._wrap(module, f, lambda fn, n=f"{layer}.{f}": self._spanned(n, fn))
        for layer, funcs in COUNTED.items():
            module = getattr(zetabf, layer)
            for f in funcs:
                self._wrap(module, f,
                           lambda fn, n=f"{layer}.{f}.calls": self._counted(n, fn))

        wrapped = []
        for i, crit in enumerate(verification.ALL_CRITERIA, start=1):
            w = self._spanned(f"verification.criterion_{i}", crit)
            self._rebind(crit, w)
            wrapped.append(w)
        self._set(verification, "ALL_CRITERIA", tuple(wrapped))

        self._rebind(cli.main, self._spanned(
            "cli", cli.main,
            name_of_call=lambda args: f"cli.{args[0][0] if args and args[0] else '?'}"))

        for kernel, attrs in NUMPY_KERNELS.items():
            for attr in attrs:
                self._set(numpy.linalg, attr,
                          self._kernel(kernel, getattr(numpy.linalg, attr)))
        for mod in _zetabf_modules():
            if "expm" in vars(mod):
                self._set(mod, "expm", self._kernel("expm", mod.expm))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def per_op(self, ops: int, scale: float = 1.0) -> dict:
        """Per-layer metrics as means over ``ops`` traced operations, with
        times multiplied by ``scale`` (reference-speed over measured time).

        ``trace.overhead_s`` is left to the caller, which has the untraced run.
        """
        out = {}
        for name, unit in per_layer_names():
            if name.startswith("trace."):
                continue
            if unit == "count":
                value = self.calls.get(name, 0) / ops
            elif name.endswith(".self_s"):
                value = self.self_s.get(name[:-len(".self_s")], 0.0) * scale / ops
            else:   # .wall_s of a criterion or a CLI subcommand
                value = self.wall_s.get(name[:-len(".wall_s")], 0.0) * scale / ops
            out[name] = (value, unit)
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# id name start end parent op\n")
            for span in sorted(self.spans):
                fh.write(json.dumps(span) + "\n")
