"""Span and counter tracing around the public functions of each fcssk module.

Wrappers are installed at the module attribute through which the caller
looks a function up (``fcssk.sync.estimate_timing``, or
``fcssk.sync.periodic_reference`` for the ``sigcore`` function that ``sync``
imports by name), so the program itself is not edited.  Each call records a
span (name, start, end, parent, op id); a layer's self time is its span
duration minus the time its child spans cover.  Counters are taken at the
same boundaries: true vs estimated timing offset, ``SyncError``
fallbacks, samples into the IF estimators, file bytes and bits sent.
"""

from __future__ import annotations

import functools
import importlib
import os
import time

# (module, attribute, layer).  The four cli file helpers share the layer
# ``cli.io``; every other layer is named after its wrap point.
WRAP_POINTS = (
    ("fcssk.codec", "encode", "codec.encode"),
    ("fcssk.txmod", "modulate", "txmod.modulate"),
    ("fcssk.channel", "apply_awgn", "channel.apply_awgn"),
    ("fcssk.channel", "apply_delay", "channel.apply_delay"),
    ("fcssk.sync", "estimate_timing", "sync.estimate_timing"),
    ("fcssk.ifest", "downconvert", "ifest.downconvert"),
    ("fcssk.ifest", "dpll_track", "ifest.dpll_track"),
    ("fcssk.ifest", "lls_track", "ifest.lls_track"),
    ("fcssk.detect", "decide", "detect.decide"),
    ("fcssk.theory", "theory_curve", "theory.theory_curve"),
    ("fcssk.sync", "periodic_reference", "sigcore.periodic_reference"),
    ("fcssk.ifest", "periodic_reference", "sigcore.periodic_reference"),
    ("fcssk.cli", "read_bits", "cli.io"),
    ("fcssk.cli", "write_bits", "cli.io"),
    ("fcssk.cli", "read_cf32", "cli.io"),
    ("fcssk.cli", "write_cf32", "cli.io"),
)
ROOT = "cli.self"   # span around fcssk.cli.main; its self time is the CLI's own
LAYERS = tuple(dict.fromkeys([layer for _, _, layer in WRAP_POINTS] + [ROOT]))
SYNC_TOLERANCE = 2  # samples, modulo one chirp period


def wrap_point_name(module: str, attr: str) -> str:
    return f"{module.split('.')[-1]}.{attr}"


class Tracer:
    """Records spans and counters for the ops of one worker process."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, op id]
        self.calls = {wrap_point_name(m, a): 0 for m, a, _ in WRAP_POINTS}
        self.counts = {"sync.attempts": 0, "sync.hits": 0, "sync.fallbacks": 0,
                       "ifest.samples": 0, "cli.io.bytes": 0, "cli.bits_sent": 0,
                       "sigcore.periodic_reference.calls": 0}
        self.op_id = -1
        self.true_tau = None
        self._stack = []
        self._installed = []

    # ----------------------------------------------------------- spans
    def _enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _exit(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def run_op(self, op_id: int, fn, *args):
        """Run one op under a root span named ROOT."""
        self.op_id = op_id
        index = self._enter(ROOT)
        try:
            return fn(*args)
        finally:
            self._exit(index)

    # --------------------------------------------------------- wrapping
    def install(self) -> None:
        for module_name, attr, layer in WRAP_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)   # AttributeError: wrap point is gone
            setattr(module, attr, self._wrap(original, module_name, attr, layer))
            self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _wrap(self, fn, module_name: str, attr: str, layer: str):
        point = wrap_point_name(module_name, attr)
        count = getattr(self, "_count_" + attr, None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[point] += 1
            index = self._enter(layer)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if count is not None:
                    count(args, None, exc)
                raise
            finally:
                self._exit(index)
            if count is not None:
                count(args, result, None)
            return result
        return traced

    # ------------------------------------------------------- counters
    def _count_encode(self, args, result, exc):
        self.counts["cli.bits_sent"] += len(args[0])

    def _count_apply_delay(self, args, result, exc):
        self.true_tau = int(args[1])

    def _count_estimate_timing(self, args, result, exc):
        self.counts["sync.attempts"] += 1
        if exc is not None:
            self.counts["sync.fallbacks"] += type(exc).__name__ == "SyncError"
            return
        if self.true_tau is not None:
            n = int(args[1].n)
            error = (result.tau_hat - self.true_tau) % n
            self.counts["sync.hits"] += min(error, n - error) <= SYNC_TOLERANCE

    def _count_dpll_track(self, args, result, exc):
        self.counts["ifest.samples"] += len(args[0].samples)

    _count_lls_track = _count_dpll_track

    def _count_periodic_reference(self, args, result, exc):
        self.counts["sigcore.periodic_reference.calls"] += 1

    def _count_read_bits(self, args, result, exc):
        if exc is None:
            self.counts["cli.io.bytes"] += os.path.getsize(args[0])

    _count_read_cf32 = _count_write_bits = _count_write_cf32 = _count_read_bits

    # ------------------------------------------------------ aggregation
    def self_ms(self) -> dict:
        """Total self time per layer in ms, over all recorded spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = dict.fromkeys(LAYERS, 0.0)
        for (name, start, end, _, _), covered in zip(self.spans, child):
            totals[name] += (end - start - covered) * 1e3
        return totals

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(f"{op}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
