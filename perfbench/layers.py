"""Per-layer self time, measured by wrapping each layer's entry points.

The traced run replaces the public calls into each simulator layer with
timing wrappers, from this file, leaving ``src/`` untouched.  A layer's
*self time* is the time spent inside its wrapped calls minus the time spent
in wrapped calls they made, so self times never overlap and sum to no more
than the traced region.

Several of the wrapped classes use ``__slots__`` (``CopyEngine``,
``GpuPageTable``, ``FlightRecorder``, ``Counter``, ``Histogram``, ``_Span``)
and take no instance attributes, so every wrap is made on the class or
module that owns the function, and :class:`LayerTracer` puts each original
back on exit.  Wraps must be installed before the system is built: code
that caches a bound method at construction would otherwise bypass them.
"""

from __future__ import annotations

import functools
import time

from repro.core import driver as core_driver
from repro.core.driver import UvmDriver
from repro.core.prefetch import DensityPrefetcher
from repro.gpu.copy_engine import CopyEngine
from repro.gpu.page_table import GpuPageTable
from repro.hostos.dma import DmaMapper
from repro.hostos.host_vm import HostVm
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import Counter, Histogram
from repro.obs.spans import SpanProfiler, _Span
from repro.sim.engine import Engine

#: layer -> the (owner, attribute) pairs whose calls count as that layer.
#: ``Workload.steps`` is added per run, on the concrete workload class.
#: The driver binds ``assemble_batch`` by name, so it is patched there.
#: A disabled ``SpanProfiler.span`` only hands back the shared null span,
#: so spans are timed where a live one records: ``_Span`` itself.
LAYER_TARGETS = {
    "sim.engine": [(Engine, "launch")],
    "core.driver": [(UvmDriver, "service_next_batch")],
    "core.batch": [(core_driver, "assemble_batch")],
    "core.prefetch": [(DensityPrefetcher, "expand")],
    "hostos.dma": [(DmaMapper, "map_pages")],
    "hostos.unmap": [(HostVm, "unmap_range"), (HostVm, "mapped_pages_of")],
    "hostos.touch": [(Engine, "host_touch")],
    "gpu.copy_engine": [(CopyEngine, "host_to_device"), (CopyEngine, "device_to_host")],
    "gpu.page_table": [(GpuPageTable, "map_pages")],
    "obs": [
        (Counter, "inc"),
        (Histogram, "observe"),
        (_Span, "__init__"),
        (_Span, "__enter__"),
        (_Span, "__exit__"),
        (SpanProfiler, "record"),
        (FlightRecorder, "record"),
    ],
}

#: Every layer the traced run reports, in report order.
LAYERS = ("workloads.steps",) + tuple(LAYER_TARGETS)

_MISSING = object()


class LayerTracer:
    """Context manager that times every layer's calls while it is active.

    ``workload_cls`` is the concrete workload class whose ``steps`` counts
    as the ``workloads.steps`` layer.  After exit, ``self_s`` and ``calls``
    hold the totals per layer.
    """

    def __init__(self, workload_cls) -> None:
        self.targets = [("workloads.steps", workload_cls, "steps")] + [
            (layer, owner, attr)
            for layer, pairs in LAYER_TARGETS.items()
            for owner, attr in pairs
        ]
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        # Time spent in wrapped children, one slot per open wrapped call;
        # the bottom slot collects calls made outside any wrapped call.
        self._child_s = [0.0]
        self._saved: list = []

    def _wrap(self, layer: str, fn):
        clock = time.perf_counter
        child_s = self._child_s
        self_s = self.self_s
        calls = self.calls

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            child_s.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - child_s.pop()
                calls[layer] += 1
                child_s[-1] += elapsed

        return timed

    def __enter__(self) -> "LayerTracer":
        for layer, owner, attr in self.targets:
            self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
            setattr(owner, attr, self._wrap(layer, getattr(owner, attr)))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
