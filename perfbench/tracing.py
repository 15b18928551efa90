"""Per-layer spans for a traced benchmark run.

The tracer wraps the public seams between the simulator's layers from
outside the program, so the code under test is never edited:

=========  ===========================================================
layer      calls wrapped
=========  ===========================================================
sim        ``simulate``, wherever it was imported by name
trace      ``BenchmarkProfile.generate``, and one span per record of
           ``BenchmarkProfile.stream`` and of ``BlockTraceReader`` (decode)
core       ``CoreModel.advance`` / ``memory_access``
hierarchy  ``MemoryHierarchy.demand_access`` / ``issue_prefetch``
selector   every ``SelectionAlgorithm`` protocol hook, in every subclass
train      ``Prefetcher.train`` (and any override)
store      ``ResultStore.get`` / ``get_value`` / ``put``
=========  ===========================================================

Each span adds its *self* time (duration minus the spans nested in it)
to its layer, so the layer times partition the time spent inside spans.
A call that re-enters the layer it is already in (a subclass hook
calling ``super()``) is folded into the outer span.  Table probes
(``SetAssociativeTable`` lookups, peeks, inserts and invalidations) are
counted, not timed.  Spans are kept per thread, because the job daemon
simulates in its worker threads; totals are summed across threads.
"""

from __future__ import annotations

import sys
import threading
from time import perf_counter_ns
from typing import Callable, Dict, List, Tuple

#: Layers that spans are recorded for.
LAYERS = ("sim", "trace", "core", "hierarchy", "selector", "train", "store")

_SELECTOR_HOOKS = (
    "observe_demand",
    "allocate",
    "filter_prefetches",
    "post_issue",
    "observe_prefetch_used",
    "observe_prefetch_evicted",
    "performance_sample",
)

#: Each hashes the key once; composites such as ``get_or_insert`` count
#: as the probes they make.
_TABLE_OPS = ("lookup", "peek", "insert", "invalidate")


def _subclasses(cls) -> List[type]:
    found, pending = [], [cls]
    while pending:
        current = pending.pop()
        found.append(current)
        pending.extend(current.__subclasses__())
    return found


class LayerTracer:
    """Installs span wrappers on install(), removes them on uninstall()."""

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.table_ops = 0
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, layer: str, fn: Callable) -> Callable:
        """``fn`` wrapped in a span of ``layer``."""
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                stack.pop()
                tracer.self_ns[layer] += elapsed - frame[1]
                tracer.calls[layer] += 1
                if stack:
                    stack[-1][1] += elapsed

        return traced

    def iterate(self, layer: str, iterable):
        """Yield from ``iterable`` with one ``layer`` span per item."""
        step = self.span(layer, next)
        iterator = iter(iterable)
        done = object()
        while True:
            item = step(iterator, done)
            if item is done:
                return
            yield item

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, name: str, replacement) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def _wrap_method(self, cls, name: str, layer: str) -> None:
        if name in cls.__dict__ and callable(cls.__dict__[name]):
            self._patch(cls, name, self.span(layer, cls.__dict__[name]))

    def _wrap_iterator(self, cls, name: str, layer: str) -> None:
        original = cls.__dict__.get(name)
        if original is None:
            return
        tracer = self

        def traced(*args, **kwargs):
            return tracer.iterate(layer, original(*args, **kwargs))

        self._patch(cls, name, traced)

    def _count_table_ops(self, cls, name: str) -> None:
        original = cls.__dict__.get(name)
        if original is None:
            return
        tracer = self

        def counted(*args, **kwargs):
            tracer.table_ops += 1
            return original(*args, **kwargs)

        self._patch(cls, name, counted)

    def install(self) -> None:
        """Wrap every seam; import the program's modules first.

        A seam the program no longer has is skipped, so the tracer keeps
        working while the code under it is refactored.
        """
        import repro.experiments  # noqa: F401  (registers every experiment)
        import repro.jobs.server  # noqa: F401
        import repro.sim
        import repro.store.orchestrator  # noqa: F401
        from repro.common.tables import SetAssociativeTable
        from repro.cpu.blocktrace import BlockTraceReader
        from repro.cpu.core import CoreModel
        from repro.memory.hierarchy import MemoryHierarchy
        from repro.prefetchers.base import Prefetcher
        from repro.selection.base import SelectionAlgorithm
        from repro.store.resultstore import ResultStore
        from repro.workloads.profiles import BenchmarkProfile

        # simulate() is imported by name into many modules: rebind every
        # reference to it.
        simulate = repro.sim.simulate
        traced_simulate = self.span("sim", simulate)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro"):
                for attr, value in list(vars(module).items()):
                    if value is simulate:
                        self._patch(module, attr, traced_simulate)

        # generate() materializes stream(): its per-record spans fold into
        # the one generate() span.
        self._wrap_method(BenchmarkProfile, "generate", "trace")
        self._wrap_iterator(BenchmarkProfile, "stream", "trace")
        self._wrap_iterator(BlockTraceReader, "__iter__", "trace")
        for name in ("advance", "memory_access"):
            self._wrap_method(CoreModel, name, "core")
        for name in ("demand_access", "issue_prefetch"):
            self._wrap_method(MemoryHierarchy, name, "hierarchy")
        for cls in _subclasses(SelectionAlgorithm):
            for name in _SELECTOR_HOOKS:
                self._wrap_method(cls, name, "selector")
        for cls in _subclasses(Prefetcher):
            self._wrap_method(cls, "train", "train")
        for name in ("get", "get_value", "put"):
            self._wrap_method(ResultStore, name, "store")
        for name in _TABLE_OPS:
            self._count_table_ops(SetAssociativeTable, name)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
