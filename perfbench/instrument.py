"""Outside-in instrumentation of the simulator.

Nothing under ``src/`` knows it is being measured: perfbench replaces
public methods on ``repro`` classes with timing wrappers for the length
of a run and puts the originals back afterwards.

* :class:`Patcher` swaps class attributes and restores them exactly.
* :class:`PhaseClock` times the phases of one runner call (setup,
  measured phase, teardown) through five wrappers; every run uses it.
* :class:`Tracer` is the ``--trace`` run's per-layer recorder: it wraps
  every method in :data:`TARGETS`, computes self time per method and per
  layer, and keeps spans for the layer-boundary calls.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple


class Patcher:
    """Replaces class attributes with wrappers; :meth:`restore` undoes it.

    ``wrap`` reads the attribute from the class ``__dict__`` (never an
    inherited one), so restoring puts back the very object that was
    there.  Restoration runs in reverse order, which makes stacked
    wrappers on one attribute unwind correctly.
    """

    def __init__(self) -> None:
        self._saved: List[Tuple[type, str, object]] = []

    def wrap(self, cls: type, attr: str,
             make: Callable[[Callable], Callable]) -> None:
        original = cls.__dict__[attr]
        is_classmethod = isinstance(original, classmethod)
        func = original.__func__ if is_classmethod else original
        wrapper = functools.wraps(func)(make(func))
        setattr(cls, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._saved.append((cls, attr, original))

    def restore(self) -> None:
        while self._saved:
            cls, attr, original = self._saved.pop()
            setattr(cls, attr, original)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


class PhaseClock:
    """Host time of one runner call's phases, read from ``clock``.

    * ``setup_s`` — time inside ``Machine.build``, ``System.build`` and
      ``System.setup_queues``, outermost call only (``System.build``
      calls ``Machine.build``).
    * ``measure_start`` — when ``Machine.reset_accounting`` was last
      called: every runner calls it once, right before its measured
      phase.
    * ``teardown_s`` — time inside ``System.teardown_queues``, which runs
      after the measured phase but before the runner returns.
    * ``systems`` — every :class:`~repro.system.System` built, so the
      caller can read their drop and leak counters afterwards.
    """

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self.reset()

    def reset(self) -> None:
        self.setup_s = 0.0
        self.teardown_s = 0.0
        self.measure_start: Optional[float] = None
        self.systems: list = []
        self._depth = 0

    def install(self, patcher: Patcher) -> None:
        from repro.hw.machine import Machine
        from repro.system import System

        patcher.wrap(Machine, "build", self._setup)
        patcher.wrap(System, "build",
                     functools.partial(self._setup, keep_result=True))
        patcher.wrap(System, "setup_queues", self._setup)
        patcher.wrap(System, "teardown_queues", self._teardown)
        patcher.wrap(Machine, "reset_accounting", self._mark)

    def _setup(self, func: Callable, keep_result: bool = False) -> Callable:
        def timed_setup(*args, **kwargs):
            outermost = self._depth == 0
            start = self.clock() if outermost else 0.0
            self._depth += 1
            try:
                result = func(*args, **kwargs)
            finally:
                self._depth -= 1
                if outermost:
                    self.setup_s += self.clock() - start
            if keep_result:
                self.systems.append(result)
            return result
        return timed_setup

    def _teardown(self, func: Callable) -> Callable:
        def timed_teardown(*args, **kwargs):
            start = self.clock()
            try:
                return func(*args, **kwargs)
            finally:
                self.teardown_s += self.clock() - start
        return timed_teardown

    def _mark(self, func: Callable) -> Callable:
        def marked(*args, **kwargs):
            self.measure_start = self.clock()
            return func(*args, **kwargs)
        return marked


# ----------------------------------------------------------------------
# Per-layer tracing.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Target:
    """One traced method.

    ``name`` is the metric name, ``<layer>.<Class>.<method>`` of the
    public boundary.  ``layer`` is where its self time counts: the
    ``src/repro`` package whose code runs there.  ``span`` marks layer
    boundaries, which also record one span per call; the rest (the
    high-frequency leaves such as ``Core.charge``) are aggregated into a
    count and a total only.
    """

    module: str
    cls: str
    attr: str
    name: str
    layer: str
    span: bool = False


def _targets(module: str, cls: str, *attrs: str, span: bool = False,
             name: Optional[str] = None,
             layer: Optional[str] = None) -> List[Target]:
    package = module.split(".")[1]
    layer = layer or package
    return [Target(module, cls, attr,
                   name or f"{layer}.{cls}.{attr.lstrip('_')}", layer, span)
            for attr in attrs]


#: Every traced method.  Scheme hooks (``_map``/``_unmap``) are traced
#: so the time inside ``DmaApi.dma_map`` lands on the layer that
#: implements the scheme: ``copy`` lives in ``repro.core``, the
#: zero-copy schemes in ``repro.dma``.  ``CoreTask.run_one`` and
#: ``GeneratorTask.run_one`` run a workload's step closure, so their
#: self time counts toward ``workloads``, apart from the scheduler loop.
TARGETS: Tuple[Target, ...] = tuple(
    _targets("repro.hw.cpu", "Core", "charge")
    + _targets("repro.hw.memory", "PhysicalMemory",
               "read", "write", "copy", "fill")
    + _targets("repro.hw.locks", "SpinLock", "acquire", "release")
    + _targets("repro.hw.machine", "Machine", "build", span=True)
    + _targets("repro.core.shadow_pool", "ShadowBufferPool",
               "acquire_shadow", "release_shadow")
    + _targets("repro.core.shadow_dma", "ShadowDmaApi", "_map", "_unmap")
    + _targets("repro.dma.api", "DmaApi",
               "dma_map", "dma_unmap", "dma_map_sg", span=True)
    + _targets("repro.dma.zerocopy", "ZeroCopyDmaApi", "_map")
    + _targets("repro.dma.zerocopy", "StrictZeroCopyDmaApi", "_unmap")
    + _targets("repro.dma.zerocopy", "DeferredZeroCopyDmaApi", "_unmap")
    + _targets("repro.dma.direct", "NoIommuDmaApi", "_map", "_unmap")
    + _targets("repro.iommu.iommu", "Iommu",
               "map_range", "unmap_range", "translate")
    + _targets("repro.iommu.iotlb", "Iotlb", "lookup")
    + _targets("repro.iommu.invalidation", "InvalidationQueue",
               "invalidate_sync", "invalidate_ranges_sync", "flush_batch",
               span=True)
    + _targets("repro.iommu.invalidation", "PerCoreInvalidationQueue",
               "invalidate_sync", "invalidate_ranges_sync", "flush_batch",
               span=True)
    + _targets("repro.kalloc.buddy", "BuddyAllocator",
               "alloc_pages", "free_pages")
    + _targets("repro.kalloc.slab", "SlabAllocator", "kmalloc", "kfree")
    + _targets("repro.iova.allocators", "IdentityIovaAllocator",
               "alloc", "free")
    + _targets("repro.iova.allocators", "MagazineIovaAllocator",
               "alloc", "free")
    + _targets("repro.net.driver", "NicDriver",
               "setup_queue", "teardown_queue", span=True)
    # With observability off, NicDriver.__init__ binds the _fast
    # variants over receive_one/transmit_one on the instance; wrapping
    # both class attributes before any driver exists covers either path.
    + _targets("repro.net.driver", "NicDriver",
               "receive_one", "_receive_one_fast", span=True,
               name="net.NicDriver.receive_one")
    + _targets("repro.net.driver", "NicDriver",
               "transmit_one", "_transmit_one_fast", span=True,
               name="net.NicDriver.transmit_one")
    + _targets("repro.net.nic", "Nic", "receive_frame", "transmit_pending")
    + _targets("repro.sim.engine", "Scheduler", "run", span=True)
    + _targets("repro.sim.engine", "CoreTask", "run_one",
               name="workloads.step", layer="workloads")
    + _targets("repro.sim.engine", "GeneratorTask", "run_one",
               name="workloads.step", layer="workloads")
    + _targets("repro.system", "System", "build", "setup_queues",
               "teardown_queues", span=True)
    + _targets("repro.obs.spans", "SpanRecorder", "begin", "end")
    + _targets("repro.obs.requests", "RequestRecorder",
               "begin", "end", "mark")
    + _targets("repro.obs.trace", "RingTracer", "emit")
    + _targets("repro.obs.exposure", "ExposureAccountant",
               "note_map_range", "note_unmap_range", "note_invalidate_pages",
               "note_invalidate_domain", "note_invalidate_all",
               "note_access", "note_fault", "note_dma_map",
               "note_dma_unmap", name="obs.ExposureAccountant.note")
    + _targets("repro.obs.locks", "LockContentionRecorder",
               "note_acquire", "note_release",
               name="obs.LockContentionRecorder.note")
)

#: Methods whose per-call durations are kept for p50/p99.
LATENCY_NAMES = ("net.NicDriver.receive_one", "net.NicDriver.transmit_one",
                 "dma.DmaApi.dma_map", "dma.DmaApi.dma_unmap",
                 "iommu.InvalidationQueue.invalidate_sync")

#: Name of the frame perfbench opens around each runner call.
ROOT_NAME = "workloads.runner"


class Tracer:
    """Self time per traced method and layer, plus a span log.

    Each wrapped call pushes a frame on a stack.  When it returns, its
    duration is added to the enclosing frame's child time, and its self
    time is its duration minus the time its traced children covered.
    Spans are ``(id, parent, name index, t0, t1, config)`` tuples, with
    ``parent`` the nearest enclosing span (0 at the root); ``names`` and
    ``layers`` resolve the index.
    """

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        names = sorted({t.name for t in TARGETS} | {ROOT_NAME})
        self.names: List[str] = names
        self._index = {name: i for i, name in enumerate(names)}
        self.layers: List[str] = [name.split(".")[0] for name in names]
        for target in TARGETS:
            self.layers[self._index[target.name]] = target.layer
        self._latency = {self._index[n] for n in LATENCY_NAMES}
        self.config = ""
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far (the stack must be empty)."""
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.durations: Dict[int, List[float]] = {i: [] for i in self._latency}
        self.spans: List[tuple] = []
        self._stack: List[list] = []
        self._next_span = 0

    def enter(self, fid: int, span: bool) -> None:
        parent = self._stack[-1][4] if self._stack else 0
        if span:
            self._next_span += 1
            sid = self._next_span
        else:
            sid = parent
        self._stack.append([fid, self.clock(), 0.0, parent, sid])

    def exit(self) -> None:
        t1 = self.clock()
        fid, t0, child, parent, sid = self._stack.pop()
        duration = t1 - t0
        self.calls[fid] += 1
        self.self_s[fid] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if fid in self._latency:
            self.durations[fid].append(duration)
        if sid != parent:
            self.spans.append((sid, parent, fid, t0, t1, self.config))

    @contextlib.contextmanager
    def frame(self, name: str, span: bool = True) -> Iterator[None]:
        """Open a frame that no wrapper opens, such as the runner call."""
        self.enter(self._index[name], span)
        try:
            yield
        finally:
            self.exit()

    def install(self, patcher: Patcher) -> None:
        for target in TARGETS:
            cls = getattr(importlib.import_module(target.module), target.cls)
            patcher.wrap(cls, target.attr,
                         self._wrapper(self._index[target.name], target.span))

    def _wrapper(self, fid: int, span: bool) -> Callable[[Callable], Callable]:
        enter, exit_ = self.enter, self.exit

        def make(func: Callable) -> Callable:
            def traced(*args, **kwargs):
                enter(fid, span)
                try:
                    return func(*args, **kwargs)
                finally:
                    exit_()
            return traced
        return make

    def summary(self) -> dict:
        """Per-method calls and self seconds, per-layer self seconds and
        per-call durations of :data:`LATENCY_NAMES`."""
        layers: Dict[str, float] = {}
        for fid, seconds in enumerate(self.self_s):
            layers[self.layers[fid]] = layers.get(self.layers[fid], 0.0) \
                + seconds
        return {
            "functions": {name: {"calls": self.calls[i],
                                 "self_s": self.self_s[i]}
                          for i, name in enumerate(self.names)},
            "layers": layers,
            "durations": {self.names[i]: d
                          for i, d in self.durations.items()},
        }
