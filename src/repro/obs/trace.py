"""Low-overhead event tracing for the simulation's hot paths.

The tracer is the structured-log counterpart of the paper's aggregate
tables: every interesting occurrence on a hot path — a lock hand-off, an
invalidation submission, a pool grow, a DMA map — can be recorded as a
typed event with the simulated timestamp and core that produced it.
Events land in a bounded ring buffer (oldest events are dropped once the
capacity is reached, never the newest), so tracing a long run costs O(1)
memory and a traced run observes *exactly* the same simulated behaviour
as an untraced one: emitting an event never charges cycles.

Two implementations share the interface:

* :class:`NullTracer` — the default.  ``enabled`` is ``False`` and every
  ``emit`` is a no-op; components report events to the
  :class:`~repro.obs.context.Observability` context only under
  ``obs.enabled``, so untraced runs skip even the event construction.
* :class:`RingTracer` — an enabled tracer over a ``deque`` ring buffer
  with JSONL export (one event object per line), the format the
  ``--trace`` CLI flag writes.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from typing import Deque, Dict, Iterator, List, NamedTuple, Optional

# ----------------------------------------------------------------------
# Event kinds.  Dotted names group by subsystem; renderers and tests
# match on these strings, so treat them as a stable schema (documented
# in docs/observability.md).
# ----------------------------------------------------------------------
EV_LOCK_ACQUIRE = "lock.acquire"        # lock taken (uncontended fast path)
EV_LOCK_CONTEND = "lock.contend"        # lock taken after spinning
EV_LOCK_RELEASE = "lock.release"        # lock released (hold time attached)
EV_INV_SUBMIT = "inv.submit"            # invalidation descriptor posted
EV_INV_COMPLETE = "inv.complete"        # hardware signalled completion
EV_INV_DEFER = "inv.defer"              # unmap queued on a deferred list
EV_INV_FLUSH = "inv.flush"              # deferred batch flushed
EV_POOL_GROW = "pool.grow"              # shadow pool allocated fresh pages
EV_POOL_SHRINK = "pool.shrink"          # shadow pool returned a buffer
EV_POOL_FALLBACK = "pool.fallback"      # metadata array full; external IOVA
EV_DMA_MAP = "dma.map"                  # dma_map issued
EV_DMA_UNMAP = "dma.unmap"              # dma_unmap issued
EV_DMA_COPY = "dma.copy"                # shadow copy (map-in or unmap-out)
EV_NET_RX = "net.rx"                    # frame received + processed
EV_NET_TX = "net.tx"                    # chunk posted for transmission
EV_SCHED_STEP = "sched.step"            # scheduler dispatched one work unit
EV_PHASE = "phase"                      # workload phase boundary
EV_IOMMU_FAULT = "iommu.fault"          # DMA blocked by the IOMMU
EV_REQ_BEGIN = "req.begin"              # request-scoped unit of work opened
EV_REQ_END = "req.end"                  # request completed (latency attached)
EV_FAULT_INJECT = "fault.inject"        # fault injector fired at a site
EV_FAULT_RECOVER = "fault.recover"      # a recovery policy absorbed a fault
EV_INV_TIMEOUT = "inv.timeout"          # invalidation wait timed out (retry)
EV_DMA_BOUNCE = "dma.bounce"            # mapping degraded to a bounce buffer

ALL_EVENT_KINDS = (
    EV_LOCK_ACQUIRE, EV_LOCK_CONTEND, EV_LOCK_RELEASE,
    EV_INV_SUBMIT, EV_INV_COMPLETE, EV_INV_DEFER, EV_INV_FLUSH,
    EV_POOL_GROW, EV_POOL_SHRINK, EV_POOL_FALLBACK,
    EV_DMA_MAP, EV_DMA_UNMAP, EV_DMA_COPY,
    EV_NET_RX, EV_NET_TX,
    EV_SCHED_STEP, EV_PHASE, EV_IOMMU_FAULT,
    EV_REQ_BEGIN, EV_REQ_END,
    EV_FAULT_INJECT, EV_FAULT_RECOVER, EV_INV_TIMEOUT, EV_DMA_BOUNCE,
)


class TraceEvent(NamedTuple):
    """One typed trace record, built per emitted event.

    ``t`` is the simulated cycle timestamp, ``core`` the id of the core
    that produced the event (``-1`` when no core is meaningful), ``kind``
    one of the ``EV_*`` constants, and ``data`` the kind-specific fields.
    """

    t: int
    core: int
    kind: str
    data: Dict[str, object]

    def to_dict(self) -> Dict[str, object]:
        row: Dict[str, object] = {"t": self.t, "core": self.core,
                                  "kind": self.kind}
        row.update(self.data)
        return row


class NullTracer:
    """Disabled tracer: the default for every benchmark run.

    Instrumented code guards on ``obs.enabled`` before reporting an
    event, so the only per-call cost of the default configuration is one
    attribute check.
    """

    enabled = False

    def emit(self, kind: str, t: int, core: int, **data: object) -> None:
        """Drop the event (interface parity with :class:`RingTracer`)."""

    def __len__(self) -> int:
        return 0

    def events(self, kind: Optional[str] = None) -> List[TraceEvent]:
        return []


class RingTracer:
    """Bounded in-memory tracer with JSONL export.

    ``capacity`` bounds the retained events; once full, the *oldest*
    events are evicted (the tail of a run is usually what a debugging
    session needs).  ``emitted`` counts every event ever emitted, so
    ``dropped`` reports how much history the ring evicted.
    """

    enabled = True

    def __init__(self, capacity: int = 1 << 16):
        if capacity < 1:
            raise ValueError(f"tracer capacity must be positive: {capacity}")
        self.capacity = capacity
        self._ring: Deque[TraceEvent] = deque(maxlen=capacity)
        self.emitted = 0

    # ------------------------------------------------------------------
    def emit(self, kind: str, t: int, core: int, **data: object) -> None:
        self._ring.append(TraceEvent(t, core, kind, data))
        self.emitted += 1

    # ------------------------------------------------------------------
    @property
    def dropped(self) -> int:
        return self.emitted - len(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._ring)

    def events(self, kind: Optional[str] = None) -> List[TraceEvent]:
        """All retained events, optionally filtered by ``kind``."""
        if kind is None:
            return list(self._ring)
        return [ev for ev in self._ring if ev.kind == kind]

    def counts_by_kind(self) -> Counter:
        """Retained event counts per kind (cheap trace overview)."""
        return Counter(ev.kind for ev in self._ring)

    def clear(self) -> None:
        self._ring.clear()
        self.emitted = 0

    # ------------------------------------------------------------------
    # Export.
    # ------------------------------------------------------------------
    def to_jsonl(self) -> str:
        """One compact JSON object per line, in emission order."""
        return "\n".join(json.dumps(ev.to_dict(), sort_keys=True,
                                    separators=(",", ":"))
                         for ev in self._ring)

    def write_jsonl(self, path: str) -> int:
        """Write the retained events to ``path``; returns the event count."""
        text = self.to_jsonl()
        with open(path, "w") as fh:
            if text:
                fh.write(text + "\n")
        return len(self._ring)
