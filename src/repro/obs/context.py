"""The observability context threaded through the simulation.

One :class:`Observability` object holds the run's recorders — tracer,
metrics registry, spans, exposure accountant, requests and lock
contention — and is the only thing the simulator reports to.  It hangs
off :class:`~repro.hw.machine.Machine`, and every instrumented
component (locks, the invalidation queue, the shadow pool, the DMA API,
the NIC and its driver, the scheduler, the fault injector) reports
*events* to it: a lock was acquired, a buffer was mapped, an
invalidation completed.  Which recorder records which fact, under which
metric name or trace-event kind, is decided here and nowhere else.

The default is :data:`NULL_OBS` — a disabled context.  Components call
an event method only under ``if obs.enabled``, so the tier-1 benchmark
numbers are untouched unless a run opts in with
``Observability.capture()`` (the CLI's ``--trace`` flag does exactly
that).  Phase methods check ``enabled`` themselves.

Inside :meth:`Observability.exposure_only` — RX-ring setup and teardown
(:class:`~repro.system.System`) — a captured context reports each event
to the exposure accountant only, so every other recorder sees the
traffic the measured phases run.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.obs.exposure import ExposureAccountant
from repro.obs.locks import LockContentionRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.requests import (MARK_COPIED, MARK_DEVICE_TRANSLATED,
                                MARK_INVALIDATED, MARK_MAPPED, MARK_UNMAPPED,
                                RequestRecorder)
from repro.obs.spans import SpanRecorder
from repro.obs.trace import (EV_DMA_BOUNCE, EV_DMA_COPY, EV_DMA_MAP,
                             EV_DMA_UNMAP, EV_FAULT_INJECT, EV_FAULT_RECOVER,
                             EV_INV_COMPLETE, EV_INV_DEFER, EV_INV_FLUSH,
                             EV_INV_SUBMIT, EV_INV_TIMEOUT, EV_IOMMU_FAULT,
                             EV_LOCK_ACQUIRE, EV_LOCK_CONTEND,
                             EV_LOCK_RELEASE, EV_NET_RX, EV_NET_TX, EV_PHASE,
                             EV_POOL_FALLBACK, EV_POOL_GROW, EV_POOL_SHRINK,
                             EV_REQ_BEGIN, EV_REQ_END, EV_SCHED_STEP,
                             NullTracer, RingTracer)

#: Counter each recovery action of :meth:`Observability.fault_recovered`
#: increments.
_RECOVERY_COUNTERS = {
    "retry": "invalidation.stall_retries",
    "queue-reset": "invalidation.queue_resets",
    "repost": "faults.recovered.rx_refill",
    "reap-retry": "faults.recovered.ring",
}


@dataclass
class PhaseRecord:
    """One workload phase (warmup, measure, drain, …) with its footprint."""

    name: str
    start: int
    end: Optional[int] = None
    busy_cycles: int = 0
    breakdown: Dict[str, int] = field(default_factory=dict)

    @property
    def wall_cycles(self) -> int:
        return (self.end - self.start) if self.end is not None else 0


class Observability:
    """Every recorder of one simulated run, behind one event surface.

    Each event method records one fact in every recorder that keeps it.
    An event that ends a spanned operation (a buffer mapped or unmapped,
    a lock acquired, a copy done, an invalidation completed, a scheduler
    step run) also closes that operation's span, which
    :meth:`span_begin` opened.
    """

    # Slots, not an instance dict: :meth:`exposure_only` swaps the
    # class, and after a swap CPython looks an instance dict's
    # attributes up the slow way, in every later event.
    __slots__ = ("tracer", "metrics", "spans", "exposure", "requests",
                 "locks", "enabled", "phases", "_inflight")

    def __init__(self, tracer=None):
        self.tracer = tracer if tracer is not None else NullTracer()
        self.metrics = MetricsRegistry()
        #: Hierarchical cycle-attribution recorder (see repro.obs.spans).
        self.spans = SpanRecorder()
        #: Exposure accountant (see repro.obs.exposure): stale windows,
        #: granularity excess, mapped surface, fault forensics.
        self.exposure = ExposureAccountant(metrics=self.metrics)
        #: Request-scoped causal tracing (see repro.obs.requests):
        #: per-request ids, stage timelines, tail-latency attribution.
        self.requests = RequestRecorder()
        #: Per-lock contention matrix (see repro.obs.locks): waiter and
        #: holder cycles by core, waiter→holder hand-off edges.  Feeds
        #: the scalability observatory's contention attribution.
        self.locks = LockContentionRecorder()
        #: Whether anything records.  Disabled (a :class:`NullTracer`)
        #: means no event method is ever called.
        self.enabled = self.tracer.enabled
        self.phases: List[PhaseRecord] = []
        #: Invalidation hardware → completion instants of its descriptors
        #: still in flight (the queue-depth series).
        self._inflight: Dict[object, deque] = {}

    # ------------------------------------------------------------------
    @classmethod
    def null(cls) -> "Observability":
        """A disabled context (what every run gets unless it opts in)."""
        return cls(tracer=NullTracer())

    @classmethod
    def capture(cls, trace_capacity: int = 1 << 16) -> "Observability":
        """An enabled context with a ring tracer of ``trace_capacity``."""
        return cls(tracer=RingTracer(capacity=trace_capacity))

    @contextmanager
    def exposure_only(self) -> Iterator[None]:
        """Within the block, each event reaches the exposure accountant
        only: spans, requests, locks, the context's own metrics and the
        trace record nothing.  Exposure keeps every event, because stale
        windows, granularity excess and the mapped surface integrate
        each mapping's whole lifecycle.  A disabled context, such as
        the shared :data:`NULL_OBS`, is left as it is."""
        if not self.enabled:
            yield
            return
        # Events dispatch through the class, so swapping it for the
        # block costs the events outside the block nothing.
        cls = self.__class__
        self.__class__ = _ExposureOnly
        try:
            yield
        finally:
            self.__class__ = cls

    @property
    def records_beyond_exposure(self) -> bool:
        """Whether a recorder other than the exposure accountant records
        events: true for a captured context outside
        :meth:`exposure_only`, false inside it and for a disabled
        context.  While it is false, work whose only observer is the
        accountant may report to it in bulk, and lock pairs may be
        accounted off the clock (no lock event records)."""
        return self.enabled

    def _emit(self, kind: str, t: int, cid: int, **data: object) -> None:
        """Trace an event, stamped with the ``rid`` of the request
        active on core ``cid``, if any."""
        active = self.requests.active.get(cid)
        if active is not None:
            data["rid"] = active.rid
        self.tracer.emit(kind, t, cid, **data)

    # ------------------------------------------------------------------
    # Spans and requests.  A span that opens while a request is active
    # on its core becomes a stage of that request.
    # ------------------------------------------------------------------
    def span_begin(self, name: str, core) -> None:
        self.spans.begin(name, core)
        if core.cid in self.requests.active:
            self.requests.on_span_begin(core.cid, name, core.now)

    def span_end(self, core) -> None:
        closed = self.spans.end(core)
        if closed is not None and core.cid in self.requests.active:
            self.requests.on_span_end(core.cid, closed[0].name, closed[1],
                                      core.now)

    def request_begin(self, core, kind: str, **meta: object) -> None:
        """Open a request on ``core``, or fold into the one in flight
        there (which traces nothing)."""
        folded = core.cid in self.requests.active
        rid = self.requests.begin(core, kind, **meta)
        if not folded:
            self.tracer.emit(EV_REQ_BEGIN, core.now, core.cid, rid=rid,
                             req_kind=kind)

    def request_end(self, core) -> None:
        record = self.requests.end(core)
        if record is not None:
            self.tracer.emit(EV_REQ_END, record.end, core.cid,
                             rid=record.rid, req_kind=record.kind,
                             latency_cycles=record.latency)

    # ------------------------------------------------------------------
    # DMA lifecycle.
    # ------------------------------------------------------------------
    def dma_mapped(self, core, scheme: str, domain_id, handle) -> None:
        """``dma_map`` returned ``handle``; closes the ``dma_map`` span."""
        self.span_end(core)
        self._emit(EV_DMA_MAP, core.now, core.cid, scheme=scheme,
                   iova=handle.iova, size=handle.size,
                   direction=handle.direction.value)
        self.metrics.counter(f"dma.maps:{scheme}").inc()
        self.exposure.note_dma_map(core.now, scheme, domain_id, handle.iova,
                                   handle.size)
        self.requests.mark(core, MARK_MAPPED)

    def dma_unmapped(self, core, scheme: str, domain_id, handle) -> None:
        """``dma_unmap`` of ``handle`` returned; closes the ``dma_unmap``
        span."""
        self.span_end(core)
        self._emit(EV_DMA_UNMAP, core.now, core.cid, scheme=scheme,
                   iova=handle.iova, size=handle.size)
        self.metrics.counter(f"dma.unmaps:{scheme}").inc()
        self.exposure.note_dma_unmap(core.now, scheme, domain_id,
                                     handle.iova, handle.size)
        self.requests.mark(core, MARK_UNMAPPED)

    def dma_copied(self, core, nbytes: int, remote: bool,
                   cycles: int) -> None:
        """A shadow copy finished; closes the ``copy`` span."""
        self._emit(EV_DMA_COPY, core.now, core.cid, nbytes=nbytes,
                   remote=remote, cycles=cycles)
        self.metrics.histogram("dma.copy_bytes").observe(nbytes)
        self.requests.mark(core, MARK_COPIED)
        self.span_end(core)

    def ring_mapped(self, scheme: str, domain_id: int, device_id: int,
                    kind: str, size: int, page_cycles: int, maps) -> None:
        """One pass of ring setup mapped buffers of ``size`` bytes
        without reporting each: ``maps`` holds each buffer's
        ``(iova, t, ranges)``, its ``dma_map`` returning ``iova`` at
        ``t`` after the ``(iova, size, t)`` page-table ranges of
        ``kind`` memory it installed, their pages ``page_cycles``
        apart.  The pass runs only while nothing but exposure records
        (:attr:`records_beyond_exposure`), so this is an exposure
        event."""
        self.exposure.note_ring_mapped(scheme, domain_id, device_id, kind,
                                       size, page_cycles, maps)

    def dma_bounced(self, core, iova: int, size: int) -> None:
        self._emit(EV_DMA_BOUNCE, core.now, core.cid, iova=iova, size=size)
        self.metrics.counter("dma.bounce_maps").inc()

    def device_translated(self, core) -> None:
        """The device's DMA for ``core``'s request went through."""
        self.requests.mark(core, MARK_DEVICE_TRANSLATED)

    # ------------------------------------------------------------------
    # IOMMU: page-table ranges, IOTLB revocation, device accesses.
    # ------------------------------------------------------------------
    def range_mapped(self, t: int, domain_id: int, device_id: int,
                     iova: int, size: int, kind: str,
                     page_cycles: int = 0) -> None:
        self.exposure.note_map_range(t, domain_id, device_id, iova, size,
                                     kind, page_cycles=page_cycles)

    def range_unmapped(self, t: int, domain_id: int, iova: int, size: int,
                       cached_pages, page_cycles: int = 0) -> None:
        self.exposure.note_unmap_range(t, domain_id, iova, size,
                                       cached_pages, page_cycles=page_cycles)

    def invalidated(self, t: int, domain_id: Optional[int] = None,
                    first_page: int = 0,
                    npages: Optional[int] = None) -> None:
        """IOTLB entries were revoked at ``t``: ``npages`` pages from
        ``first_page`` of ``domain_id``, the whole domain when
        ``npages`` is None, and every domain when ``domain_id`` is too."""
        if domain_id is None:
            self.exposure.note_invalidate_all(t)
        elif npages is None:
            self.exposure.note_invalidate_domain(t, domain_id)
        else:
            self.exposure.note_invalidate_pages(t, domain_id, first_page,
                                                npages)

    def device_access(self, domain_id: int, iova: int) -> None:
        """The device translated ``iova`` of ``domain_id`` (no time:
        nothing records one)."""
        self.exposure.note_access(domain_id, iova)

    def iommu_fault(self, t: int, domain_id: int, device_id: int, iova: int,
                    is_write: bool, reason: str) -> None:
        self._emit(EV_IOMMU_FAULT, t, -1, device=device_id,
                   domain=domain_id, iova=iova, write=is_write,
                   reason=reason)
        self.metrics.counter("iommu.faults").inc()
        self.exposure.note_fault(
            t, domain_id, device_id, iova, is_write, reason,
            open_spans=tuple(sorted(self.spans.open_paths().items())),
            open_requests=tuple(sorted(self.requests.active_rids().items())))

    # ------------------------------------------------------------------
    # Locks.
    # ------------------------------------------------------------------
    def lock_acquired(self, core, name: str, holder_cid: int,
                      waited: int) -> None:
        """``core`` took lock ``name`` after ``waited`` spinning cycles
        behind core ``holder_cid``; closes the ``lock_wait`` span."""
        self.locks.note_acquire(name, core.cid, holder_cid, waited, core.now)
        if waited:
            self.metrics.histogram(f"lock.wait_cycles:{name}").observe(waited)
            self._emit(EV_LOCK_CONTEND, core.now, core.cid, lock=name,
                       wait_cycles=waited)
            self.requests.note_lock_wait(core, name, waited)
        else:
            self._emit(EV_LOCK_ACQUIRE, core.now, core.cid, lock=name)
        self.span_end(core)

    def lock_released(self, core, name: str, held: int) -> None:
        self.metrics.histogram(f"lock.hold_cycles:{name}").observe(held)
        self._emit(EV_LOCK_RELEASE, core.now, core.cid, lock=name,
                   hold_cycles=held)
        self.locks.note_release(name, core.cid, held)

    # ------------------------------------------------------------------
    # Invalidation queue.
    # ------------------------------------------------------------------
    def _sample_queue(self, hardware, t: int, concurrency: int,
                      done: Optional[int] = None) -> None:
        """Sample the concurrency and queue-depth series at a submission
        to ``hardware`` at ``t``: the descriptors whose completion lies
        beyond ``t``, counting the submitted one (completing at
        ``done``, or still unknown).  Completions are monotone in
        occupancy order, so evicting from the head suffices."""
        metrics = self.metrics
        metrics.series("invalidation.concurrency").sample(t, concurrency)
        inflight = self._inflight.get(hardware)
        if inflight is None:
            inflight = self._inflight[hardware] = deque()
        while inflight and inflight[0] <= t:
            inflight.popleft()
        if done is not None:
            inflight.append(done)
        metrics.series("invalidation.queue_depth").sample(
            t, len(inflight) + (done is None))

    def inv_submitted(self, core, hardware, scope: str, domain_id: int,
                      npages: int, ndesc: int, concurrency: int,
                      submitted_at: int, done: int) -> None:
        """``ndesc`` descriptors and a wait descriptor posted at
        ``submitted_at`` completed at ``done``; closes the
        ``iotlb_invalidate`` span."""
        observed = done - submitted_at
        metrics = self.metrics
        metrics.histogram("invalidation.latency_cycles").observe(observed)
        # One count per descriptor actually posted, under the scope it
        # was posted with.
        metrics.counter(f"invalidation.submissions:{scope}").inc(ndesc)
        self._sample_queue(hardware, submitted_at, concurrency, done)
        self._emit(EV_INV_SUBMIT, submitted_at, core.cid, scope=scope,
                   domain=domain_id, pages=npages, concurrency=concurrency,
                   descriptors=ndesc)
        self._emit(EV_INV_COMPLETE, done, core.cid, scope=scope,
                   latency_cycles=observed)
        self.requests.mark(core, MARK_INVALIDATED)
        self.span_end(core)

    def inv_resubmitted(self, core, hardware, concurrency: int) -> None:
        """A stalled wait descriptor was re-posted at ``core.now``."""
        self._sample_queue(hardware, core.now, concurrency)

    def inv_timeout(self, core, scope: str, retry: int) -> None:
        self._emit(EV_INV_TIMEOUT, core.now, core.cid, scope=scope,
                   retry=retry)
        self.metrics.counter("invalidation.timeouts").inc()

    def inv_flushed(self, core, batch: int, pages: int, ranged: bool,
                    descriptors: int) -> None:
        self._emit(EV_INV_FLUSH, core.now, core.cid, batch=batch,
                   pages=pages, ranged=ranged, descriptors=descriptors)
        self.metrics.histogram("invalidation.batch_size").observe(batch)

    def inv_deferred(self, core, scheme: str, pages: int, slot: int,
                     queued: int) -> None:
        self._emit(EV_INV_DEFER, core.now, core.cid, scheme=scheme,
                   pages=pages, slot=slot, queued=queued)

    def deferred_windows(self, windows) -> None:
        """A flush closed the deferred windows of these unmaps."""
        hist = self.metrics.histogram("invalidation.window_cycles")
        for window in windows:
            hist.observe(window)

    # ------------------------------------------------------------------
    # Shadow pool.
    # ------------------------------------------------------------------
    def pool_occupancy(self, core, in_flight: int) -> None:
        self.metrics.series("pool.in_flight").sample(core.now, in_flight)

    def pool_grown(self, core, size_class: int, nbytes: int, nbuffers: int,
                   rights, bytes_allocated: int) -> None:
        self._emit(EV_POOL_GROW, core.now, core.cid, size_class=size_class,
                   nbytes=nbytes, nbuffers=nbuffers, rights=rights.name)
        self.metrics.counter("pool.grows").inc()
        self.metrics.series("pool.bytes_allocated").sample(core.now,
                                                           bytes_allocated)

    def pool_shrunk(self, core, size: int, fallback: bool,
                    bytes_allocated: int) -> None:
        self._emit(EV_POOL_SHRINK, core.now, core.cid, size=size,
                   fallback=fallback)
        self.metrics.series("pool.bytes_allocated").sample(core.now,
                                                           bytes_allocated)

    def pool_fallback(self, core, size_class: int, iova: int,
                      rights) -> None:
        self._emit(EV_POOL_FALLBACK, core.now, core.cid,
                   size_class=size_class, iova=iova, rights=rights.name)
        self.metrics.counter("pool.fallback_allocations").inc()

    # ------------------------------------------------------------------
    # Network, scheduler and fault injection.
    # ------------------------------------------------------------------
    def packet_received(self, core, qid: int, nbytes: int,
                        payload: int) -> None:
        self._emit(EV_NET_RX, core.now, core.cid, qid=qid, nbytes=nbytes,
                   payload=payload)
        self.metrics.counter("net.rx_packets").inc()

    def chunk_sent(self, core, qid: int, nbytes: int) -> None:
        """A chunk was posted as one descriptor."""
        self._emit(EV_NET_TX, core.now, core.cid, qid=qid, nbytes=nbytes)
        self.metrics.counter("net.tx_chunks").inc()

    def sched_step(self, core, started_at: int, task: str,
                   units: int) -> None:
        """One scheduler work unit ran; closes the ``step`` span."""
        self.span_end(core)
        self._emit(EV_SCHED_STEP, started_at, core.cid, task=task,
                   ran_cycles=core.now - started_at, units=units)

    def fault_injected(self, core, site: str, consult: int,
                       fire: int) -> None:
        t = core.now if core is not None else 0
        cid = core.cid if core is not None else -1
        self._emit(EV_FAULT_INJECT, t, cid, site=site, consult=consult,
                   fire=fire)
        self.metrics.counter(f"faults.injected.{site}").inc()

    def fault_recovered(self, core, site: str, action: str,
                        **detail: int) -> None:
        """A recovery policy absorbed a fault at ``site`` by ``action``;
        a ``recovered`` detail counts several recoveries at once."""
        self._emit(EV_FAULT_RECOVER, core.now, core.cid, site=site,
                   action=action, **detail)
        self.metrics.counter(_RECOVERY_COUNTERS[action]).inc(
            detail.get("recovered", 1))

    # ------------------------------------------------------------------
    # Phase timeline (per-phase breakdowns for the timeline renderer).
    # ------------------------------------------------------------------
    def phase_begin(self, name: str, t: int) -> None:
        """Open a workload phase; closes any still-open previous phase."""
        if not self.enabled:
            return
        if self.phases and self.phases[-1].end is None:
            self.phase_end(t)
        self.phases.append(PhaseRecord(name=name, start=t))
        self.tracer.emit(EV_PHASE, t, -1, name=name, edge="begin")

    def phase_end(self, t: int, busy_cycles: int = 0,
                  breakdown: Dict[str, int] | None = None) -> None:
        """Close the open phase, attaching its cycle footprint."""
        if not self.enabled or not self.phases:
            return
        phase = self.phases[-1]
        if phase.end is not None:
            return
        phase.end = t
        phase.busy_cycles = busy_cycles
        if breakdown:
            phase.breakdown = dict(breakdown)
        self.tracer.emit(EV_PHASE, t, -1, name=phase.name, edge="end")


class _ExposureOnly(Observability):
    """A context inside :meth:`Observability.exposure_only`, where
    nothing but exposure records
    (:attr:`~Observability.records_beyond_exposure` is false).  The
    events the accountant keeps (``range_mapped``, ``range_unmapped``,
    ``ring_mapped``, ``invalidated``, ``device_access``) record as ever,
    the DMA lifecycle and IOMMU faults keep only their exposure notes,
    and every other event records nothing."""

    __slots__ = ()

    records_beyond_exposure = False

    def _records_nothing(self, *args: object, **kwargs: object) -> None:
        """No exposure note keeps this event's fact."""

    span_begin = span_end = request_begin = request_end = _records_nothing
    dma_copied = dma_bounced = device_translated = _records_nothing
    lock_acquired = lock_released = _records_nothing
    inv_submitted = inv_resubmitted = inv_timeout = _records_nothing
    inv_flushed = inv_deferred = deferred_windows = _records_nothing
    pool_occupancy = pool_grown = pool_shrunk = _records_nothing
    pool_fallback = packet_received = chunk_sent = _records_nothing
    sched_step = fault_injected = fault_recovered = _records_nothing
    phase_begin = phase_end = _records_nothing

    def dma_mapped(self, core, scheme: str, domain_id, handle) -> None:
        self.exposure.note_dma_map(core.now, scheme, domain_id, handle.iova,
                                   handle.size)

    def dma_unmapped(self, core, scheme: str, domain_id, handle) -> None:
        self.exposure.note_dma_unmap(core.now, scheme, domain_id,
                                     handle.iova, handle.size)

    def iommu_fault(self, t: int, domain_id: int, device_id: int, iova: int,
                    is_write: bool, reason: str) -> None:
        # No span or request is open: none opens inside the block.
        self.exposure.note_fault(t, domain_id, device_id, iova, is_write,
                                 reason)


#: Shared disabled context.  Nothing may record through it (every event
#: method is called under ``obs.enabled``), so sharing one instance is
#: safe.
NULL_OBS = Observability.null()
