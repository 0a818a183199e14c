"""Cycle-accurate exposure accounting: how much memory a device can
reach, for how long, and why.

The paper's security argument is quantitative, not boolean.  Deferred
zero-copy protection leaves a *vulnerability window* — between the OS
unmapping a buffer and the batched IOTLB invalidation actually executing,
the device can still reach the pages through stale IOTLB entries — and
page-granular mapping exposes *co-located* data the OS never handed to
the device (the sub-page attack of §3).  DMA shadowing eliminates both
by construction.  The :class:`ExposureAccountant` turns those claims
into numbers:

* **Stale-window exposure** (byte·cycles): for every page the OS
  unmapped while the IOTLB still cached its translation, the span from
  the instant the driver regained buffer ownership (``dma_unmap``
  *returning*) to the invalidation that actually revoked the entry,
  weighted by the page size.  Strict schemes invalidate before
  ``dma_unmap`` returns, so their windows are exactly zero; deferred
  schemes accumulate windows until the batch flush (or until an
  identity remap of the same frame re-legitimises the entry).
* **Granularity excess** (byte·cycles): for every live DMA mapping, the
  device-accessible bytes *beyond* the OS-requested range — page
  rounding plus sub-page co-location — integrated over the mapping's
  lifetime.  Only OS memory counts: pages a scheme maps as its own
  *dedicated* state (the shadow pool, coherent descriptor rings) carry
  no foreign data and are tagged ``kind="dedicated"`` at ``map_range``.
* **Mapped surface** (time series + peak): total device-accessible
  bytes over time — installed pages plus stale-but-cached pages.
* **Fault forensics**: a bounded ring of :class:`ExposureFault` records
  correlating each blocked DMA with the page's lifecycle state
  (``mapped`` / ``stale`` / ``revoked`` / ``never-mapped``), the cycle
  timestamps of the map/unmap that produced that state, and the span
  paths open on each core at fault time.

Like the rest of :mod:`repro.obs`, the accountant is a pure observer:
the :class:`~repro.obs.context.Observability` context calls its notes
from events reported under ``obs.enabled``, and recording reads clocks
without ever charging cycles, so exposure-accounted runs are
cycle-identical to bare runs (``tests/obs/test_zero_overhead.py``).

Measurement conventions worth knowing when reading the numbers:

* A stale window opens at ``dma_unmap``'s *return* (the driver owns the
  buffer again) and closes at invalidation *completion* — the
  ``note_invalidate_*`` hooks fire after the hardware wait.  A strict
  scheme's synchronous invalidation therefore closes the window before
  it can open.
* When independent mappings share a page (slab co-location), the page
  is released at the *earliest* ``dma_unmap`` touching it; overlapping
  windows are thus measured conservatively (never under-reported).
* Only pages that were actually IOTLB-cached at unmap time go stale —
  an uncached translation dies with its PTE and the device cannot
  reload it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional, Sequence, Set, Tuple

# Mirrors repro.sim.units; importing it here would cycle back through
# repro.sim.__init__ -> engine -> obs.context -> this module.
PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT

#: ``map_range`` kind tags.  ``os`` memory (the default) is the data the
#: OS lends to the device and the only memory granularity excess is
#: defined over; ``dedicated`` marks scheme-owned state (shadow pool
#: buffers, coherent rings) that carries no co-located foreign data.
KIND_OS = "os"
KIND_DEDICATED = "dedicated"

#: How many per-page map/unmap history entries a domain retains for
#: fault forensics before the oldest are evicted.
_HISTORY_LIMIT = 1 << 16


@dataclass
class _PageState:
    """One installed (PTE-present) page of a domain."""

    kind: str
    refcount: int
    installed_at: int
    #: Set when a ``dma_unmap`` returned while the PTE stayed installed
    #: (self-invalidating disarm, shared-page co-location): the OS no
    #: longer considers the buffer device-owned from this instant.
    os_released_at: Optional[int] = None


@dataclass
class _StalePage:
    """A page whose PTE is gone but whose IOTLB entry may survive."""

    kind: str
    unmapped_at: int
    #: When the driver regained ownership (``dma_unmap`` return); the
    #: stale window is measured from here.  ``None`` until the enclosing
    #: ``dma_unmap`` completes.
    released_at: Optional[int] = None


@dataclass
class _LiveMap:
    """One live ``dma_map`` as the accountant sees it."""

    mapped_at: int
    size: int
    excess_bytes: int


@dataclass(frozen=True)
class ExposureFault:
    """One blocked DMA with the lifecycle context behind it."""

    t: int
    domain_id: int
    device_id: int
    iova: int
    is_write: bool
    reason: str
    #: ``mapped`` / ``stale`` / ``revoked`` / ``never-mapped``.
    page_state: str
    last_map_t: Optional[int] = None
    last_unmap_t: Optional[int] = None
    #: Span paths open per core at fault time: ``(core_id, path)``.
    open_spans: Tuple[Tuple[int, Tuple[str, ...]], ...] = ()
    #: Request ids in flight per core at fault time: ``(core_id, rid)``.
    open_requests: Tuple[Tuple[int, int], ...] = ()

    def to_dict(self) -> Dict[str, object]:
        return {
            "t": self.t, "domain": self.domain_id,
            "device": self.device_id, "iova": self.iova,
            "write": self.is_write, "reason": self.reason,
            "page_state": self.page_state,
            "last_map_t": self.last_map_t,
            "last_unmap_t": self.last_unmap_t,
            "open_spans": [
                {"core": cid, "path": " -> ".join(path)}
                for cid, path in self.open_spans
            ],
            "open_requests": [
                {"core": cid, "rid": rid}
                for cid, rid in self.open_requests
            ],
        }


@dataclass
class _DomainExposure:
    """Per-domain accounting state and totals."""

    domain_id: int
    device_id: int = -1
    scheme: Optional[str] = None
    pages: Dict[int, _PageState] = field(default_factory=dict)
    stale: Dict[int, _StalePage] = field(default_factory=dict)
    live: Dict[int, _LiveMap] = field(default_factory=dict)
    #: Per-page ``(last_map_t, last_unmap_t)`` for fault forensics.
    history: Dict[int, Tuple[Optional[int], Optional[int]]] = \
        field(default_factory=dict)
    # Totals.
    stale_byte_cycles: int = 0
    stale_windows: int = 0
    stale_peak_window_cycles: int = 0
    stale_accesses: int = 0
    excess_byte_cycles: int = 0
    current_excess_bytes: int = 0
    peak_excess_bytes: int = 0
    peak_surface_bytes: int = 0
    dma_maps: int = 0
    dma_unmaps: int = 0

    @property
    def surface_bytes(self) -> int:
        """Device-accessible bytes right now: installed + stale pages."""
        return (len(self.pages) + len(self.stale)) * PAGE_SIZE

    def remember(self, page: int, *, map_t: Optional[int] = None,
                 unmap_t: Optional[int] = None) -> None:
        prev = self.history.pop(page, (None, None))
        self.history[page] = (map_t if map_t is not None else prev[0],
                              unmap_t if unmap_t is not None else prev[1])
        if len(self.history) > _HISTORY_LIMIT:
            self.history.pop(next(iter(self.history)))

    def summary(self) -> Dict[str, object]:
        return {
            "device": self.device_id,
            "scheme": self.scheme,
            "stale_byte_cycles": self.stale_byte_cycles,
            "stale_windows": self.stale_windows,
            "stale_peak_window_cycles": self.stale_peak_window_cycles,
            "stale_accesses": self.stale_accesses,
            "stale_open_pages": len(self.stale),
            "granularity_excess_byte_cycles": self.excess_byte_cycles,
            "peak_excess_bytes": self.peak_excess_bytes,
            "peak_surface_bytes": self.peak_surface_bytes,
            "surface_bytes": self.surface_bytes,
            "live_mappings": len(self.live),
            "dma_maps": self.dma_maps,
            "dma_unmaps": self.dma_unmaps,
        }


class ExposureAccountant:
    """Derives exposure metrics from IOMMU and DMA-API lifecycle events.

    One accountant hangs off each :class:`~repro.obs.context.Observability`
    (``obs.exposure``), whose events call the ``note_*`` methods; none
    of them charges simulated cycles.
    """

    def __init__(self, metrics=None, fault_capacity: int = 1024):
        #: Optional MetricsRegistry — exposure feeds it the
        #: ``exposure.*`` instruments documented in docs/observability.md.
        self.metrics = metrics
        self._domains: Dict[int, _DomainExposure] = {}
        self.faults: Deque[ExposureFault] = deque(maxlen=fault_capacity)
        self.faults_recorded = 0

    # ------------------------------------------------------------------
    def _domain(self, domain_id: int,
                device_id: Optional[int] = None) -> _DomainExposure:
        dom = self._domains.get(domain_id)
        if dom is None:
            dom = self._domains[domain_id] = _DomainExposure(domain_id)
        if device_id is not None:
            dom.device_id = device_id
        return dom

    def _sample_surface(self, t: int) -> None:
        if self.metrics is None:
            return
        total = sum(d.surface_bytes for d in self._domains.values())
        self.metrics.series("exposure.surface_bytes").sample(t, total)

    # ------------------------------------------------------------------
    # IOMMU-side lifecycle (page granular).
    # ------------------------------------------------------------------
    def note_map_range(self, t: int, domain_id: int, device_id: int,
                       iova: int, size: int, kind: str = KIND_OS,
                       page_cycles: int = 0) -> None:
        """A ``map_range`` installed PTEs for ``[iova, iova+size)``,
        finishing at ``t``.  Its pages were installed ``page_cycles``
        apart, the last at ``t``: page *i* of an *n*-page call is
        stamped ``t - (n-1-i)·page_cycles``, as one call per page would
        have been.  The surface is sampled once, at ``t``."""
        dom = self._domain(domain_id, device_id)
        self._install(dom, t, iova, size, kind, page_cycles)
        # Mapping never shrinks the surface, so its peak is at the end.
        dom.peak_surface_bytes = max(dom.peak_surface_bytes,
                                     dom.surface_bytes)
        self._sample_surface(t)

    def _install(self, dom: _DomainExposure, t: int, iova: int, size: int,
                 kind: str, page_cycles: int) -> None:
        """The pages of one ``map_range`` call, stamped as
        :meth:`note_map_range` says."""
        first = iova >> PAGE_SHIFT
        last = (iova + size - 1) >> PAGE_SHIFT
        pages = dom.pages
        stale = dom.stale
        for page in range(first, last + 1):
            stamp = t - (last - page) * page_cycles
            # An identity remap of a stale frame re-legitimises the
            # cached translation: the window closes here, not at the
            # (possibly much later) batch flush.
            sp = stale.pop(page, None)
            if sp is not None:
                self._finalize_stale(dom, sp, stamp)
            state = pages.get(page)
            if state is None:
                pages[page] = _PageState(kind=kind, refcount=1,
                                         installed_at=stamp)
            else:
                state.refcount += 1
                state.os_released_at = None
            dom.remember(page, map_t=stamp)

    def note_unmap_range(self, t: int, domain_id: int, iova: int,
                         size: int, cached_pages: Set[int],
                         page_cycles: int = 0) -> None:
        """An ``unmap_range`` cleared PTEs, finishing at ``t``;
        ``cached_pages`` are the pages whose translations the IOTLB
        still holds (they go stale rather than vanishing).  Pages are
        stamped ``page_cycles`` apart, as in :meth:`note_map_range`."""
        dom = self._domain(domain_id)
        first = iova >> PAGE_SHIFT
        last = (iova + size - 1) >> PAGE_SHIFT
        for page in range(first, last + 1):
            state = dom.pages.get(page)
            if state is None:
                continue
            state.refcount -= 1
            if state.refcount > 0:
                continue
            stamp = t - (last - page) * page_cycles
            del dom.pages[page]
            dom.remember(page, unmap_t=stamp)
            if page in cached_pages:
                dom.stale[page] = _StalePage(
                    kind=state.kind, unmapped_at=stamp,
                    released_at=state.os_released_at)
        self._sample_surface(t)

    def note_invalidate_pages(self, t: int, domain_id: int,
                              iova_page: int, npages: int) -> None:
        """A page-range invalidation *completed* at ``t``."""
        dom = self._domains.get(domain_id)
        if dom is None:
            return
        for page in range(iova_page, iova_page + npages):
            sp = dom.stale.pop(page, None)
            if sp is not None:
                self._finalize_stale(dom, sp, t)
        self._sample_surface(t)

    def note_invalidate_domain(self, t: int, domain_id: int) -> None:
        """A domain-wide invalidation completed at ``t``."""
        dom = self._domains.get(domain_id)
        if dom is None:
            return
        for sp in dom.stale.values():
            self._finalize_stale(dom, sp, t)
        dom.stale.clear()
        self._sample_surface(t)

    def note_invalidate_all(self, t: int) -> None:
        """A global invalidation (deferred batch flush) completed at
        ``t`` — every stale entry in every domain dies."""
        for dom in self._domains.values():
            for sp in dom.stale.values():
                self._finalize_stale(dom, sp, t)
            dom.stale.clear()
        self._sample_surface(t)

    def _finalize_stale(self, dom: _DomainExposure, sp: _StalePage,
                        t: int) -> None:
        if sp.kind != KIND_OS or sp.released_at is None:
            return
        window = t - sp.released_at
        if window <= 0:
            return
        dom.stale_byte_cycles += window * PAGE_SIZE
        dom.stale_windows += 1
        dom.stale_peak_window_cycles = max(dom.stale_peak_window_cycles,
                                           window)
        if self.metrics is not None:
            self.metrics.histogram(
                "exposure.stale_window_cycles").observe(window)

    # ------------------------------------------------------------------
    # Device-side accesses and faults.
    # ------------------------------------------------------------------
    def note_access(self, domain_id: int, iova: int) -> None:
        """A successful device translation — flag it if it rode a stale
        IOTLB entry (the deferred window being *used*)."""
        dom = self._domains.get(domain_id)
        if dom is None:
            return
        if (iova >> PAGE_SHIFT) in dom.stale:
            dom.stale_accesses += 1
            if self.metrics is not None:
                self.metrics.counter("exposure.stale_accesses").inc()

    def note_fault(self, t: int, domain_id: int, device_id: int,
                   iova: int, is_write: bool, reason: str,
                   open_spans: Tuple[Tuple[int, Tuple[str, ...]], ...] = (),
                   open_requests: Tuple[Tuple[int, int], ...] = ()
                   ) -> None:
        """A blocked DMA: record it with lifecycle forensics and the
        span paths and request ids open per core at fault time."""
        page = iova >> PAGE_SHIFT
        state = "never-mapped"
        last_map_t = last_unmap_t = None
        dom = self._domains.get(domain_id)
        if dom is not None:
            hist = dom.history.get(page)
            if hist is not None:
                last_map_t, last_unmap_t = hist
            if page in dom.pages:
                state = "mapped"
            elif page in dom.stale:
                state = "stale"
            elif hist is not None:
                state = "revoked"
        self.faults.append(ExposureFault(
            t=t, domain_id=domain_id, device_id=device_id, iova=iova,
            is_write=is_write, reason=reason, page_state=state,
            last_map_t=last_map_t, last_unmap_t=last_unmap_t,
            open_spans=open_spans, open_requests=open_requests))
        self.faults_recorded += 1

    @property
    def faults_dropped(self) -> int:
        return self.faults_recorded - len(self.faults)

    # ------------------------------------------------------------------
    # DMA-API-side lifecycle (byte granular — this is where the
    # OS-requested size is still known).
    # ------------------------------------------------------------------
    def note_dma_map(self, t: int, scheme: str,
                     domain_id: Optional[int], iova: int,
                     size: int) -> None:
        """A ``dma_map`` returned: compute the granularity excess of
        the mapping it produced (device-accessible OS bytes beyond the
        requested ``[iova, iova+size)``)."""
        if domain_id is None:
            return
        dom = self._domain(domain_id)
        dom.scheme = scheme
        excess = self._go_live(dom, t, iova, size)
        if self.metrics is not None:
            self.metrics.histogram(
                "exposure.map_excess_bytes").observe(excess)

    def _go_live(self, dom: _DomainExposure, t: int, iova: int,
                 size: int) -> int:
        """Record the live mapping one ``dma_map`` returned at ``t`` and
        return its granularity excess."""
        dom.dma_maps += 1
        first = iova >> PAGE_SHIFT
        last = (iova + size - 1) >> PAGE_SHIFT
        excess = 0
        for page in range(first, last + 1):
            state = dom.pages.get(page)
            if state is None or state.kind != KIND_OS:
                continue
            page_lo = page << PAGE_SHIFT
            overlap = (min(iova + size, page_lo + PAGE_SIZE)
                       - max(iova, page_lo))
            excess += PAGE_SIZE - overlap
        dom.live[iova] = _LiveMap(mapped_at=t, size=size,
                                  excess_bytes=excess)
        dom.current_excess_bytes += excess
        dom.peak_excess_bytes = max(dom.peak_excess_bytes,
                                    dom.current_excess_bytes)
        return excess

    def note_ring_mapped(self, scheme: str, domain_id: int, device_id: int,
                         kind: str, size: int, page_cycles: int,
                         maps: Sequence[tuple]) -> None:
        """Buffers of ``size`` bytes mapped by one pass of ring setup,
        with no note made along the way.  ``maps`` lists each buffer in
        map order as ``(iova, t, ranges)``: its ``dma_map`` returned
        ``iova`` at ``t`` after the ``map_range`` calls ``ranges``, each
        ``(iova, size, t)`` of ``kind`` memory with pages
        ``page_cycles`` apart.  Every total, sample and bucket comes out
        as the :meth:`note_map_range` and :meth:`note_dma_map` calls of
        the per-buffer loop, in the same order, would leave them."""
        dom = self._domain(domain_id, device_id)
        dom.scheme = scheme
        series = hist = None
        others = 0
        if self.metrics is not None:
            series = self.metrics.series("exposure.surface_bytes")
            hist = self.metrics.histogram("exposure.map_excess_bytes")
            # Only this domain's surface moves until the pass ends.
            others = sum(d.surface_bytes for d in self._domains.values()
                         if d is not dom)
        for iova, t, ranges in maps:
            for range_iova, range_size, range_t in ranges:
                self._install(dom, range_t, range_iova, range_size, kind,
                              page_cycles)
                if series is not None:
                    series.sample(range_t, others + dom.surface_bytes)
            excess = self._go_live(dom, t, iova, size)
            if hist is not None:
                hist.observe(excess)
        # Mapping never shrinks the surface, so its peak is at the end.
        dom.peak_surface_bytes = max(dom.peak_surface_bytes,
                                     dom.surface_bytes)

    def note_dma_unmap(self, t: int, scheme: str,
                       domain_id: Optional[int], iova: int,
                       size: int) -> None:
        """A ``dma_unmap`` returned: the driver owns the buffer again.

        Integrates the mapping's granularity excess over its lifetime
        and stamps ``released_at`` on the pages it covered — the stale
        window, if any, starts *now*.
        """
        if domain_id is None:
            return
        dom = self._domain(domain_id)
        dom.dma_unmaps += 1
        lm = dom.live.pop(iova, None)
        if lm is not None:
            dom.excess_byte_cycles += lm.excess_bytes * (t - lm.mapped_at)
            dom.current_excess_bytes -= lm.excess_bytes
        first = iova >> PAGE_SHIFT
        last = (iova + size - 1) >> PAGE_SHIFT
        for page in range(first, last + 1):
            sp = dom.stale.get(page)
            if sp is not None:
                if sp.released_at is None:
                    sp.released_at = t
                continue
            state = dom.pages.get(page)
            if state is not None and state.kind == KIND_OS \
                    and state.os_released_at is None:
                state.os_released_at = t

    # ------------------------------------------------------------------
    # Results.
    # ------------------------------------------------------------------
    def domain_summary(self, domain_id: int) -> Optional[Dict[str, object]]:
        dom = self._domains.get(domain_id)
        return dom.summary() if dom is not None else None

    def summary(self) -> Dict[str, object]:
        """JSON-friendly aggregate + per-domain exposure totals."""
        agg = {
            "stale_byte_cycles": 0, "stale_windows": 0,
            "stale_peak_window_cycles": 0, "stale_accesses": 0,
            "stale_open_pages": 0,
            "granularity_excess_byte_cycles": 0,
            "peak_excess_bytes": 0, "peak_surface_bytes": 0,
            "live_mappings": 0,
        }
        domains: Dict[str, Dict[str, object]] = {}
        for domain_id, dom in sorted(self._domains.items()):
            row = dom.summary()
            domains[str(domain_id)] = row
            agg["stale_byte_cycles"] += dom.stale_byte_cycles
            agg["stale_windows"] += dom.stale_windows
            agg["stale_peak_window_cycles"] = max(
                agg["stale_peak_window_cycles"],
                dom.stale_peak_window_cycles)
            agg["stale_accesses"] += dom.stale_accesses
            agg["stale_open_pages"] += len(dom.stale)
            agg["granularity_excess_byte_cycles"] += dom.excess_byte_cycles
            agg["peak_excess_bytes"] += dom.peak_excess_bytes
            agg["peak_surface_bytes"] += dom.peak_surface_bytes
            agg["live_mappings"] += len(dom.live)
        agg["faults"] = self.faults_recorded
        agg["faults_dropped"] = self.faults_dropped
        agg["domains"] = domains
        return agg

    def clear(self) -> None:
        self._domains.clear()
        self.faults.clear()
        self.faults_recorded = 0
