"""Zero-copy IOMMU protection schemes: strict and deferred (§2.2.1).

These are the baselines the paper compares against.  Both map the OS
buffer's pages into the device's domain at ``dma_map`` and clear the
page-table entries at ``dma_unmap``; they differ in *when the IOTLB is
invalidated*:

* **Strict** (`identity+`, `linux-strict`, …): synchronously on every
  unmap, under the global invalidation-queue lock.  Secure at page
  granularity, but the invalidation cost (and its lock) is the paper's
  Figure 1/6/8 bottleneck.
* **Deferred** (`identity-`, `linux-deferred`, …): invalidations are
  batched — flushed only after ``deferred_batch_size`` (250) unmaps or a
  10 ms timeout — so a window remains in which the device can reach
  unmapped buffers through stale IOTLB entries.

Both operate at page granularity, so data co-located with a DMA buffer on
the same page is exposed for the mapping's lifetime (§4).  Page mappings
are reference-counted, since sub-page buffers (or identity mappings of
neighbouring buffers) can legitimately overlap on a page.  Like Linux's
intel-iommu, a buffer's PTEs are installed and cleared by run: one
``map_range``/``unmap_range`` per run of consecutive pages, still
charged page-granular cost per page.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.dma.api import DmaDirection, DmaHandle, IommuDmaApi
from repro.errors import DmaApiError, ReproError
from repro.hw.cpu import CAT_OTHER, CAT_PT_MGMT, ChargeBatch, Core
from repro.hw.locks import NullLock, SpinLock
from repro.hw.machine import Machine
from repro.iommu.invalidation import PendingInvalidation
from repro.iommu.iommu import Iommu
from repro.iommu.page_table import Perm, PteEntry
from repro.iova.allocators import IdentityIovaAllocator
from repro.iova.base import IovaAllocator
from repro.kalloc.buddy import BuddyAllocator
from repro.kalloc.slab import KBuffer, KernelAllocators
from repro.sim.units import PAGE_SHIFT, PAGE_SIZE, page_order


@dataclass(slots=True)
class _PageRef:
    refcount: int
    perm: Perm


@dataclass(slots=True)
class _MapCookie:
    """Unmap-time context recorded at map time."""

    iova_base: int     # page-aligned base of the IOVA range
    npages: int
    pa_base: int       # page-aligned base of the physical range


class ZeroCopyDmaApi(IommuDmaApi):
    """Shared machinery for the strict and deferred zero-copy schemes."""

    def __init__(self, machine: Machine, iommu: Iommu, device_id: int,
                 allocators: KernelAllocators, iova_allocator: IovaAllocator):
        super().__init__(machine, iommu, device_id, allocators,
                         iova_allocator)
        self.iova_allocator = iova_allocator
        # iova_page -> refcount/perm for live page mappings.
        self._page_refs: Dict[int, _PageRef] = {}
        # Scalable-invalidation knobs (set by subclasses; see the
        # identity-strict-percore/-prefetch registry entries).
        #: Use ranged descriptors (coalesced runs) on the strict path.
        self.ranged = False
        #: Post IOTLB prefetch hints for each page at map time.
        self.prefetch = False

    # ------------------------------------------------------------------
    def _map(self, core: Core, buf: KBuffer,
             direction: DmaDirection) -> tuple[DmaHandle, _MapCookie]:
        """Map the buffer's pages, each maximal run of fresh pages with
        one ``map_range``.

        A page that needs work of its own — a live reference (shared or
        widened) or a cached IOTLB entry with another frame or narrower
        rights — ends the run and goes through :meth:`_map_one_page` at
        the point a page-by-page loop reaches it; the range cost is
        linear and nothing in a run reads the clock, so every charge,
        lock and invalidation lands on the same cycle.  A one-page
        buffer goes straight to :meth:`_map_one_page`, and so does every
        page under ``prefetch``: a hint insert can evict a later page's
        cached entry before that page is checked.
        """
        perm = direction.perm
        pa_base = (buf.pa >> PAGE_SHIFT) << PAGE_SHIFT
        offset = buf.pa - pa_base
        npages = ((offset + buf.size - 1) >> PAGE_SHIFT) + 1
        iova_base = self.iova_allocator.alloc(npages, core, pa_base)
        first = iova_base >> PAGE_SHIFT
        run = first     # pages [first, run) hold a reference
        try:
            if npages == 1:
                self._map_one_page(core, first, pa_base >> PAGE_SHIFT, perm)
            else:
                refs = self._page_refs
                peek = self.iommu.iotlb.peek
                domain_id = self.domain_id
                batch = not self.prefetch
                delta = (pa_base >> PAGE_SHIFT) - first  # page -> frame
                end = first + npages
                # Pages [run, page) are fresh, awaiting one map_range.
                for page in range(first, end):
                    if batch and page not in refs:
                        cached = peek(domain_id, page)
                        if cached is None or (cached.pfn == page + delta
                                              and cached.perm.covers(perm)):
                            continue
                    self._install(core, run, page, delta, perm)
                    run = page
                    self._map_one_page(core, page, page + delta, perm)
                    run = page + 1
                self._install(core, run, end, delta, perm)
        except ReproError:
            # Page-table failure mid-map: release the pages already
            # referenced (with a strict invalidation — over-invalidating
            # is safe for both policies) and give the IOVA range back.
            cleared = self._unmap_pages(core, first, run - first)
            if cleared:
                self._invalidate_cleared(core, cleared)
            self.iova_allocator.free(iova_base, npages, core)
            raise
        handle = DmaHandle(iova_base + offset, buf.size, direction)
        cookie = _MapCookie(iova_base=iova_base, npages=npages,
                            pa_base=pa_base)
        return handle, cookie

    # ------------------------------------------------------------------
    # Ring setup in one pass (identity IOVAs only: the other allocators
    # take a lock per range).
    # ------------------------------------------------------------------
    def dma_map_fresh(self, core: Core, buddy: BuddyAllocator, size: int,
                      count: int, direction: DmaDirection, post_cycles: int,
                      mapped: List[Tuple[KBuffer, DmaHandle]]) -> None:
        """One pass over identity mappings of fresh pages.

        A buffer whose pages carry no reference and no cached
        translation maps as :meth:`_map` maps it — one ``map_range``
        over its pages (page by page, with a hint each, under
        ``prefetch``) — and nothing on the way reads a clock, so the
        pass holds every charge (page allocation, identity IOVA,
        page-table update, the caller's ``post_cycles``) and applies
        one sum per category.  Any other buffer goes through
        :meth:`_map_fresh_one`.
        """
        if not (self._unobserved and isinstance(self.iova_allocator,
                                                IdentityIovaAllocator)):
            return super().dma_map_fresh(core, buddy, size, count,
                                         direction, post_cycles, mapped)
        cost = self.cost
        perm = direction.perm
        order = page_order(size)
        npages = ((size - 1) >> PAGE_SHIFT) + 1
        node = core.numa_node
        refs = self._page_refs
        iotlb = self.iommu.iotlb
        domain_id = self.domain_id
        table = self.domain.page_table
        if self.prefetch:
            table_cycles = npages * (cost.pt_map_range_cycles(1)
                                     + cost.iotlb_prefetch_cycles)
        else:
            table_cycles = cost.pt_map_range_cycles(npages)
        # Only a hint insert adds IOTLB entries here, so without prefetch
        # an empty IOTLB stays empty for the whole pass.
        check_iotlb = self.prefetch or len(iotlb) > 0
        charges = ChargeBatch(core, per_item=(
            (cost.iova_identity_cycles + post_cycles, CAT_OTHER),
            (table_cycles, CAT_PT_MGMT)))
        done = 0
        try:
            for _ in range(count):
                pa = buddy.alloc_pages_held(order, charges)
                buf = KBuffer(pa, size, node)
                first = pa >> PAGE_SHIFT
                pages = range(first, first + npages)
                if not refs.keys().isdisjoint(pages) or (check_iotlb and any(
                        iotlb.contains(domain_id, page) for page in pages)):
                    charges.apply()
                    mapped.append(self._map_fresh_one(
                        core, buddy, buf, direction, post_cycles))
                    continue
                # Identity IOVA: IOVA page = frame, so the PTEs go straight
                # into the table (nothing here is observed).
                table.map_range(first, first, npages, perm)
                charges.items += 1
                for page in pages:
                    refs[page] = _PageRef(refcount=1, perm=perm)
                    if self.prefetch:
                        iotlb.prefetch(domain_id, page, PteEntry(page, perm))
                handle = DmaHandle(pa, size, direction)
                self._live_fresh(buf, handle, _MapCookie(
                    iova_base=pa, npages=npages, pa_base=pa))
                mapped.append((buf, handle))
                done += 1
        finally:
            charges.apply()
            self.stats.note_maps(done, size)

    def _install(self, core: Core, start: int, stop: int, delta: int,
                 perm: Perm) -> None:
        """Map the fresh IOVA pages ``[start, stop)`` onto frames
        ``delta`` further on with one ``map_range``, and take their first
        references (no-op for an empty run)."""
        if stop <= start:
            return
        self.iommu.map_range(self.domain, start << PAGE_SHIFT,
                             (start + delta) << PAGE_SHIFT,
                             (stop - start) << PAGE_SHIFT, perm, core)
        refs = self._page_refs
        for page in range(start, stop):
            refs[page] = _PageRef(refcount=1, perm=perm)

    def _invalidate_cleared(self, core: Core, cleared: List[int]) -> None:
        """Strictly invalidate the cleared pages of one unmap.

        ``cleared`` can have holes when refcounted sharing keeps some of
        the range's pages mapped; the ranged path names exactly the
        cleared pages, while the classic path posts one descriptor over
        the covering range ``cleared[0]..cleared[-1]``
        (over-invalidation — safe, and what a single-descriptor
        submission can express).
        """
        if self.ranged:
            self.iommu.invalidation_queue.invalidate_ranges_sync(
                core, self.domain.domain_id, cleared)
        else:
            self.iommu.invalidation_queue.invalidate_sync(
                core, self.domain.domain_id, cleared[0],
                cleared[-1] - cleared[0] + 1)

    def _prefetch_page(self, core: Core, iova_page: int, pfn: int,
                       perm: Perm) -> None:
        """Post an IOTLB prefetch hint for a just-installed mapping."""
        self.iommu.iotlb.prefetch(self.domain.domain_id, iova_page,
                                  PteEntry(pfn, perm))
        core.charge(self.cost.iotlb_prefetch_cycles, CAT_PT_MGMT)

    def _map_one_page(self, core: Core, iova_page: int, pfn: int,
                      perm: Perm) -> None:
        ref = self._page_refs.get(iova_page)
        if ref is None:
            stale = self.iommu.iotlb.peek(self.domain.domain_id, iova_page)
            if stale is not None and not (stale.pfn == pfn
                                          and stale.perm.covers(perm)):
                # Deferred unmap left a stale cached translation for this
                # IOVA page (possible under identity mapping, where IOVAs
                # are reused immediately).  A stale entry for the same
                # frame with covering rights translates correctly — that
                # is deferred mode's gamble — but an *incompatible* one
                # would misdirect or fault the new DMA, so it must be
                # invalidated before the fresh mapping is installed.
                self.iommu.invalidation_queue.invalidate_sync(
                    core, self.domain.domain_id, iova_page, 1)
            self.iommu.map_range(self.domain, iova_page << PAGE_SHIFT,
                                 pfn << PAGE_SHIFT, PAGE_SIZE, perm, core)
            self._page_refs[iova_page] = _PageRef(refcount=1, perm=perm)
            if self.prefetch:
                self._prefetch_page(core, iova_page, pfn, perm)
            return
        # Overlapping mapping (e.g. two sub-page buffers under identity
        # mapping).  Widen permissions if needed — which is itself part of
        # the page-granularity security problem.
        ref.refcount += 1
        if not ref.perm.covers(perm):
            widened = ref.perm | perm
            self.domain.page_table.unmap_page(iova_page)
            self.domain.page_table.map_page(iova_page, pfn, widened)
            core.charge(self.cost.pt_map_cycles, CAT_OTHER)
            # The stale (narrower) IOTLB entry must go so the device sees
            # the widened rights.
            self.iommu.invalidation_queue.invalidate_sync(
                core, self.domain.domain_id, iova_page, 1)
            ref.perm = widened
            if self.prefetch:
                self._prefetch_page(core, iova_page, pfn, widened)

    def _unmap_pages(self, core: Core, first: int,
                     npages: int) -> List[int]:
        """Drop one reference on each of ``npages`` pages from ``first``;
        returns the pages whose PTE was cleared.

        Each run of consecutive pages losing their last reference is
        cleared with one ``unmap_range``; a page still shared ends the
        run.
        """
        refs = self._page_refs
        cleared: List[int] = []
        start = first    # pages [start, page) are released, still mapped
        end = first + npages
        for page in range(first, end):
            ref = refs.get(page)
            if ref is not None and ref.refcount == 1:
                del refs[page]
                cleared.append(page)
                continue
            if page > start:
                self.iommu.unmap_range(self.domain, start << PAGE_SHIFT,
                                       (page - start) << PAGE_SHIFT, core)
            start = page + 1
            if ref is None:
                raise DmaApiError(f"unmap of untracked IOVA page {page:#x}")
            ref.refcount -= 1
        if end > start:
            self.iommu.unmap_range(self.domain, start << PAGE_SHIFT,
                                   (end - start) << PAGE_SHIFT, core)
        return cleared


class StrictZeroCopyDmaApi(ZeroCopyDmaApi):
    """Strict protection: invalidate the IOTLB on every unmap.

    ``ranged=True`` posts coalesced ranged descriptors instead of one
    covering range, and ``prefetch=True`` hint-inserts each mapped
    page's translation into the IOTLB at map time — the scalable
    variants (identity-strict-percore / -prefetch) set these, usually
    together with the IOMMU's per-core invalidation queues.
    """

    def __init__(self, machine: Machine, iommu: Iommu, device_id: int,
                 allocators: KernelAllocators, iova_allocator: IovaAllocator,
                 name: str = "strict", ranged: bool = False,
                 prefetch: bool = False):
        super().__init__(machine, iommu, device_id, allocators, iova_allocator)
        self.name = name
        self.ranged = ranged
        self.prefetch = prefetch

    def _unmap(self, core: Core, buf: KBuffer, handle: DmaHandle,
               cookie: _MapCookie) -> None:
        cleared = self._unmap_pages(core, cookie.iova_base >> PAGE_SHIFT,
                                    cookie.npages)
        if cleared:
            # One (possibly ranged) invalidation per unmap call.
            self._invalidate_cleared(core, cleared)
        self.iova_allocator.free(cookie.iova_base, cookie.npages, core)


class DeferredZeroCopyDmaApi(ZeroCopyDmaApi):
    """Deferred protection: batch invalidations (250 unmaps / 10 ms).

    ``per_core_batching=True`` models [42]'s scalable variant (identity−):
    each core keeps its own pending list.  ``False`` models stock Linux's
    single lock-protected global list (§2.2.1).
    """

    def __init__(self, machine: Machine, iommu: Iommu, device_id: int,
                 allocators: KernelAllocators, iova_allocator: IovaAllocator,
                 name: str = "deferred", per_core_batching: bool = True,
                 window_budget_cycles: int | None = None,
                 ranged_flush: bool = False):
        super().__init__(machine, iommu, device_id, allocators, iova_allocator)
        self.name = name
        self.per_core_batching = per_core_batching
        #: Oldest-pending-entry age that forces a flush.  Defaults to the
        #: classic 10 ms timeout; identity-deferred-bounded passes the
        #: cost model's 100 µs budget, capping the vulnerability window.
        self.window_budget_cycles = (
            window_budget_cycles if window_budget_cycles is not None
            else machine.cost.deferred_timeout_cycles)
        #: Flush with per-domain ranged descriptors instead of one
        #: global invalidation (see InvalidationQueue.flush_batch).
        self.ranged_flush = ranged_flush
        ncores = machine.num_cores
        self._pending: List[List[PendingInvalidation]] = (
            [[] for _ in range(ncores)] if per_core_batching else [[]]
        )
        self._pending_iova_frees: List[List[tuple[int, int]]] = (
            [[] for _ in range(ncores)] if per_core_batching else [[]]
        )
        self._list_lock: SpinLock | NullLock = (
            NullLock("flush-list") if per_core_batching
            else SpinLock("flush-list", machine.cost, obs=machine.obs)
        )
        #: Measured vulnerability-window durations (cycles between an
        #: unmap and the flush that finally revoked its IOTLB entries).
        #: The paper observes this window can reach 10 ms (§3); here it
        #: is measured per unmap.  Bounded sample buffer.
        self.window_samples: List[int] = []
        self._max_window_samples = 100_000

    def _slot(self, core: Core) -> int:
        return core.cid if self.per_core_batching else 0

    def _unmap(self, core: Core, buf: KBuffer, handle: DmaHandle,
               cookie: _MapCookie) -> None:
        cleared = self._unmap_pages(core, cookie.iova_base >> PAGE_SHIFT,
                                    cookie.npages)
        slot = self._slot(core)
        self._list_lock.acquire(core)
        core.charge(self.cost.deferred_bookkeeping_cycles, CAT_OTHER)
        pending = self._pending[slot]
        if cleared:
            # One entry over the covering range: shared pages inside it
            # are over-invalidated, which is safe.
            npages = cleared[-1] - cleared[0] + 1
            pending.append(PendingInvalidation(
                domain_id=self.domain.domain_id, iova_page=cleared[0],
                npages=npages, queued_at=core.now))
            if self.obs.enabled:
                self.obs.inv_deferred(core, self.name, npages, slot,
                                      len(pending))
        # IOVA deallocation is deferred too (§2.2.1): the range must not
        # be reused while stale IOTLB entries can still reach it.
        self._pending_iova_frees[slot].append((cookie.iova_base,
                                               cookie.npages))
        must_flush = (
            len(pending) >= self.cost.deferred_batch_size
            or (pending and core.now - pending[0].queued_at
                >= self.window_budget_cycles)
        )
        self._list_lock.release(core)
        if must_flush:
            self._flush_slot(core, slot)

    def _flush_slot(self, core: Core, slot: int) -> None:
        self._list_lock.acquire(core)
        pending = self._pending[slot]
        frees = self._pending_iova_frees[slot]
        self._pending[slot] = []
        self._pending_iova_frees[slot] = []
        self._list_lock.release(core)
        self.iommu.invalidation_queue.flush_batch(core, pending,
                                                  ranged=self.ranged_flush)
        # A flushing core whose clock lags the core that queued an entry
        # closes that window before it opened: it counts as empty, as in
        # ExposureAccountant._finalize_stale.
        now = core.now
        windows = [max(0, now - p.queued_at) for p in pending]
        if len(self.window_samples) < self._max_window_samples:
            self.window_samples.extend(windows)
        if self.obs.enabled and windows:
            self.obs.deferred_windows(windows)
        for iova, npages in frees:
            self.iova_allocator.free(iova, npages, core)

    def flush_deferred(self, core: Core) -> None:
        for slot in range(len(self._pending)):
            if self._pending[slot] or self._pending_iova_frees[slot]:
                self._flush_slot(core, slot)

    # ------------------------------------------------------------------
    # Introspection for the security audit.
    # ------------------------------------------------------------------
    @property
    def pending_invalidations(self) -> int:
        return sum(len(p) for p in self._pending)

    def window_open(self) -> bool:
        """Whether unmapped-but-reachable IOVAs currently exist."""
        return self.pending_invalidations > 0
