"""Differential test of zero-copy mapping by page run.

``ZeroCopyDmaApi`` installs each run of consecutive pages that need no
per-page work with one ``Iommu.map_range`` and clears each run of
released pages with one ``Iommu.unmap_range``.  The reference kept here
(:func:`per_page`) overrides ``_map`` and ``_unmap_pages`` with one call
per page.  Both run the same random sequence of maps (overlapping
sub-page and multi-page buffers, mixed directions), unmaps, device
accesses, deferred flushes and idle time on identical captured machines
with faults off, and after every step must agree on the page table, the
page references, the IOTLB (entries in LRU order and its statistics),
every core's clock, busy time and breakdown, the invalidation counters,
the deferred queues, the trace, the metrics, and the exposure summary
and fault records.

The one series left out is ``exposure.surface_bytes``: it is sampled
once per range call, so a run samples it once where the reference
samples it per page.
"""

from __future__ import annotations

import functools

from hypothesis import example, given, settings, strategies as st

from repro.dma.api import DmaDirection, DmaHandle
from repro.dma.registry import create_dma_api
from repro.dma.zerocopy import _MapCookie, _PageRef
from repro.errors import IommuFault, ReproError
from repro.hw.cpu import CAT_OTHER
from repro.hw.machine import Machine
from repro.iommu.iommu import Iommu
from repro.kalloc.slab import KBuffer, KernelAllocators
from repro.obs.context import Observability
from repro.sim.units import PAGE_SHIFT, PAGE_SIZE

SCHEMES = ("identity-strict", "identity-deferred", "identity-deferred-bounded",
           "identity-strict-percore", "identity-strict-prefetch")
#: Pages of the physical window the buffers and accesses fall in.
REGION_PAGES = 8
REGION_BYTES = REGION_PAGES * PAGE_SIZE


@functools.cache
def per_page(cls):
    """``cls`` with the zero-copy map and unmap of one IOMMU call per
    page: the reference the run mapping must agree with."""

    class PerPage(cls):
        def _map(self, core, buf, direction):
            perm = direction.perm
            pa_base = (buf.pa >> PAGE_SHIFT) << PAGE_SHIFT
            offset = buf.pa - pa_base
            npages = ((offset + buf.size - 1) >> PAGE_SHIFT) + 1
            iova_base = self.iova_allocator.alloc(npages, core, pa_base)
            first = iova_base >> PAGE_SHIFT
            mapped = 0
            try:
                for i in range(npages):
                    self._map_one_page(core, first + i,
                                       (pa_base >> PAGE_SHIFT) + i, perm)
                    mapped += 1
            except ReproError:
                cleared = self._unmap_pages(core, first, mapped)
                if cleared:
                    self._invalidate_cleared(core, cleared)
                self.iova_allocator.free(iova_base, npages, core)
                raise
            return (DmaHandle(iova=iova_base + offset, size=buf.size,
                              direction=direction),
                    _MapCookie(iova_base=iova_base, npages=npages,
                               pa_base=pa_base))

        def _map_one_page(self, core, iova_page, pfn, perm):
            domain_id = self.domain.domain_id
            queue = self.iommu.invalidation_queue
            ref = self._page_refs.get(iova_page)
            if ref is None:
                stale = self.iommu.iotlb.peek(domain_id, iova_page)
                if stale is not None and not (stale.pfn == pfn
                                              and stale.perm.covers(perm)):
                    queue.invalidate_sync(core, domain_id, iova_page, 1)
                self.iommu.map_range(self.domain, iova_page << PAGE_SHIFT,
                                     pfn << PAGE_SHIFT, PAGE_SIZE, perm, core)
                self._page_refs[iova_page] = _PageRef(refcount=1, perm=perm)
                if self.prefetch:
                    self._prefetch_page(core, iova_page, pfn, perm)
                return
            ref.refcount += 1
            if not ref.perm.covers(perm):
                widened = ref.perm | perm
                self.domain.page_table.unmap_page(iova_page)
                self.domain.page_table.map_page(iova_page, pfn, widened)
                core.charge(self.cost.pt_map_cycles, CAT_OTHER)
                queue.invalidate_sync(core, domain_id, iova_page, 1)
                ref.perm = widened
                if self.prefetch:
                    self._prefetch_page(core, iova_page, pfn, widened)

        def _unmap_pages(self, core, first, npages):
            cleared = []
            for page in range(first, first + npages):
                ref = self._page_refs[page]
                ref.refcount -= 1
                if ref.refcount == 0:
                    del self._page_refs[page]
                    self.iommu.unmap_range(self.domain, page << PAGE_SHIFT,
                                           PAGE_SIZE, core)
                    cleared.append(page)
            return cleared

    PerPage.__name__ = "PerPage" + cls.__name__
    return PerPage


class Side:
    """One captured machine running one scheme."""

    def __init__(self, scheme, capacity, reference):
        self.obs = Observability.capture()
        self.machine = Machine.build(cores=2, numa_nodes=1, obs=self.obs)
        allocators = KernelAllocators(self.machine)
        self.iommu = Iommu(self.machine, iotlb_capacity=capacity)
        self.api = create_dma_api(scheme, self.machine, self.iommu,
                                  device_id=7, allocators=allocators)
        if reference:
            self.api.__class__ = per_page(type(self.api))
        self.base = allocators.buddies[0].alloc_pages(3, self.machine.core(0))
        self.live = {}      # pa -> handle

    def step(self, op):
        """Apply one operation; returns what the caller would observe."""
        kind, cid = op[0], op[1]
        core = self.machine.core(cid)
        if kind == "map":
            start, size, direction = op[2:]
            pa = self.base + start
            if pa in self.live:
                return "skip"
            buf = KBuffer(pa=pa, size=min(size, REGION_BYTES - start),
                          node=0)
            self.live[pa] = self.api.dma_map(core, buf, direction)
            return self.live[pa].iova
        if kind == "unmap":
            if not self.live:
                return "skip"
            pa = sorted(self.live)[op[2] % len(self.live)]
            self.api.dma_unmap(core, self.live.pop(pa))
            return pa
        if kind == "access":
            start, size, is_write = op[2:]
            iova = self.base + start
            port = self.api.port()
            try:
                if is_write:
                    port.dma_write(iova, bytes([start & 0xFF]) * size)
                    return "written"
                return port.dma_read(iova, size)
            except IommuFault as fault:
                return (fault.iova, fault.is_write, fault.reason)
        if kind == "flush":
            # Flush from the core furthest ahead, as a quiesce does: a
            # core whose clock is behind another core's queued entries
            # would flush them before they were queued (a known defect,
            # pinned by test_zerocopy.py's lagging-core xfail).
            core = max(self.machine.cores, key=lambda c: c.now)
            self.api.flush_deferred(core)
            return "flushed"
        core.advance_to(core.now + op[2])
        return "idle"

    def view(self):
        api, iommu, obs = self.api, self.iommu, self.obs
        queue = iommu.invalidation_queue
        metrics = obs.metrics.snapshot()
        metrics["series"].pop("exposure.surface_bytes", None)
        return (
            sorted(api.domain.page_table.entries()),
            {page: (ref.refcount, ref.perm)
             for page, ref in api._page_refs.items()},
            list(iommu.iotlb._entries.items()),
            vars(iommu.iotlb.stats).copy(),
            [(c.now, c.busy_cycles, dict(c.breakdown))
             for c in self.machine.cores],
            (queue.sync_invalidations, queue.batch_flushes, queue.timeouts,
             queue.recovered_stalls, queue.queue_resets),
            (getattr(api, "_pending", None),
             getattr(api, "_pending_iova_frees", None),
             getattr(api, "window_samples", None)),
            [event.to_dict() for event in obs.tracer],
            metrics,
            obs.exposure.summary(),
            [fault.to_dict() for fault in obs.exposure.faults],
            self.machine.memory.read(self.base, REGION_BYTES),
        )


cores = st.integers(0, 1)
ops = st.lists(st.one_of(
    st.tuples(st.just("map"), cores, st.integers(0, REGION_BYTES - 1),
              st.sampled_from([1, 64, 512, PAGE_SIZE - 8, PAGE_SIZE,
                               PAGE_SIZE + 16, 2 * PAGE_SIZE,
                               3 * PAGE_SIZE]),
              st.sampled_from(list(DmaDirection))),
    st.tuples(st.just("unmap"), cores, st.integers(0, 15)),
    st.tuples(st.just("access"), cores, st.integers(0, REGION_BYTES - 1),
              st.integers(1, 2 * PAGE_SIZE), st.booleans()),
    st.tuples(st.just("flush"), cores),
    st.tuples(st.just("idle"), cores, st.sampled_from([1_000, 400_000,
                                                       40_000_000])),
), max_size=40)


@settings(max_examples=300, deadline=None)
@given(scheme=st.sampled_from(SCHEMES), capacity=st.sampled_from([2, 3, 64]),
       ops=ops)
# A deferred unmap leaves a read-only entry cached; a two-page write
# mapping over it must invalidate it before its run is installed.
@example(scheme="identity-deferred", capacity=64, ops=[
    ("map", 0, 0, 64, DmaDirection.TO_DEVICE), ("access", 0, 0, 8, False),
    ("unmap", 0, 0), ("map", 1, 0, 2 * PAGE_SIZE, DmaDirection.FROM_DEVICE),
    ("access", 1, 0, 2 * PAGE_SIZE, True)])
# A three-page mapping over a live read-only middle page shares and
# widens it between two one-page runs.
@example(scheme="identity-strict", capacity=64, ops=[
    ("map", 0, PAGE_SIZE + 8, 64, DmaDirection.TO_DEVICE),
    ("map", 1, 0, 3 * PAGE_SIZE, DmaDirection.FROM_DEVICE),
    ("access", 1, 0, 2 * PAGE_SIZE, True), ("unmap", 0, 1),
    ("access", 0, PAGE_SIZE, 16, True), ("unmap", 1, 0)])
def test_run_mapping_matches_per_page_reference(scheme, capacity, ops):
    runs, pages = Side(scheme, capacity, False), Side(scheme, capacity, True)
    assert runs.view() == pages.view()
    for op in ops:
        assert runs.step(op) == pages.step(op), op
        assert runs.view() == pages.view(), op
    for side in (runs, pages):
        while side.live:
            side.step(("unmap", 0, 0))
        side.step(("flush", 0))
    assert runs.view() == pages.view()
    assert not runs.api._page_refs
