"""Self-invalidating IOMMU mappings — Basu et al. (paper §7, [10]).

The hardware proposal the paper cites as related work: an IOMMU whose
mappings *self-destruct* after a threshold of time or DMAs, "obviating
the need to destroy the mapping in software".  The paper notes "this
hardware is not currently available" — but a simulator can build it, so
this module reproduces the proposal as an extension experiment:

* ``dma_map`` installs a mapping armed with a DMA budget;
* ``dma_unmap`` only starts the mapping's lifetime clock: no page-table
  write, no IOTLB invalidation, no lock — software-side cost close to
  zero;
* the (modeled) hardware revokes the mapping once the budget drains or
  the lifetime since the unmap runs out — the device-side translation
  path checks the armed limits.

Security caveat, faithfully reproduced: between the unmap and the
hardware's self-destruction the mapping remains live, so a window
remains (bounded by the threshold, like deferred protection but enforced
by hardware).  Protection stays page granular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from repro.dma.api import DmaDirection, DmaHandle, IommuDmaApi
from repro.errors import IommuFault, ReproError
from repro.hw.cpu import CAT_OTHER, Core
from repro.hw.machine import Machine
from repro.iommu.iommu import DmaPort, Iommu
from repro.iommu.page_table import Perm
from repro.iova.allocators import IdentityIovaAllocator
from repro.kalloc.slab import KBuffer, KernelAllocators
from repro.sim.units import PAGE_SHIFT, PAGE_SIZE, us_to_cycles


@dataclass
class _ArmedMapping:
    iova_base: int
    npages: int
    dma_budget: int
    #: Set by ``dma_unmap``: a mapping the driver still holds never
    #: expires, however long the device takes to use it.
    expires_at: float = math.inf


class _SelfInvalidatingPort:
    """Device port that enforces the armed DMA/time budgets in 'hardware'
    before translating through ``inner``."""

    def __init__(self, api: "SelfInvalidatingDmaApi", inner: DmaPort):
        self.api = api
        self.inner = inner

    def _check(self, iova: int, size: int, now: int) -> None:
        first = iova >> PAGE_SHIFT
        last = (iova + max(size, 1) - 1) >> PAGE_SHIFT
        for page in range(first, last + 1):
            armed = self.api._armed_by_page.get(page)
            if armed is None:
                continue  # coherent mapping or already revoked
            if armed.dma_budget <= 0 or now >= armed.expires_at:
                self.api._revoke(armed)
                raise IommuFault(self.api.domain.device_id,
                                 iova, is_write=False,
                                 reason="self-invalidated mapping")
            armed.dma_budget -= 1

    def dma_read(self, iova: int, size: int) -> bytes:
        self._check(iova, size, self.api.hardware_clock())
        return self.inner.dma_read(iova, size)

    def dma_write(self, iova: int, data: bytes) -> None:
        self._check(iova, len(data), self.api.hardware_clock())
        self.inner.dma_write(iova, data)


class SelfInvalidatingDmaApi(IommuDmaApi):
    """[10]-style IOMMU: mappings die on their own; unmap is ~free.

    Coherent mappings are *not* armed: they live until freed.
    """

    name = "self-invalidating"

    def __init__(self, machine: Machine, iommu: Iommu, device_id: int,
                 allocators: KernelAllocators,
                 dma_budget: int = 8,
                 lifetime_us: float = 100.0):
        iova_allocator = IdentityIovaAllocator(machine.cost)
        super().__init__(machine, iommu, device_id, allocators,
                         iova_allocator)
        self.iova_allocator = iova_allocator
        self.dma_budget = dma_budget
        self.lifetime_cycles = us_to_cycles(lifetime_us)
        self._port = _SelfInvalidatingPort(self, self._port)
        self._armed_by_page: Dict[int, _ArmedMapping] = {}
        self._page_rc: Dict[int, int] = {}
        self.self_invalidations = 0

    def hardware_clock(self) -> int:
        """The hardware's notion of 'now' — the latest core clock."""
        return self.machine.wall_clock()

    # ------------------------------------------------------------------
    def _map(self, core: Core, buf: KBuffer,
             direction: DmaDirection) -> tuple[DmaHandle, _ArmedMapping]:
        pa_base = (buf.pa >> PAGE_SHIFT) << PAGE_SHIFT
        offset = buf.pa - pa_base
        npages = ((offset + buf.size - 1) >> PAGE_SHIFT) + 1
        iova_base = self.iova_allocator.alloc(npages, core, pa_base)
        armed = _ArmedMapping(iova_base=iova_base, npages=npages,
                              dma_budget=self.dma_budget)
        built: list[tuple[int, _ArmedMapping | None, bool]] = []
        try:
            for i in range(npages):
                page = (iova_base >> PAGE_SHIFT) + i
                rc = self._page_rc.get(page, 0)
                mapped = False
                if rc == 0:
                    page_pa = ((pa_base >> PAGE_SHIFT) + i) << PAGE_SHIFT
                    self.iommu.map_range(self.domain, page << PAGE_SHIFT,
                                         page_pa, PAGE_SIZE, Perm.RW, core)
                    mapped = True
                self._page_rc[page] = rc + 1
                # Overlapping mappings on one page share the latest arming —
                # a real hazard of per-page hardware counters, kept visible.
                prev = self._armed_by_page.get(page)
                self._armed_by_page[page] = armed
                built.append((page, prev, mapped))
        except ReproError:
            # Unwind the partially armed pages: restore the previous
            # arming, drop the refcounts, and tear down any PTEs this
            # map installed (with strict invalidation).
            for page, prev, mapped in reversed(built):
                if prev is None:
                    self._armed_by_page.pop(page, None)
                else:
                    self._armed_by_page[page] = prev
                rc = self._page_rc.get(page, 1) - 1
                if rc <= 0:
                    self._page_rc.pop(page, None)
                else:
                    self._page_rc[page] = rc
                if mapped:
                    self.iommu.unmap_strict(self.domain, page << PAGE_SHIFT,
                                            PAGE_SIZE, core)
            raise
        # Arming the counters is one extra descriptor write.
        core.charge(60, CAT_OTHER)
        return DmaHandle(iova_base + offset, buf.size, direction), armed

    def _unmap(self, core: Core, buf: KBuffer, handle: DmaHandle,
               cookie: _ArmedMapping) -> None:
        # The whole point: software does (almost) nothing.  The hardware
        # will revoke the mapping when the budget/lifetime trips.
        cookie.expires_at = core.now + self.lifetime_cycles
        core.charge(30, CAT_OTHER)

    def _revoke(self, armed: _ArmedMapping) -> None:
        """Hardware-side revocation: drop the PTEs + IOTLB entries."""
        first = armed.iova_base >> PAGE_SHIFT
        unmapped = []
        for i in range(armed.npages):
            page = first + i
            if self._armed_by_page.get(page) is armed:
                del self._armed_by_page[page]
                self._page_rc.pop(page, None)
                if self.domain.page_table.lookup(page) is not None:
                    self.domain.page_table.unmap_page(page)
                    unmapped.append(page)
        self.iommu.iotlb.invalidate_pages(self.domain.domain_id, first,
                                          armed.npages)
        obs = self.machine.obs
        if obs.enabled:
            # Bypasses Iommu.unmap_range, so the range unmaps are
            # reported here; the hardware drops PTE and IOTLB entry in
            # one action.
            now = self.machine.wall_clock()
            for page in unmapped:
                obs.range_unmapped(now, self.domain.domain_id,
                                   page << PAGE_SHIFT, PAGE_SIZE, {page})
            obs.invalidated(now, self.domain.domain_id, first, armed.npages)
        self.self_invalidations += 1
        # Identity IOVAs need no recycling bookkeeping.

    def expire_all(self) -> int:
        """Force every armed mapping past its lifetime (test/audit hook —
        models the hardware clock advancing past the thresholds)."""
        revoked = 0
        for armed in list({id(a): a for a in
                           self._armed_by_page.values()}.values()):
            self._revoke(armed)
            revoked += 1
        return revoked
