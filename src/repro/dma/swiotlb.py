"""SWIOTLB — Linux's software bounce-buffer mode (paper §7, [2]).

Related work the paper distinguishes itself from: SWIOTLB also *copies*
DMA data through dedicated bounce buffers, but it exists to let devices
with limited addressing reach high memory — it makes **no use of the
IOMMU** and therefore provides **no protection whatsoever**: the device
can still DMA anywhere.  Implemented here so the comparison is
executable: the audit shows SWIOTLB failing every security column while
paying copy costs comparable to DMA shadowing's.

The bounce pool is a single contiguous low-memory region carved into
slots (Linux uses 2 KB "IO TLB" slabs); allocation is a simple
lock-protected bitmap-style free list — adequate for the comparison, and
true to the original's global-lock behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.dma.api import DmaApi, DmaDirection, DmaHandle
from repro.dma.direct import NoIommuDmaApi
from repro.errors import PoolExhaustedError
from repro.faults.plan import SITE_POOL_GROW
from repro.hw.cpu import CAT_OTHER, Core
from repro.hw.locks import SpinLock
from repro.hw.machine import Machine
from repro.kalloc.slab import KBuffer, KernelAllocators
from repro.sim.units import page_order

#: Linux's default IO TLB slot granularity.
SWIOTLB_SLOT_BYTES = 2048


@dataclass
class _Bounce:
    slot_start: int
    nslots: int
    bounce_pa: int


class SwiotlbDmaApi(NoIommuDmaApi):
    """Bounce-buffer DMA API: copies like ``copy``, protects like nothing
    (one global pool lock, so it does not scale either)."""

    name = "swiotlb"

    # Every bounce slot is taken under the pool lock, so ring setup keeps
    # the per-buffer loop.
    dma_map_fresh = DmaApi.dma_map_fresh

    def __init__(self, machine: Machine, allocators: KernelAllocators,
                 pool_slots: int = 32 * 1024, node: int = 0):
        super().__init__(machine, allocators)
        self.pool_base = allocators.buddies[node].alloc_pages(
            page_order(pool_slots * SWIOTLB_SLOT_BYTES))
        self.pool_slots = pool_slots
        self._free_runs: List[tuple[int, int]] = [(0, pool_slots)]
        self._lock = SpinLock("swiotlb", machine.cost, obs=machine.obs)
        #: Slot allocations refused, injected (the ``pool.grow`` fault
        #: site) or for want of free slots.
        self.bounce_slot_failures = 0

    # ------------------------------------------------------------------
    def _alloc_slots(self, core: Core, nslots: int) -> int:
        faults = self.machine.faults
        if faults.enabled and faults.fires(SITE_POOL_GROW, core):
            self.bounce_slot_failures += 1
            raise PoolExhaustedError(
                "injected SWIOTLB pool exhaustion (fault plan)")
        self._lock.acquire(core)
        core.charge(180, CAT_OTHER)  # bitmap scan
        # LIFO exact-fit first (recently freed slots are cache warm),
        # then first-fit.
        for i in range(len(self._free_runs) - 1, -1, -1):
            if self._free_runs[i][1] == nslots:
                start = self._free_runs.pop(i)[0]
                self._lock.release(core)
                return start
        for i, (start, length) in enumerate(self._free_runs):
            if length >= nslots:
                if length == nslots:
                    del self._free_runs[i]
                else:
                    self._free_runs[i] = (start + nslots, length - nslots)
                self._lock.release(core)
                return start
        self._lock.release(core)
        self.bounce_slot_failures += 1
        raise PoolExhaustedError("SWIOTLB pool exhausted")

    def _free_slots(self, core: Core, start: int, nslots: int) -> None:
        self._lock.acquire(core)
        core.charge(120, CAT_OTHER)
        self._free_runs.append((start, nslots))
        # Keep the run list tidy: merge adjacent runs occasionally.
        if len(self._free_runs) > 64:
            self._free_runs.sort()
            merged = [self._free_runs[0]]
            for s, l in self._free_runs[1:]:
                ps, pl = merged[-1]
                if ps + pl == s:
                    merged[-1] = (ps, pl + l)
                else:
                    merged.append((s, l))
            self._free_runs = merged
        self._lock.release(core)

    # ------------------------------------------------------------------
    def _map(self, core: Core, buf: KBuffer,
             direction: DmaDirection) -> tuple[DmaHandle, _Bounce]:
        nslots = max(1, -(-buf.size // SWIOTLB_SLOT_BYTES))
        slot = self._alloc_slots(core, nslots)
        bounce_pa = self.pool_base + slot * SWIOTLB_SLOT_BYTES
        if direction.device_reads:
            self._charged_copy(core, bounce_pa, buf.pa, buf.size)
        handle = DmaHandle(bounce_pa, buf.size, direction)
        return handle, _Bounce(slot_start=slot, nslots=nslots,
                               bounce_pa=bounce_pa)

    def _unmap(self, core: Core, buf: KBuffer, handle: DmaHandle,
               cookie: _Bounce) -> None:
        if handle.direction.device_writes:
            self._charged_copy(core, buf.pa, cookie.bounce_pa, handle.size)
        self._free_slots(core, cookie.slot_start, cookie.nslots)
