"""Buddy page-frame allocator.

One instance manages the physical range of a single NUMA node, handing
out naturally-aligned power-of-two runs of 4 KB pages.  It is the backing
store for the slab allocator, the shadow buffer pool, DMA-coherent
allocations, and NIC rings — i.e. every byte the simulation touches comes
from here, so double frees and overlap bugs surface immediately.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.errors import KallocError
from repro.hw.cpu import ChargeBatch, Core
from repro.sim.costmodel import CostModel
from repro.sim.units import PAGE_SHIFT, PAGE_SIZE


class BuddyAllocator:
    """Binary-buddy allocator over ``[base_pa, base_pa + size_bytes)``.

    ``alloc_pages(order)`` returns the physical address of a block of
    ``2**order`` pages; ``free_pages`` coalesces buddies back up to
    ``max_order``.  All bookkeeping is by page-frame number relative to
    ``base_pa``.
    """

    def __init__(self, base_pa: int, size_bytes: int, cost: CostModel,
                 max_order: int = 10):
        if base_pa % PAGE_SIZE:
            raise KallocError(f"base {base_pa:#x} not page aligned")
        if size_bytes < PAGE_SIZE:
            raise KallocError("buddy region smaller than one page")
        self.base_pa = base_pa
        self.cost = cost
        self.max_order = max_order
        self.total_pages = size_bytes >> PAGE_SHIFT
        # Free blocks per order, stored as sets of relative pfns.
        self._free: List[Set[int]] = [set() for _ in range(max_order + 1)]
        # rel-pfn -> order for currently allocated blocks.
        self._allocated: Dict[int, int] = {}
        self.allocated_pages = 0
        self.peak_allocated_pages = 0
        self._seed_free_blocks()

    def _seed_free_blocks(self) -> None:
        pfn = 0
        remaining = self.total_pages
        while remaining:
            order = min(self.max_order, remaining.bit_length() - 1)
            # Respect natural alignment of the block.
            while order and (pfn & ((1 << order) - 1)):
                order -= 1
            self._free[order].add(pfn)
            pfn += 1 << order
            remaining -= 1 << order

    # ------------------------------------------------------------------
    def alloc_pages(self, order: int = 0, core: Core | None = None) -> int:
        """Allocate ``2**order`` contiguous pages; returns their base PA."""
        if not 0 <= order <= self.max_order:
            raise KallocError(f"order {order} out of range")
        if core is not None:
            core.charge(self.cost.page_alloc_cycles)
        free = self._free
        current = order
        while not free[current]:
            current += 1
            if current > self.max_order:
                raise KallocError(
                    f"out of pages: want order {order}, "
                    f"{self.allocated_pages}/{self.total_pages} allocated"
                )
        block = free[current]
        pfn = min(block)
        block.remove(pfn)
        # Split down to the requested order, releasing the upper halves.
        while current > order:
            current -= 1
            free[current].add(pfn + (1 << current))
        self._allocated[pfn] = order
        allocated = self.allocated_pages + (1 << order)
        self.allocated_pages = allocated
        if allocated > self.peak_allocated_pages:
            self.peak_allocated_pages = allocated
        return self.base_pa + (pfn << PAGE_SHIFT)

    def alloc_pages_held(self, order: int, charges: ChargeBatch) -> int:
        """:meth:`alloc_pages` with its charge held in ``charges``.

        A refused allocation changes nothing, so the held charges are
        applied and the charged allocation refuses again, raising where
        ``alloc_pages(order, core)`` raises.
        """
        try:
            pa = self.alloc_pages(order)
        except KallocError:
            charges.apply()
            self.alloc_pages(order, charges.core)
            raise
        charges.add(self.cost.page_alloc_cycles)
        return pa

    def free_pages(self, pa: int, core: Core | None = None) -> None:
        """Free a block previously returned by :meth:`alloc_pages`."""
        if core is not None:
            core.charge(self.cost.page_free_cycles)
        pfn = self._rel_pfn(pa)
        order = self._allocated.pop(pfn, None)
        if order is None:
            raise KallocError(f"free of unallocated block at {pa:#x}")
        self.allocated_pages -= 1 << order
        # Coalesce with free buddies.
        while order < self.max_order:
            buddy = pfn ^ (1 << order)
            if buddy not in self._free[order]:
                break
            self._free[order].discard(buddy)
            pfn = min(pfn, buddy)
            order += 1
        self._free[order].add(pfn)

    # ------------------------------------------------------------------
    def owns(self, pa: int) -> bool:
        """Whether ``pa`` lies inside this allocator's region."""
        rel = pa - self.base_pa
        return 0 <= rel < (self.total_pages << PAGE_SHIFT)

    def block_order(self, pa: int) -> int | None:
        """Order of the allocated block starting at ``pa`` (None if free)."""
        if not self.owns(pa) or pa % PAGE_SIZE:
            return None
        return self._allocated.get(self._rel_pfn(pa))

    @property
    def free_pages_count(self) -> int:
        return self.total_pages - self.allocated_pages

    def _rel_pfn(self, pa: int) -> int:
        if pa % PAGE_SIZE:
            raise KallocError(f"address {pa:#x} not page aligned")
        if not self.owns(pa):
            raise KallocError(f"address {pa:#x} outside buddy region")
        return (pa - self.base_pa) >> PAGE_SHIFT
