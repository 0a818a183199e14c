"""Slab (kmalloc-style) allocator.

Reproduces the property the paper's §4 leans on: ``kmalloc`` packs
multiple small allocations onto the *same 4 KB page* (Bonwick-style slab
caches), so a DMA buffer obtained from kmalloc can share its page with
unrelated — possibly sensitive — kernel data.  Page-granular IOMMU
mappings then expose that neighbouring data to the device; the shadow
pool's byte-granularity property is demonstrated against exactly this
allocator.

Requests larger than half a page fall through to the buddy allocator in
page quantities (as Linux's kmalloc does for large objects).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

from repro.errors import KallocError
from repro.hw.cpu import Core
from repro.kalloc.buddy import BuddyAllocator
from repro.sim.costmodel import CostModel
from repro.sim.units import PAGE_SHIFT, PAGE_SIZE, page_order

#: kmalloc size classes, like Linux's kmalloc-32 … kmalloc-2048 caches.
SLAB_SIZE_CLASSES = (32, 64, 128, 256, 512, 1024, 2048)


class KBuffer(NamedTuple):
    """A kernel allocation: physical address, usable size, owning node."""

    pa: int
    size: int
    node: int

    @property
    def end(self) -> int:
        return self.pa + self.size

    @property
    def first_page(self) -> int:
        return self.pa >> PAGE_SHIFT

    @property
    def last_page(self) -> int:
        return (self.pa + self.size - 1) >> PAGE_SHIFT

    def page_offset(self) -> int:
        """Byte offset of the buffer within its first page."""
        return self.pa & (PAGE_SIZE - 1)


class _SlabCache:
    """One size class: partial slabs are consumed object-by-object."""

    def __init__(self, object_size: int):
        self.object_size = object_size
        self.objects_per_slab = PAGE_SIZE // object_size
        self._free_objects: List[int] = []  # PAs of free objects

    def take(self) -> int | None:
        if self._free_objects:
            return self._free_objects.pop()
        return None

    def add_slab(self, page_pa: int) -> None:
        for i in range(self.objects_per_slab):
            self._free_objects.append(page_pa + i * self.object_size)

    def give_back(self, pa: int) -> None:
        self._free_objects.append(pa)

    @property
    def free_count(self) -> int:
        return len(self._free_objects)


class SlabAllocator:
    """kmalloc/kfree over one NUMA node's buddy allocator."""

    def __init__(self, node: int, buddy: BuddyAllocator, cost: CostModel):
        self.node = node
        self.buddy = buddy
        self.cost = cost
        self._caches: Dict[int, _SlabCache] = {
            size: _SlabCache(size) for size in SLAB_SIZE_CLASSES
        }
        # pa -> size class (for kfree of slab objects).
        self._objects: Dict[int, int] = {}
        # pa -> page order (for kfree of large allocations).
        self._large: Dict[int, int] = {}
        self.live_allocations = 0

    # ------------------------------------------------------------------
    def kmalloc(self, size: int, core: Core | None = None) -> KBuffer:
        """Allocate ``size`` bytes of kernel memory.

        Small sizes come from slab caches (co-located on shared pages);
        sizes above the largest class come from the buddy allocator in
        page quantities.
        """
        if size <= 0:
            raise KallocError(f"kmalloc of non-positive size {size}")
        if core is not None:
            core.charge(self.cost.kmalloc_cycles)
        cls = self._size_class(size)
        if cls is None:
            order = page_order(size)
            pa = self.buddy.alloc_pages(order)
            self._large[pa] = order
            self.live_allocations += 1
            return KBuffer(pa, size, self.node)
        cache = self._caches[cls]
        pa = cache.take()
        if pa is None:
            page_pa = self.buddy.alloc_pages(0)
            cache.add_slab(page_pa)
            pa = cache.take()
            assert pa is not None
        self._objects[pa] = cls
        self.live_allocations += 1
        return KBuffer(pa, size, self.node)

    def kfree(self, buf: KBuffer, core: Core | None = None) -> None:
        """Return an allocation to its cache (or the buddy allocator)."""
        if core is not None:
            core.charge(self.cost.kfree_cycles)
        cls = self._objects.pop(buf.pa, None)
        if cls is not None:
            self._caches[cls].give_back(buf.pa)
            self.live_allocations -= 1
            return
        order = self._large.pop(buf.pa, None)
        if order is not None:
            self.buddy.free_pages(buf.pa)
            self.live_allocations -= 1
            return
        raise KallocError(f"kfree of unknown allocation at {buf.pa:#x}")

    # ------------------------------------------------------------------
    def neighbours_on_page(self, buf: KBuffer) -> List[int]:
        """PAs of other *live* slab objects sharing a page with ``buf``.

        Used by the attack framework to find co-located victims.
        """
        pages = set(range(buf.first_page, buf.last_page + 1))
        result = []
        for pa in self._objects:
            if pa == buf.pa:
                continue
            if (pa >> PAGE_SHIFT) in pages:
                result.append(pa)
        return sorted(result)

    @staticmethod
    def _size_class(size: int) -> int | None:
        for cls in SLAB_SIZE_CLASSES:
            if size <= cls:
                return cls
        return None


class KernelAllocators:
    """Per-NUMA-node buddy + slab allocators for a whole machine."""

    def __init__(self, machine) -> None:
        from repro.hw.machine import Machine  # local import to avoid cycle

        assert isinstance(machine, Machine)
        self.machine = machine
        self.buddies: List[BuddyAllocator] = []
        self.slabs: List[SlabAllocator] = []
        for node in machine.nodes:
            base, size = machine.memory.node_region(node.nid)
            # Manage a bounded slice of each node (4 GiB) — plenty for the
            # simulation while keeping buddy bookkeeping cheap.
            managed = min(size, 4 << 30)
            # max_order 14 (64 MiB blocks) accommodates large contiguous
            # reservations like the SWIOTLB bounce pool.
            buddy = BuddyAllocator(base, managed, machine.cost,
                                   max_order=14)
            self.buddies.append(buddy)
            self.slabs.append(SlabAllocator(node.nid, buddy, machine.cost))

    def kmalloc(self, size: int, node: int = 0,
                core: Core | None = None) -> KBuffer:
        return self.slabs[node].kmalloc(size, core)

    def kfree(self, buf: KBuffer, core: Core | None = None) -> None:
        self.slabs[buf.node].kfree(buf, core)

    def alloc_pages(self, order: int = 0, node: int = 0,
                    core: Core | None = None) -> int:
        return self.buddies[node].alloc_pages(order, core)

    def free_pages(self, pa: int, node: int = 0,
                   core: Core | None = None) -> None:
        self.buddies[node].free_pages(pa, core)
