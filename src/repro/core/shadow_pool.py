"""The shadow DMA buffer pool (paper §5.3, Table 2).

A fast, scalable, NUMA-aware segregated free-list allocator of *shadow
DMA buffers* — buffers that are permanently mapped in the device's IOMMU
domain and therefore never require an unmap or IOTLB invalidation.

Structure (Figure 2):

* One **free list** per (owner core, size class, access rights).  The
  owner core acquires from the head locklessly; any core may release to
  the tail under a small tail lock on its own cache line.
* One **metadata array** per (NUMA domain, size class); a shadow buffer's
  IOVA encodes its array index, so ``find_shadow`` is O(1).
* Shadow buffers are **sticky**: a buffer always returns to the free list
  it was allocated for, keeping it NUMA-local to its owner core and —
  crucially — keeping its IOMMU mapping immutable.
* Memory for shadow buffers is allocated in **page quantities**, so every
  IOMMU-mapped page holds shadow buffers of a single free list (same
  rights) — this is what yields byte-granularity protection (§5.2).
* When a metadata array is exhausted, allocation **falls back** to
  kmalloc'ed metadata + an external IOVA allocator in the MSB-clear half
  of the space, tracked in a hash table (§5.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.iova_encoding import ShadowIovaCodec
from repro.errors import (
    ConfigurationError,
    DmaApiUsageError,
    PoolExhaustedError,
    ReproError,
)
from repro.faults.plan import SITE_POOL_GROW
from repro.hw.cpu import CAT_COPY_MGMT, CAT_PT_MGMT, ChargeBatch, Core
from repro.hw.locks import SpinLock, UncontendedPairs
from repro.hw.machine import Machine
from repro.iommu.iommu import Domain, Iommu
from repro.iommu.page_table import Perm
from repro.iova.base import IovaAllocator
from repro.kalloc.slab import KBuffer, KernelAllocators
from repro.obs import SPAN_POOL_ACQUIRE, SPAN_POOL_RELEASE
from repro.sim.units import PAGE_SHIFT, PAGE_SIZE, page_order

ListKey = Tuple[int, int, Perm]  # (owner core id, class index, rights)


@dataclass
class ShadowBufferMeta:
    """Metadata node for one shadow buffer (Figure 2, right side).

    While the buffer is free, the node sits in its free list
    (``next_free`` is the linkage — in the paper the ``os_buf`` field
    doubles as the link; we keep both fields for clarity).  While
    acquired, ``os_buf`` points at the OS buffer being shadowed.
    """

    meta_index: int
    domain_node: int
    class_index: int
    size: int
    pa: int
    iova: int
    list_key: ListKey
    os_buf: Optional[KBuffer] = None
    next_free: Optional["ShadowBufferMeta"] = None
    fallback: bool = False

    @property
    def rights(self) -> Perm:
        return self.list_key[2]

    @property
    def owner_core(self) -> int:
        return self.list_key[0]


@dataclass
class _MetadataArray:
    """Per-(NUMA domain, size class) array of metadata nodes.

    ``next_unused`` hands out indices under a lock — shadow buffer
    allocation is infrequent, so this lock is not a contention problem
    (paper footnote 5).
    """

    node: int
    class_index: int
    capacity: int
    lock: SpinLock
    entries: List[Optional[ShadowBufferMeta]] = field(default_factory=list)

    def take_index(self) -> Optional[int]:
        if len(self.entries) >= self.capacity:
            return None
        self.entries.append(None)
        return len(self.entries) - 1

    def take_block(self, count: int) -> Optional[int]:
        """Reserve ``count`` *contiguous* indices (for sub-page carving:
        the block must cover exactly the buffers of one page so their
        encoded IOVAs share one IOVA page with matching offsets)."""
        if len(self.entries) + count > self.capacity:
            return None
        start = len(self.entries)
        self.entries.extend([None] * count)
        return start


class _FreeList:
    """One segregated free list (Figure 2, left side)."""

    __slots__ = ("key", "head", "tail", "tail_lock", "private_cache",
                 "free_count", "total_buffers")

    def __init__(self, key: ListKey, tail_lock: SpinLock):
        self.key = key
        self.head: Optional[ShadowBufferMeta] = None
        self.tail: Optional[ShadowBufferMeta] = None
        self.tail_lock = tail_lock
        #: Buffers carved from a fresh page, not yet pushed through the
        #: list (avoids synchronizing with releases — §5.3).
        self.private_cache: List[ShadowBufferMeta] = []
        self.free_count = 0
        self.total_buffers = 0

    def pop_head(self) -> Optional[ShadowBufferMeta]:
        """Owner-only lockless acquire from the head."""
        meta = self.head
        if meta is None:
            return None
        self.head = meta.next_free
        if self.head is None:
            # List drained; a concurrent release will re-link via tail.
            self.tail = None
        meta.next_free = None
        self.free_count -= 1
        return meta

    def push_tail(self, meta: ShadowBufferMeta) -> None:
        """Append under the tail lock (caller holds it)."""
        meta.next_free = None
        if self.tail is None:
            self.head = meta
            self.tail = meta
        else:
            self.tail.next_free = meta
            self.tail = meta
        self.free_count += 1


@dataclass
class PoolStats:
    """Occupancy accounting for the §6 memory-consumption experiment."""

    bytes_allocated: int = 0
    peak_bytes_allocated: int = 0
    buffers_allocated: int = 0
    in_flight: int = 0
    peak_in_flight: int = 0
    acquires: int = 0
    releases: int = 0
    remote_releases: int = 0
    grows: int = 0
    fallback_allocations: int = 0
    shrinks: int = 0

    def note_grow(self, nbytes: int, nbuffers: int) -> None:
        self.bytes_allocated += nbytes
        self.peak_bytes_allocated = max(self.peak_bytes_allocated,
                                        self.bytes_allocated)
        self.buffers_allocated += nbuffers
        self.grows += 1

    def note_shrink(self, nbytes: int, nbuffers: int) -> None:
        """Exact inverse of :meth:`note_grow`, so grow/shrink round-trips
        leave ``bytes_allocated`` and ``buffers_allocated`` balanced."""
        self.bytes_allocated -= nbytes
        self.buffers_allocated -= nbuffers
        self.shrinks += 1

    def note_acquire(self) -> None:
        self.acquires += 1
        self.in_flight += 1
        self.peak_in_flight = max(self.peak_in_flight, self.in_flight)

    def note_release(self, remote: bool) -> None:
        self.releases += 1
        self.in_flight -= 1
        if remote:
            self.remote_releases += 1


class ShadowBufferPool:
    """Per-device pool of permanently-mapped shadow DMA buffers.

    Implements the Table 2 interface: :meth:`acquire_shadow`,
    :meth:`find_shadow`, :meth:`release_shadow`.
    """

    def __init__(self, machine: Machine, iommu: Iommu, domain: Domain,
                 allocators: KernelAllocators,
                 fallback_iova: IovaAllocator,
                 size_classes: tuple[int, ...] = (4096, 65536),
                 max_buffers_per_class: int = 16 * 1024,
                 sticky: bool = True,
                 max_pool_bytes: int | None = None):
        self.machine = machine
        self.cost = machine.cost
        self.iommu = iommu
        self.domain = domain
        self.allocators = allocators
        self.fallback_iova = fallback_iova
        self.codec = ShadowIovaCodec(size_classes)
        self.size_classes = self.codec.size_classes
        self.max_buffers_per_class = max_buffers_per_class
        self.sticky = sticky
        self.max_pool_bytes = max_pool_bytes
        self.stats = PoolStats()
        self.obs = machine.obs
        self.faults = machine.faults

        self._lists: Dict[ListKey, _FreeList] = {}
        self._arrays: Dict[Tuple[int, int], _MetadataArray] = {}
        for node in range(machine.num_nodes):
            for cls in range(len(self.size_classes)):
                capacity = min(max_buffers_per_class,
                               self.codec.index_capacity(cls))
                self._arrays[(node, cls)] = _MetadataArray(
                    node=node, class_index=cls, capacity=capacity,
                    lock=SpinLock(f"meta-{node}-{cls}", machine.cost,
                                  obs=machine.obs),
                )
        #: Fallback hash table: IOVA → metadata (§5.3).
        self._fallback: Dict[int, ShadowBufferMeta] = {}

    # ------------------------------------------------------------------
    # Table 2 API.
    # ------------------------------------------------------------------
    def acquire_shadow(self, core: Core, os_buf: KBuffer, size: int,
                       rights: Perm) -> ShadowBufferMeta:
        """Acquire a shadow buffer of ≥ ``size`` bytes with ``rights``.

        Associates it with ``os_buf`` and returns its metadata (whose
        ``iova`` the DMA API hands to the driver).  The pool guarantees
        that any page holding the buffer holds only same-rights shadow
        buffers.
        """
        if rights not in (Perm.READ, Perm.WRITE, Perm.RW):
            raise ConfigurationError(f"invalid shadow rights {rights!r}")
        class_index = self.codec.class_for_size(size)
        if class_index is None:
            raise PoolExhaustedError(
                f"request of {size} B exceeds the largest size class "
                f"{self.size_classes[-1]} — huge buffers take the hybrid "
                f"path (§5.5)"
            )
        if self.obs.enabled:
            self.obs.span_begin(SPAN_POOL_ACQUIRE, core)
        core.charge(self.cost.pool_acquire_cycles, CAT_COPY_MGMT)
        flist = self._list_for(core.cid, class_index, rights)
        meta = None
        if flist.private_cache:
            meta = flist.private_cache.pop()
        if meta is None:
            meta = flist.pop_head()
        if meta is None:
            meta = self._grow(core, flist)
        meta.os_buf = os_buf
        self.stats.note_acquire()
        if self.obs.enabled:
            self.obs.pool_occupancy(core, self.stats.in_flight)
            self.obs.span_end(core)
        return meta

    def find_shadow(self, core: Core, iova: int) -> ShadowBufferMeta:
        """O(1) lookup: decode the IOVA, index the metadata array.

        Fallback IOVAs (MSB clear) go through the external hash table.
        """
        core.charge(self.cost.pool_find_cycles, CAT_COPY_MGMT)
        if self.codec.is_shadow(iova):
            decoded = self.codec.decode(iova)
            node = self.machine.node_of_core(decoded.core_id)
            array = self._arrays[(node, decoded.class_index)]
            if decoded.meta_index >= len(array.entries):
                raise PoolExhaustedError(
                    f"IOVA {iova:#x} decodes past the metadata array"
                )
            meta = array.entries[decoded.meta_index]
            if meta is None:
                raise PoolExhaustedError(f"IOVA {iova:#x} has dead metadata")
            return meta
        # Fallback buffers are stored under exactly ``meta.iova`` (the
        # external IOVA plus the buffer's sub-page offset).  Looking up
        # the page base as well would let a stale or corrupted IOVA
        # resolve to a *different* buffer sharing the page — one
        # canonical key keeps misuse loud.
        meta = self._fallback.get(iova)
        if meta is None:
            raise PoolExhaustedError(f"unknown fallback IOVA {iova:#x}")
        return meta

    def release_shadow(self, core: Core, meta: ShadowBufferMeta) -> None:
        """Return a shadow buffer to its free list (sticky — §5.3)."""
        if meta.os_buf is None:
            raise DmaApiUsageError(
                f"double release of shadow buffer IOVA {meta.iova:#x}")
        remote = core.cid != meta.owner_core
        if self.obs.enabled:
            self.obs.span_begin(SPAN_POOL_RELEASE, core)
        core.charge(self.cost.pool_release_cycles, CAT_COPY_MGMT)
        if remote:
            core.charge(self.cost.pool_remote_release_cycles, CAT_COPY_MGMT)
        meta.os_buf = None
        self.stats.note_release(remote)
        if self.obs.enabled:
            self.obs.pool_occupancy(core, self.stats.in_flight)
        if (not self.sticky and remote and not meta.fallback
                and meta.size >= PAGE_SIZE):
            # Sub-page buffers are never migrated: their page mapping is
            # shared with siblings of the same list.
            self._migrate_to_core(core, meta)
        else:
            flist = self._lists[meta.list_key]
            flist.tail_lock.acquire(core)
            flist.push_tail(meta)
            flist.tail_lock.release(core)
        if self.obs.enabled:
            self.obs.span_end(core)

    # ------------------------------------------------------------------
    # Growth (slow path, §5.3 "Shadow buffer allocation").
    # ------------------------------------------------------------------
    def _list_for(self, core_id: int, class_index: int,
                  rights: Perm) -> _FreeList:
        key: ListKey = (core_id, class_index, rights)
        flist = self._lists.get(key)
        if flist is None:
            flist = _FreeList(key, SpinLock(f"tail-{key}", self.cost,
                                            obs=self.obs))
            self._lists[key] = flist
        return flist

    def _grow(self, core: Core, flist: _FreeList) -> ShadowBufferMeta:
        """Allocate fresh shadow buffers for ``flist`` on this core's node."""
        core_id, class_index, rights = flist.key
        size = self.size_classes[class_index]
        node = self.machine.node_of_core(core_id)
        alloc_bytes = max(size, PAGE_SIZE)
        if self.faults.enabled and self.faults.fires(SITE_POOL_GROW, core):
            raise PoolExhaustedError(
                "injected shadow-pool grow failure (fault plan)")
        if (self.max_pool_bytes is not None
                and self.stats.bytes_allocated + alloc_bytes > self.max_pool_bytes):
            raise PoolExhaustedError(
                f"pool memory limit {self.max_pool_bytes} B reached"
            )
        core.charge(self.cost.pool_grow_cycles, CAT_COPY_MGMT)
        # Page-quantity allocation from the owner core's NUMA node.
        pa = self.allocators.buddies[node].alloc_pages(
            page_order(alloc_bytes), core)
        try:
            if size < PAGE_SIZE:
                nbuffers = PAGE_SIZE // size
                metas = self._carve_page(core, flist, pa, node, nbuffers)
            else:
                nbuffers = 1
                metas = [self._make_meta(core, flist, pa, node)]
        except ReproError:
            # Metadata/IOVA/page-table failure after the page grant: the
            # fresh pages must go back or the buddy leaks under soak.
            self.allocators.buddies[node].free_pages(pa, core)
            raise
        self.stats.note_grow(alloc_bytes, nbuffers)
        if self.obs.enabled:
            self.obs.pool_grown(core, size, alloc_bytes, nbuffers, rights,
                                self.stats.bytes_allocated)
        # One buffer is returned; the rest go to the private cache so we
        # need not synchronize with concurrent releases (§5.3).
        result = metas[0]
        flist.private_cache.extend(metas[1:])
        flist.total_buffers += nbuffers
        return result

    def _carve_page(self, core: Core, flist: _FreeList, page_pa: int,
                    node: int, nbuffers: int) -> List[ShadowBufferMeta]:
        """Break one page into ``nbuffers`` sub-page shadow buffers.

        All buffers of the page belong to one free list (hence one rights
        value — the §5.2 invariant) and take a *contiguous, page-aligned*
        block of metadata indices, so their encoded IOVAs tile a single
        IOVA page whose mapping is installed exactly once.
        """
        core_id, class_index, rights = flist.key
        size = self.size_classes[class_index]
        array = self._arrays[(node, class_index)]
        array.lock.acquire(core)
        start = array.take_block(nbuffers)
        array.lock.release(core)
        if start is None or start % nbuffers:
            # Array exhausted (or an incompatible layout from a previous
            # configuration): fall back buffer by buffer, unwinding the
            # earlier siblings if one of them fails mid-carve.
            built: List[ShadowBufferMeta] = []
            try:
                for i in range(nbuffers):
                    built.append(self._make_fallback_meta(
                        core, flist, page_pa + i * size, node))
            except ReproError:
                for meta in built:
                    base = meta.iova & ~(PAGE_SIZE - 1)
                    span = max(meta.size + (meta.iova - base), PAGE_SIZE)
                    self.iommu.unmap_strict(self.domain, base, span, core)
                    self._retire_meta(core, meta)
                raise
            return built
        metas: List[ShadowBufferMeta] = []
        for i in range(nbuffers):
            iova = self.codec.encode(core_id, rights, class_index, start + i)
            meta = ShadowBufferMeta(
                meta_index=start + i, domain_node=node,
                class_index=class_index, size=size,
                pa=page_pa + i * size, iova=iova, list_key=flist.key,
            )
            array.entries[start + i] = meta
            metas.append(meta)
        # One page-granular mapping covers every carved buffer.
        try:
            self.iommu.map_range(self.domain, metas[0].iova, page_pa,
                                 PAGE_SIZE, rights, core, kind="dedicated")
        except ReproError:
            array.lock.acquire(core)
            if len(array.entries) == start + nbuffers:
                del array.entries[start:]
            else:
                for i in range(nbuffers):
                    array.entries[start + i] = None
            array.lock.release(core)
            raise
        return metas

    def _make_meta(self, core: Core, flist: _FreeList, pa: int,
                   node: int) -> ShadowBufferMeta:
        core_id, class_index, rights = flist.key
        size = self.size_classes[class_index]
        array = self._arrays[(node, class_index)]
        array.lock.acquire(core)
        index = array.take_index()
        array.lock.release(core)
        if index is None:
            return self._make_fallback_meta(core, flist, pa, node)
        iova = self.codec.encode(core_id, rights, class_index, index)
        try:
            self.iommu.map_range(self.domain, iova, pa, size, rights, core,
                                 kind="dedicated")
        except ReproError:
            array.lock.acquire(core)
            if index == len(array.entries) - 1 \
                    and array.entries[index] is None:
                array.entries.pop()
            array.lock.release(core)
            raise
        meta = ShadowBufferMeta(
            meta_index=index, domain_node=node, class_index=class_index,
            size=size, pa=pa, iova=iova, list_key=flist.key,
        )
        array.entries[index] = meta
        return meta

    def _make_fallback_meta(self, core: Core, flist: _FreeList, pa: int,
                            node: int) -> ShadowBufferMeta:
        """§5.3 fallback: metadata via kmalloc, IOVA from the external
        allocator (MSB-clear half), mapping tracked in a hash table."""
        core_id, class_index, rights = flist.key
        size = self.size_classes[class_index]
        npages = max(1, size >> PAGE_SHIFT)
        # The kmalloc'ed metadata structure itself (cost accounting only —
        # the Python object plays the role of the allocation).
        self.allocators.slabs[node].kmalloc(64, core)
        page_pa = (pa >> PAGE_SHIFT) << PAGE_SHIFT
        offset = pa - page_pa
        iova_base = self.fallback_iova.alloc(npages, core, page_pa)
        # Sub-page buffers map their whole (same-rights) page; larger
        # buffers map exactly their pages.
        try:
            self.iommu.map_range(self.domain, iova_base, page_pa,
                                 max(size + offset, PAGE_SIZE), rights, core,
                                 kind="dedicated")
        except ReproError:
            self.fallback_iova.free(iova_base, npages, core)
            raise
        iova = iova_base + offset
        meta = ShadowBufferMeta(
            meta_index=-1, domain_node=node, class_index=class_index,
            size=size, pa=pa, iova=iova, list_key=flist.key, fallback=True,
        )
        self._fallback[iova] = meta
        self.stats.fallback_allocations += 1
        if self.obs.enabled:
            self.obs.pool_fallback(core, size, iova, rights)
        return meta

    # ------------------------------------------------------------------
    # Ring setup in one pass (see ShadowDmaApi.dma_map_fresh):
    # acquire_shadow with its charges held and its lock pair made off the
    # clock.
    # ------------------------------------------------------------------
    def fresh_room(self, core: Core, class_index: int, rights: Perm) -> int:
        """How many acquisitions in a row by ``core`` would each grow the
        pool by one whole-page shadow through its metadata array — the
        ones :meth:`acquire_fresh` makes: none while the free list holds
        a shadow or the class is sub-page, and no more than the array
        and the byte cap leave room for."""
        size = self.size_classes[class_index]
        flist = self._lists.get((core.cid, class_index, rights))
        if size < PAGE_SIZE or (flist is not None and (
                flist.private_cache or flist.head is not None)):
            return 0
        array = self._arrays[(self.machine.node_of_core(core.cid),
                              class_index)]
        room = array.capacity - len(array.entries)
        if self.max_pool_bytes is not None:
            room = min(room, (self.max_pool_bytes
                              - self.stats.bytes_allocated) // size)
        return max(room, 0)

    def acquire_fresh(self, core: Core, os_buf: KBuffer, class_index: int,
                      rights: Perm, charges: ChargeBatch,
                      pairs: UncontendedPairs) -> ShadowBufferMeta:
        """:meth:`acquire_shadow` for an acquisition :meth:`fresh_room`
        counted: a grow by one shadow (:meth:`_make_meta`), charges held
        in ``charges``, the metadata lock's pair made through
        ``pairs``."""
        cost = self.cost
        charges.add(cost.pool_acquire_cycles + cost.pool_grow_cycles,
                    CAT_COPY_MGMT)
        flist = self._list_for(core.cid, class_index, rights)
        size = self.size_classes[class_index]
        node = self.machine.node_of_core(core.cid)
        pa = self.allocators.buddies[node].alloc_pages_held(
            page_order(size), charges)
        array = self._arrays[(node, class_index)]
        pairs.pair(array.lock)
        index = array.take_index()
        iova = self.codec.encode(core.cid, rights, class_index, index)
        # Shadow IOVAs are page aligned and nothing here is observed, so
        # the PTEs go straight into the table.
        npages = size >> PAGE_SHIFT
        self.domain.page_table.map_range(iova >> PAGE_SHIFT, pa >> PAGE_SHIFT,
                                         npages, rights)
        charges.add(cost.pt_map_range_cycles(npages), CAT_PT_MGMT)
        meta = ShadowBufferMeta(
            meta_index=index, domain_node=node, class_index=class_index,
            size=size, pa=pa, iova=iova, list_key=flist.key,
        )
        array.entries[index] = meta
        self.stats.note_grow(size, 1)
        flist.total_buffers += 1
        meta.os_buf = os_buf
        self.stats.note_acquire()
        return meta

    # ------------------------------------------------------------------
    # Non-sticky ablation (§5.3 explains why sticky wins; this path
    # exists to measure the alternative).
    # ------------------------------------------------------------------
    def _migrate_to_core(self, core: Core, meta: ShadowBufferMeta) -> None:
        """Move a buffer to the *releasing* core's list.

        Requires re-encoding the IOVA (it names the owner core), hence
        unmapping the old mapping, invalidating the IOTLB, and installing
        a new mapping — exactly the costs stickiness avoids.
        """
        _, class_index, rights = meta.list_key
        self.iommu.unmap_strict(self.domain, meta.iova, meta.size, core)
        self._retire_meta(core, meta)
        old_list = self._lists[meta.list_key]
        old_list.total_buffers -= 1
        new_list = self._list_for(core.cid, class_index, rights)
        new_meta = self._make_meta(core, new_list, meta.pa,
                                   self.machine.node_of_core(core.cid))
        new_list.total_buffers += 1
        new_list.tail_lock.acquire(core)
        new_list.push_tail(new_meta)
        new_list.tail_lock.release(core)

    def _retire_meta(self, core: Core, meta: ShadowBufferMeta) -> None:
        if meta.fallback:
            self._fallback.pop(meta.iova, None)
            # Fallback IOVAs are recyclable (encoded indices are not):
            # return the page-aligned range taken in _make_fallback_meta,
            # or the external allocator leaks one range per retired
            # fallback buffer.
            npages = max(1, meta.size >> PAGE_SHIFT)
            base = meta.iova & ~(PAGE_SIZE - 1)
            self.fallback_iova.free(base, npages, core)
            return
        array = self._arrays[(meta.domain_node, meta.class_index)]
        array.entries[meta.meta_index] = None

    # ------------------------------------------------------------------
    # Memory pressure (§5.3 "Memory consumption").
    # ------------------------------------------------------------------
    def shrink(self, core: Core, max_release_bytes: int | None = None) -> int:
        """Free unused shadow buffers back to the system.

        Unmaps each freed buffer (with a synchronous IOTLB invalidation —
        the price §5.3 accepts for infrequent pressure-driven freeing).
        Only whole-page buffers are released.  Returns bytes freed.
        """
        freed = 0
        for flist in self._lists.values():
            size = self.size_classes[flist.key[1]]
            if size < PAGE_SIZE:
                continue
            while True:
                if max_release_bytes is not None and freed >= max_release_bytes:
                    return freed
                flist.tail_lock.acquire(core)
                meta = flist.pop_head()
                flist.tail_lock.release(core)
                if meta is None:
                    break
                self.iommu.unmap_strict(self.domain, meta.iova, meta.size,
                                        core)
                self._retire_meta(core, meta)
                node = self.machine.memory.node_of(meta.pa)
                self.allocators.buddies[node].free_pages(meta.pa, core)
                flist.total_buffers -= 1
                # Undo exactly what note_grow recorded: page-quantity
                # bytes and the buffer count.
                released = max(meta.size, PAGE_SIZE)
                self.stats.note_shrink(released, 1)
                freed += released
                if self.obs.enabled:
                    self.obs.pool_shrunk(core, meta.size, meta.fallback,
                                         self.stats.bytes_allocated)
        return freed

    # ------------------------------------------------------------------
    # Invariants (exercised by property tests).
    # ------------------------------------------------------------------
    def check_page_rights_invariant(self) -> bool:
        """Every IOMMU-mapped page holds shadow buffers of one rights value."""
        page_rights: Dict[int, Perm] = {}
        for flist in self._lists.values():
            rights = flist.key[2]
            for meta in self._iter_list_buffers(flist):
                for page in range(meta.pa >> PAGE_SHIFT,
                                  (meta.pa + meta.size - 1 >> PAGE_SHIFT) + 1):
                    seen = page_rights.get(page)
                    if seen is not None and seen != rights:
                        return False
                    page_rights[page] = rights
        return True

    def _iter_list_buffers(self, flist: _FreeList):
        seen = set()
        node = flist.head
        while node is not None:
            seen.add(id(node))
            yield node
            node = node.next_free
        for meta in flist.private_cache:
            if id(meta) not in seen:
                yield meta

    def free_buffer_count(self) -> int:
        return sum(f.free_count + len(f.private_cache)
                   for f in self._lists.values())
