"""DMA shadowing — the copy-based DMA API (paper §5.2, §5.4, §5.5).

This is the paper's contribution, packaged as just another
:class:`~repro.dma.api.DmaApi` implementation (design goal *transparency*,
§5.1): drivers call the same ``dma_map``/``dma_unmap`` and get, invisibly,

* ``dma_map``: acquire a permanently-mapped shadow buffer from the pool,
  copy the OS buffer into it if the device will read it, return the
  shadow's IOVA;
* ``dma_unmap``: ``find_shadow`` the buffer in O(1) from the IOVA, copy
  the device-written bytes back to the OS buffer if the device wrote,
  release the shadow.

No page-table update, no IOTLB invalidation, no IOVA allocation on the
hot path — the costs that cripple the zero-copy schemes simply do not
occur.  The price is the copy, which §6 shows is the cheaper side of the
trade for DMA-intensive workloads.

Buffers larger than the biggest size class take the §5.5 *hybrid* path:
copy only the sub-page head/tail through small shadows and map the
page-aligned middle zero-copy (with a strict unmap), preserving
byte-granularity protection at huge-buffer sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.hints import CopyHint, clamp_hint
from repro.core.shadow_pool import ShadowBufferMeta, ShadowBufferPool
from repro.dma.api import DmaDirection, DmaHandle, IommuDmaApi, MappedBlock
from repro.errors import DmaApiError, PoolExhaustedError, ReproError
from repro.hw.cpu import CAT_COPY_MGMT, ChargeBatch, Core
from repro.hw.locks import UncontendedPairs
from repro.hw.machine import Machine
from repro.iommu.iommu import Iommu
from repro.iova.base import IovaAllocator
from repro.kalloc.buddy import BuddyAllocator
from repro.kalloc.slab import KBuffer, KernelAllocators
from repro.sim.units import PAGE_SHIFT, PAGE_SIZE, page_order


class _PhysView:
    """Read-only window over physical memory, handed to copy hints."""

    __slots__ = ("_memory", "_pa", "_size")

    def __init__(self, memory, pa: int, size: int):
        self._memory = memory
        self._pa = pa
        self._size = size

    def read(self, offset: int, size: int) -> bytes:
        if offset < 0 or offset + size > self._size:
            raise ValueError("hint read outside buffer")
        return self._memory.read(self._pa + offset, size)


@dataclass
class _HybridCookie:
    """Unmap context for a §5.5 hybrid (huge-buffer) mapping."""

    iova_base: int          # page-aligned base of the allocated IOVA range
    total_pages: int
    head_meta: Optional[ShadowBufferMeta]
    tail_meta: Optional[ShadowBufferMeta]
    head_len: int
    tail_len: int


class ShadowDmaApi(IommuDmaApi):
    """The ``copy`` scheme: strict byte-granularity protection via DMA
    shadowing."""

    name = "copy"

    def __init__(self, machine: Machine, iommu: Iommu, device_id: int,
                 allocators: KernelAllocators,
                 fallback_iova: IovaAllocator,
                 size_classes: tuple[int, ...] = (4096, 65536),
                 sticky: bool = True,
                 hybrid_huge_buffers: bool = True,
                 max_buffers_per_class: int = 16 * 1024,
                 max_pool_bytes: int | None = None,
                 bounce_fallback: bool = False):
        super().__init__(machine, iommu, device_id, allocators,
                         fallback_iova)
        self.fallback_iova = fallback_iova
        self.hybrid_huge_buffers = hybrid_huge_buffers
        self.pool = ShadowBufferPool(
            machine, iommu, self.domain, allocators, fallback_iova,
            size_classes=size_classes, sticky=sticky,
            max_buffers_per_class=max_buffers_per_class,
            max_pool_bytes=max_pool_bytes,
        )
        self._tx_hint: CopyHint | None = None
        self._rx_hint: CopyHint | None = None
        self.hybrid_maps = 0
        #: Opt-in degradation: when the pool (and its §5.3 fallback)
        #: cannot produce a shadow, fall back to a swiotlb-style bounce
        #: mapping instead of failing the map.  Off by default so a
        #: configured pool cap still fails loudly (the chaos harness
        #: turns it on).
        self.bounce_fallback = bounce_fallback
        self.bounce_maps = 0

    # ------------------------------------------------------------------
    # Copy hints (§5.4).
    # ------------------------------------------------------------------
    def register_copy_hint(self, direction: DmaDirection,
                           hint: CopyHint | None) -> None:
        """Register (or clear, with ``None``) a driver copying hint.

        The TX hint inspects the OS buffer at map time; the RX hint
        inspects the *device-written shadow* at unmap time, so its input
        is untrusted (§5.4) — results are clamped to the mapped size.
        """
        if direction is DmaDirection.TO_DEVICE:
            self._tx_hint = hint
        elif direction is DmaDirection.FROM_DEVICE:
            self._rx_hint = hint
        else:
            raise DmaApiError("hints are per direction; register both")

    # ------------------------------------------------------------------
    # Map / unmap (§5.2).
    # ------------------------------------------------------------------
    def _map(self, core: Core, buf: KBuffer,
             direction: DmaDirection) -> tuple[DmaHandle, object]:
        if self.pool.codec.class_for_size(buf.size) is None:
            if not self.hybrid_huge_buffers:
                raise DmaApiError(
                    f"{buf.size} B exceeds the largest shadow class and the "
                    f"hybrid path is disabled"
                )
            return self._map_hybrid(core, buf, direction)
        try:
            meta = self.pool.acquire_shadow(core, buf, buf.size,
                                            direction.perm)
        except PoolExhaustedError:
            if not self.bounce_fallback:
                raise
            return self._map_bounce(core, buf, direction)
        if direction.device_reads:
            copy_len = buf.size
            if self._tx_hint is not None:
                core.charge(self.cost.copy_hint_cycles, CAT_COPY_MGMT)
                view = _PhysView(self.machine.memory, buf.pa, buf.size)
                copy_len = clamp_hint(self._tx_hint(view, buf.size), buf.size)
            self._charged_copy(core, dst_pa=meta.pa, src_pa=buf.pa,
                               nbytes=copy_len,
                               remote=meta.domain_node != buf.node)
        return DmaHandle(meta.iova, buf.size, direction), meta

    def _map_bounce(self, core: Core, buf: KBuffer,
                    direction: DmaDirection) -> tuple[DmaHandle, MappedBlock]:
        """Swiotlb-style bounce mapping — the last rung of the
        degradation ladder (shadow pool → §5.3 fallback → bounce): fresh
        pages mapped with the buffer's rights, strictly unmapped.
        Slower than a shadow (page granular, allocates on the hot path)
        but keeps traffic moving when the pool is saturated."""
        block = self._map_block(core, buf.size, buf.node, direction.perm)
        if direction.device_reads:
            self._charged_copy(core, dst_pa=block.pa, src_pa=buf.pa,
                               nbytes=buf.size)
        self.bounce_maps += 1
        if self.obs.enabled:
            self.obs.dma_bounced(core, block.iova, buf.size)
        return DmaHandle(block.iova, buf.size, direction), block

    def _unmap(self, core: Core, buf: KBuffer, handle: DmaHandle,
               cookie: object) -> None:
        if isinstance(cookie, _HybridCookie):
            self._unmap_hybrid(core, buf, handle, cookie)
            return
        if isinstance(cookie, MappedBlock):
            if handle.direction.device_writes:
                self._charged_copy(core, dst_pa=buf.pa, src_pa=cookie.pa,
                                   nbytes=handle.size)
            self._unmap_block(core, cookie)
            return
        # The real implementation has only the IOVA at unmap time; use the
        # O(1) lookup and cross-check against the map-time cookie.
        meta = self.pool.find_shadow(core, handle.iova)
        if meta is not cookie:
            raise DmaApiError(
                f"find_shadow({handle.iova:#x}) resolved to a different "
                f"buffer than dma_map produced"
            )
        if handle.direction.device_writes:
            copy_len = handle.size
            if self._rx_hint is not None:
                core.charge(self.cost.copy_hint_cycles, CAT_COPY_MGMT)
                view = _PhysView(self.machine.memory, meta.pa, handle.size)
                copy_len = clamp_hint(self._rx_hint(view, handle.size),
                                      handle.size)
            self._charged_copy(core, dst_pa=buf.pa, src_pa=meta.pa,
                               nbytes=copy_len,
                               remote=meta.domain_node != buf.node)
        self.pool.release_shadow(core, meta)

    # ------------------------------------------------------------------
    # Ring setup in one pass.
    # ------------------------------------------------------------------
    def dma_map_fresh(self, core: Core, buddy: BuddyAllocator, size: int,
                      count: int, direction: DmaDirection, post_cycles: int,
                      mapped: List[Tuple[KBuffer, DmaHandle]]) -> None:
        """One pass over fresh shadows for device-written buffers.

        While this core's free list for the class is empty, each map
        grows the pool by one whole-page shadow
        (:meth:`ShadowBufferPool.acquire_fresh`) and copies nothing.  The
        one clock the pass reads is the metadata lock's: its first pair
        goes through the lock and the rest, uncontended, are accounted
        by :class:`~repro.hw.locks.UncontendedPairs`; every other charge
        (both page allocations, pool acquire and grow, the page-table
        update, the caller's ``post_cycles``) is held and applied as one
        sum per category.  A buffer the pool would serve otherwise — a
        free shadow on the list, a full metadata array, the byte cap —
        goes through :meth:`_map_fresh_one`, and so does every buffer of
        a device-read direction, a hybrid size or a sub-page class.
        Under a capture, each shadow's dedicated range and its map are
        reported to exposure stamped where the loop stamps both: after
        the page-table charge, before ``post_cycles``.
        """
        pool = self.pool
        class_index = pool.codec.class_for_size(size)
        if not self._one_pass_allowed or class_index is None \
                or direction.device_reads:
            return super().dma_map_fresh(core, buddy, size, count,
                                         direction, post_cycles, mapped)
        rights = direction.perm
        order = page_order(size)
        node = core.numa_node
        shadow_size = pool.size_classes[class_index]
        charges = ChargeBatch(core)
        pairs = UncontendedPairs(charges)
        room = pool.fresh_room(core, class_index, rights)
        notes = [] if self.obs.enabled else None
        try:
            for _ in range(count):
                if not room:
                    pairs.settle()
                    if notes:
                        self._report_fresh("dedicated", size, notes)
                    buf = KBuffer(buddy.alloc_pages(order, core), size,
                                  node)
                    mapped.append(self._map_fresh_one(
                        core, buddy, buf, direction, post_cycles))
                    room = pool.fresh_room(core, class_index, rights)
                    continue
                buf = KBuffer(buddy.alloc_pages_held(order, charges), size,
                              node)
                try:
                    meta = pool.acquire_fresh(core, buf, class_index,
                                              rights, charges, pairs)
                except ReproError:
                    pairs.settle()
                    buddy.free_pages(buf.pa, core)
                    raise
                room -= 1
                handle = DmaHandle(meta.iova, size, direction)
                self._live_fresh(buf, handle, meta)
                mapped.append((buf, handle))
                if notes is not None:
                    t = charges.now
                    notes.append((meta.iova, t,
                                  ((meta.iova, shadow_size, t),)))
                charges.add(post_cycles)
        finally:
            pairs.settle()
            if notes:
                self._report_fresh("dedicated", size, notes)

    # ------------------------------------------------------------------
    # Hybrid huge buffers (§5.5).
    # ------------------------------------------------------------------
    def _map_hybrid(self, core: Core, buf: KBuffer,
                    direction: DmaDirection) -> tuple[DmaHandle, _HybridCookie]:
        """Copy only the sub-page head/tail; map the aligned middle zero-copy."""
        rights = direction.perm
        offset = buf.pa & (PAGE_SIZE - 1)
        head_len = (PAGE_SIZE - offset) % PAGE_SIZE
        head_len = min(head_len, buf.size)
        remaining = buf.size - head_len
        middle_pages = remaining >> PAGE_SHIFT
        tail_len = remaining & (PAGE_SIZE - 1)
        total_pages = (1 if head_len else 0) + middle_pages + (1 if tail_len else 0)
        iova_base = self.fallback_iova.alloc(total_pages, core, buf.pa - offset)

        cursor = iova_base
        head_meta = tail_meta = None
        mapped_ranges: list[tuple[int, int]] = []   # (iova, nbytes)
        try:
            if head_len:
                head_meta = self.pool.acquire_shadow(core, buf, PAGE_SIZE,
                                                     rights)
                self.iommu.map_range(self.domain, cursor, head_meta.pa,
                                     PAGE_SIZE, rights, core,
                                     kind="dedicated")
                mapped_ranges.append((cursor, PAGE_SIZE))
                if direction.device_reads:
                    self._charged_copy(
                        core, dst_pa=head_meta.pa + offset,
                        src_pa=buf.pa, nbytes=head_len,
                        remote=head_meta.domain_node != buf.node)
                cursor += PAGE_SIZE
            if middle_pages:
                middle_pa = buf.pa + head_len
                self.iommu.map_range(self.domain, cursor, middle_pa,
                                     middle_pages << PAGE_SHIFT, rights, core)
                mapped_ranges.append((cursor, middle_pages << PAGE_SHIFT))
                cursor += middle_pages << PAGE_SHIFT
            if tail_len:
                tail_meta = self.pool.acquire_shadow(core, buf, PAGE_SIZE,
                                                     rights)
                self.iommu.map_range(self.domain, cursor, tail_meta.pa,
                                     PAGE_SIZE, rights, core,
                                     kind="dedicated")
                mapped_ranges.append((cursor, PAGE_SIZE))
                if direction.device_reads:
                    tail_src = buf.pa + head_len + (middle_pages << PAGE_SHIFT)
                    self._charged_copy(
                        core, dst_pa=tail_meta.pa,
                        src_pa=tail_src, nbytes=tail_len,
                        remote=tail_meta.domain_node != buf.node)
        except ReproError:
            # Partially built hybrid mapping: tear down what exists (with
            # strict invalidation), return the shadows and the IOVA range,
            # then degrade to a bounce if the ladder allows it.
            for iova_r, nbytes in mapped_ranges:
                self.iommu.unmap_strict(self.domain, iova_r, nbytes, core)
            for meta in (head_meta, tail_meta):
                if meta is not None:
                    self.pool.release_shadow(core, meta)
            self.fallback_iova.free(iova_base, total_pages, core)
            if self.bounce_fallback:
                return self._map_bounce(core, buf, direction)
            raise

        self.hybrid_maps += 1
        handle_iova = iova_base + offset if head_len else iova_base
        cookie = _HybridCookie(iova_base=iova_base, total_pages=total_pages,
                               head_meta=head_meta, tail_meta=tail_meta,
                               head_len=head_len, tail_len=tail_len)
        return DmaHandle(handle_iova, buf.size, direction), cookie

    def _unmap_hybrid(self, core: Core, buf: KBuffer, handle: DmaHandle,
                      cookie: _HybridCookie) -> None:
        offset = buf.pa & (PAGE_SIZE - 1)
        middle_pages = (cookie.total_pages
                        - (1 if cookie.head_len else 0)
                        - (1 if cookie.tail_len else 0))
        if handle.direction.device_writes:
            if cookie.head_meta is not None:
                self._charged_copy(
                    core, dst_pa=buf.pa,
                    src_pa=cookie.head_meta.pa + offset,
                    nbytes=cookie.head_len,
                    remote=cookie.head_meta.domain_node != buf.node)
            if cookie.tail_meta is not None:
                tail_dst = buf.pa + cookie.head_len + (middle_pages << PAGE_SHIFT)
                self._charged_copy(
                    core, dst_pa=tail_dst, src_pa=cookie.tail_meta.pa,
                    nbytes=cookie.tail_len,
                    remote=cookie.tail_meta.domain_node != buf.node)
        # Destroy the transient mapping *strictly* — invalidate before the
        # buffer can be reused (§5.5).
        self.iommu.unmap_strict(self.domain, cookie.iova_base,
                                cookie.total_pages << PAGE_SHIFT, core)
        if cookie.head_meta is not None:
            self.pool.release_shadow(core, cookie.head_meta)
        if cookie.tail_meta is not None:
            self.pool.release_shadow(core, cookie.tail_meta)
        self.fallback_iova.free(cookie.iova_base, cookie.total_pages, core)
