"""The DMA API — the interface drivers use to authorize DMAs (§2.2).

Mirrors the Linux streaming DMA API:

* ``dma_map`` / ``dma_unmap`` for single buffers,
* ``dma_map_sg`` / ``dma_unmap_sg`` for scatter/gather lists,
* ``dma_alloc_coherent`` / ``dma_free_coherent`` for shared
  driver↔device structures (descriptor rings, mailboxes).

Each protection scheme implements this interface.  DMA shadowing's design
goal of *transparency* (§5.1) is expressed here: the shadow implementation
is just another subclass — drivers are oblivious to which scheme runs
beneath them.  The schemes that translate through an IOMMU domain share
:class:`IommuDmaApi` (domain, translating port, strict coherent memory);
the two without one share :class:`~repro.dma.direct.NoIommuDmaApi`.

The base class also enforces the API contract (no double unmap, unmap
must quote the map's size/direction), because the paper's threat model
assumes drivers use the API correctly and we want tests to prove ours do.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Sequence, Tuple

from repro.errors import DmaApiError, ReproError
from repro.hw.cpu import CAT_MEMCPY, CAT_OTHER, Core
from repro.hw.machine import Machine
from repro.iommu.iommu import DmaPort, Domain, Iommu, TranslatingDmaPort
from repro.iommu.page_table import Perm
from repro.iova.base import IovaAllocator
from repro.kalloc.buddy import BuddyAllocator
from repro.kalloc.slab import KBuffer, KernelAllocators
from repro.obs import NULL_OBS, SPAN_COPY, SPAN_DMA_MAP, SPAN_DMA_UNMAP
from repro.sim.units import PAGE_SHIFT, page_order


class DmaDirection(enum.Enum):
    """Which way the data flows — determines device access rights."""

    TO_DEVICE = "to_device"       # device reads the buffer (e.g. TX)
    FROM_DEVICE = "from_device"   # device writes the buffer (e.g. RX)
    BIDIRECTIONAL = "bidirectional"

    @property
    def perm(self) -> Perm:
        if self is DmaDirection.TO_DEVICE:
            return Perm.READ
        if self is DmaDirection.FROM_DEVICE:
            return Perm.WRITE
        return Perm.RW

    @property
    def device_reads(self) -> bool:
        return self in (DmaDirection.TO_DEVICE, DmaDirection.BIDIRECTIONAL)

    @property
    def device_writes(self) -> bool:
        return self in (DmaDirection.FROM_DEVICE, DmaDirection.BIDIRECTIONAL)


class DmaHandle(NamedTuple):
    """What ``dma_map`` returns: the bus address the driver programs into
    the device, plus the size/direction needed at unmap time."""

    iova: int
    size: int
    direction: DmaDirection


@dataclass(frozen=True)
class CoherentBuffer:
    """A ``dma_alloc_coherent`` allocation: CPU and device views."""

    kbuf: KBuffer
    iova: int
    size: int


@dataclass(frozen=True)
class SchemeProperties:
    """The Table 1 columns for one protection scheme.

    ``sub_page`` and ``no_window`` are *claims* — the security audit in
    :mod:`repro.attacks` verifies them empirically.
    """

    label: str
    iommu_protection: bool
    sub_page: bool
    no_window: bool
    single_core_perf: bool
    multi_core_perf: bool


class _LiveMapping(NamedTuple):
    buf: KBuffer
    handle: DmaHandle
    cookie: object = None


@dataclass
class DmaApiStats:
    """Operation counters every implementation maintains."""

    maps: int = 0
    unmaps: int = 0
    sg_maps: int = 0
    coherent_allocs: int = 0
    bytes_mapped: int = 0

    def note_map(self, size: int) -> None:
        self.maps += 1
        self.bytes_mapped += size

    def note_maps(self, count: int, size: int) -> None:
        """:meth:`note_map` for ``count`` maps of ``size`` bytes."""
        self.maps += count
        self.bytes_mapped += count * size


class DmaApi(abc.ABC):
    """Base class for all protection schemes.

    Every scheme derives from :class:`IommuDmaApi` or
    :class:`~repro.dma.direct.NoIommuDmaApi`, which implement
    ``dma_alloc_coherent`` / ``dma_free_coherent``.
    """

    #: Scheme identifier used by the registry and in result tables.
    name: str = "abstract"
    #: The scheme's Table 1 row; the registry sets it on every scheme it
    #: builds (``repro.dma.registry`` is its only definition).
    properties: SchemeProperties
    #: Protection domain the scheme maps into, when it has one.
    #: IOMMU-backed subclasses set this; ``None`` (no-iommu, swiotlb)
    #: means the exposure accountant has no domain to attribute to.
    domain_id: int | None = None

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self.cost = machine.cost
        self._live: Dict[int, _LiveMapping] = {}
        self.stats = DmaApiStats()
        #: Observability context; the registry rebinds this to the
        #: machine's after construction (NULL_OBS → zero overhead).
        self.obs = NULL_OBS

    # ------------------------------------------------------------------
    # Public API (contract enforcement + dispatch).
    # ------------------------------------------------------------------
    def dma_map(self, core: Core, buf: KBuffer,
                direction: DmaDirection) -> DmaHandle:
        """Authorize a DMA to/from ``buf``; returns the bus address handle."""
        if buf.size <= 0:
            raise DmaApiError("dma_map of empty buffer")
        obs = self.obs
        if obs.enabled:
            obs.span_begin(SPAN_DMA_MAP, core)
        try:
            handle, cookie = self._map(core, buf, direction)
            if handle.iova in self._live:
                raise DmaApiError(
                    f"scheme bug: IOVA {handle.iova:#x} handed out twice"
                )
        except ReproError:
            # Keep the span stack balanced when a map fails (schemes
            # unwind their own IOVA/page/pool state before re-raising).
            if obs.enabled:
                obs.span_end(core)
            raise
        self._live[handle.iova] = _LiveMapping(buf, handle, cookie)
        self.stats.note_map(buf.size)
        if obs.enabled:
            obs.dma_mapped(core, self.name, self.domain_id, handle)
        return handle

    def dma_unmap(self, core: Core, handle: DmaHandle) -> None:
        """Revoke the authorization; the driver may use the buffer again."""
        live = self._live.pop(handle.iova, None)
        if live is None:
            raise DmaApiError(f"dma_unmap of unknown IOVA {handle.iova:#x}")
        if live.handle != handle:
            self._live[handle.iova] = live
            raise DmaApiError(
                f"dma_unmap arguments disagree with dma_map for "
                f"IOVA {handle.iova:#x}"
            )
        obs = self.obs
        if obs.enabled:
            obs.span_begin(SPAN_DMA_UNMAP, core)
        self._unmap(core, live.buf, handle, live.cookie)
        self.stats.unmaps += 1
        if obs.enabled:
            obs.dma_unmapped(core, self.name, self.domain_id, handle)

    def dma_map_sg(self, core: Core, bufs: Sequence[KBuffer],
                   direction: DmaDirection) -> List[DmaHandle]:
        """Map a scatter/gather list (each element mapped analogously §2.2)."""
        if not bufs:
            raise DmaApiError("dma_map_sg of empty list")
        handles: List[DmaHandle] = []
        try:
            for buf in bufs:
                handles.append(self.dma_map(core, buf, direction))
        except ReproError:
            # All-or-nothing: a half-mapped list would leak its mapped
            # elements (the caller only ever sees the exception).
            for handle in reversed(handles):
                self.dma_unmap(core, handle)
            raise
        self.stats.sg_maps += 1
        return handles

    def dma_unmap_sg(self, core: Core, handles: Sequence[DmaHandle]) -> None:
        for handle in handles:
            self.dma_unmap(core, handle)

    # ------------------------------------------------------------------
    # Ring setup: a ring's worth of buffers at a time.
    # ------------------------------------------------------------------
    def dma_map_fresh(self, core: Core, buddy: BuddyAllocator, size: int,
                      count: int, direction: DmaDirection, post_cycles: int,
                      mapped: List[Tuple[KBuffer, DmaHandle]]) -> None:
        """Allocate ``count`` buffers of ``size`` bytes from ``buddy``
        (``core``'s node) and map each, charging ``post_cycles`` of the
        caller's own per-buffer work after each map; appends ``(buffer,
        handle)`` to ``mapped`` in order.

        This base is the per-buffer loop: ``alloc_pages``, ``dma_map``
        and the caller's charge, a failed map giving its pages back
        before the error propagates — so ``mapped`` holds the buffers
        that succeeded.  A scheme whose fresh maps read no clock
        overrides it with one pass that charges the same cycles in the
        same order and leaves the same state; a buffer needing more
        than that pass does takes :meth:`_map_fresh_one` at its place.
        The one pass opens no span and consults no fault site, so it
        runs only when nothing observes the run (:attr:`_unobserved`);
        captured and fault-injected runs keep this loop.
        """
        order = page_order(size)
        for _ in range(count):
            buf = KBuffer(buddy.alloc_pages(order, core), size,
                          core.numa_node)
            mapped.append(self._map_fresh_one(core, buddy, buf, direction,
                                              post_cycles))

    def _map_fresh_one(self, core: Core, buddy: BuddyAllocator,
                       buf: KBuffer, direction: DmaDirection,
                       post_cycles: int) -> Tuple[KBuffer, DmaHandle]:
        """One buffer of :meth:`dma_map_fresh` whose pages are allocated
        (and charged): ``dma_map`` it, then charge ``post_cycles``."""
        try:
            handle = self.dma_map(core, buf, direction)
        except ReproError:
            buddy.free_pages(buf.pa, core)
            raise
        core.charge(post_cycles, CAT_OTHER)
        return buf, handle

    @property
    def _unobserved(self) -> bool:
        """No recorder and no fault plan armed (both fixed when the
        system is built): the one-pass overrides of
        :meth:`dma_map_fresh` run only then."""
        return not (self.obs.enabled or self.machine.faults.enabled)

    def _live_fresh(self, buf: KBuffer, handle: DmaHandle,
                    cookie: object) -> None:
        """Record a mapping made off the ``dma_map`` path, with its
        double-issue check (callers count ``stats`` themselves).
        ``dma_map`` has the same lines inline: it runs per packet."""
        if handle.iova in self._live:
            raise DmaApiError(
                f"scheme bug: IOVA {handle.iova:#x} handed out twice")
        self._live[handle.iova] = _LiveMapping(buf, handle, cookie)

    @abc.abstractmethod
    def port(self) -> DmaPort:
        """The bus connection the device should issue its DMAs through."""

    # ------------------------------------------------------------------
    # Scheme hooks.
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _map(self, core: Core, buf: KBuffer,
             direction: DmaDirection) -> tuple[DmaHandle, object]:
        """Scheme-specific map; returns (handle, opaque unmap cookie)."""

    @abc.abstractmethod
    def _unmap(self, core: Core, buf: KBuffer, handle: DmaHandle,
               cookie: object) -> None:
        """Scheme-specific unmap."""

    def _charged_copy(self, core: Core, dst_pa: int, src_pa: int,
                      nbytes: int, remote: bool = False) -> None:
        """Move real bytes and charge the calibrated memcpy (scaled for
        a copy across NUMA nodes) plus its cache pollution."""
        if nbytes <= 0:
            return
        if self.obs.enabled:
            self.obs.span_begin(SPAN_COPY, core)
        cycles = self.cost.memcpy_cycles(nbytes)
        if remote:
            cycles = round(cycles * self.cost.numa_remote_copy_factor)
        core.charge(cycles, CAT_MEMCPY)
        pollution = self.cost.pollution_cycles(nbytes)
        if pollution:
            core.charge(pollution, CAT_OTHER)
        self.machine.memory.copy(dst_pa, src_pa, nbytes)
        if self.obs.enabled:
            self.obs.dma_copied(core, nbytes, remote, cycles)

    # ------------------------------------------------------------------
    # Deferred-work hooks (no-ops for strict schemes).
    # ------------------------------------------------------------------
    def flush_deferred(self, core: Core) -> None:
        """Force any pending deferred invalidations to complete."""

    def quiesce(self, core: Core) -> None:
        """Bring the scheme to a safe state (used between benchmark runs)."""
        self.flush_deferred(core)

    @property
    def live_mappings(self) -> int:
        return len(self._live)


@dataclass(frozen=True, slots=True)
class MappedBlock:
    """Buddy pages mapped whole at their own IOVA range."""

    pa: int
    iova: int
    npages: int     # allocated page count (power of two)
    node: int


class IommuDmaApi(DmaApi):
    """Base of the schemes that translate through an IOMMU domain.

    Owns the device's domain and translating port, and coherent memory:
    the standard strict implementation every scheme shares (§5.2 —
    coherent allocations are infrequent and page granular).
    ``block_iova`` allocates the IOVAs of mapped blocks.
    """

    def __init__(self, machine: Machine, iommu: Iommu, device_id: int,
                 allocators: KernelAllocators, block_iova: IovaAllocator):
        super().__init__(machine)
        self.iommu = iommu
        self.domain: Domain = iommu.attach_device(device_id)
        self.domain_id = self.domain.domain_id
        self.allocators = allocators
        self._block_iova = block_iova
        self._port: DmaPort = TranslatingDmaPort(iommu, self.domain)
        self._coherent: Dict[int, MappedBlock] = {}

    def port(self) -> DmaPort:
        return self._port

    def _map_block(self, core: Core, size: int, node: int,
                   perm: Perm) -> MappedBlock:
        """Pages for ``size`` bytes on ``node``, an IOVA range and one
        dedicated mapping with ``perm`` — all or nothing: a failure
        gives back what was taken, in reverse order."""
        buddy = self.allocators.buddies[node]
        order = page_order(size)
        npages = 1 << order
        pa = buddy.alloc_pages(order, core)
        iova = None
        try:
            iova = self._block_iova.alloc(npages, core, pa)
            self.iommu.map_range(self.domain, iova, pa, npages << PAGE_SHIFT,
                                 perm, core, kind="dedicated")
        except ReproError:
            if iova is not None:
                self._block_iova.free(iova, npages, core)
            buddy.free_pages(pa, core)
            raise
        return MappedBlock(pa=pa, iova=iova, npages=npages, node=node)

    def _unmap_block(self, core: Core, block: MappedBlock) -> None:
        """Strict teardown: no stale translation may survive, since the
        buddy reuses the pages."""
        self.iommu.unmap_strict(self.domain, block.iova,
                                block.npages << PAGE_SHIFT, core)
        self._block_iova.free(block.iova, block.npages, core)
        self.allocators.buddies[block.node].free_pages(block.pa, core)

    def dma_alloc_coherent(self, core: Core, size: int,
                           node: int = 0) -> CoherentBuffer:
        """Page-quantity allocation, permanently mapped RW (§2.2, §5.2)."""
        block = self._map_block(core, size, node, Perm.RW)
        self._coherent[block.iova] = block
        self.stats.coherent_allocs += 1
        return CoherentBuffer(kbuf=KBuffer(pa=block.pa, size=size, node=node),
                              iova=block.iova, size=size)

    def dma_free_coherent(self, core: Core, buf: CoherentBuffer) -> None:
        """Unmap with *strict* semantics — infrequent, not perf critical."""
        block = self._coherent.pop(buf.iova, None)
        if block is None:
            raise DmaApiError(f"free of unknown coherent buffer {buf.iova:#x}")
        self._unmap_block(core, block)
