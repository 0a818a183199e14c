"""The IOMMU device model: domains, mapping, and device-side translation.

Every device attached to the IOMMU gets a *domain* — its private I/O page
table.  The OS side maps/unmaps IOVA ranges into the domain; the device
side issues DMAs through a :class:`DmaPort`, which translates each touched
page through the IOTLB (falling back to a page-table walk) and enforces
permissions.  Blocked DMAs raise :class:`~repro.errors.IommuFault` and are
recorded for the security audit.

Crucially, *unmap does not invalidate the IOTLB* — that is the caller's
(the DMA API strategy's) decision, which is the entire strict-vs-deferred
trade-off the paper is about.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterator, Protocol, Tuple

from repro.errors import ConfigurationError, IommuFault, KallocError
from repro.faults.plan import SITE_PT_MAP
from repro.hw.cpu import CAT_PT_MGMT, Core
from repro.hw.locks import SpinLock
from repro.hw.machine import Machine
from repro.iommu.invalidation import (
    InvalidationQueue,
    PerCoreInvalidationQueue,
)
from repro.iommu.iotlb import Iotlb
from repro.iommu.page_table import IoPageTable, Perm, PteEntry
from repro.obs import KIND_OS
from repro.sim.units import PAGE_SHIFT, PAGE_SIZE

_PAGE_MASK = PAGE_SIZE - 1


@dataclass(frozen=True)
class FaultRecord:
    """One blocked DMA, as the OS would see it in the fault log.

    ``t`` is the simulated cycle the fault was raised at (the machine's
    wall clock — device-side accesses have no core of their own) and
    ``domain_id`` the protection domain it hit.
    """

    device_id: int
    iova: int
    is_write: bool
    reason: str
    t: int = -1
    domain_id: int = -1


class FaultRing:
    """Bounded fault log with :class:`~repro.obs.trace.RingTracer`
    semantics: once full the *oldest* records are evicted, ``recorded``
    counts every fault ever appended, and ``dropped`` reports the loss.

    Supports the sequence operations the OS-side consumers use
    (``len``, truthiness, indexing, iteration).
    """

    def __init__(self, capacity: int = 1024):
        if capacity < 1:
            raise ConfigurationError(
                f"fault ring capacity must be positive: {capacity}")
        self.capacity = capacity
        self._ring: Deque[FaultRecord] = deque(maxlen=capacity)
        self.recorded = 0

    def append(self, record: FaultRecord) -> None:
        self._ring.append(record)
        self.recorded += 1

    @property
    def dropped(self) -> int:
        return self.recorded - len(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    def __bool__(self) -> bool:
        return bool(self._ring)

    def __iter__(self) -> Iterator[FaultRecord]:
        return iter(self._ring)

    def __getitem__(self, index: int) -> FaultRecord:
        return self._ring[index]

    def clear(self) -> None:
        self._ring.clear()
        self.recorded = 0


@dataclass
class Domain:
    """A protection domain: one device's I/O address space."""

    domain_id: int
    device_id: int
    page_table: IoPageTable = field(default_factory=IoPageTable)


class Iommu:
    """The platform IOMMU: shared IOTLB + invalidation queue, per-device
    domains."""

    def __init__(self, machine: Machine, iotlb_capacity: int = 4096,
                 fault_capacity: int = 1024):
        self.machine = machine
        self.cost = machine.cost
        self.obs = machine.obs
        self.iotlb = Iotlb(capacity=iotlb_capacity)
        lock = SpinLock("qi-lock", machine.cost, obs=machine.obs)
        self.invalidation_queue = InvalidationQueue(self.iotlb, machine.cost,
                                                    lock, obs=machine.obs,
                                                    faults=machine.faults)
        self.domains: Dict[int, Domain] = {}
        self.faults = FaultRing(capacity=fault_capacity)
        self._domain_ids = itertools.count(1)

    def enable_percore_invalidation(
            self, nqueues: int | None = None) -> PerCoreInvalidationQueue:
        """Replace the single global invalidation queue with per-core
        shards (see :class:`PerCoreInvalidationQueue`): one queue per
        core (default) over one shared hardware engine.

        Idempotent — several schemes sharing one IOMMU (the test
        fixtures do this) can each request per-core invalidation and get
        the same subsystem back.  Existing IOTLB contents and domains
        are untouched; only the submission front end changes.
        """
        if isinstance(self.invalidation_queue, PerCoreInvalidationQueue):
            return self.invalidation_queue
        self.invalidation_queue = PerCoreInvalidationQueue(
            self.iotlb, self.cost,
            nqueues=nqueues if nqueues is not None
            else self.machine.num_cores,
            obs=self.obs, faults=self.machine.faults)
        return self.invalidation_queue

    # ------------------------------------------------------------------
    # OS side.
    # ------------------------------------------------------------------
    def attach_device(self, device_id: int) -> Domain:
        """Create (or return) the protection domain for ``device_id``."""
        for domain in self.domains.values():
            if domain.device_id == device_id:
                return domain
        domain = Domain(domain_id=next(self._domain_ids), device_id=device_id)
        self.domains[domain.domain_id] = domain
        return domain

    def map_range(self, domain: Domain, iova: int, pa: int, size: int,
                  perm: Perm, core: Core | None = None,
                  kind: str = KIND_OS) -> None:
        """Map ``size`` bytes of physically-contiguous memory at ``iova``.

        ``iova`` and ``pa`` must share their page offset (the mapping is
        page-granular; sub-page offsets pass through unchanged).
        ``kind`` tags the memory for exposure accounting: ``"os"`` for
        data the OS lends to the device (the default), ``"dedicated"``
        for scheme-owned state (shadow buffers, coherent rings) that
        carries no co-located foreign data.

        All or nothing: a range that runs into a live mapping is refused
        (:class:`DmaApiError`) before any page is installed, any cycle
        charged or any exposure noted.
        """
        if size <= 0:
            raise ConfigurationError("mapping of non-positive size")
        if (iova & _PAGE_MASK) != (pa & _PAGE_MASK):
            raise ConfigurationError(
                f"IOVA {iova:#x} and PA {pa:#x} offsets disagree"
            )
        faults = self.machine.faults
        if faults.enabled and faults.fires(SITE_PT_MAP, core):
            raise KallocError(
                "injected page-table allocation failure (fault plan)")
        first_iova_page = iova >> PAGE_SHIFT
        npages = ((iova + size - 1) >> PAGE_SHIFT) - first_iova_page + 1
        domain.page_table.map_range(first_iova_page, pa >> PAGE_SHIFT,
                                    npages, perm)
        if core is not None:
            core.charge(self.cost.pt_map_range_cycles(npages), CAT_PT_MGMT)
        if self.obs.enabled:
            # The range cost is linear, so page i of the call is stamped
            # where a one-page call per page would have stamped it.
            if core is not None:
                t, step = core.now, self.cost.pt_map_cycles
            else:
                t, step = self.machine.wall_clock(), 0
            self.obs.range_mapped(t, domain.domain_id, domain.device_id,
                                  iova, size, kind, page_cycles=step)

    def unmap_range(self, domain: Domain, iova: int, size: int,
                    core: Core | None = None) -> int:
        """Remove the translations covering ``[iova, iova+size)``.

        Returns the number of pages unmapped.  Does **not** touch the
        IOTLB — strict callers must invalidate synchronously, deferred
        callers queue the range (§2.2.1).  A range with an unmapped page
        is refused whole (:class:`DmaApiError`) before anything changes.
        """
        first_page = iova >> PAGE_SHIFT
        npages = ((iova + size - 1) >> PAGE_SHIFT) - first_page + 1
        domain.page_table.unmap_range(first_page, npages)
        if core is not None:
            core.charge(self.cost.pt_unmap_range_cycles(npages), CAT_PT_MGMT)
        if self.obs.enabled:
            if core is not None:
                t, step = core.now, self.cost.pt_unmap_cycles
            else:
                t, step = self.machine.wall_clock(), 0
            cached = {first_page + i for i in range(npages)
                      if self.iotlb.peek(domain.domain_id,
                                         first_page + i) is not None}
            self.obs.range_unmapped(t, domain.domain_id, iova, size, cached,
                                    page_cycles=step)
        return npages

    def unmap_strict(self, domain: Domain, iova: int, size: int,
                     core: Core) -> None:
        """Strict revocation: :meth:`unmap_range`, then a synchronous
        IOTLB invalidation of the pages it cleared, so no stale
        translation outlives the call."""
        npages = self.unmap_range(domain, iova, size, core)
        self.invalidation_queue.invalidate_sync(core, domain.domain_id,
                                                iova >> PAGE_SHIFT, npages)

    # ------------------------------------------------------------------
    # Device side.
    # ------------------------------------------------------------------
    def translate(self, domain: Domain, iova: int, *,
                  is_write: bool) -> PteEntry:
        """Translate one access through the IOTLB (device's view).

        An IOTLB hit uses the cached entry even if the page table has
        since changed — stale entries are precisely the deferred window.
        """
        iova_page = iova >> PAGE_SHIFT
        iotlb = self.iotlb
        entry = iotlb.lookup(domain.domain_id, iova_page)
        if entry is None:
            entry = domain.page_table.lookup(iova_page)
            if entry is None:
                self._fault(domain, iova, is_write, "no mapping")
            iotlb.insert(domain.domain_id, iova_page, entry)
        if not entry.perm.allows(is_write=is_write):
            self._fault(domain, iova, is_write,
                        f"permission ({entry.perm.name})")
        if self.obs.enabled:
            self.obs.device_access(domain.domain_id, iova)
        return entry

    def _fault(self, domain: Domain, iova: int, is_write: bool,
               reason: str) -> None:
        t = self.machine.wall_clock()
        record = FaultRecord(device_id=domain.device_id, iova=iova,
                             is_write=is_write, reason=reason,
                             t=t, domain_id=domain.domain_id)
        self.faults.append(record)
        if self.obs.enabled:
            self.obs.iommu_fault(t, domain.domain_id, domain.device_id, iova,
                                 is_write, reason)
        raise IommuFault(domain.device_id, iova, is_write=is_write,
                         reason=reason)


class DmaPort(Protocol):
    """What a device holds: the ability to issue DMAs at bus addresses."""

    def dma_read(self, iova: int, size: int) -> bytes:
        """DMA from host memory to the device."""
        ...

    def dma_write(self, iova: int, data: bytes) -> None:
        """DMA from the device into host memory."""
        ...


class TranslatingDmaPort:
    """A device's bus connection when the IOMMU is enabled.

    Each access is split at page boundaries and every page chunk is
    translated through :meth:`Iommu.translate`, in order: the IOTLB is
    consulted once per chunk, and a fault stops the access at the chunk
    it hits — a write has already landed on the chunks before it.

    Bytes move once per run of chunks on consecutive frames of one node
    region, not once per chunk; a run never spans a frame the
    per-chunk move would have refused.
    """

    def __init__(self, iommu: Iommu, domain: Domain):
        self.iommu = iommu
        self.domain = domain

    def _runs(self, iova: int, size: int,
              is_write: bool) -> Iterator[Tuple[int, int, int]]:
        """Translate ``[iova, iova+size)`` chunk by chunk and yield
        ``(pa, lo, hi)`` for each physically contiguous run, where
        ``lo:hi`` is the run's slice of the access.

        A fault first yields the run before the faulting chunk, so its
        bytes still move; a chunk outside memory is yielded on its own
        at once, so its move raises before a later chunk is translated.
        """
        translate = self.iommu.translate
        contains = self.iommu.machine.memory.contains
        domain = self.domain
        run_pa = lo = hi = 0
        offset = 0
        while offset < size:
            current = iova + offset
            chunk = PAGE_SIZE - (current & _PAGE_MASK)
            if chunk > size - offset:
                chunk = size - offset
            try:
                pfn = translate(domain, current, is_write=is_write).pfn
            except IommuFault:
                if hi > lo:
                    yield run_pa, lo, hi
                raise
            pa = (pfn << PAGE_SHIFT) | (current & _PAGE_MASK)
            if pa == run_pa + hi - lo and contains(run_pa, hi - lo + chunk):
                hi += chunk
            else:
                if hi > lo:
                    yield run_pa, lo, hi
                run_pa, lo, hi = pa, offset, offset + chunk
                if not contains(pa, chunk):
                    yield run_pa, lo, hi
            offset += chunk
        if hi > lo:
            yield run_pa, lo, hi

    def dma_read(self, iova: int, size: int) -> bytes:
        read = self.iommu.machine.memory.read
        if size <= PAGE_SIZE - (iova & _PAGE_MASK):
            if size <= 0:
                return b""
            pfn = self.iommu.translate(self.domain, iova, is_write=False).pfn
            return read((pfn << PAGE_SHIFT) | (iova & _PAGE_MASK), size)
        parts = [read(pa, hi - lo)
                 for pa, lo, hi in self._runs(iova, size, False)]
        return parts[0] if len(parts) == 1 else b"".join(parts)

    def dma_write(self, iova: int, data: bytes) -> None:
        write = self.iommu.machine.memory.write
        size = len(data)
        if size <= PAGE_SIZE - (iova & _PAGE_MASK):
            if size:
                pfn = self.iommu.translate(self.domain, iova,
                                           is_write=True).pfn
                write((pfn << PAGE_SHIFT) | (iova & _PAGE_MASK), data)
            return
        view = memoryview(data)
        for pa, lo, hi in self._runs(iova, size, True):
            write(pa, view[lo:hi])


class PassthroughDmaPort:
    """A device's bus connection with the IOMMU disabled: bus address ==
    physical address, no checks — the defenseless ``no iommu`` baseline."""

    def __init__(self, machine: Machine):
        self.machine = machine

    def dma_read(self, iova: int, size: int) -> bytes:
        return self.machine.memory.read(iova, size)

    def dma_write(self, iova: int, data: bytes) -> None:
        self.machine.memory.write(iova, data)

