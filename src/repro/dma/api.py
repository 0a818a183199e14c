"""The DMA API — the interface drivers use to authorize DMAs (§2.2).

Mirrors the Linux streaming DMA API:

* ``dma_map`` / ``dma_unmap`` for single buffers,
* ``dma_map_sg`` / ``dma_unmap_sg`` for scatter/gather lists,
* ``dma_alloc_coherent`` / ``dma_free_coherent`` for shared
  driver↔device structures (descriptor rings, mailboxes).

Each protection scheme implements this interface.  DMA shadowing's design
goal of *transparency* (§5.1) is expressed here: the shadow implementation
is just another subclass — drivers are oblivious to which scheme runs
beneath them.

The base class also enforces the API contract (no double unmap, unmap
must quote the map's size/direction), because the paper's threat model
assumes drivers use the API correctly and we want tests to prove ours do.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Sequence

from repro.errors import DmaApiError, ReproError
from repro.hw.cpu import Core
from repro.iommu.iommu import DmaPort
from repro.iommu.page_table import Perm
from repro.kalloc.slab import KBuffer
from repro.obs.context import NULL_OBS
from repro.obs.requests import MARK_MAPPED, MARK_UNMAPPED
from repro.obs.spans import SPAN_DMA_MAP, SPAN_DMA_UNMAP
from repro.obs.trace import EV_DMA_MAP, EV_DMA_UNMAP


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


@dataclass
class _LiveMapping:
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


class DmaApi(abc.ABC):
    """Base class for all protection schemes."""

    #: Scheme identifier used by the registry and in result tables.
    name: str = "abstract"
    properties: SchemeProperties
    #: Protection domain the scheme maps into, when it has one.
    #: IOMMU-backed subclasses set this; ``None`` (no-iommu, swiotlb)
    #: means the exposure accountant has no domain to attribute to.
    domain_id: int | None = None

    def __init__(self) -> None:
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
        if self.obs.enabled:
            self.obs.spans.begin(SPAN_DMA_MAP, core)
        try:
            handle, cookie = self._map(core, buf, direction)
        except ReproError:
            # Keep the span stack balanced when a map fails (schemes
            # unwind their own IOVA/page/pool state before re-raising).
            if self.obs.enabled:
                self.obs.spans.end(core)
            raise
        if self.obs.enabled:
            self.obs.spans.end(core)
        if handle.iova in self._live:
            raise DmaApiError(
                f"scheme bug: IOVA {handle.iova:#x} handed out twice"
            )
        self._live[handle.iova] = _LiveMapping(buf=buf, handle=handle,
                                               cookie=cookie)
        self.stats.note_map(buf.size)
        if self.obs.enabled:
            self.obs.tracer.emit(EV_DMA_MAP, core.now, core.cid,
                                 scheme=self.name, iova=handle.iova,
                                 size=buf.size,
                                 direction=direction.value)
            self.obs.metrics.counter(f"dma.maps:{self.name}").inc()
            self.obs.exposure.note_dma_map(core.now, self.name,
                                           self.domain_id, handle.iova,
                                           buf.size)
            self.obs.requests.mark(core, MARK_MAPPED)
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
        if self.obs.enabled:
            self.obs.spans.begin(SPAN_DMA_UNMAP, core)
        self._unmap(core, live.buf, handle, live.cookie)
        if self.obs.enabled:
            self.obs.spans.end(core)
        self.stats.unmaps += 1
        if self.obs.enabled:
            self.obs.tracer.emit(EV_DMA_UNMAP, core.now, core.cid,
                                 scheme=self.name, iova=handle.iova,
                                 size=handle.size)
            self.obs.metrics.counter(f"dma.unmaps:{self.name}").inc()
            self.obs.exposure.note_dma_unmap(core.now, self.name,
                                             self.domain_id, handle.iova,
                                             handle.size)
            self.obs.requests.mark(core, MARK_UNMAPPED)

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

    @abc.abstractmethod
    def dma_alloc_coherent(self, core: Core, size: int,
                           node: int = 0) -> CoherentBuffer:
        """Allocate driver↔device shared memory (page quantities, §2.2)."""

    @abc.abstractmethod
    def dma_free_coherent(self, core: Core, buf: CoherentBuffer) -> None:
        """Free and unmap a coherent allocation (strict semantics, §5.2)."""

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
