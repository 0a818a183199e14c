"""``no iommu`` baseline: bus address = physical address, no protection.

This is the paper's performance yardstick — the fastest possible
configuration and the one that is defenseless against DMA attacks.
``dma_map`` degenerates to returning the buffer's physical address; the
device's port bypasses translation entirely.
"""

from __future__ import annotations

from repro.dma.api import CoherentBuffer, DmaApi, DmaDirection, DmaHandle
from repro.errors import DmaApiError
from repro.hw.cpu import Core
from repro.hw.machine import Machine
from repro.iommu.iommu import PassthroughDmaPort
from repro.kalloc.slab import KBuffer, KernelAllocators
from repro.sim.units import page_order


class NoIommuDmaApi(DmaApi):
    """IOMMU disabled — DMAs reach physical memory unchecked.

    Also the base of the other scheme without an IOMMU (swiotlb): the
    passthrough port, and coherent memory as buddy pages the device
    reaches at their physical address.
    """

    name = "no-iommu"

    def __init__(self, machine: Machine, allocators: KernelAllocators):
        super().__init__(machine)
        self.allocators = allocators
        self._port = PassthroughDmaPort(machine)
        self._coherent: dict[int, int] = {}  # pa -> node

    def _map(self, core: Core, buf: KBuffer,
             direction: DmaDirection) -> tuple[DmaHandle, object]:
        # A handful of cycles for the (no-op) dma_map_single call itself.
        core.charge(20)
        return DmaHandle(iova=buf.pa, size=buf.size, direction=direction), None

    def _unmap(self, core: Core, buf: KBuffer, handle: DmaHandle,
               cookie: object) -> None:
        core.charge(20)

    def dma_alloc_coherent(self, core: Core, size: int,
                           node: int = 0) -> CoherentBuffer:
        """Page-quantity allocation at its physical address (§2.2)."""
        pa = self.allocators.buddies[node].alloc_pages(page_order(size), core)
        self._coherent[pa] = node
        self.stats.coherent_allocs += 1
        return CoherentBuffer(kbuf=KBuffer(pa=pa, size=size, node=node),
                              iova=pa, size=size)

    def dma_free_coherent(self, core: Core, buf: CoherentBuffer) -> None:
        node = self._coherent.pop(buf.kbuf.pa, None)
        if node is None:
            raise DmaApiError(f"free of unknown coherent buffer "
                              f"{buf.iova:#x}")
        self.allocators.buddies[node].free_pages(buf.kbuf.pa, core)

    def port(self) -> PassthroughDmaPort:
        return self._port
