"""DMA descriptor rings over ``dma_alloc_coherent`` memory.

A descriptor ring is the canonical driver↔device shared structure (§2.2):
the driver writes descriptors (bus address, length, flags) into a
coherent buffer; the device reads them — *through its DMA port, i.e.
through the IOMMU* — fetches or fills the described buffers, and writes
completion status back.  Nothing in the datapath bypasses translation,
so a misbehaving device model faults exactly where real hardware would.

Descriptor layout (16 bytes, little endian): ``addr:u64 len:u32 flags:u32``.
"""

from __future__ import annotations

import struct
from typing import NamedTuple, Sequence

from repro.dma.api import CoherentBuffer, DmaApi
from repro.errors import ConfigurationError, SimulationError
from repro.hw.cpu import Core
from repro.hw.machine import Machine
from repro.iommu.iommu import DmaPort

DESC_SIZE = 16
_DESC = struct.Struct("<QII")

#: Descriptor flag bits.
FLAG_READY = 0x1   # driver → device: descriptor is armed
FLAG_DONE = 0x2    # device → driver: DMA completed
FLAG_EOP = 0x4     # end of packet


class Descriptor(NamedTuple):
    """One decoded ring descriptor."""

    addr: int
    length: int
    flags: int

    @property
    def ready(self) -> bool:
        return bool(self.flags & FLAG_READY)

    @property
    def done(self) -> bool:
        return bool(self.flags & FLAG_DONE)


class DescriptorRing:
    """A cyclic buffer of descriptors in coherent memory.

    The driver-side accessors (:meth:`write_descriptor`,
    :meth:`read_descriptor`) touch the coherent buffer via plain CPU
    memory access; the device-side accessors (:meth:`device_read`,
    :meth:`device_write_flags`) go through the device's :class:`DmaPort`.
    """

    def __init__(self, machine: Machine, dma_api: DmaApi, core: Core,
                 entries: int, name: str = "ring", node: int = 0):
        if entries < 2 or entries & (entries - 1):
            raise ConfigurationError("ring size must be a power of two ≥ 2")
        self.machine = machine
        self.name = name
        self.entries = entries
        self.coherent: CoherentBuffer = dma_api.dma_alloc_coherent(
            core, entries * DESC_SIZE, node=node)
        self._dma_api = dma_api
        # Driver-side cursors.
        self.head = 0  # next descriptor the device will consume
        self.tail = 0  # next descriptor the driver will post

    def free(self, core: Core) -> None:
        self._dma_api.dma_free_coherent(core, self.coherent)

    # ------------------------------------------------------------------
    # Driver (CPU) side — direct memory access to the coherent buffer.
    # ------------------------------------------------------------------
    def _slot_pa(self, index: int) -> int:
        return self.coherent.kbuf.pa + (index % self.entries) * DESC_SIZE

    def _slot_iova(self, index: int) -> int:
        return self.coherent.iova + (index % self.entries) * DESC_SIZE

    def write_descriptor(self, index: int, desc: Descriptor) -> None:
        self.machine.memory.write(self._slot_pa(index), _DESC.pack(*desc))

    def read_descriptor(self, index: int) -> Descriptor:
        raw = self.machine.memory.read(self._slot_pa(index), DESC_SIZE)
        return Descriptor._make(_DESC.unpack(raw))

    def post(self, desc: Descriptor) -> int:
        """Driver arms the next slot; returns its index."""
        if self.tail - self.head >= self.entries:
            raise SimulationError(f"ring {self.name} overflow")
        index = self.tail
        self.write_descriptor(index, desc)
        self.tail += 1
        return index

    def post_many(self, descs: Sequence[Descriptor]) -> int:
        """Arm the next ``len(descs)`` slots in order, with one memory
        write per contiguous run of slots; returns the first slot's
        index.  A batch that does not fit is refused whole."""
        index = self.tail
        if self.tail - self.head + len(descs) > self.entries:
            raise SimulationError(f"ring {self.name} overflow")
        packed = b"".join([_DESC.pack(*desc) for desc in descs])
        head_room = (self.entries - index % self.entries) * DESC_SIZE
        write = self.machine.memory.write
        write(self._slot_pa(index), packed[:head_room])
        write(self.coherent.kbuf.pa, packed[head_room:])
        self.tail += len(descs)
        return index

    def reap(self) -> tuple[int, Descriptor] | None:
        """Driver consumes the oldest completed descriptor, if any."""
        if self.head == self.tail:
            return None
        desc = self.read_descriptor(self.head)
        if not desc.done:
            return None
        index = self.head
        self.head += 1
        return index, desc

    @property
    def outstanding(self) -> int:
        return self.tail - self.head

    # ------------------------------------------------------------------
    # Device side — all access through the DMA port (IOMMU-checked).
    # ------------------------------------------------------------------
    def device_read(self, port: DmaPort, index: int) -> Descriptor:
        raw = port.dma_read(self._slot_iova(index), DESC_SIZE)
        return Descriptor._make(_DESC.unpack(raw))

    def device_write_back(self, port: DmaPort, index: int,
                          desc: Descriptor) -> None:
        port.dma_write(self._slot_iova(index), _DESC.pack(*desc))
