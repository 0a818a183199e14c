"""40 Gb/s NIC device model.

Models the evaluated machine's Intel Fortville XL710 at the level the
paper cares about: multi-queue RX/TX descriptor rings, MTU-sized receive
buffers, and TSO on transmit (the driver hands the NIC up to 64 KB, the
NIC segments to MTU on the wire — §6 "Single-core TCP throughput").

The NIC is *hardware*: every byte it touches — descriptors and payloads —
moves through its :class:`~repro.iommu.iommu.DmaPort`, i.e. through the
IOMMU when one is configured.  It is also the component the attack
framework subclasses to become malicious.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import IommuFault, SimulationError
from repro.faults.injector import NULL_FAULTS
from repro.faults.plan import SITE_NIC_RX_DROP
from repro.iommu.iommu import DmaPort
from repro.net.ring import FLAG_DONE, FLAG_EOP, Descriptor, DescriptorRing
from repro.obs.context import NULL_OBS
from repro.sim.units import ETH_MTU, TSO_MAX_BYTES


@dataclass
class NicStats:
    rx_frames: int = 0
    rx_bytes: int = 0
    rx_drops_no_descriptor: int = 0
    rx_drops_too_big: int = 0
    rx_drops_injected: int = 0
    rx_drops_faulted: int = 0
    tx_faulted_packets: int = 0
    tx_frames: int = 0
    tx_bytes: int = 0
    tx_wire_segments: int = 0


@dataclass
class _QueueState:
    rx_ring: Optional[DescriptorRing] = None
    tx_ring: Optional[DescriptorRing] = None
    rx_next: int = 0  # device-side RX consume cursor
    tx_next: int = 0  # device-side TX consume cursor
    #: Payloads kept for inspection when ``keep_frames`` is on.
    tx_log: List[bytes] = field(default_factory=list)


class Nic:
    """The device side of the network interface."""

    def __init__(self, device_id: int, port: DmaPort, num_queues: int = 1,
                 keep_frames: bool = False):
        if num_queues < 1:
            raise SimulationError("NIC needs at least one queue")
        self.device_id = device_id
        self.port = port
        self.num_queues = num_queues
        self.keep_frames = keep_frames
        self.stats = NicStats()
        #: Observability context (the driver shares its own) and the OS
        #: core whose request the current device interaction serves —
        #: the NIC has no clock, so request marks borrow that core's.
        self.obs = NULL_OBS
        self.dma_core = None
        #: Fault injector (rebound by System.build; NULL_FAULTS → no-op).
        self.faults = NULL_FAULTS
        self._queues: Dict[int, _QueueState] = {
            q: _QueueState() for q in range(num_queues)
        }

    def attach_rings(self, qid: int, rx_ring: DescriptorRing,
                     tx_ring: DescriptorRing) -> None:
        state = self._queue(qid)
        state.rx_ring = rx_ring
        state.tx_ring = tx_ring

    def _queue(self, qid: int) -> _QueueState:
        try:
            return self._queues[qid]
        except KeyError:
            raise SimulationError(f"NIC has no queue {qid}") from None

    # ------------------------------------------------------------------
    # Receive path (wire → host memory).
    # ------------------------------------------------------------------
    def receive_frame(self, qid: int, frame: bytes) -> bool:
        """A frame arrives from the wire; DMA it into the next RX buffer.

        Returns ``False`` (and counts a drop) when no armed descriptor is
        available or the buffer is too small — real NIC behaviour, and
        also what a protection fault turns into from the wire's viewpoint.
        """
        state = self._queue(qid)
        ring = state.rx_ring
        if ring is None:
            raise SimulationError(f"queue {qid} has no RX ring")
        if self.faults.enabled and self.faults.fires(SITE_NIC_RX_DROP,
                                                     self.dma_core):
            # Injected wire-side loss: the frame evaporates before the
            # NIC touches a descriptor (models PHY/MAC drops).
            self.stats.rx_drops_injected += 1
            return False
        if state.rx_next >= ring.tail:
            self.stats.rx_drops_no_descriptor += 1
            return False
        desc = ring.device_read(self.port, state.rx_next)
        if not desc.ready:
            self.stats.rx_drops_no_descriptor += 1
            return False
        if len(frame) > desc.length:
            self.stats.rx_drops_too_big += 1
            return False
        try:
            self.port.dma_write(desc.addr, frame)
        except IommuFault:
            # The IOMMU blocked the payload DMA (revoked/expired
            # mapping): from the wire's viewpoint the frame is simply
            # lost.  The descriptor stays armed — hardware retries it.
            self.stats.rx_drops_faulted += 1
            return False
        if self.obs.enabled and self.dma_core is not None:
            self.obs.device_translated(self.dma_core)
        ring.device_write_back(self.port, state.rx_next, Descriptor(
            desc.addr, len(frame), FLAG_DONE | FLAG_EOP))
        state.rx_next += 1
        self.stats.rx_frames += 1
        self.stats.rx_bytes += len(frame)
        return True

    # ------------------------------------------------------------------
    # Transmit path (host memory → wire).
    # ------------------------------------------------------------------
    def transmit_pending(self, qid: int) -> int:
        """Consume armed TX descriptors; returns wire segments emitted.

        Each descriptor is one packet (``FLAG_EOP``).  With TSO it may
        describe up to 64 KB; the NIC reads the payload by DMA and
        segments it into MTU frames internally.
        """
        state = self._queue(qid)
        ring = state.tx_ring
        if ring is None:
            raise SimulationError(f"queue {qid} has no TX ring")
        segments = 0
        while state.tx_next < ring.tail:
            desc = ring.device_read(self.port, state.tx_next)
            if not desc.ready:
                break
            if desc.length > TSO_MAX_BYTES:
                raise SimulationError(
                    f"TX packet of {desc.length} B exceeds NIC limit")
            if not desc.flags & FLAG_EOP:
                raise SimulationError(
                    f"TX descriptor {state.tx_next} has no EOP flag: each "
                    "packet is one descriptor")
            try:
                payload = self.port.dma_read(desc.addr, desc.length)
            except IommuFault:
                # Blocked payload fetch: the NIC reports the descriptor
                # done (so the driver reaps and recovers the ring slot)
                # but emits nothing on the wire — a TX error, not a hang.
                payload = None
            if self.obs.enabled and self.dma_core is not None:
                self.obs.device_translated(self.dma_core)
            ring.device_write_back(self.port, state.tx_next, Descriptor(
                desc.addr, desc.length, desc.flags | FLAG_DONE))
            state.tx_next += 1
            if payload is None:
                self.stats.tx_faulted_packets += 1
                continue
            if self.keep_frames:
                state.tx_log.append(payload)
            nsegs = max(1, -(-len(payload) // ETH_MTU))
            segments += nsegs
            self.stats.tx_frames += 1
            self.stats.tx_bytes += len(payload)
            self.stats.tx_wire_segments += nsegs
        return segments

    def tx_log(self, qid: int) -> List[bytes]:
        """Transmitted payloads (only populated with ``keep_frames``)."""
        return self._queue(qid).tx_log
