"""NIC device driver — the OS side of the datapath.

The driver is the DMA API's client, and the place where the paper's
per-packet costs are incurred:

* **RX**: post page-sized MTU buffers (allocated fresh, ``dma_map``ed
  ``FROM_DEVICE``); on completion ``dma_unmap`` (where zero-copy schemes
  pay page-table + invalidation costs and the copy scheme pays the
  copy-back), hand the buffer to the stack, free it, and refill the ring.
* **TX**: ``dma_map`` the (up to 64 KB, TSO) chunk ``TO_DEVICE``, post a
  descriptor, let the NIC transmit, then ``dma_unmap`` on completion.

The driver is scheme-agnostic — it sees only the abstract
:class:`~repro.dma.api.DmaApi` (transparency, §5.1).  If the scheme is
DMA shadowing it registers the paper's IP-length copying hint (§5.4),
which a driver is allowed to do but never required to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.hints import ip_length_hint
from repro.core.shadow_dma import ShadowDmaApi
from repro.dma.api import DmaApi, DmaDirection, DmaHandle
from repro.errors import ReproError, SimulationError
from repro.faults.plan import SITE_RING_OVERFLOW
from repro.hw.cpu import CAT_OTHER, CAT_RX_PARSE, Core
from repro.hw.machine import Machine
from repro.kalloc.slab import KBuffer, KernelAllocators
from repro.net.nic import Nic
from repro.net.packets import parse_frame
from repro.net.ring import FLAG_EOP, FLAG_READY, Descriptor, DescriptorRing
from repro.obs import (REQ_RX, REQ_TX, SPAN_DEVICE_ACCESS, SPAN_RX_PACKET,
                       SPAN_TX_CHUNK)
from repro.sim.units import PAGE_SIZE, page_order


@dataclass
class _RxSlot:
    buf: KBuffer
    handle: DmaHandle


@dataclass
class _TxSlot:
    buf: KBuffer
    handle: DmaHandle
    free_buffer: bool
    #: For scatter-gather sends: the whole-chunk allocation to free once
    #: this (final) element completes.
    parent: Optional[KBuffer] = None


@dataclass
class DriverStats:
    rx_packets: int = 0
    rx_bytes: int = 0
    tx_chunks: int = 0
    tx_bytes: int = 0
    #: Error-path accounting (fault injection / resource pressure).
    rx_refill_failures: int = 0
    rx_refill_recoveries: int = 0
    tx_map_failures: int = 0
    tx_ring_recoveries: int = 0
    tx_dropped_chunks: int = 0


class NicDriver:
    """Driver for :class:`~repro.net.nic.Nic` over any protection scheme."""

    def __init__(self, machine: Machine, allocators: KernelAllocators,
                 dma_api: DmaApi, nic: Nic,
                 rx_ring_size: int = 512, tx_ring_size: int = 512,
                 rx_buf_size: int = 2048,
                 use_copy_hints: bool = True):
        self.machine = machine
        self.cost = machine.cost
        self.allocators = allocators
        self.dma_api = dma_api
        self.nic = nic
        self.rx_ring_size = rx_ring_size
        self.tx_ring_size = tx_ring_size
        #: Size of one posted RX buffer.  Allocated in whole pages so each
        #: buffer owns its page(s), like high-performance NIC drivers do —
        #: see DESIGN.md (the sub-page co-location scenario is exercised
        #: by the attack framework's driver instead).  The default fits an
        #: MTU frame; latency (LRO) configurations use larger buffers.
        self.rx_buf_size = rx_buf_size
        self._rx_buf_order = page_order(rx_buf_size)
        self.obs = machine.obs
        #: The NIC shares the driver's observability context so device
        #: interactions can stamp request marks (device_translated).
        nic.obs = self.obs
        #: Lazy observability: the context's ``enabled`` flag is fixed at
        #: construction, so an untraced driver binds the fast per-packet
        #: paths once instead of testing ``obs.enabled`` per packet.  The
        #: zero-overhead suite proves both variants charge identically.
        if not self.obs.enabled:
            self.receive_one = self._receive_one_fast
            self.transmit_one = self._transmit_one_fast
        self.stats = DriverStats()
        self.faults = machine.faults
        #: Per-queue count of RX descriptors we failed to repost — the
        #: driver owes the ring these buffers and repays them on the
        #: next successful refill (ring recovery, not a leak).
        self._rx_deficit: Dict[int, int] = {}
        self._rx_rings: Dict[int, DescriptorRing] = {}
        self._tx_rings: Dict[int, DescriptorRing] = {}
        self._rx_slots: Dict[int, Dict[int, _RxSlot]] = {}
        self._tx_slots: Dict[int, Dict[int, _TxSlot]] = {}
        if use_copy_hints and isinstance(dma_api, ShadowDmaApi):
            dma_api.register_copy_hint(DmaDirection.FROM_DEVICE,
                                       ip_length_hint)

    # ------------------------------------------------------------------
    # Setup / teardown.
    # ------------------------------------------------------------------
    def setup_queue(self, core: Core, qid: int) -> None:
        """Allocate this queue's rings and fill the RX ring with buffers."""
        node = core.numa_node
        rx = DescriptorRing(self.machine, self.dma_api, core,
                            self.rx_ring_size, name=f"rx{qid}", node=node)
        tx = DescriptorRing(self.machine, self.dma_api, core,
                            self.tx_ring_size, name=f"tx{qid}", node=node)
        self._rx_rings[qid] = rx
        self._tx_rings[qid] = tx
        self._rx_slots[qid] = {}
        self._tx_slots[qid] = {}
        self.nic.attach_rings(qid, rx, tx)
        self._rx_deficit[qid] = 0
        # dma_map_fresh allocates and maps rx_ring_size - 1 buffers,
        # charging each descriptor's refill work, and the ring takes every
        # descriptor in one write.  A failed map propagates once the
        # buffers mapped before it are posted.
        mapped: List[Tuple[KBuffer, DmaHandle]] = []
        try:
            self.dma_api.dma_map_fresh(
                core, self.allocators.buddies[node], self.rx_buf_size,
                self.rx_ring_size - 1, DmaDirection.FROM_DEVICE,
                self.cost.rx_refill_cycles, mapped)
        finally:
            first = rx.post_many([Descriptor(handle.iova, self.rx_buf_size,
                                             FLAG_READY)
                                  for _, handle in mapped])
            slots = self._rx_slots[qid]
            for index, (buf, handle) in enumerate(mapped, first):
                slots[index] = _RxSlot(buf, handle)

    def teardown_queue(self, core: Core, qid: int) -> None:
        """Unmap and free everything the queue still holds."""
        for slot in self._rx_slots[qid].values():
            self.dma_api.dma_unmap(core, slot.handle)
            self.allocators.buddies[slot.buf.node].free_pages(
                slot.buf.pa, core)
        self._rx_slots[qid].clear()
        self.reap_tx(core, qid)
        if self._tx_slots[qid]:
            raise SimulationError("teardown with un-reaped TX slots")
        self._rx_rings.pop(qid).free(core)
        self._tx_rings.pop(qid).free(core)
        self._rx_deficit.pop(qid, None)

    # ------------------------------------------------------------------
    # RX path.
    # ------------------------------------------------------------------
    def _post_rx_buffer(self, core: Core, qid: int) -> bool:
        """Allocate, map, and arm one RX buffer (ring refill).

        Returns ``False`` on map failure (pages are returned to the buddy
        — nothing leaks).
        """
        node = core.numa_node
        pa = self.allocators.buddies[node].alloc_pages(self._rx_buf_order,
                                                       core)
        buf = KBuffer(pa, self.rx_buf_size, node)
        try:
            handle = self.dma_api.dma_map(core, buf,
                                          DmaDirection.FROM_DEVICE)
        except ReproError:
            self.allocators.buddies[node].free_pages(pa, core)
            self.stats.rx_refill_failures += 1
            return False
        ring = self._rx_rings[qid]
        index = ring.post(Descriptor(handle.iova, self.rx_buf_size,
                                     FLAG_READY))
        self._rx_slots[qid][index] = _RxSlot(buf, handle)
        core.charge(self.cost.rx_refill_cycles, CAT_OTHER)
        return True

    def _refill_rx(self, core: Core, qid: int) -> None:
        """Repost the just-consumed descriptor plus any owed deficit.

        A failed repost is remembered (the ring slowly drains — graceful
        degradation); once maps succeed again the deficit is repaid and
        the ring returns to full depth.
        """
        owed = 1 + self._rx_deficit.get(qid, 0)
        posted = 0
        while posted < owed:
            if not self._post_rx_buffer(core, qid):
                break
            posted += 1
        self._rx_deficit[qid] = owed - posted
        recovered = max(0, posted - 1)
        if recovered:
            self.stats.rx_refill_recoveries += recovered
            if self.obs.enabled:
                self.obs.fault_recovered(core, "rx.refill", "repost",
                                         recovered=recovered)

    def receive_one(self, core: Core, qid: int, frame: bytes) -> Optional[int]:
        """Deliver ``frame`` from the wire and run full RX processing.

        Returns the TCP payload length (``None`` if the NIC dropped the
        frame).  Covers: device DMA, ``dma_unmap`` (the protection cost),
        header parsing, and ring refill.  Stack/socket costs above the
        driver are charged by the workload layer.  Runs only with
        observability on; :meth:`_receive_one_fast` is bound otherwise.
        """
        obs = self.obs
        obs.request_begin(core, REQ_RX, qid=qid, nbytes=len(frame))
        self.nic.dma_core = core
        obs.span_begin(SPAN_RX_PACKET, core)
        obs.span_begin(SPAN_DEVICE_ACCESS, core)
        accepted = self.nic.receive_frame(qid, frame)
        obs.span_end(core)         # device_access
        if not accepted:
            obs.span_end(core)     # rx_packet (dropped frame)
            obs.request_end(core)
            return None
        reaped = self._rx_rings[qid].reap()
        if reaped is None:
            raise SimulationError("NIC signalled RX but ring has no completion")
        index, desc = reaped
        slot = self._rx_slots[qid].pop(index)
        # Unmap first — after this the OS owns the buffer (§2.2).  For
        # the copy scheme this is where the shadow→OS copy happens.
        self.dma_api.dma_unmap(core, slot.handle)
        core.charge(self.cost.rx_parse_cycles, CAT_RX_PARSE)
        parsed = parse_frame(self.machine.memory.read(slot.buf.pa,
                                                      desc.length))
        self.stats.rx_packets += 1
        self.stats.rx_bytes += desc.length
        obs.packet_received(core, qid, desc.length, parsed.payload_len)
        self.allocators.buddies[slot.buf.node].free_pages(slot.buf.pa, core)
        self._refill_rx(core, qid)
        obs.span_end(core)         # rx_packet
        obs.request_end(core)
        return parsed.payload_len

    def _receive_one_fast(self, core: Core, qid: int,
                          frame: bytes) -> Optional[int]:
        """:meth:`receive_one` with the observability hooks elided.

        Bound over ``receive_one`` at construction when the context is
        disabled; must charge exactly what the instrumented path charges.
        """
        if not self.nic.receive_frame(qid, frame):
            return None
        reaped = self._rx_rings[qid].reap()
        if reaped is None:
            raise SimulationError("NIC signalled RX but ring has no completion")
        index, desc = reaped
        slot = self._rx_slots[qid].pop(index)
        self.dma_api.dma_unmap(core, slot.handle)
        core.charge(self.cost.rx_parse_cycles, CAT_RX_PARSE)
        parsed = parse_frame(self.machine.memory.read(slot.buf.pa,
                                                      desc.length))
        self.stats.rx_packets += 1
        self.stats.rx_bytes += desc.length
        self.allocators.buddies[slot.buf.node].free_pages(slot.buf.pa, core)
        self._refill_rx(core, qid)
        return parsed.payload_len

    # ------------------------------------------------------------------
    # TX path.
    # ------------------------------------------------------------------
    def _tx_ring_slots_ready(self, core: Core, qid: int,
                             needed: int = 1) -> bool:
        """Ensure ``needed`` free TX slots, reaping completions to make
        room.  A fault plan can force the overflow path even when the
        ring has space (the recovery — reap and retry — is identical).
        Returns ``False`` when reaping did not help: the caller drops.
        """
        ring = self._tx_rings[qid]
        short = ring.entries - ring.outstanding < needed
        injected = (not short and self.faults.enabled
                    and self.faults.fires(SITE_RING_OVERFLOW, core))
        if not (short or injected):
            return True
        self.reap_tx(core, qid)
        if ring.entries - ring.outstanding < needed:
            return False
        self.stats.tx_ring_recoveries += 1
        if self.obs.enabled:
            self.obs.fault_recovered(core, SITE_RING_OVERFLOW, "reap-retry")
        return True

    def _drop_chunk(self, core: Core, buf: KBuffer,
                    free_buffer: bool) -> None:
        self.stats.tx_dropped_chunks += 1
        if free_buffer:
            self.allocators.slabs[buf.node].kfree(buf, core)

    def send_chunk(self, core: Core, qid: int, buf: KBuffer,
                   free_buffer: bool = True) -> bool:
        """Map and post one (TSO-sized) chunk as a single descriptor.

        Returns ``False`` when the chunk was dropped (ring full after
        reaping, or the map failed) — like a real driver's
        ``NETDEV_TX_BUSY``/drop path, nothing leaks and the caller may
        retry with a fresh buffer.
        """
        if not self._tx_ring_slots_ready(core, qid):
            self._drop_chunk(core, buf, free_buffer)
            return False
        try:
            handle = self.dma_api.dma_map(core, buf, DmaDirection.TO_DEVICE)
        except ReproError:
            self.stats.tx_map_failures += 1
            self._drop_chunk(core, buf, free_buffer)
            return False
        ring = self._tx_rings[qid]
        index = ring.post(Descriptor(handle.iova, buf.size,
                                     FLAG_READY | FLAG_EOP))
        self._tx_slots[qid][index] = _TxSlot(buf=buf, handle=handle,
                                             free_buffer=free_buffer)
        core.charge(self.cost.tx_desc_cycles, CAT_OTHER)
        self.stats.tx_chunks += 1
        self.stats.tx_bytes += buf.size
        if self.obs.enabled:
            self.obs.chunk_sent(core, qid, buf.size)
        return True

    def send_chunk_sg(self, core: Core, qid: int, buf: KBuffer,
                      free_buffer: bool = True) -> int:
        """Map and post one chunk as page-sized scatter-gather elements.

        Models an skb whose payload lives in page frags: each element is
        ``dma_map_sg``-ed separately (§2.2 footnote — SG works
        analogously), so zero-copy schemes pay per-page costs and the
        copy scheme performs per-element copies.  Returns the element
        count.
        """
        elements: list[KBuffer] = []
        offset = 0
        while offset < buf.size:
            chunk = min(PAGE_SIZE - ((buf.pa + offset) & (PAGE_SIZE - 1)),
                        buf.size - offset)
            elements.append(KBuffer(buf.pa + offset, chunk, buf.node))
            offset += chunk
        if not self._tx_ring_slots_ready(core, qid, needed=len(elements)):
            self._drop_chunk(core, buf, free_buffer)
            return 0
        try:
            handles = self.dma_api.dma_map_sg(core, elements,
                                              DmaDirection.TO_DEVICE)
        except ReproError:
            # dma_map_sg is all-or-nothing: the mapped prefix was already
            # unwound inside the API, so only the chunk itself remains.
            self.stats.tx_map_failures += 1
            self._drop_chunk(core, buf, free_buffer)
            return 0
        ring = self._tx_rings[qid]
        last = len(handles) - 1
        for i, (element, handle) in enumerate(zip(elements, handles)):
            flags = FLAG_READY | (FLAG_EOP if i == last else 0)
            index = ring.post(Descriptor(handle.iova, element.size, flags))
            self._tx_slots[qid][index] = _TxSlot(
                buf=element, handle=handle, free_buffer=False,
                parent=buf if (free_buffer and i == last) else None)
        # Descriptor-build cost accumulated over the burst: nothing in the
        # posting loop reads the clock, so one charge is cycle-identical
        # to per-element charges.
        core.charge(self.cost.tx_desc_burst_cycles(len(handles)), CAT_OTHER)
        self.stats.tx_chunks += 1
        self.stats.tx_bytes += buf.size
        if self.obs.enabled:
            self.obs.chunk_sent(core, qid, buf.size, len(handles))
        return len(handles)

    def reap_tx(self, core: Core, qid: int) -> int:
        """Process TX completions: unmap and free transmitted chunks."""
        ring = self._tx_rings[qid]
        reaped = 0
        while True:
            item = ring.reap()
            if item is None:
                break
            index, _ = item
            slot = self._tx_slots[qid].pop(index)
            self.dma_api.dma_unmap(core, slot.handle)
            core.charge(self.cost.tx_complete_cycles, CAT_OTHER)
            if slot.free_buffer:
                self.allocators.slabs[slot.buf.node].kfree(slot.buf, core)
            if slot.parent is not None:
                self.allocators.slabs[slot.parent.node].kfree(slot.parent,
                                                              core)
            reaped += 1
        return reaped

    def transmit_one(self, core: Core, qid: int, chunk_bytes: int,
                     payload: bytes | None = None) -> int:
        """Full TX cycle for one chunk: allocate, fill, send, reap.

        Returns the number of wire segments the NIC emitted.  Runs only
        with observability on; :meth:`_transmit_one_fast` is bound
        otherwise.
        """
        obs = self.obs
        obs.request_begin(core, REQ_TX, qid=qid, nbytes=chunk_bytes)
        self.nic.dma_core = core
        obs.span_begin(SPAN_TX_CHUNK, core)
        node = core.numa_node
        buf = self.allocators.slabs[node].kmalloc(chunk_bytes, core)
        if payload is not None:
            self.machine.memory.write(buf.pa, payload[:chunk_bytes])
        sent = self.send_chunk(core, qid, buf)
        if not sent:
            # Chunk dropped (ring full / map failure): nothing armed, so
            # skip the device and just drain any pending completions.
            self.reap_tx(core, qid)
            obs.span_end(core)     # tx_chunk
            obs.request_end(core)
            return 0
        obs.span_begin(SPAN_DEVICE_ACCESS, core)
        segments = self.nic.transmit_pending(qid)
        obs.span_end(core)         # device_access
        self.reap_tx(core, qid)
        obs.span_end(core)         # tx_chunk
        obs.request_end(core)
        return segments

    def _transmit_one_fast(self, core: Core, qid: int, chunk_bytes: int,
                           payload: bytes | None = None) -> int:
        """:meth:`transmit_one` with the observability hooks elided.

        Bound over ``transmit_one`` at construction when the context is
        disabled; must charge exactly what the instrumented path charges.
        """
        node = core.numa_node
        buf = self.allocators.slabs[node].kmalloc(chunk_bytes, core)
        if payload is not None:
            self.machine.memory.write(buf.pa, payload[:chunk_bytes])
        if not self.send_chunk(core, qid, buf):
            self.reap_tx(core, qid)
            return 0
        segments = self.nic.transmit_pending(qid)
        self.reap_tx(core, qid)
        return segments
