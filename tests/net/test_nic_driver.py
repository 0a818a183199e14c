"""NIC model + driver tests, over multiple protection schemes."""

import pytest

from repro.dma.registry import FIGURE_SCHEMES
from repro.errors import SimulationError
from repro.net.driver import NicDriver
from repro.net.nic import Nic
from repro.net.packets import build_frame


@pytest.fixture(params=FIGURE_SCHEMES)
def stack(request, machine, allocators, make_api):
    api = make_api(request.param)
    nic = Nic(device_id=1, port=api.port(), num_queues=2, keep_frames=True)
    driver = NicDriver(machine, allocators, api, nic,
                       rx_ring_size=32, tx_ring_size=32)
    core = machine.core(0)
    driver.setup_queue(core, 0)
    yield machine, api, nic, driver, core
    driver.teardown_queue(core, 0)
    assert api.live_mappings == 0


def test_rx_delivers_payload(stack):
    machine, api, nic, driver, core = stack
    frame = build_frame(777, seq=5)
    assert driver.receive_one(core, 0, frame) == 777
    assert nic.stats.rx_frames == 1
    assert driver.stats.rx_packets == 1
    assert driver.stats.rx_bytes == len(frame)


def test_rx_many_recycles_ring(stack):
    machine, api, nic, driver, core = stack
    frame = build_frame(1000)
    for _ in range(100):  # > ring size: exercises refill/wraparound
        assert driver.receive_one(core, 0, frame) == 1000
    assert nic.stats.rx_drops_no_descriptor == 0


def test_rx_oversized_frame_dropped(stack):
    machine, api, nic, driver, core = stack
    giant = build_frame(4000, mtu=8000)  # larger than the 2 KB RX buffer
    assert driver.receive_one(core, 0, giant) is None
    assert nic.stats.rx_drops_too_big == 1


def test_rx_unconfigured_queue_rejected(stack):
    machine, api, nic, driver, core = stack
    with pytest.raises(SimulationError):
        driver.receive_one(core, 1, build_frame(10))


def test_tx_transmits_with_tso(stack):
    machine, api, nic, driver, core = stack
    segments = driver.transmit_one(core, 0, 65536)
    assert segments == 44  # ceil(65536 / 1500)
    assert nic.stats.tx_bytes == 65536
    assert driver.stats.tx_chunks == 1


def test_tx_payload_reaches_wire(stack):
    machine, api, nic, driver, core = stack
    payload = bytes(range(256)) * 8
    driver.transmit_one(core, 0, len(payload), payload=payload)
    assert nic.tx_log(0)[-1] == payload


def test_tx_small_chunk_single_segment(stack):
    machine, api, nic, driver, core = stack
    assert driver.transmit_one(core, 0, 200) == 1


def test_tx_oversized_descriptor_rejected(stack):
    """A descriptor beyond the NIC's TSO limit is a driver bug the device
    model refuses (before issuing any DMA)."""
    from repro.net.ring import Descriptor, FLAG_READY

    machine, api, nic, driver, core = stack
    ring = driver._tx_rings[0]
    idx = ring.post(Descriptor(addr=0x1000, length=100_000,
                               flags=FLAG_READY))
    with pytest.raises(SimulationError):
        nic.transmit_pending(0)
    # Remove the poisoned descriptor so teardown stays clean.
    ring.write_descriptor(idx, Descriptor(addr=0x1000, length=0, flags=0))
    ring.tail -= 1
    nic._queues[0].tx_next = ring.tail


def test_tx_descriptor_without_eop_rejected(stack):
    """Each TX descriptor is one packet: the NIC refuses one without EOP
    instead of gathering it with the descriptors after it."""
    from repro.net.ring import Descriptor, FLAG_EOP, FLAG_READY

    machine, api, nic, driver, core = stack
    ring = driver._tx_rings[0]
    first = ring.post(Descriptor(0x1000, 100, FLAG_READY))
    ring.post(Descriptor(0x1000, 100, FLAG_READY | FLAG_EOP))
    with pytest.raises(SimulationError, match="EOP"):
        nic.transmit_pending(0)
    assert nic.stats.tx_frames == 0
    # Remove both descriptors so teardown stays clean.
    for idx in (first, first + 1):
        ring.write_descriptor(idx, Descriptor(addr=0x1000, length=0,
                                              flags=0))
    ring.tail -= 2
    nic._queues[0].tx_next = ring.tail


def test_tx_blocked_payload_fetch_completes_unsent(machine, allocators,
                                                   make_api):
    """A payload fetch the IOMMU blocks sends nothing, but the NIC hands
    the descriptor back done, so the driver can reap its slot."""
    from repro.net.ring import Descriptor, FLAG_DONE, FLAG_EOP, FLAG_READY

    api = make_api("identity-strict")
    nic = Nic(device_id=9, port=api.port(), num_queues=1)
    driver = NicDriver(machine, allocators, api, nic,
                       rx_ring_size=4, tx_ring_size=4)
    core = machine.core(0)
    driver.setup_queue(core, 0)
    ring = driver._tx_rings[0]
    idx = ring.post(Descriptor(0x7000_0000, 100, FLAG_READY | FLAG_EOP))
    assert nic.transmit_pending(0) == 0
    assert nic.stats.tx_faulted_packets == 1
    assert nic.stats.tx_frames == 0
    assert ring.reap() == (idx, Descriptor(
        0x7000_0000, 100, FLAG_READY | FLAG_EOP | FLAG_DONE))
    driver.teardown_queue(core, 0)


def test_nic_requires_rings():
    nic = Nic(device_id=1, port=None, num_queues=1)
    with pytest.raises(SimulationError):
        nic.receive_frame(0, b"x")
    with pytest.raises(SimulationError):
        nic.transmit_pending(0)


def test_nic_unknown_queue():
    nic = Nic(device_id=1, port=None, num_queues=1)
    with pytest.raises(SimulationError):
        nic.receive_frame(5, b"x")


def test_nic_needs_positive_queues():
    with pytest.raises(SimulationError):
        Nic(device_id=1, port=None, num_queues=0)


def test_rx_ring_exhaustion_drops(machine, allocators, make_api):
    api = make_api("no-iommu")
    nic = Nic(device_id=9, port=api.port(), num_queues=1)
    driver = NicDriver(machine, allocators, api, nic,
                       rx_ring_size=4, tx_ring_size=4)
    core = machine.core(0)
    driver.setup_queue(core, 0)
    # Deliver without driver-side processing: exhaust the 3 posted buffers.
    frame = build_frame(100)
    for _ in range(3):
        assert nic.receive_frame(0, frame)
    assert not nic.receive_frame(0, frame)
    assert nic.stats.rx_drops_no_descriptor == 1
    # Drain so teardown sees no surprises.
    for _ in range(3):
        ring = driver._rx_rings[0]
        item = ring.reap()
        idx, _ = item
        slot = driver._rx_slots[0].pop(idx)
        api.dma_unmap(core, slot.handle)
        allocators.buddies[0].free_pages(slot.buf.pa, core)
    driver.teardown_queue(core, 0)


def test_large_rx_buffers_for_lro(machine, allocators, make_api):
    api = make_api("copy")
    nic = Nic(device_id=9, port=api.port(), num_queues=1)
    driver = NicDriver(machine, allocators, api, nic,
                       rx_ring_size=8, tx_ring_size=8, rx_buf_size=16384)
    core = machine.core(0)
    driver.setup_queue(core, 0)
    aggregate = build_frame(11000, mtu=12000)
    assert driver.receive_one(core, 0, aggregate) == 11000
    driver.teardown_queue(core, 0)
