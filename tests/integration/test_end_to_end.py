"""End-to-end integration: full systems moving real data under every
protection scheme."""

import pytest

from repro.dma.registry import ALL_SCHEMES
from repro.net.packets import build_frame, parse_frame
from repro.system import System, SystemConfig


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_full_stack_data_integrity(scheme):
    """Frames survive the full RX and TX datapaths bit-exactly."""
    system = System.build(SystemConfig(scheme=scheme, cores=2,
                                       rx_ring_size=16, tx_ring_size=16,
                                       keep_frames=True))
    system.setup_queues()
    core = system.machine.core(0)

    payload = bytes(range(256)) * 4
    frame = build_frame(len(payload), payload=payload, seq=99)
    assert system.driver.receive_one(core, 0, frame) == len(payload)

    out = bytes(reversed(payload))
    system.driver.transmit_one(core, 0, len(out), payload=out)
    assert system.nic.tx_log(0)[-1] == out

    system.teardown_queues()
    assert system.dma_api.live_mappings == 0


@pytest.mark.parametrize("scheme", ("copy", "identity-strict",
                                    "identity-deferred"))
def test_sustained_traffic_leaves_no_leaks(scheme):
    system = System.build(SystemConfig(scheme=scheme, cores=2,
                                       rx_ring_size=32, tx_ring_size=32))
    system.setup_queues()
    core0, core1 = system.machine.core(0), system.machine.core(1)
    frame = build_frame(1000)
    for i in range(300):
        system.driver.receive_one(core0, 0, frame)
        system.driver.receive_one(core1, 1, frame)
        if i % 3 == 0:
            system.driver.transmit_one(core0, 0, 32768)
    live_before_teardown = system.dma_api.live_mappings
    # Only the posted RX buffers remain mapped (31 per ring × 2 queues).
    assert live_before_teardown == 2 * 31
    system.teardown_queues()
    assert system.dma_api.live_mappings == 0
    assert system.nic.stats.rx_drops_no_descriptor == 0


def test_copy_pool_invariants_after_traffic():
    system = System.build(SystemConfig(scheme="copy", cores=4))
    system.setup_queues()
    frame = build_frame(1460)
    for qid in range(4):
        core = system.machine.core(qid)
        for _ in range(200):
            assert system.driver.receive_one(core, qid, frame) is not None
    pool = system.dma_api.pool
    assert pool.check_page_rights_invariant()
    # In-flight shadows == posted RX buffers (plus nothing leaked).
    assert pool.stats.in_flight == 4 * (system.config.rx_ring_size - 1)
    system.teardown_queues()
    assert pool.stats.in_flight == 0
    assert pool.stats.acquires == pool.stats.releases
    # Draining the pool returns every byte, buffer and fallback IOVA.
    pool.shrink(system.machine.core(0))
    assert pool.stats.bytes_allocated == 0
    assert pool.stats.buffers_allocated == 0
    assert pool.fallback_iova.outstanding_ranges() == 0


def test_shadow_pool_memory_stays_bounded():
    """§6 'Memory consumption': shadow memory tracks in-flight DMAs, not
    traffic volume."""
    system = System.build(SystemConfig(scheme="copy", cores=1,
                                       rx_ring_size=64))
    system.setup_queues()
    core = system.machine.core(0)
    frame = build_frame(1460)
    for _ in range(50):
        system.driver.receive_one(core, 0, frame)
    after_warm = system.dma_api.pool.stats.bytes_allocated
    for _ in range(1000):
        system.driver.receive_one(core, 0, frame)
    assert system.dma_api.pool.stats.bytes_allocated == after_warm
    system.teardown_queues()


def test_queue_setup_is_idempotent():
    system = System.build(SystemConfig(scheme="copy", cores=1))
    system.setup_queues()
    system.setup_queues()  # no double allocation
    system.teardown_queues()
    system.teardown_queues()  # no double free


def test_mixed_devices_share_the_iommu():
    """Two systems can coexist on one machine model (distinct domains)."""
    from repro.dma.registry import create_dma_api
    from repro.hw.machine import Machine
    from repro.iommu.iommu import Iommu
    from repro.kalloc.slab import KernelAllocators
    from repro.dma.api import DmaDirection

    machine = Machine.build(cores=2, numa_nodes=1)
    ka = KernelAllocators(machine)
    iommu = Iommu(machine)
    copy_api = create_dma_api("copy", machine, iommu, 1, ka)
    strict_api = create_dma_api("identity-strict", machine, iommu, 2, ka)
    core = machine.core(0)
    buf = ka.kmalloc(1500, node=0)
    h1 = copy_api.dma_map(core, buf, DmaDirection.FROM_DEVICE)
    h2 = strict_api.dma_map(core, buf, DmaDirection.FROM_DEVICE)
    # Device 2 cannot use device 1's IOVA and vice versa.
    copy_api.port().dma_write(h1.iova, b"one")
    with pytest.raises(Exception):
        strict_api.port().dma_write(h1.iova, b"cross")
    strict_api.port().dma_write(h2.iova, b"two")
    copy_api.dma_unmap(core, h1)
    strict_api.dma_unmap(core, h2)
