"""Failure injection: resource exhaustion and cache-pressure corner cases."""

import pytest

from repro.dma.api import DmaDirection
from repro.dma.registry import create_dma_api
from repro.errors import IommuFault, KallocError, PoolExhaustedError
from repro.hw.machine import Machine
from repro.iommu.iommu import Iommu
from repro.kalloc.slab import KernelAllocators
from repro.net.packets import build_frame
from repro.sim.units import PAGE_SIZE
from repro.system import System, SystemConfig


def test_shadow_pool_cap_fails_loudly_under_traffic():
    """A too-small pool limit surfaces as PoolExhaustedError at map time,
    not as silent corruption."""
    system = System.build(SystemConfig(
        scheme="copy", cores=1, rx_ring_size=64,
        scheme_kwargs={"max_pool_bytes": 32 * PAGE_SIZE}))
    with pytest.raises(PoolExhaustedError):
        system.setup_queues()   # needs 63 RX shadows + TX


def test_shadow_pool_recovers_after_shrink():
    machine = Machine.build(cores=1, numa_nodes=1)
    ka = KernelAllocators(machine)
    iommu = Iommu(machine)
    api = create_dma_api("copy", machine, iommu, 1, ka,
                         max_pool_bytes=8 * PAGE_SIZE)
    core = machine.core(0)
    bufs = [ka.kmalloc(PAGE_SIZE, node=0) for _ in range(8)]
    handles = [api.dma_map(core, b, DmaDirection.TO_DEVICE) for b in bufs]
    with pytest.raises(PoolExhaustedError):
        api.dma_map(core, ka.kmalloc(PAGE_SIZE, node=0),
                    DmaDirection.TO_DEVICE)
    assert api.pool.stats.grow_failures == 1
    for h in handles:
        api.dma_unmap(core, h)
    # Memory pressure: release the free shadows back to the system.
    freed = api.pool.shrink(core)
    assert freed == 8 * PAGE_SIZE
    # The pool can grow again afterwards.
    h = api.dma_map(core, bufs[0], DmaDirection.TO_DEVICE)
    api.dma_unmap(core, h)


def test_buddy_exhaustion_propagates():
    machine = Machine.build(cores=1, numa_nodes=1)
    ka = KernelAllocators(machine)
    # Drain node 0 almost completely.
    total = ka.buddies[0].total_pages
    keep = ka.buddies[0].free_pages_count - 2
    blocks = []
    for _ in range(keep):
        blocks.append(ka.buddies[0].alloc_pages(0))
    with pytest.raises(KallocError):
        ka.buddies[0].alloc_pages(2)
    assert total == ka.buddies[0].total_pages


def test_iotlb_capacity_pressure_shrinks_the_window():
    """Security nuance: a small IOTLB can close the deferred window *by
    accident* — capacity evictions drop the stale entry before the flush.
    The window is therefore probabilistic on real hardware, which is why
    the paper treats deferred protection as insecure-by-design rather
    than reliably exploitable."""
    machine = Machine.build(cores=1, numa_nodes=1)
    ka = KernelAllocators(machine)
    iommu = Iommu(machine, iotlb_capacity=4)   # absurdly small IOTLB
    api = create_dma_api("identity-deferred", machine, iommu, 1, ka)
    core = machine.core(0)

    victim = ka.kmalloc(PAGE_SIZE, node=0)
    handle = api.dma_map(core, victim, DmaDirection.FROM_DEVICE)
    api.port().dma_write(handle.iova, b"legit")
    api.dma_unmap(core, handle)

    # Pressure: touch many other mappings, evicting the stale entry.
    for _ in range(8):
        other = ka.kmalloc(PAGE_SIZE, node=0)
        h = api.dma_map(core, other, DmaDirection.FROM_DEVICE)
        api.port().dma_write(h.iova, b"x")
        api.dma_unmap(core, h)

    with pytest.raises(IommuFault):
        api.port().dma_write(handle.iova, b"window closed by eviction")
    assert iommu.iotlb.stats.evictions > 0


def test_nic_survives_burst_beyond_ring():
    """A burst larger than the posted ring is dropped, counted, and the
    system keeps working afterwards."""
    system = System.build(SystemConfig(scheme="copy", cores=1,
                                       rx_ring_size=8))
    system.setup_queues()
    core = system.machine.core(0)
    frame = build_frame(500)
    # Raw burst at the NIC without driver processing.
    delivered = sum(system.nic.receive_frame(0, frame) for _ in range(10))
    assert delivered == 7
    assert system.nic.stats.rx_drops_no_descriptor == 3
    # Drain and keep going through the normal path.
    for _ in range(7):
        reaped = system.driver._rx_rings[0].reap()
        idx, _ = reaped
        slot = system.driver._rx_slots[0].pop(idx)
        system.dma_api.dma_unmap(core, slot.handle)
        system.allocators.buddies[0].free_pages(slot.buf.pa, core)
        system.driver._post_rx_buffer(core, 0)
    assert system.driver.receive_one(core, 0, frame) == 500
    system.teardown_queues()


def test_fallback_iova_space_never_collides_with_shadow_space():
    """Hybrid mappings (fallback IOVAs) and shadow IOVAs live in disjoint
    halves of the 48-bit space, even under interleaved allocation."""
    machine = Machine.build(cores=1, numa_nodes=1)
    ka = KernelAllocators(machine)
    iommu = Iommu(machine)
    api = create_dma_api("copy", machine, iommu, 1, ka)
    core = machine.core(0)
    iovas = []
    for i in range(20):
        size = 1500 if i % 2 else 128 * 1024
        buf = ka.kmalloc(size, node=0)
        h = api.dma_map(core, buf, DmaDirection.TO_DEVICE)
        iovas.append((size, h.iova))
        api.dma_unmap(core, h)
    for size, iova in iovas:
        if size == 1500:
            assert iova >> 47 == 1
        else:
            assert iova >> 47 == 0
