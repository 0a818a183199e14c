"""Tests for the §7 related-work extension schemes: SWIOTLB bounce
buffers and the Basu-et-al self-invalidating IOMMU."""

import pytest

from repro.dma.api import DmaDirection
from repro.dma.selfinval import SelfInvalidatingDmaApi
from repro.dma.swiotlb import SWIOTLB_SLOT_BYTES, SwiotlbDmaApi
from repro.errors import IommuFault, PoolExhaustedError
from repro.workloads.netperf import StreamConfig, run_tcp_stream


# ----------------------------------------------------------------------
# SWIOTLB.
# ----------------------------------------------------------------------
@pytest.fixture
def swiotlb(make_api):
    return make_api("swiotlb")


def test_swiotlb_bounces_through_pool(swiotlb, machine, allocators):
    core = machine.core(0)
    buf = allocators.kmalloc(1500, node=0)
    machine.memory.write(buf.pa, b"outbound")
    handle = swiotlb.dma_map(core, buf, DmaDirection.TO_DEVICE)
    # The device address is inside the bounce pool, not the buffer.
    assert (swiotlb.pool_base <= handle.iova
            < swiotlb.pool_base + swiotlb.pool_slots * SWIOTLB_SLOT_BYTES)
    assert handle.iova != buf.pa
    assert swiotlb.port().dma_read(handle.iova, 8) == b"outbound"
    swiotlb.dma_unmap(core, handle)


def test_swiotlb_copies_back(swiotlb, machine, allocators):
    core = machine.core(0)
    buf = allocators.kmalloc(1500, node=0)
    handle = swiotlb.dma_map(core, buf, DmaDirection.FROM_DEVICE)
    swiotlb.port().dma_write(handle.iova, b"inbound")
    swiotlb.dma_unmap(core, handle)
    assert machine.memory.read(buf.pa, 7) == b"inbound"


def test_swiotlb_provides_no_protection(swiotlb, machine, allocators):
    """§7: SWIOTLB copies but 'provides no protection from DMA attacks'."""
    core = machine.core(0)
    secret = allocators.kmalloc(64, node=0)
    machine.memory.write(secret.pa, b"SECRET")
    # The device reads arbitrary physical memory, mapping or not.
    assert swiotlb.port().dma_read(secret.pa, 6) == b"SECRET"


def test_swiotlb_slot_reuse(swiotlb, machine, allocators):
    core = machine.core(0)
    buf = allocators.kmalloc(1024, node=0)
    h1 = swiotlb.dma_map(core, buf, DmaDirection.TO_DEVICE)
    swiotlb.dma_unmap(core, h1)
    h2 = swiotlb.dma_map(core, buf, DmaDirection.TO_DEVICE)
    assert h2.iova == h1.iova  # freed slots recycle
    swiotlb.dma_unmap(core, h2)


def test_swiotlb_pool_exhaustion(machine, allocators):
    api = SwiotlbDmaApi(machine, allocators, pool_slots=4)
    core = machine.core(0)
    buf = allocators.kmalloc(SWIOTLB_SLOT_BYTES, node=0)
    handles = [api.dma_map(core, buf_, DmaDirection.TO_DEVICE)
               for buf_ in (allocators.kmalloc(2048, node=0)
                            for _ in range(4))]
    with pytest.raises(PoolExhaustedError):
        api.dma_map(core, buf, DmaDirection.TO_DEVICE)
    for h in handles:
        api.dma_unmap(core, h)


def test_swiotlb_multislot_allocations(swiotlb, machine, allocators):
    core = machine.core(0)
    big = allocators.kmalloc(10_000, node=0)  # needs 5 slots
    data = (bytes(range(256)) * 40)[:10_000]
    machine.memory.write(big.pa, data)
    handle = swiotlb.dma_map(core, big, DmaDirection.TO_DEVICE)
    assert swiotlb.port().dma_read(handle.iova, len(data)) == data
    swiotlb.dma_unmap(core, handle)


# ----------------------------------------------------------------------
# Self-invalidating IOMMU.
# ----------------------------------------------------------------------
@pytest.fixture
def selfinval(make_api):
    return make_api("self-invalidating", dma_budget=4, lifetime_us=50.0)


def test_selfinval_unmap_is_nearly_free(selfinval, machine, allocators,
                                        iommu):
    core = machine.core(0)
    buf = allocators.kmalloc(4096, node=0)
    before_inv = iommu.invalidation_queue.sync_invalidations
    handle = selfinval.dma_map(core, buf, DmaDirection.FROM_DEVICE)
    map_cycles = core.busy_cycles
    selfinval.dma_unmap(core, handle)
    unmap_cycles = core.busy_cycles - map_cycles
    # No software invalidation, no page-table teardown.
    assert iommu.invalidation_queue.sync_invalidations == before_inv
    assert unmap_cycles < 100


def test_selfinval_budget_expiry_blocks_device(selfinval, machine,
                                               allocators):
    """The hardware revokes the mapping after ``dma_budget`` DMAs."""
    core = machine.core(0)
    buf = allocators.kmalloc(4096, node=0)
    handle = selfinval.dma_map(core, buf, DmaDirection.FROM_DEVICE)
    for _ in range(4):  # exactly the budget
        selfinval.port().dma_write(handle.iova, b"ok")
    with pytest.raises(IommuFault) as exc:
        selfinval.port().dma_write(handle.iova, b"over budget")
    assert "self-invalidated" in str(exc.value)
    assert selfinval.self_invalidations == 1
    selfinval.dma_unmap(core, handle)


def test_selfinval_lifetime_expiry(selfinval, machine, allocators):
    """The lifetime starts at unmap: a buffer the driver still holds
    outlives it, an unmapped one faults once it has passed."""
    core = machine.core(0)
    held, dropped = (allocators.kmalloc(4096, node=0) for _ in range(2))
    held_handle = selfinval.dma_map(core, held, DmaDirection.FROM_DEVICE)
    handle = selfinval.dma_map(core, dropped, DmaDirection.FROM_DEVICE)
    selfinval.dma_unmap(core, handle)
    core.charge(1_000_000)  # >> 50 µs lifetime
    selfinval.port().dma_write(held_handle.iova, b"posted long ago")
    with pytest.raises(IommuFault):
        selfinval.port().dma_write(handle.iova, b"stale")
    selfinval.dma_unmap(core, held_handle)


def test_selfinval_rx_stream_runs_at_the_defaults():
    """RX buffers posted at ring setup wait far longer than the 100 µs
    lifetime before the NIC fills them; none may expire while mapped."""
    result = run_tcp_stream(StreamConfig(
        scheme="self-invalidating", units_per_core=30, warmup_units=5))
    assert result.units == 30
    assert result.throughput_gbps > 0


def test_selfinval_window_is_bounded(selfinval, machine, allocators):
    """A window exists after unmap (like deferred) but the hardware
    closes it without any software action."""
    core = machine.core(0)
    buf = allocators.kmalloc(4096, node=0)
    handle = selfinval.dma_map(core, buf, DmaDirection.FROM_DEVICE)
    selfinval.port().dma_write(handle.iova, b"legit")
    selfinval.dma_unmap(core, handle)
    # Window: still writable right after unmap...
    selfinval.port().dma_write(handle.iova, b"window")
    # ...until the budget drains.
    for _ in range(2):
        selfinval.port().dma_write(handle.iova, b"drain")
    with pytest.raises(IommuFault):
        selfinval.port().dma_write(handle.iova, b"closed")


def test_selfinval_expire_all_hook(selfinval, machine, allocators):
    core = machine.core(0)
    bufs = [allocators.kmalloc(4096, node=0) for _ in range(3)]
    handles = [selfinval.dma_map(core, b, DmaDirection.FROM_DEVICE)
               for b in bufs]
    assert selfinval.expire_all() == 3
    for h in handles:
        with pytest.raises(IommuFault):
            selfinval.port().dma_write(h.iova, b"x")
        selfinval.dma_unmap(core, h)


def test_selfinval_coherent_mappings_never_expire(selfinval, machine):
    core = machine.core(0)
    ring = selfinval.dma_alloc_coherent(core, 4096)
    for _ in range(20):  # far past any budget
        selfinval.port().dma_write(ring.iova, b"descriptor")
    core.charge(10_000_000)
    selfinval.port().dma_write(ring.iova, b"still alive")
    selfinval.dma_free_coherent(core, ring)


def test_selfinval_overlapping_subpage_maps(selfinval, machine, allocators):
    slab = allocators.slabs[0]
    core = machine.core(0)
    a, b = slab.kmalloc(512), slab.kmalloc(512)
    ha = selfinval.dma_map(core, a, DmaDirection.TO_DEVICE)
    hb = selfinval.dma_map(core, b, DmaDirection.TO_DEVICE)
    assert ha.iova != hb.iova
    selfinval.port().dma_read(hb.iova, 16)
    selfinval.dma_unmap(core, ha)
    selfinval.dma_unmap(core, hb)
