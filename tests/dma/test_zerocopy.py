"""Zero-copy scheme tests: strict invalidation, deferred batching, page
refcounting, permission widening."""

import pytest

from repro.dma.api import DmaDirection
from repro.dma.registry import create_dma_api
from repro.errors import IommuFault
from repro.hw.machine import Machine
from repro.iommu.iommu import Iommu
from repro.iommu.page_table import Perm
from repro.kalloc.slab import KBuffer, KernelAllocators
from repro.obs.context import Observability
from repro.sim.units import PAGE_SIZE, us_to_cycles


def test_strict_invalidates_every_unmap(make_api, machine, allocators, iommu):
    api = make_api("identity-strict")
    core = machine.core(0)
    before = iommu.invalidation_queue.sync_invalidations
    for _ in range(5):
        buf = allocators.kmalloc(PAGE_SIZE, node=0)
        handle = api.dma_map(core, buf, DmaDirection.FROM_DEVICE)
        api.dma_unmap(core, handle)
        allocators.kfree(buf)
    assert iommu.invalidation_queue.sync_invalidations == before + 5


def test_strict_blocks_immediately_after_unmap(make_api, machine, allocators):
    api = make_api("identity-strict")
    core = machine.core(0)
    buf = allocators.kmalloc(PAGE_SIZE, node=0)
    handle = api.dma_map(core, buf, DmaDirection.FROM_DEVICE)
    api.port().dma_write(handle.iova, b"in-flight")
    api.dma_unmap(core, handle)
    with pytest.raises(IommuFault):
        api.port().dma_write(handle.iova, b"too late")


def test_deferred_window_stays_open_until_batch(make_api, machine,
                                                allocators, iommu):
    api = make_api("identity-deferred")
    core = machine.core(0)
    buf = allocators.kmalloc(PAGE_SIZE, node=0)
    handle = api.dma_map(core, buf, DmaDirection.FROM_DEVICE)
    api.port().dma_write(handle.iova, b"legit")  # cache translation
    api.dma_unmap(core, handle)
    assert api.window_open()
    api.port().dma_write(handle.iova, b"window")  # still works!
    api.flush_deferred(core)
    assert not api.window_open()
    with pytest.raises(IommuFault):
        api.port().dma_write(handle.iova, b"closed")


def test_deferred_flushes_at_batch_size(make_api, machine, allocators, iommu):
    api = make_api("identity-deferred")
    core = machine.core(0)
    batch = machine.cost.deferred_batch_size
    flushes_before = iommu.invalidation_queue.batch_flushes
    for _ in range(batch):
        buf = allocators.kmalloc(PAGE_SIZE, node=0)
        handle = api.dma_map(core, buf, DmaDirection.TO_DEVICE)
        api.dma_unmap(core, handle)
        allocators.kfree(buf)
    assert iommu.invalidation_queue.batch_flushes == flushes_before + 1
    assert api.pending_invalidations == 0


def test_deferred_flushes_on_timeout(make_api, machine, allocators, iommu):
    api = make_api("identity-deferred")
    core = machine.core(0)
    buf = allocators.kmalloc(PAGE_SIZE, node=0)
    h = api.dma_map(core, buf, DmaDirection.TO_DEVICE)
    api.dma_unmap(core, h)
    assert api.window_open()
    # 10 ms pass; the next unmap triggers the timeout flush.
    core.charge(us_to_cycles(10_001.0))
    buf2 = allocators.kmalloc(PAGE_SIZE, node=0)
    h2 = api.dma_map(core, buf2, DmaDirection.TO_DEVICE)
    api.dma_unmap(core, h2)
    assert api.pending_invalidations == 0


def test_deferred_iova_not_reused_while_pending(make_api, machine,
                                                allocators):
    """§2.2.1: deferred unmap must also defer IOVA deallocation."""
    api = make_api("magazine-deferred")
    core = machine.core(0)
    buf = allocators.kmalloc(PAGE_SIZE, node=0)
    h1 = api.dma_map(core, buf, DmaDirection.TO_DEVICE)
    api.dma_unmap(core, h1)
    buf2 = allocators.kmalloc(PAGE_SIZE, node=0)
    h2 = api.dma_map(core, buf2, DmaDirection.TO_DEVICE)
    assert h2.iova != h1.iova  # pending IOVA must not be recycled yet
    api.dma_unmap(core, h2)


def test_page_refcount_overlapping_subpage_buffers(make_api, machine,
                                                   allocators):
    """Two slab buffers on one page map/unmap independently under
    identity mapping (shared IOVA page, reference counted)."""
    api = make_api("identity-strict")
    core = machine.core(0)
    slab = allocators.slabs[0]
    a = slab.kmalloc(512)
    b = slab.kmalloc(512)
    assert a.first_page == b.first_page
    ha = api.dma_map(core, a, DmaDirection.TO_DEVICE)
    hb = api.dma_map(core, b, DmaDirection.TO_DEVICE)
    api.dma_unmap(core, ha)
    # The page stays mapped for b.
    api.port().dma_read(hb.iova, 512)
    api.dma_unmap(core, hb)
    with pytest.raises(IommuFault):
        api.port().dma_read(hb.iova, 4)


def test_permission_widening_on_overlap(make_api, machine, allocators):
    """Page-granular schemes must widen rights when buffers with
    different directions share a page — itself a §4 security problem."""
    api = make_api("identity-strict")
    core = machine.core(0)
    slab = allocators.slabs[0]
    a = slab.kmalloc(512)
    b = slab.kmalloc(512)
    ha = api.dma_map(core, a, DmaDirection.TO_DEVICE)    # read-only
    with pytest.raises(IommuFault):
        api.port().dma_write(ha.iova, b"x")
    hb = api.dma_map(core, b, DmaDirection.FROM_DEVICE)  # widens to RW
    # Now the device can write even through a's page — the page-level
    # protection hole the paper points out.
    api.port().dma_write(ha.iova, b"x")
    api.dma_unmap(core, ha)
    api.dma_unmap(core, hb)


def test_linux_deferred_uses_global_list(make_api):
    api = make_api("linux-deferred")
    assert api.per_core_batching is False
    assert len(api._pending) == 1


def test_scalable_deferred_uses_per_core_lists(make_api, machine):
    api = make_api("identity-deferred")
    assert api.per_core_batching is True
    assert len(api._pending) == machine.num_cores


def test_strict_frees_iova_immediately(make_api, machine, allocators):
    api = make_api("linux-strict")
    core = machine.core(0)
    buf = allocators.kmalloc(PAGE_SIZE, node=0)
    h1 = api.dma_map(core, buf, DmaDirection.TO_DEVICE)
    api.dma_unmap(core, h1)
    h2 = api.dma_map(core, buf, DmaDirection.TO_DEVICE)
    assert h2.iova == h1.iova  # strict recycles straight away
    api.dma_unmap(core, h2)


def test_quiesce_flushes(make_api, machine, allocators):
    api = make_api("identity-deferred")
    core = machine.core(0)
    buf = allocators.kmalloc(PAGE_SIZE, node=0)
    h = api.dma_map(core, buf, DmaDirection.TO_DEVICE)
    api.dma_unmap(core, h)
    api.quiesce(core)
    assert not api.window_open()


@pytest.mark.parametrize("scheme", ["identity-strict",
                                    "identity-deferred-bounded",
                                    "identity-strict-percore",
                                    "identity-deferred"])
def test_unmap_revokes_pages_past_a_shared_middle_page(make_api, machine,
                                                       allocators, scheme):
    """A 3-page buffer whose middle page another live mapping still
    holds clears only its first and last page.  Both must be revoked:
    strict schemes before ``dma_unmap`` returns, deferred ones by the
    flush — the one invalidation per unmap covers the whole span."""
    api = make_api(scheme)
    core = machine.core(0)
    pa = allocators.buddies[0].alloc_pages(2, core)
    middle = api.dma_map(core, KBuffer(pa=pa + PAGE_SIZE, size=64, node=0),
                         DmaDirection.FROM_DEVICE)
    handle = api.dma_map(core, KBuffer(pa=pa, size=3 * PAGE_SIZE, node=0),
                         DmaDirection.FROM_DEVICE)
    api.port().dma_write(handle.iova, bytes(3 * PAGE_SIZE))  # cache all 3
    api.dma_unmap(core, handle)
    if not api.properties.no_window:
        api.flush_deferred(core)
    for page in (0, 2):
        with pytest.raises(IommuFault):
            api.port().dma_write(handle.iova + page * PAGE_SIZE, b"late")
    api.port().dma_write(middle.iova, b"still mapped")
    api.dma_unmap(core, middle)


@pytest.mark.xfail(strict=True, raises=ValueError, reason=(
    "flush_deferred closes every pending window at the flushing core's "
    "clock, even an entry another core queued later (ROADMAP item 5)"))
def test_flush_from_a_lagging_core_keeps_windows_non_negative():
    """An entry queued by a core that is ahead, flushed by a core that
    lags: its window must not come out negative."""
    obs = Observability.capture()
    machine = Machine.build(cores=2, numa_nodes=1, obs=obs)
    allocators = KernelAllocators(machine)
    api = create_dma_api("identity-deferred", machine, Iommu(machine),
                         device_id=7, allocators=allocators)
    behind, ahead = machine.core(0), machine.core(1)
    ahead.advance_to(behind.now + 1_000_000)
    buf = allocators.kmalloc(PAGE_SIZE, node=0)
    api.dma_unmap(ahead, api.dma_map(ahead, buf, DmaDirection.TO_DEVICE))
    api.flush_deferred(behind)
    assert min(api.window_samples) >= 0
