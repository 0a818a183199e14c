"""Shadow pool edge cases: fallback lookups, bounded shrink, metadata
lock accounting, private-cache interaction with releases."""

import pytest

from repro.core.shadow_pool import ShadowBufferPool
from repro.errors import PoolExhaustedError
from repro.hw.locks import SpinLock
from repro.hw.machine import Machine
from repro.iommu.iommu import Iommu
from repro.iommu.page_table import Perm
from repro.iova.allocators import MagazineIovaAllocator
from repro.kalloc.slab import KBuffer, KernelAllocators
from repro.sim.units import PAGE_SIZE


def make_pool(**kwargs):
    machine = Machine.build(cores=2, numa_nodes=1)
    allocators = KernelAllocators(machine)
    iommu = Iommu(machine)
    domain = iommu.attach_device(1)
    fallback = MagazineIovaAllocator(machine.cost, 2,
                                     SpinLock("depot", machine.cost))
    return machine, iommu, ShadowBufferPool(
        machine, iommu, domain, allocators, fallback, **kwargs)


def buf(size=1000):
    return KBuffer(pa=0x200000, size=size, node=0)


def test_fallback_buffers_recycle_through_free_list():
    machine, _, pool = make_pool(max_buffers_per_class=1)
    core = machine.core(0)
    first = pool.acquire_shadow(core, buf(), 4096, Perm.READ)
    second = pool.acquire_shadow(core, buf(), 4096, Perm.READ)
    assert not first.fallback and second.fallback
    pool.release_shadow(core, second)
    third = pool.acquire_shadow(core, buf(), 4096, Perm.READ)
    assert third is second  # fallback buffers recycle like any other
    assert pool.find_shadow(core, third.iova) is second


def test_fallback_device_mapping_works():
    machine, iommu, pool = make_pool(max_buffers_per_class=0)
    core = machine.core(0)
    meta = pool.acquire_shadow(core, buf(), 4096, Perm.RW)
    assert meta.fallback
    # The mapping is live: translate and access as the device.
    entry = iommu.translate(pool.domain, meta.iova, is_write=True)
    assert entry.pa == meta.pa


def test_shrink_respects_byte_limit():
    machine, _, pool = make_pool()
    core = machine.core(0)
    metas = [pool.acquire_shadow(core, buf(), 4096, Perm.READ)
             for _ in range(6)]
    for meta in metas:
        pool.release_shadow(core, meta)
    freed = pool.shrink(core, max_release_bytes=2 * PAGE_SIZE)
    assert freed == 2 * PAGE_SIZE
    assert pool.free_buffer_count() == 4


def test_shrink_skips_subpage_classes():
    machine, _, pool = make_pool(size_classes=(512, 4096))
    core = machine.core(0)
    meta = pool.acquire_shadow(core, buf(100), 100, Perm.READ)
    pool.release_shadow(core, meta)
    # Only the sub-page class has free buffers: nothing shrinkable.
    assert pool.shrink(core) == 0
    assert pool.free_buffer_count() > 0


def test_private_cache_not_double_counted():
    machine, _, pool = make_pool(size_classes=(512, 4096))
    core = machine.core(0)
    first = pool.acquire_shadow(core, buf(100), 100, Perm.READ)
    # 8 carved, 1 out: 7 in the private cache.
    assert pool.free_buffer_count() == 7
    pool.release_shadow(core, first)
    assert pool.free_buffer_count() == 8
    # Draining goes through cache first, then the list — all distinct.
    seen = set()
    for _ in range(8):
        meta = pool.acquire_shadow(core, buf(100), 100, Perm.READ)
        assert meta.iova not in seen
        seen.add(meta.iova)
    assert pool.free_buffer_count() == 0


def test_metadata_lock_contention_is_rare():
    """§5.3 footnote 5: the next-unused index lock is taken only on
    growth, so steady state takes it never."""
    machine, _, pool = make_pool()
    core = machine.core(0)
    metas = [pool.acquire_shadow(core, buf(), 1500, Perm.WRITE)
             for _ in range(20)]
    for meta in metas:
        pool.release_shadow(core, meta)
    array = pool._arrays[(0, 0)]
    grows = array.lock.stats.acquisitions
    # Steady-state churn: no further metadata-lock acquisitions.
    for _ in range(100):
        meta = pool.acquire_shadow(core, buf(), 1500, Perm.WRITE)
        pool.release_shadow(core, meta)
    assert array.lock.stats.acquisitions == grows


def test_acquire_on_any_core_uses_own_list():
    machine, _, pool = make_pool()
    a = pool.acquire_shadow(machine.core(0), buf(), 100, Perm.READ)
    b = pool.acquire_shadow(machine.core(1), buf(), 100, Perm.READ)
    pool.release_shadow(machine.core(0), a)
    # Core 1 cannot steal core 0's freed buffer.
    c = pool.acquire_shadow(machine.core(1), buf(), 100, Perm.READ)
    assert c.owner_core == 1
    assert c is not a


def test_zero_byte_pool_limit():
    machine, _, pool = make_pool(max_pool_bytes=0)
    with pytest.raises(PoolExhaustedError):
        pool.acquire_shadow(machine.core(0), buf(), 100, Perm.READ)


# ----------------------------------------------------------------------
# Regression tests: pool resource-accounting bugs.
# ----------------------------------------------------------------------
def test_shrink_balances_grow_accounting():
    """grow → acquire → release → shrink must end with both counters at
    zero: shrink subtracts exactly what note_grow recorded (page-quantity
    bytes *and* the buffer count)."""
    machine, _, pool = make_pool()
    core = machine.core(0)
    metas = [pool.acquire_shadow(core, buf(size), size, rights)
             for size in (1500, 4096, 65536)
             for rights in (Perm.READ, Perm.WRITE)]
    assert pool.stats.buffers_allocated == len(metas)
    for meta in metas:
        pool.release_shadow(core, meta)
    pool.shrink(core)
    assert pool.stats.bytes_allocated == 0
    assert pool.stats.buffers_allocated == 0
    assert pool.stats.grows == pool.stats.shrinks


def test_retired_fallback_iova_returns_to_allocator():
    """Retiring a fallback buffer must free its external IOVA range —
    the allocator's outstanding count returns to zero, the pool's byte
    and buffer accounting balance, and the exact range is
    re-allocatable."""
    machine, _, pool = make_pool(max_buffers_per_class=0)
    core = machine.core(0)
    metas = [pool.acquire_shadow(core, buf(), 4096, Perm.READ)
             for _ in range(3)]
    assert all(m.fallback for m in metas)
    assert pool.fallback_iova.outstanding_ranges() == 3
    bases = {m.iova & ~(PAGE_SIZE - 1) for m in metas}
    for meta in metas:
        pool.release_shadow(core, meta)
    pool.shrink(core)
    assert pool.fallback_iova.outstanding_ranges() == 0
    assert pool.stats.bytes_allocated == 0
    assert pool.stats.buffers_allocated == 0
    # The magazine allocator recycles freed ranges: the next allocation
    # reuses one of the retired bases.
    assert pool.fallback_iova.alloc(1, core, 0x300000) in bases


def test_migration_retires_old_metadata_and_count():
    """Non-sticky migration must retire the old metadata slot and keep
    the old list's buffer count balanced."""
    machine, _, pool = make_pool(sticky=False)
    owner, remote = machine.core(0), machine.core(1)
    meta = pool.acquire_shadow(owner, buf(), 4096, Perm.READ)
    old_iova = meta.iova
    old_list = pool._lists[meta.list_key]
    pool.release_shadow(remote, meta)
    assert old_list.total_buffers == 0
    with pytest.raises(PoolExhaustedError):
        pool.find_shadow(owner, old_iova)
