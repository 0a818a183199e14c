"""Error-path unwinding: an induced mid-map failure must leave nothing
behind — no live mappings, no leaked IOVA ranges, no in-flight shadow
buffers — and the API must keep working afterwards.

Each case builds a full system, arms a scripted fault at one injection
site, proves the failing call raises cleanly, audits the bookkeeping,
then completes a fault-free map/unmap cycle on the same API instance.
"""

import pytest

from repro.dma.api import DmaDirection
from repro.dma.registry import ALL_SCHEMES, scheme_properties
from repro.errors import PoolExhaustedError, ReproError
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    SITE_IOVA_ALLOC,
    SITE_POOL_GROW,
    SITE_PT_MAP,
    FaultPlan,
    SiteRule,
)
from repro.kalloc.slab import KBuffer
from repro.sim.units import PAGE_SHIFT, PAGE_SIZE
from repro.system import System, SystemConfig


def build(scheme, rules, **scheme_kwargs):
    injector = FaultInjector(FaultPlan(seed=1, rules=rules))
    system = System.build(SystemConfig(
        scheme=scheme, cores=1, faults=injector,
        scheme_kwargs=dict(scheme_kwargs)))
    return system, injector


def assert_clean(api):
    assert api.live_mappings == 0
    for attr in ("iova_allocator", "fallback_iova"):
        allocator = getattr(api, attr, None)
        if allocator is not None:
            assert allocator.outstanding_ranges() == 0, attr
    pool = getattr(api, "pool", None)
    if pool is not None:
        assert pool.stats.in_flight == 0
        assert pool.stats.acquires == pool.stats.releases


def roundtrip(api, core, size=1500):
    buf = KBuffer(pa=0x400000, size=size, node=0)
    handle = api.dma_map(core, buf, DmaDirection.FROM_DEVICE)
    api.dma_unmap(core, handle)
    api.quiesce(core)  # deferred schemes recycle IOVAs at the flush
    assert_clean(api)


CASES = [
    ("linux-strict", SITE_IOVA_ALLOC),
    ("linux-strict", SITE_PT_MAP),
    ("linux-deferred", SITE_IOVA_ALLOC),
    ("eiovar-strict", SITE_IOVA_ALLOC),
    ("magazine-deferred", SITE_IOVA_ALLOC),
    ("identity-strict", SITE_PT_MAP),
    ("identity-deferred", SITE_PT_MAP),
    ("copy", SITE_POOL_GROW),
    ("swiotlb", SITE_POOL_GROW),
    ("self-invalidating", SITE_PT_MAP),
]


@pytest.mark.parametrize("scheme,site", CASES)
def test_induced_map_failure_unwinds(scheme, site):
    system, injector = build(scheme, {site: SiteRule(at=(1,))})
    api = system.dma_api
    core = system.machine.core(0)
    buf = KBuffer(pa=0x200000, size=1500, node=0)
    injector.start()
    with pytest.raises(ReproError):
        api.dma_map(core, buf, DmaDirection.FROM_DEVICE)
    injector.stop()
    assert injector.fire_count(site) == 1
    assert_clean(api)
    roundtrip(api, core)


@pytest.mark.parametrize("scheme", ["identity-strict", "identity-deferred",
                                    "identity-strict-percore",
                                    "identity-deferred-bounded"])
def test_zero_copy_failed_second_run_unwinds_the_first(scheme):
    """A 5-page map whose middle page another mapping holds installs two
    runs; when the second run's page-table update fails, the first run's
    PTEs are cleared and strictly invalidated (even translations a
    deferred unmap left cached), and the shared page keeps one
    reference."""
    system, injector = build(scheme, {SITE_PT_MAP: SiteRule(at=(2,))})
    api = system.dma_api
    iommu = system.iommu
    core = system.machine.core(0)
    base = 0x600000
    first = base >> PAGE_SHIFT
    earlier = api.dma_map(core, KBuffer(pa=base, size=2 * PAGE_SIZE, node=0),
                          DmaDirection.FROM_DEVICE)
    api.port().dma_write(earlier.iova, bytes(2 * PAGE_SIZE))
    api.dma_unmap(core, earlier)
    shared = api.dma_map(core, KBuffer(pa=base + 2 * PAGE_SIZE, size=64,
                                       node=0), DmaDirection.FROM_DEVICE)
    invalidations = iommu.invalidation_queue.sync_invalidations
    injector.start()
    with pytest.raises(ReproError):
        api.dma_map(core, KBuffer(pa=base, size=5 * PAGE_SIZE, node=0),
                    DmaDirection.FROM_DEVICE)
    injector.stop()
    assert injector.fire_count(SITE_PT_MAP) == 1
    assert api.live_mappings == 1
    assert iommu.invalidation_queue.sync_invalidations == invalidations + 1
    table = api.domain.page_table
    for page in (first, first + 1, first + 3, first + 4):
        assert table.lookup(page) is None
        assert iommu.iotlb.peek(api.domain_id, page) is None
    assert table.lookup(first + 2) is not None
    assert {page: ref.refcount for page, ref in api._page_refs.items()} \
        == {first + 2: 1}
    api.dma_unmap(core, shared)
    api.quiesce(core)
    assert_clean(api)
    roundtrip(api, core)


@pytest.mark.parametrize("at", [1, 2, 3])
def test_copy_hybrid_map_unwinds_partial_state(at):
    """The hybrid path (§5.5) maps head/tail shadows plus page-granular
    middle ranges; a page-table failure at any consult must unwind the
    ranges already installed."""
    system, injector = build("copy", {SITE_PT_MAP: SiteRule(at=(at,))})
    api = system.dma_api
    core = system.machine.core(0)
    huge = KBuffer(pa=0x200000 + 100, size=256 * 1024, node=0)
    injector.start()
    with pytest.raises(ReproError):
        api.dma_map(core, huge, DmaDirection.FROM_DEVICE)
    injector.stop()
    assert_clean(api)
    handle = api.dma_map(core, huge, DmaDirection.FROM_DEVICE)
    api.dma_unmap(core, handle)
    assert_clean(api)


def test_copy_bounce_fallback_degrades_gracefully():
    """With the bounce fallback armed, pool exhaustion degrades to a
    swiotlb-style bounce map instead of failing the driver."""
    system, injector = build("copy", {SITE_POOL_GROW: SiteRule(rate=1.0)},
                             bounce_fallback=True)
    api = system.dma_api
    core = system.machine.core(0)
    buf = KBuffer(pa=0x200000, size=1500, node=0)
    injector.start()
    handle = api.dma_map(core, buf, DmaDirection.FROM_DEVICE)
    assert api.bounce_maps == 1
    assert api.live_mappings == 1
    api.dma_unmap(core, handle)
    injector.stop()
    assert_clean(api)


def test_copy_without_fallback_raises():
    system, injector = build("copy", {SITE_POOL_GROW: SiteRule(rate=1.0)})
    api = system.dma_api
    core = system.machine.core(0)
    injector.start()
    with pytest.raises(PoolExhaustedError):
        api.dma_map(core, KBuffer(pa=0x200000, size=1500, node=0),
                    DmaDirection.FROM_DEVICE)
    injector.stop()
    assert_clean(api)


def test_sg_map_is_all_or_nothing():
    """A failure on the third element must unmap the first two."""
    system, injector = build("linux-strict",
                             {SITE_IOVA_ALLOC: SiteRule(at=(3,))})
    api = system.dma_api
    core = system.machine.core(0)
    bufs = [KBuffer(pa=0x200000 + i * 0x10000, size=4096, node=0)
            for i in range(4)]
    injector.start()
    with pytest.raises(ReproError):
        api.dma_map_sg(core, bufs, DmaDirection.TO_DEVICE)
    injector.stop()
    assert_clean(api)
    handles = api.dma_map_sg(core, bufs, DmaDirection.TO_DEVICE)
    assert len(handles) == 4
    api.dma_unmap_sg(core, handles)
    assert_clean(api)


def coherent_sites(scheme):
    """The fault sites an IOMMU scheme's coherent allocation consults:
    every one maps its pages, and all but the identity allocators can
    run out of IOVAs."""
    if scheme == "copy" or scheme.startswith(("linux-", "eiovar-",
                                              "magazine-")):
        return (SITE_IOVA_ALLOC, SITE_PT_MAP)
    return (SITE_PT_MAP,)


@pytest.mark.parametrize("scheme,site", [
    (scheme, site) for scheme in ALL_SCHEMES
    if scheme_properties(scheme).iommu_protection
    for site in coherent_sites(scheme)])
def test_coherent_alloc_failure_unwinds(scheme, site):
    """``dma_alloc_coherent`` is all or nothing: a failed IOVA
    allocation or page-table update gives the pages (and the IOVA
    range) back, and the next allocation works."""
    system, injector = build(scheme, {site: SiteRule(at=(1,))})
    api = system.dma_api
    core = system.machine.core(0)
    buddy = system.allocators.buddies[0]
    free_pages = buddy.free_pages_count
    injector.start()
    with pytest.raises(ReproError):
        api.dma_alloc_coherent(core, 8192)
    injector.stop()
    assert injector.fire_count(site) == 1
    assert buddy.free_pages_count == free_pages
    assert_clean(api)
    coherent = api.dma_alloc_coherent(core, 8192)
    api.dma_free_coherent(core, coherent)
    assert buddy.free_pages_count == free_pages
    assert_clean(api)
