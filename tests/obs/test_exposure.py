"""Exposure-accounting invariants (repro.obs.exposure).

Two layers of tests:

* unit tests drive the :class:`ExposureAccountant` directly with
  synthetic map/unmap/invalidate/access timelines, pinning down the
  arithmetic (byte-cycle integrals, refcounts, remap window closure,
  fault forensics, ring bounding);
* scheme-level tests run :func:`measure_scheme_exposure` and assert the
  paper's security story quantitatively — deferred schemes expose a
  positive stale window, strict and copy expose none, copy alone has
  zero granularity excess while page-granular schemes pad sub-page
  buffers up to a page.
"""

import pytest

from repro.attacks.scenarios import measure_scheme_exposure
from repro.dma.api import DmaDirection
from repro.dma.registry import create_dma_api
from repro.errors import IommuFault
from repro.hw.machine import Machine
from repro.iommu.iommu import Iommu
from repro.kalloc.slab import KBuffer, KernelAllocators
from repro.obs.context import Observability
from repro.obs.exposure import (
    KIND_DEDICATED,
    KIND_OS,
    PAGE_SIZE,
    ExposureAccountant,
)
from repro.sim.units import PAGE_SHIFT


# ----------------------------------------------------------------------
# Accountant unit behaviour.
# ----------------------------------------------------------------------
def test_stale_window_integral():
    """unmap at t=100 (cached), OS release at t=100, invalidation
    completes at t=350: one page stale for 250 cycles."""
    acc = ExposureAccountant()
    acc.note_map_range(t=0, domain_id=1, device_id=0x10,
                       iova=0x1000, size=PAGE_SIZE)
    acc.note_unmap_range(t=100, domain_id=1, iova=0x1000, size=PAGE_SIZE,
                         cached_pages={0x1})
    acc.note_dma_unmap(t=100, scheme="identity-deferred", domain_id=1,
                       iova=0x1000, size=PAGE_SIZE)
    acc.note_invalidate_pages(t=350, domain_id=1, iova_page=0x1, npages=1)
    s = acc.summary()
    assert s["stale_windows"] == 1
    assert s["stale_byte_cycles"] == 250 * PAGE_SIZE
    assert s["stale_peak_window_cycles"] == 250
    assert s["stale_open_pages"] == 0


def test_uncached_page_never_goes_stale():
    """A page absent from the IOTLB at unmap time is revoked instantly —
    no window regardless of when the invalidation lands."""
    acc = ExposureAccountant()
    acc.note_map_range(t=0, domain_id=1, device_id=0x10,
                       iova=0x1000, size=PAGE_SIZE)
    acc.note_unmap_range(t=100, domain_id=1, iova=0x1000, size=PAGE_SIZE,
                         cached_pages=set())
    acc.note_dma_unmap(t=100, scheme="s", domain_id=1,
                       iova=0x1000, size=PAGE_SIZE)
    acc.note_invalidate_pages(t=9999, domain_id=1, iova_page=0x1, npages=1)
    assert acc.summary()["stale_byte_cycles"] == 0
    assert acc.summary()["stale_windows"] == 0


def test_sync_invalidation_before_release_is_zero_window():
    """Strict ordering: the invalidation completes *before* dma_unmap
    returns, so released_at is never set and the window is zero."""
    acc = ExposureAccountant()
    acc.note_map_range(t=0, domain_id=1, device_id=0x10,
                       iova=0x1000, size=PAGE_SIZE)
    acc.note_unmap_range(t=100, domain_id=1, iova=0x1000, size=PAGE_SIZE,
                         cached_pages={0x1})
    acc.note_invalidate_pages(t=150, domain_id=1, iova_page=0x1, npages=1)
    acc.note_dma_unmap(t=160, scheme="identity-strict", domain_id=1,
                       iova=0x1000, size=PAGE_SIZE)
    assert acc.summary()["stale_byte_cycles"] == 0
    assert acc.summary()["stale_windows"] == 0


def test_remap_closes_stale_window():
    """Re-mapping an iova whose stale IOTLB entry is still live
    re-legitimizes the translation: the window ends at remap time."""
    acc = ExposureAccountant()
    acc.note_map_range(t=0, domain_id=1, device_id=0x10,
                       iova=0x1000, size=PAGE_SIZE)
    acc.note_unmap_range(t=100, domain_id=1, iova=0x1000, size=PAGE_SIZE,
                         cached_pages={0x1})
    acc.note_dma_unmap(t=100, scheme="identity-deferred", domain_id=1,
                       iova=0x1000, size=PAGE_SIZE)
    acc.note_map_range(t=400, domain_id=1, device_id=0x10,
                       iova=0x1000, size=PAGE_SIZE)
    s = acc.summary()
    assert s["stale_windows"] == 1
    assert s["stale_byte_cycles"] == 300 * PAGE_SIZE
    assert s["stale_open_pages"] == 0


def test_stale_access_counted():
    acc = ExposureAccountant()
    acc.note_map_range(t=0, domain_id=1, device_id=0x10,
                       iova=0x1000, size=PAGE_SIZE)
    acc.note_unmap_range(t=100, domain_id=1, iova=0x1000, size=PAGE_SIZE,
                         cached_pages={0x1})
    acc.note_dma_unmap(t=100, scheme="s", domain_id=1,
                       iova=0x1000, size=PAGE_SIZE)
    acc.note_access(domain_id=1, iova=0x1040)
    # Access through an unknown domain counts nothing.
    acc.note_access(domain_id=2, iova=0x1040)
    assert acc.summary()["stale_accesses"] == 1


def test_granularity_excess_integral():
    """512 B buffer on a 4 KiB page: excess = 3584 B for the mapping
    lifetime."""
    acc = ExposureAccountant()
    acc.note_map_range(t=0, domain_id=1, device_id=0x10,
                       iova=0x1000, size=PAGE_SIZE)
    acc.note_dma_map(t=0, scheme="identity-strict", domain_id=1,
                     iova=0x1200, size=512)
    acc.note_dma_unmap(t=1000, scheme="identity-strict", domain_id=1,
                       iova=0x1200, size=512)
    s = acc.summary()
    assert s["granularity_excess_byte_cycles"] == (PAGE_SIZE - 512) * 1000
    assert s["peak_excess_bytes"] == PAGE_SIZE - 512


def test_dedicated_pages_carry_no_excess():
    """Shadow-pool / coherent-ring pages are the scheme's own memory —
    device reachability there is by design, not granularity spill."""
    acc = ExposureAccountant()
    acc.note_map_range(t=0, domain_id=1, device_id=0x10,
                       iova=0x1000, size=PAGE_SIZE, kind=KIND_DEDICATED)
    acc.note_dma_map(t=0, scheme="copy", domain_id=1, iova=0x1200, size=512)
    acc.note_dma_unmap(t=1000, scheme="copy", domain_id=1,
                       iova=0x1200, size=512)
    s = acc.summary()
    assert s["granularity_excess_byte_cycles"] == 0
    assert s["peak_excess_bytes"] == 0


def test_refcounted_page_stays_until_last_unmap():
    acc = ExposureAccountant()
    acc.note_map_range(t=0, domain_id=1, device_id=0x10,
                       iova=0x1000, size=PAGE_SIZE)
    acc.note_map_range(t=10, domain_id=1, device_id=0x10,
                       iova=0x1000, size=PAGE_SIZE)
    acc.note_unmap_range(t=20, domain_id=1, iova=0x1000, size=PAGE_SIZE,
                         cached_pages={0x1})
    assert acc.domain_summary(1)["surface_bytes"] == PAGE_SIZE
    acc.note_unmap_range(t=30, domain_id=1, iova=0x1000, size=PAGE_SIZE,
                         cached_pages=set())
    assert acc.domain_summary(1)["surface_bytes"] == 0


def test_surface_peak_tracks_mapped_plus_stale():
    acc = ExposureAccountant()
    for i in range(3):
        acc.note_map_range(t=i, domain_id=1, device_id=0x10,
                           iova=0x1000 * (i + 1), size=PAGE_SIZE)
    s = acc.summary()
    assert s["peak_surface_bytes"] == 3 * PAGE_SIZE


# ----------------------------------------------------------------------
# Fault forensics + ring bounding.
# ----------------------------------------------------------------------
def test_fault_forensics_page_lifecycle():
    acc = ExposureAccountant()
    acc.note_fault(t=5, domain_id=1, device_id=0x10, iova=0x9000,
                   is_write=True, reason="not-present")
    acc.note_map_range(t=10, domain_id=1, device_id=0x10,
                       iova=0x1000, size=PAGE_SIZE)
    acc.note_fault(t=20, domain_id=1, device_id=0x10, iova=0x1000,
                   is_write=True, reason="write-to-readonly")
    acc.note_unmap_range(t=30, domain_id=1, iova=0x1000, size=PAGE_SIZE,
                         cached_pages=set())
    acc.note_fault(t=40, domain_id=1, device_id=0x10, iova=0x1000,
                   is_write=False, reason="not-present")
    states = [f.page_state for f in acc.faults]
    assert states == ["never-mapped", "mapped", "revoked"]
    last = acc.faults[-1]
    assert last.last_map_t == 10
    assert last.last_unmap_t == 30
    assert acc.faults[0].last_map_t is None


def test_range_notes_stamp_each_page_a_page_cost_apart():
    """A 3-page range ending at ``t`` stamps its pages ``page_cycles``
    apart, the last at ``t`` — where one call per page would have — so
    a remap closes each page's stale window at that page's instant."""
    acc = ExposureAccountant()
    acc.note_map_range(t=100, domain_id=1, device_id=0x10, iova=0x1000,
                       size=3 * PAGE_SIZE, page_cycles=10)
    acc.note_unmap_range(t=200, domain_id=1, iova=0x1000,
                         size=3 * PAGE_SIZE, cached_pages={0x1, 0x2, 0x3},
                         page_cycles=5)
    acc.note_dma_unmap(t=200, scheme="identity-deferred", domain_id=1,
                       iova=0x1000, size=3 * PAGE_SIZE)
    acc.note_map_range(t=400, domain_id=1, device_id=0x10, iova=0x1000,
                       size=3 * PAGE_SIZE, page_cycles=10)
    assert acc.summary()["stale_byte_cycles"] == \
        (180 + 190 + 200) * PAGE_SIZE
    acc.note_unmap_range(t=500, domain_id=1, iova=0x1000,
                         size=3 * PAGE_SIZE, cached_pages=set(),
                         page_cycles=5)
    for page, (map_t, unmap_t) in enumerate([(380, 490), (390, 495),
                                             (400, 500)], start=1):
        acc.note_fault(t=600, domain_id=1, device_id=0x10,
                       iova=page * PAGE_SIZE, is_write=False,
                       reason="not-present")
        assert (acc.faults[-1].last_map_t,
                acc.faults[-1].last_unmap_t) == (map_t, unmap_t)


def test_copy_hybrid_ranges_stamp_each_page_where_it_was_installed():
    """Every multi-page range caller gets per-page stamps, not only
    zero-copy: the copy scheme maps a huge buffer's aligned middle with
    one ``map_range`` and tears the whole hybrid mapping down with one
    ``unmap_range``, and fault forensics date page *i* of each call at
    the call's start plus *i + 1* page costs."""
    obs = Observability.capture()
    machine = Machine.build(cores=1, numa_nodes=1, obs=obs)
    allocators = KernelAllocators(machine)
    iommu = Iommu(machine)
    api = create_dma_api("copy", machine, iommu, device_id=7,
                         allocators=allocators)
    core = machine.core(0)
    calls = []      # (name, iova, npages, core.now at the call)

    def spy(name):
        inner = getattr(iommu, name)

        def call(domain, iova, *args, **kwargs):
            size = args[1] if name == "map_range" else args[0]
            calls.append((name, iova, size >> PAGE_SHIFT, core.now))
            return inner(domain, iova, *args, **kwargs)
        return call

    iommu.map_range, iommu.unmap_range = spy("map_range"), spy("unmap_range")
    pa = allocators.buddies[0].alloc_pages(5, core)
    buf = KBuffer(pa=pa + 100, size=20 * PAGE_SIZE, node=0)
    handle = api.dma_map(core, buf, DmaDirection.FROM_DEVICE)
    api.dma_unmap(core, handle)
    (_, middle, npages, map_t0), = [c for c in calls
                                    if c[0] == "map_range" and c[2] > 1]
    (_, base, total, unmap_t0), = [c for c in calls
                                   if c[0] == "unmap_range" and c[2] > 1]
    assert (npages, middle - base, total) == (19, PAGE_SIZE, 21)
    cost = machine.cost
    for i in range(npages):
        with pytest.raises(IommuFault):
            api.port().dma_read(middle + i * PAGE_SIZE, 8)
        fault = obs.exposure.faults[-1]
        assert (fault.last_map_t, fault.last_unmap_t) == (
            map_t0 + (i + 1) * cost.pt_map_cycles,
            unmap_t0 + (i + 2) * cost.pt_unmap_cycles)


def test_fault_ring_is_bounded():
    acc = ExposureAccountant(fault_capacity=4)
    for i in range(10):
        acc.note_fault(t=i, domain_id=1, device_id=0x10, iova=0x1000 * i,
                       is_write=False, reason="not-present")
    assert len(acc.faults) == 4
    assert acc.faults_recorded == 10
    assert acc.faults_dropped == 6
    # Oldest evicted first: the ring holds the newest four.
    assert [f.t for f in acc.faults] == [6, 7, 8, 9]


def test_fault_to_dict_round_trips_key_fields():
    acc = ExposureAccountant()
    acc.note_fault(t=7, domain_id=3, device_id=0x20, iova=0x2000,
                   is_write=True, reason="not-present")
    d = acc.faults[0].to_dict()
    assert d["t"] == 7 and d["domain"] == 3
    assert d["reason"] == "not-present" and d["page_state"] == "never-mapped"


# ----------------------------------------------------------------------
# Scheme-level invariants (the ISSUE's acceptance numbers).
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def exposures():
    schemes = ("copy", "identity-strict", "identity-deferred",
               "linux-deferred", "self-invalidating")
    return {s: measure_scheme_exposure(s) for s in schemes}


def test_deferred_schemes_have_positive_stale_window(exposures):
    for scheme in ("identity-deferred", "linux-deferred",
                   "self-invalidating"):
        s = exposures[scheme]
        assert s["stale_byte_cycles"] > 0, scheme
        assert s["stale_windows"] > 0, scheme


def test_strict_and_copy_have_zero_stale_window(exposures):
    for scheme in ("copy", "identity-strict"):
        s = exposures[scheme]
        assert s["stale_byte_cycles"] == 0, scheme
        assert s["stale_windows"] == 0, scheme
        assert s["stale_accesses"] == 0, scheme


def test_copy_has_zero_granularity_excess(exposures):
    assert exposures["copy"]["granularity_excess_byte_cycles"] == 0
    assert exposures["copy"]["peak_excess_bytes"] == 0


def test_page_granular_schemes_pad_subpage_buffers(exposures):
    """The scenario maps a 512 B TX buffer; identity-family schemes
    expose the rest of its page."""
    for scheme in ("identity-strict", "identity-deferred"):
        s = exposures[scheme]
        assert s["granularity_excess_byte_cycles"] > 0, scheme
        assert s["peak_excess_bytes"] >= PAGE_SIZE - 512, scheme


def test_unprotected_schemes_have_no_domains():
    for scheme in ("no-iommu", "swiotlb"):
        assert not measure_scheme_exposure(scheme)["domains"], scheme


def test_strict_scheme_records_fault_forensics(exposures):
    """identity-strict blocks the post-unmap probes; each block is a
    fault with a revoked-page diagnosis."""
    s = exposures["identity-strict"]
    assert s["faults"] >= 2
