"""IOMMU device-model tests: domains, mapping, translation, DMA ports."""

import pytest

from repro.errors import ConfigurationError, DmaApiError, IommuFault
from repro.hw.cpu import CAT_PT_MGMT
from repro.hw.machine import Machine
from repro.iommu.iommu import Iommu, PassthroughDmaPort, TranslatingDmaPort
from repro.iommu.page_table import Perm
from repro.obs.context import Observability
from repro.sim.units import PAGE_SIZE


@pytest.fixture
def machine():
    return Machine.build(cores=2, numa_nodes=1)


@pytest.fixture
def iommu(machine):
    return Iommu(machine)


def test_attach_device_idempotent(iommu):
    d1 = iommu.attach_device(42)
    d2 = iommu.attach_device(42)
    assert d1 is d2
    d3 = iommu.attach_device(43)
    assert d3.domain_id != d1.domain_id


def test_map_range_multi_page(iommu, machine):
    domain = iommu.attach_device(1)
    core = machine.core(0)
    iommu.map_range(domain, 0x10000, 0x40000, 3 * PAGE_SIZE, Perm.RW, core)
    assert domain.page_table.mapped_pages == 3
    assert core.breakdown[CAT_PT_MGMT] == 3 * machine.cost.pt_map_cycles


def test_map_range_subpage_offsets(iommu):
    domain = iommu.attach_device(1)
    # A 100-byte buffer at offset 0xF00 spans two pages.
    iommu.map_range(domain, 0x10F00, 0x40F00, 0x200, Perm.READ)
    assert domain.page_table.mapped_pages == 2


def test_map_offset_mismatch_rejected(iommu):
    domain = iommu.attach_device(1)
    with pytest.raises(ConfigurationError):
        iommu.map_range(domain, 0x10001, 0x40002, 100, Perm.READ)


def test_map_zero_size_rejected(iommu):
    domain = iommu.attach_device(1)
    with pytest.raises(ConfigurationError):
        iommu.map_range(domain, 0x1000, 0x4000, 0, Perm.READ)


def test_unmap_range(iommu, machine):
    domain = iommu.attach_device(1)
    core = machine.core(0)
    iommu.map_range(domain, 0x10000, 0x40000, 2 * PAGE_SIZE, Perm.RW, core)
    assert iommu.unmap_range(domain, 0x10000, 2 * PAGE_SIZE, core) == 2
    assert domain.page_table.mapped_pages == 0


def _captured_iommu():
    machine = Machine.build(cores=1, numa_nodes=1,
                            obs=Observability.capture())
    return machine, Iommu(machine)


def _state(iommu, domain, core):
    table = domain.page_table
    return (sorted(table.entries()), table.mapped_pages, table.table_nodes,
            core.now, iommu.obs.exposure.summary())


def test_map_range_over_a_mapped_page_changes_nothing():
    """A range that runs into a live mapping is refused whole: no PTE of
    it is installed, no cycles are charged and no exposure is noted, so
    callers that free the memory on the error leave nothing reachable."""
    machine, iommu = _captured_iommu()
    domain = iommu.attach_device(1)
    core = machine.core(0)
    iommu.map_range(domain, 0x11000, 0x99000, PAGE_SIZE, Perm.RW, core)
    before = _state(iommu, domain, core)
    with pytest.raises(DmaApiError, match="0x11 already mapped"):
        iommu.map_range(domain, 0x10000, 0x40000, 3 * PAGE_SIZE, Perm.RW,
                        core)
    assert domain.page_table.lookup(0x10) is None
    assert domain.page_table.mapped_pages == 1
    assert _state(iommu, domain, core) == before


def test_unmap_range_over_an_unmapped_page_changes_nothing():
    machine, iommu = _captured_iommu()
    domain = iommu.attach_device(1)
    core = machine.core(0)
    iommu.map_range(domain, 0x10000, 0x40000, PAGE_SIZE, Perm.RW, core)
    iommu.map_range(domain, 0x12000, 0x42000, PAGE_SIZE, Perm.RW, core)
    before = _state(iommu, domain, core)
    with pytest.raises(DmaApiError, match="unmapped IOVA page 0x11"):
        iommu.unmap_range(domain, 0x10000, 3 * PAGE_SIZE, core)
    assert domain.page_table.lookup(0x10).pfn == 0x40
    assert domain.page_table.mapped_pages == 2
    assert _state(iommu, domain, core) == before


def test_translate_walks_and_caches(iommu):
    domain = iommu.attach_device(1)
    iommu.map_range(domain, 0x10000, 0x40000, PAGE_SIZE, Perm.RW)
    entry = iommu.translate(domain, 0x10008, is_write=False)
    assert entry.pa == 0x40000
    assert iommu.iotlb.stats.misses == 1
    iommu.translate(domain, 0x10100, is_write=True)
    assert iommu.iotlb.stats.hits == 1


def test_translate_unmapped_faults_and_records(iommu):
    domain = iommu.attach_device(7)
    with pytest.raises(IommuFault) as exc:
        iommu.translate(domain, 0xdead000, is_write=True)
    assert exc.value.device_id == 7
    assert len(iommu.faults) == 1
    assert iommu.faults[0].reason == "no mapping"


def test_translate_permission_fault(iommu):
    domain = iommu.attach_device(1)
    iommu.map_range(domain, 0x10000, 0x40000, PAGE_SIZE, Perm.READ)
    iommu.translate(domain, 0x10000, is_write=False)
    with pytest.raises(IommuFault):
        iommu.translate(domain, 0x10000, is_write=True)
    assert "permission" in iommu.faults[-1].reason


def test_fault_record_carries_timestamp_and_domain(iommu):
    domain = iommu.attach_device(7)
    with pytest.raises(IommuFault):
        iommu.translate(domain, 0xdead000, is_write=True)
    rec = iommu.faults[0]
    assert rec.t >= 0
    assert rec.domain_id == domain.domain_id
    assert rec.device_id == 7


def test_fault_ring_is_bounded(machine):
    from repro.iommu.iommu import FaultRing

    iommu = Iommu(machine, fault_capacity=3)
    domain = iommu.attach_device(1)
    for i in range(8):
        with pytest.raises(IommuFault):
            iommu.translate(domain, 0x1000 * (i + 1), is_write=True)
    assert isinstance(iommu.faults, FaultRing)
    assert len(iommu.faults) == 3
    assert iommu.faults.recorded == 8
    assert iommu.faults.dropped == 5
    # Oldest evicted first: the survivors are the newest three.
    assert [f.iova for f in iommu.faults] == [0x6000, 0x7000, 0x8000]
    assert iommu.faults[0].iova == 0x6000
    assert bool(iommu.faults)
    iommu.faults.clear()
    assert not iommu.faults
    assert iommu.faults.recorded == 0


def test_fault_ring_rejects_bad_capacity(machine):
    from repro.iommu.iommu import FaultRing

    with pytest.raises(ConfigurationError):
        FaultRing(capacity=0)
    with pytest.raises(ConfigurationError):
        Iommu(machine, fault_capacity=-1)


def test_fault_emits_trace_event_and_counter(machine):
    from repro.obs.context import Observability
    from repro.obs.trace import EV_IOMMU_FAULT

    obs = Observability.capture()
    machine.obs = obs
    iommu = Iommu(machine)
    domain = iommu.attach_device(9)
    with pytest.raises(IommuFault):
        iommu.translate(domain, 0xbad000, is_write=False)
    kinds = obs.tracer.counts_by_kind()
    assert kinds[EV_IOMMU_FAULT] == 1
    assert obs.metrics.counters["iommu.faults"].value == 1
    # The exposure accountant got the forensic record too.
    assert len(obs.exposure.faults) == 1
    assert obs.exposure.faults[0].domain_id == domain.domain_id


def test_stale_iotlb_entry_survives_pt_unmap(iommu):
    """The crux of the deferred window: unmap without invalidation leaves
    the translation usable."""
    domain = iommu.attach_device(1)
    iommu.map_range(domain, 0x10000, 0x40000, PAGE_SIZE, Perm.RW)
    iommu.translate(domain, 0x10000, is_write=True)  # cache it
    iommu.unmap_range(domain, 0x10000, PAGE_SIZE)
    # Still translates via the stale IOTLB entry.
    assert iommu.translate(domain, 0x10000, is_write=True).pa == 0x40000
    # After invalidation, it faults.
    iommu.iotlb.invalidate_pages(domain.domain_id, 0x10)
    with pytest.raises(IommuFault):
        iommu.translate(domain, 0x10000, is_write=True)


def test_translating_port_moves_real_bytes(iommu, machine):
    domain = iommu.attach_device(1)
    port = TranslatingDmaPort(iommu, domain)
    # Map two *discontiguous* physical pages at contiguous IOVAs.
    iommu.map_range(domain, 0x10000, 0x40000, PAGE_SIZE, Perm.RW)
    iommu.map_range(domain, 0x11000, 0x99000, PAGE_SIZE, Perm.RW)
    data = bytes(range(256)) * 20  # 5120 B > one page
    port.dma_write(0x10000 + 3000, data[:2000])
    # Crosses from PA 0x40000+3000 into PA 0x99000.
    assert machine.memory.read(0x40000 + 3000, 1096) == data[:1096]
    assert machine.memory.read(0x99000, 904) == data[1096:2000]
    assert port.dma_read(0x10000 + 3000, 2000) == data[:2000]


def test_translating_port_write_needs_write_perm(iommu):
    domain = iommu.attach_device(1)
    port = TranslatingDmaPort(iommu, domain)
    iommu.map_range(domain, 0x10000, 0x40000, PAGE_SIZE, Perm.READ)
    with pytest.raises(IommuFault):
        port.dma_write(0x10000, b"nope")
    port.dma_read(0x10000, 4)  # read is fine


def test_passthrough_port(machine):
    port = PassthroughDmaPort(machine)
    port.dma_write(0x1234, b"raw")
    assert machine.memory.read(0x1234, 3) == b"raw"
    assert port.dma_read(0x1234, 3) == b"raw"
