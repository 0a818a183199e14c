"""Differential test of the device-side DMA path.

``TranslatingDmaPort.dma_read``/``dma_write`` are compared against a
plain per-page reference loop kept here: split the access at page
boundaries, translate each chunk through ``Iommu.translate``, move the
chunk through ``PhysicalMemory``.  Both run on identical machines built
from the same random layout of mapped, read-only, write-only, unmapped
and stale (unmapped but still cached) pages, and must agree on the bytes
moved, the IOTLB statistics and LRU order, the fault raised and recorded,
and the bytes a write leaves behind before a mid-range fault.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.errors import IommuFault
from repro.hw.machine import Machine
from repro.iommu.iommu import Iommu, TranslatingDmaPort
from repro.iommu.page_table import Perm
from repro.sim.units import PAGE_SHIFT, PAGE_SIZE

#: IOVA page of the window the layouts cover.
BASE_PAGE = 0x40
NPAGES = 6
#: Physical frames are scattered (reversed, spaced) so a contiguous IOVA
#: range never maps to a contiguous physical range.
PFN_BASE = 0x300

KINDS = ("unmapped", "rw", "read", "write", "stale")


def reference_read(iommu, domain, iova, size):
    parts = []
    offset = 0
    while offset < size:
        current = iova + offset
        chunk = min(size - offset, PAGE_SIZE - (current & (PAGE_SIZE - 1)))
        entry = iommu.translate(domain, current, is_write=False)
        pa = entry.pa | (current & (PAGE_SIZE - 1))
        parts.append(iommu.machine.memory.read(pa, chunk))
        offset += chunk
    return b"".join(parts)


def reference_write(iommu, domain, iova, data):
    offset = 0
    while offset < len(data):
        current = iova + offset
        chunk = min(len(data) - offset,
                    PAGE_SIZE - (current & (PAGE_SIZE - 1)))
        entry = iommu.translate(domain, current, is_write=True)
        pa = entry.pa | (current & (PAGE_SIZE - 1))
        iommu.machine.memory.write(pa, data[offset:offset + chunk])
        offset += chunk


def _pfn(i):
    return PFN_BASE + 2 * (NPAGES - i)


def build(layout, warm, capacity):
    """A machine + IOMMU with ``layout[i]`` describing IOVA page
    ``BASE_PAGE + i``; ``warm`` pages are translated once beforehand so
    the IOTLB starts with hits, misses and an LRU order to keep."""
    machine = Machine.build(cores=1, numa_nodes=1)
    iommu = Iommu(machine, iotlb_capacity=capacity)
    domain = iommu.attach_device(3)
    memory = machine.memory
    for i in range(NPAGES):
        memory.write(_pfn(i) << PAGE_SHIFT,
                     bytes((i * 31 + b) & 0xFF for b in range(PAGE_SIZE)))
    perms = {"rw": Perm.RW, "read": Perm.READ, "write": Perm.WRITE,
             "stale": Perm.RW}
    for i, kind in enumerate(layout):
        if kind != "unmapped":
            iommu.map_range(domain, (BASE_PAGE + i) << PAGE_SHIFT,
                            _pfn(i) << PAGE_SHIFT, PAGE_SIZE, perms[kind])
    for i in warm:
        if layout[i] != "unmapped":
            iommu.translate(domain, (BASE_PAGE + i) << PAGE_SHIFT,
                            is_write=layout[i] == "write")
    for i, kind in enumerate(layout):
        if kind == "stale":
            iommu.translate(domain, (BASE_PAGE + i) << PAGE_SHIFT,
                            is_write=False)
            iommu.unmap_range(domain, (BASE_PAGE + i) << PAGE_SHIFT,
                              PAGE_SIZE)
    return machine, iommu, domain


def observe(machine, iommu):
    span = (NPAGES + 1) * 2 * PAGE_SIZE
    return (vars(iommu.iotlb.stats).copy(), list(iommu.iotlb._entries),
            list(iommu.faults),
            machine.memory.read(PFN_BASE << PAGE_SHIFT, span))


def run(fn, *args):
    try:
        return fn(*args), None
    except IommuFault as fault:
        return None, (fault.iova, fault.is_write, fault.reason)


layouts = st.lists(st.sampled_from(KINDS), min_size=NPAGES,
                   max_size=NPAGES)
accesses = st.tuples(
    st.integers(0, 2 * PAGE_SIZE),            # start offset in the window
    st.integers(0, 3 * PAGE_SIZE))            # size


@settings(max_examples=150, deadline=None)
@given(layout=layouts, warm=st.lists(st.integers(0, NPAGES - 1), max_size=8),
       capacity=st.sampled_from([2, 3, 64]), access=accesses,
       is_write=st.booleans())
def test_device_dma_matches_per_page_reference(layout, warm, capacity,
                                               access, is_write):
    offset, size = access
    iova = (BASE_PAGE << PAGE_SHIFT) + offset
    data = bytes((7 * b + 1) & 0xFF for b in range(size))
    sides = []
    for use_port in (True, False):
        machine, iommu, domain = build(layout, warm, capacity)
        port = TranslatingDmaPort(iommu, domain)
        if is_write:
            fn = port.dma_write if use_port else (
                lambda i, d: reference_write(iommu, domain, i, d))
            outcome = run(fn, iova, data)
        else:
            fn = port.dma_read if use_port else (
                lambda i, n: reference_read(iommu, domain, i, n))
            outcome = run(fn, iova, size)
        sides.append((outcome, observe(machine, iommu)))
    assert sides[0] == sides[1]


def test_mid_range_fault_keeps_earlier_pages_written():
    """A write that faults on its third page has already landed on the
    first two — the device-visible partial write the reference makes."""
    machine, iommu, domain = build(["rw", "write", "unmapped", "rw", "rw",
                                    "rw"], warm=[], capacity=64)
    port = TranslatingDmaPort(iommu, domain)
    iova = (BASE_PAGE << PAGE_SHIFT) + 100
    payload = b"\xee" * (3 * PAGE_SIZE)
    outcome = run(port.dma_write, iova, payload)
    assert outcome == (None, (((BASE_PAGE + 2) << PAGE_SHIFT), True,
                              "no mapping"))
    first = machine.memory.read((_pfn(0) << PAGE_SHIFT) + 100,
                                PAGE_SIZE - 100)
    second = machine.memory.read(_pfn(1) << PAGE_SHIFT, PAGE_SIZE)
    assert first == payload[:PAGE_SIZE - 100]
    assert second == payload[:PAGE_SIZE]
    assert iommu.iotlb.stats.misses == 3
    assert [f.iova for f in iommu.faults] == [(BASE_PAGE + 2) << PAGE_SHIFT]
