"""I/O page table tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DmaApiError
from repro.iommu.page_table import IOVA_BITS, IoPageTable, Perm
from repro.sim.units import PAGE_SHIFT, PAGE_SIZE

MAX_PAGE = (1 << (IOVA_BITS - PAGE_SHIFT)) - 1


def test_map_lookup_unmap():
    pt = IoPageTable()
    pt.map_page(0x1234, 0x5678, Perm.RW)
    entry = pt.lookup(0x1234)
    assert entry is not None
    assert entry.pfn == 0x5678
    assert entry.pa == 0x5678 << PAGE_SHIFT
    assert pt.mapped_pages == 1
    removed = pt.unmap_page(0x1234)
    assert removed.pfn == 0x5678
    assert pt.lookup(0x1234) is None
    assert pt.mapped_pages == 0


def test_overwrite_rejected():
    pt = IoPageTable()
    pt.map_page(1, 2, Perm.READ)
    with pytest.raises(DmaApiError):
        pt.map_page(1, 3, Perm.READ)


def test_unmap_unmapped_rejected():
    pt = IoPageTable()
    with pytest.raises(DmaApiError):
        pt.unmap_page(42)
    pt.map_page(1 << 27, 1, Perm.READ)  # populate an interior path
    with pytest.raises(DmaApiError):
        pt.unmap_page((1 << 27) + 1)


def test_map_no_perm_rejected():
    pt = IoPageTable()
    with pytest.raises(DmaApiError):
        pt.map_page(1, 2, Perm.NONE)


def test_out_of_range_rejected():
    pt = IoPageTable()
    with pytest.raises(DmaApiError):
        pt.map_page(MAX_PAGE + 1, 0, Perm.READ)
    with pytest.raises(DmaApiError):
        pt.map_page(-1, 0, Perm.READ)


def test_extreme_pages_ok():
    pt = IoPageTable()
    pt.map_page(0, 7, Perm.READ)
    pt.map_page(MAX_PAGE, 8, Perm.WRITE)
    assert pt.lookup(0).pfn == 7
    assert pt.lookup(MAX_PAGE).pfn == 8


def test_entries_iteration():
    pt = IoPageTable()
    pages = {3, 513, 1 << 20, (1 << 30) + 17}
    for i, page in enumerate(sorted(pages)):
        pt.map_page(page, i, Perm.RW)
    seen = {page for page, _ in pt.entries()}
    assert seen == pages


def test_table_nodes_grow_and_bytes():
    pt = IoPageTable()
    assert pt.table_nodes == 1
    pt.map_page(0, 0, Perm.READ)
    assert pt.table_nodes == 4  # root + 3 interior levels
    assert pt.table_bytes == 4 * PAGE_SIZE
    pt.map_page(1, 1, Perm.READ)  # same leaf: no new nodes
    assert pt.table_nodes == 4
    pt.map_page(1 << 27, 2, Perm.READ)  # new top-level subtree
    assert pt.table_nodes == 7


def test_perm_allows():
    assert Perm.READ.allows(is_write=False)
    assert not Perm.READ.allows(is_write=True)
    assert Perm.WRITE.allows(is_write=True)
    assert not Perm.WRITE.allows(is_write=False)
    assert Perm.RW.allows(is_write=True)
    assert Perm.RW.allows(is_write=False)


@settings(max_examples=40, deadline=None)
@given(pages=st.lists(st.integers(0, MAX_PAGE), min_size=1, max_size=80,
                      unique=True))
def test_map_unmap_roundtrip_property(pages):
    pt = IoPageTable()
    for i, page in enumerate(pages):
        pt.map_page(page, i, Perm.RW)
    assert pt.mapped_pages == len(pages)
    # Root + one node per distinct path prefix at each lower level.
    assert pt.table_nodes == 1 + sum(len({p >> shift for p in pages})
                                     for shift in (27, 18, 9))
    for i, page in enumerate(pages):
        assert pt.lookup(page).pfn == i
    for page in pages:
        pt.unmap_page(page)
    assert pt.mapped_pages == 0
    assert all(pt.lookup(p) is None for p in pages)
