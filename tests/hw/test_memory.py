"""Physical memory model tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MemoryAccessError
from repro.hw.memory import NODE_REGION_BYTES, PhysicalMemory
from repro.sim.units import PAGE_SIZE


@pytest.fixture
def mem() -> PhysicalMemory:
    return PhysicalMemory(num_nodes=2)


def test_basic_roundtrip(mem):
    mem.write(0x1000, b"hello")
    assert mem.read(0x1000, 5) == b"hello"


def test_untouched_memory_reads_zero(mem):
    assert mem.read(0x5000, 16) == bytes(16)


def test_write_across_page_boundary(mem):
    data = bytes(range(200)) * 50  # 10 000 bytes, > 2 pages
    addr = PAGE_SIZE - 17
    mem.write(addr, data)
    assert mem.read(addr, len(data)) == data


def test_copy_across_pages(mem):
    src = 3 * PAGE_SIZE - 100
    dst = 7 * PAGE_SIZE - 50
    payload = bytes(range(256)) * 2
    mem.write(src, payload)
    mem.copy(dst, src, len(payload))
    assert mem.read(dst, len(payload)) == payload


def test_fill(mem):
    mem.fill(0x2000, 100, 0xAB)
    assert mem.read(0x2000, 100) == b"\xab" * 100


def test_node_geometry(mem):
    base1 = mem.node_base(1)
    assert base1 == 1 << 36
    assert mem.node_of(0) == 0
    assert mem.node_of(base1) == 1
    assert mem.node_of(base1 + 12345) == 1


def test_node_region(mem):
    base, size = mem.node_region(0)
    assert base == 0 and size == NODE_REGION_BYTES


def test_node_out_of_range(mem):
    with pytest.raises(MemoryAccessError):
        mem.node_base(5)
    with pytest.raises(MemoryAccessError):
        mem.node_of(10 << 36)


def test_write_outside_memory_rejected(mem):
    with pytest.raises(MemoryAccessError):
        mem.write((2 << 36) + 10, b"x")


def test_read_outside_memory_rejected(mem):
    with pytest.raises(MemoryAccessError):
        mem.read(5 << 36, 1)


def test_cross_node_range_check():
    # A range cannot straddle a node boundary with a smaller node size.
    mem = PhysicalMemory(num_nodes=2, node_bytes=1 << 20)
    assert not mem.contains((1 << 20) - 10, 100)
    with pytest.raises(MemoryAccessError):
        mem.read((1 << 20) - 10, 100)


def test_resident_pages_lazy(mem):
    assert mem.resident_pages == 0
    mem.write(0, b"x")
    assert mem.resident_pages == 1
    mem.write(PAGE_SIZE * 10, bytes(PAGE_SIZE + 1))
    assert mem.resident_pages == 3


def test_reading_untouched_pages_materializes_nothing(mem):
    mem.write(PAGE_SIZE, b"y")
    assert mem.read(0x5000, 16) == bytes(16)
    # Multi-page: an untouched page, a written one, an untouched one.
    data = mem.read(PAGE_SIZE - 8, PAGE_SIZE + 16)
    assert data == bytes(8) + b"y" + bytes(PAGE_SIZE + 7)
    assert mem.resident_pages == 1


def test_zero_size_ops(mem):
    mem.write(0, b"")
    assert mem.read(0, 0) == b""
    mem.copy(0, 100, 0)


def test_zero_nodes_rejected():
    with pytest.raises(MemoryAccessError):
        PhysicalMemory(num_nodes=0)


@settings(max_examples=50)
@given(addr=st.integers(min_value=0, max_value=1 << 24),
       data=st.binary(min_size=1, max_size=3 * PAGE_SIZE))
def test_roundtrip_property(addr, data):
    mem = PhysicalMemory(num_nodes=1)
    mem.write(addr, data)
    assert mem.read(addr, len(data)) == data


@settings(max_examples=30)
@given(a=st.integers(min_value=0, max_value=1 << 20),
       b=st.integers(min_value=2 << 20, max_value=3 << 20),
       data=st.binary(min_size=1, max_size=PAGE_SIZE))
def test_disjoint_writes_do_not_interfere(a, b, data):
    mem = PhysicalMemory(num_nodes=1)
    mem.write(a, data)
    mem.write(b, data[::-1])
    assert mem.read(a, len(data)) == data


@settings(max_examples=60, deadline=None)
@given(src=st.integers(min_value=0, max_value=3 * PAGE_SIZE),
       delta=st.integers(min_value=-2 * PAGE_SIZE, max_value=2 * PAGE_SIZE),
       size=st.integers(min_value=1, max_value=3 * PAGE_SIZE))
def test_overlapping_copy_is_memmove(src, delta, size):
    """``copy`` over overlapping ranges, in both directions, behaves like
    memmove: the destination ends up holding the source's old bytes."""
    base = 2 * PAGE_SIZE
    src += base
    dst = src + delta
    span = 12 * PAGE_SIZE  # holds the farthest destination end
    mem = PhysicalMemory(num_nodes=1)
    pattern = bytes((i * 7 + 3) & 0xFF for i in range(span))
    mem.write(0, pattern)
    model = bytearray(pattern)
    model[dst:dst + size] = model[src:src + size]
    mem.copy(dst, src, size)
    assert mem.read(0, span) == bytes(model)


@pytest.mark.parametrize("forward", [True, False])
def test_overlapping_copy_by_one_byte_across_pages(forward):
    mem = PhysicalMemory(num_nodes=1)
    pattern = bytes(range(256)) * 48  # three pages
    mem.write(PAGE_SIZE, pattern)
    src = PAGE_SIZE + 10
    dst = src + 1 if forward else src - 1
    size = 2 * PAGE_SIZE + 100
    model = bytearray(PAGE_SIZE) + bytearray(pattern) + bytearray(PAGE_SIZE)
    model[dst:dst + size] = model[src:src + size]
    mem.copy(dst, src, size)
    assert mem.read(0, len(model)) == bytes(model)


def test_copy_between_untouched_ranges_materializes_nothing(mem):
    """Zeros copied onto zeros change no byte, so no frame appears (the
    copy scheme's hint copy-back of a never-written shadow, or a TX copy
    of a never-written buffer); a copy out of a written frame lands."""
    mem.write(0, b"z")
    src, dst = 4 * PAGE_SIZE + 100, 20 * PAGE_SIZE + 7
    size = 3 * PAGE_SIZE
    mem.copy(dst, src, 14)
    mem.copy(dst, src, size)
    assert mem.resident_pages == 1
    assert mem.read(src, size) == bytes(size)
    assert mem.read(dst, size) == bytes(size)
    mem.copy(dst, 0, 2)
    assert mem.read(dst, 3) == b"z\x00\x00"
    assert mem.resident_pages == 2


def test_copy_from_untouched_source_still_lands(mem):
    # Zeros over a written destination clear it.
    mem.write(8 * PAGE_SIZE, b"\xff" * 16)
    mem.copy(8 * PAGE_SIZE, 2 * PAGE_SIZE, 16)
    assert mem.read(8 * PAGE_SIZE, 16) == bytes(16)
    # An untouched first source frame, then a written one.
    mem.write(3 * PAGE_SIZE, b"q")
    mem.copy(12 * PAGE_SIZE, 3 * PAGE_SIZE - 4, 8)
    assert mem.read(12 * PAGE_SIZE, 8) == bytes(4) + b"q" + bytes(3)


def test_copy_from_untouched_memory_checks_both_ranges():
    node_bytes = 1 << 20
    mem = PhysicalMemory(num_nodes=1, node_bytes=node_bytes)
    with pytest.raises(MemoryAccessError, match="read of 100 bytes"):
        mem.copy(0, node_bytes - 10, 100)
    with pytest.raises(MemoryAccessError, match="write of 100 bytes"):
        mem.copy(node_bytes - 10, 0, 100)
    assert mem.resident_pages == 0


@settings(max_examples=200, deadline=None)
@given(written=st.sets(st.integers(0, 11), max_size=4),
       src=st.integers(0, 6 * PAGE_SIZE), dst=st.integers(0, 6 * PAGE_SIZE),
       size=st.integers(1, 5 * PAGE_SIZE))
def test_sparse_copy_matches_a_flat_model(written, src, dst, size):
    span = 12 * PAGE_SIZE
    mem = PhysicalMemory(num_nodes=1)
    model = bytearray(span)
    for pfn in written:
        mem.write(pfn * PAGE_SIZE + 5, b"\x5a")
        model[pfn * PAGE_SIZE + 5] = 0x5A
    model[dst:dst + size] = model[src:src + size]
    mem.copy(dst, src, size)
    assert mem.read(0, span) == bytes(model)


@pytest.mark.parametrize("node", [0, 1])
def test_multi_page_write_across_node_end_writes_nothing(node):
    node_bytes = 1 << 20
    mem = PhysicalMemory(num_nodes=2, node_bytes=node_bytes)
    end = mem.node_base(node) + node_bytes
    start = end - PAGE_SIZE - 100  # two in-range pages, then past the end
    with pytest.raises(MemoryAccessError):
        mem.write(start, b"\xaa" * (3 * PAGE_SIZE))
    assert mem.resident_pages == 0
    assert mem.read(start, end - start) == bytes(end - start)


@pytest.mark.parametrize("node", [0, 1])
def test_multi_page_read_across_node_end_rejected(node):
    node_bytes = 1 << 20
    mem = PhysicalMemory(num_nodes=2, node_bytes=node_bytes)
    end = mem.node_base(node) + node_bytes
    mem.write(end - 2 * PAGE_SIZE, b"\x55" * (2 * PAGE_SIZE))
    with pytest.raises(MemoryAccessError):
        mem.read(end - 2 * PAGE_SIZE, 2 * PAGE_SIZE + 1)
    with pytest.raises(MemoryAccessError):
        mem.copy(0x1000, end - PAGE_SIZE, 2 * PAGE_SIZE)
    assert mem.read(0x1000, 2 * PAGE_SIZE) == bytes(2 * PAGE_SIZE)


def test_range_touching_last_byte_of_node_is_inside():
    mem = PhysicalMemory(num_nodes=2, node_bytes=1 << 20)
    end = mem.node_base(1) + (1 << 20)
    mem.write(end - 3 * PAGE_SIZE, b"\x11" * (3 * PAGE_SIZE))
    assert mem.read(end - 1, 1) == b"\x11"
    with pytest.raises(MemoryAccessError):
        mem.write(-PAGE_SIZE, b"\x00" * (2 * PAGE_SIZE))
