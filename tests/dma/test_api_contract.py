"""DMA API contract tests — run against every scheme via the factory."""

import pytest

from repro.dma.api import DmaDirection, DmaHandle
from repro.dma.registry import ALL_SCHEMES
from repro.errors import DmaApiError


@pytest.fixture(params=ALL_SCHEMES)
def api(request, make_api):
    return make_api(request.param)


def _buf(allocators, size=1500):
    return allocators.kmalloc(size, node=0)


def test_map_returns_handle(api, machine, allocators):
    core = machine.core(0)
    buf = _buf(allocators)
    handle = api.dma_map(core, buf, DmaDirection.FROM_DEVICE)
    assert handle.size == buf.size
    assert handle.direction is DmaDirection.FROM_DEVICE
    assert api.live_mappings == 1
    api.dma_unmap(core, handle)
    assert api.live_mappings == 0


def test_double_unmap_rejected(api, machine, allocators):
    core = machine.core(0)
    handle = api.dma_map(core, _buf(allocators), DmaDirection.TO_DEVICE)
    api.dma_unmap(core, handle)
    with pytest.raises(DmaApiError):
        api.dma_unmap(core, handle)


def test_unmap_unknown_handle_rejected(api, machine):
    core = machine.core(0)
    fake = DmaHandle(iova=0xdeadbeef000, size=100,
                     direction=DmaDirection.TO_DEVICE)
    with pytest.raises(DmaApiError):
        api.dma_unmap(core, fake)


def test_unmap_mismatched_handle_rejected(api, machine, allocators):
    core = machine.core(0)
    handle = api.dma_map(core, _buf(allocators), DmaDirection.TO_DEVICE)
    tampered = DmaHandle(iova=handle.iova, size=handle.size + 1,
                         direction=handle.direction)
    with pytest.raises(DmaApiError):
        api.dma_unmap(core, tampered)
    api.dma_unmap(core, handle)  # original still valid


def test_empty_buffer_rejected(api, machine, allocators):
    from repro.kalloc.slab import KBuffer

    core = machine.core(0)
    with pytest.raises(DmaApiError):
        api.dma_map(core, KBuffer(pa=0x1000, size=0, node=0),
                    DmaDirection.TO_DEVICE)


def test_sg_maps_each_element(api, machine, allocators):
    core = machine.core(0)
    bufs = [_buf(allocators, 512) for _ in range(4)]
    handles = api.dma_map_sg(core, bufs, DmaDirection.TO_DEVICE)
    assert len(handles) == 4
    assert len({h.iova for h in handles}) == 4
    api.dma_unmap_sg(core, handles)
    assert api.live_mappings == 0


def test_sg_empty_rejected(api, machine):
    core = machine.core(0)
    with pytest.raises(DmaApiError):
        api.dma_map_sg(core, [], DmaDirection.TO_DEVICE)


def test_stats_counters(api, machine, allocators):
    """``live_mappings``, the one counter the API keeps, follows maps of
    either direction and their unmaps."""
    core = machine.core(0)
    h1 = api.dma_map(core, _buf(allocators, 100), DmaDirection.TO_DEVICE)
    h2 = api.dma_map(core, _buf(allocators, 200), DmaDirection.FROM_DEVICE)
    assert api.live_mappings == 2
    api.dma_unmap(core, h1)
    assert api.live_mappings == 1
    api.dma_unmap(core, h2)
    assert api.live_mappings == 0


def test_coherent_alloc_free(api, machine):
    core = machine.core(0)
    buf = api.dma_alloc_coherent(core, 8192)
    assert buf.size == 8192
    assert buf.kbuf.pa % 4096 == 0
    # The CPU can write it directly; the device can read it at its IOVA.
    machine.memory.write(buf.kbuf.pa, b"ring descriptor")
    assert api.port().dma_read(buf.iova, 15) == b"ring descriptor"
    api.dma_free_coherent(core, buf)


def test_coherent_double_free_rejected(api, machine):
    core = machine.core(0)
    buf = api.dma_alloc_coherent(core, 4096)
    api.dma_free_coherent(core, buf)
    with pytest.raises(DmaApiError):
        api.dma_free_coherent(core, buf)


def test_direction_perms():
    assert DmaDirection.TO_DEVICE.device_reads
    assert not DmaDirection.TO_DEVICE.device_writes
    assert DmaDirection.FROM_DEVICE.device_writes
    assert not DmaDirection.FROM_DEVICE.device_reads
    assert DmaDirection.BIDIRECTIONAL.device_reads
    assert DmaDirection.BIDIRECTIONAL.device_writes
