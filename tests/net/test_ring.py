"""Descriptor-ring tests: driver side, device side, wraparound."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.net.ring import DESC_SIZE, FLAG_DONE, FLAG_READY, Descriptor, DescriptorRing


@pytest.fixture
def ring(machine, make_api):
    api = make_api("copy")
    core = machine.core(0)
    r = DescriptorRing(machine, api, core, entries=8, name="t")
    yield r, api, core


def test_ring_lives_in_coherent_memory(ring):
    r, api, core = ring
    assert r.coherent.size == 8 * DESC_SIZE
    # The API knows the ring's memory as a coherent allocation: freeing
    # it succeeds where an unknown coherent free raises.
    api.dma_free_coherent(core, r.coherent)


def test_post_and_reap(ring):
    r, api, core = ring
    idx = r.post(Descriptor(addr=0x1000, length=100, flags=FLAG_READY))
    assert r.outstanding == 1
    assert r.reap() is None  # not completed yet
    r.write_descriptor(idx, Descriptor(addr=0x1000, length=100,
                                       flags=FLAG_DONE))
    reaped = r.reap()
    assert reaped is not None
    assert reaped[0] == idx
    assert r.outstanding == 0


def test_reap_empty(ring):
    r, _, _ = ring
    assert r.reap() is None


def test_wraparound(ring):
    r, _, _ = ring
    for round_ in range(3):
        for i in range(8):
            idx = r.post(Descriptor(addr=i, length=1, flags=FLAG_READY))
            r.write_descriptor(idx, Descriptor(addr=i, length=1,
                                               flags=FLAG_DONE))
            got = r.reap()
            assert got[1].addr == i


def test_overflow_rejected(ring):
    r, _, _ = ring
    for i in range(8):
        r.post(Descriptor(addr=i, length=1, flags=FLAG_READY))
    with pytest.raises(SimulationError):
        r.post(Descriptor(addr=9, length=1, flags=FLAG_READY))


def test_device_reads_through_port(ring):
    r, api, core = ring
    idx = r.post(Descriptor(addr=0xabcd000, length=42, flags=FLAG_READY))
    desc = r.device_read(api.port(), idx)
    assert desc.addr == 0xabcd000
    assert desc.length == 42
    assert desc.ready


def test_device_writeback_visible_to_driver(ring):
    r, api, core = ring
    idx = r.post(Descriptor(addr=1, length=2, flags=FLAG_READY))
    r.device_write_back(api.port(), idx,
                        Descriptor(addr=1, length=2, flags=FLAG_DONE))
    reaped = r.reap()
    assert reaped is not None and reaped[1].done


def test_ring_size_validation(machine, make_api):
    api = make_api("copy")
    core = machine.core(0)
    with pytest.raises(ConfigurationError):
        DescriptorRing(machine, api, core, entries=3)
    with pytest.raises(ConfigurationError):
        DescriptorRing(machine, api, core, entries=1)


def test_ring_free(machine, make_api):
    api = make_api("copy")
    core = machine.core(0)
    r = DescriptorRing(machine, api, core, entries=4)
    r.free(core)


def test_descriptor_flags():
    d = Descriptor(addr=0, length=0, flags=FLAG_READY | FLAG_DONE)
    assert d.ready and d.done
    assert not Descriptor(addr=0, length=0, flags=0).ready
