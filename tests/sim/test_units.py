"""Unit-conversion and page-arithmetic tests."""

import pytest
from hypothesis import given, strategies as st

from repro.sim import units


def test_cycles_us_roundtrip():
    assert units.us_to_cycles(1.0) == 2400
    assert units.cycles_to_us(2400) == pytest.approx(1.0)


def test_seconds_conversions():
    assert units.seconds_to_cycles(1.0) == int(units.CPU_FREQ_HZ)
    assert units.cycles_to_seconds(units.CPU_FREQ_HZ) == pytest.approx(1.0)


def test_throughput_gbps():
    # 1 GB in 1 second of cycles = 8 Gb/s.
    cycles = units.seconds_to_cycles(1.0)
    assert units.throughput_gbps(10 ** 9, cycles) == pytest.approx(8.0)


def test_throughput_zero_window():
    assert units.throughput_gbps(1000, 0) == 0.0


def test_gbps_to_bytes_per_cycle():
    bpc = units.gbps_to_bytes_per_cycle(40.0)
    # 40 Gb/s = 5 GB/s over 2.4 GHz ≈ 2.083 B/cycle.
    assert bpc == pytest.approx(5e9 / 2.4e9)


def test_mss_derived_from_mtu():
    assert units.TCP_MSS == units.ETH_MTU - 40


def test_pages_spanned_basic():
    assert units.pages_spanned(0, 1) == 1
    assert units.pages_spanned(0, 4096) == 1
    assert units.pages_spanned(0, 4097) == 2
    assert units.pages_spanned(4095, 2) == 2
    assert units.pages_spanned(100, 0) == 0


def test_page_alignment():
    assert units.page_align_down(4097) == 4096
    assert units.page_align_up(4097) == 8192
    assert units.page_align_up(4096) == 4096
    assert units.page_align_down(0) == 0


@given(addr=st.integers(min_value=0, max_value=2 ** 40),
       size=st.integers(min_value=1, max_value=2 ** 20))
def test_pages_spanned_covers_range(addr, size):
    n = units.pages_spanned(addr, size)
    first = addr >> units.PAGE_SHIFT
    last = (addr + size - 1) >> units.PAGE_SHIFT
    assert n == last - first + 1
    assert 1 <= n <= size // units.PAGE_SIZE + 2


@given(addr=st.integers(min_value=0, max_value=2 ** 48))
def test_align_up_down_bracket(addr):
    down = units.page_align_down(addr)
    up = units.page_align_up(addr)
    assert down <= addr <= up
    assert down % units.PAGE_SIZE == 0
    assert up % units.PAGE_SIZE == 0
    assert up - down in (0, units.PAGE_SIZE)


@given(nbytes=st.integers(min_value=0, max_value=2 ** 32))
def test_page_order_is_the_smallest_block_that_holds(nbytes):
    pages = 1 << units.page_order(nbytes)
    assert pages * units.PAGE_SIZE >= nbytes
    if nbytes > units.PAGE_SIZE:
        assert (pages // 2) * units.PAGE_SIZE < nbytes
