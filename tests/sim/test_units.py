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


@given(nbytes=st.integers(min_value=0, max_value=2 ** 32))
def test_page_order_is_the_smallest_block_that_holds(nbytes):
    pages = 1 << units.page_order(nbytes)
    assert pages * units.PAGE_SIZE >= nbytes
    if nbytes > units.PAGE_SIZE:
        assert (pages // 2) * units.PAGE_SIZE < nbytes
