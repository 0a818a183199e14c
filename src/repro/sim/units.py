"""Unit conversions used across the simulator.

The whole timing model is expressed in *CPU cycles* of the evaluated
machine — a 2.40 GHz Intel Xeon E5-2630 v3 (Haswell), per the paper's
experimental setup (§6).  Throughput is expressed in bits per second and
converted via the cycle clock.  Keeping a single canonical unit (cycles)
avoids the float drift that mixing nanoseconds and cycles would cause.
"""

from __future__ import annotations

#: Clock frequency of the evaluated machine (§6: 2.40 GHz Haswell,
#: Turbo Boost disabled, so the clock is fixed).
CPU_FREQ_HZ: float = 2.4e9

#: Cycles per microsecond at :data:`CPU_FREQ_HZ`.
CYCLES_PER_US: float = CPU_FREQ_HZ / 1e6

#: Standard x86 page size.  IOMMU mappings are done at this granularity.
PAGE_SIZE: int = 4096
PAGE_SHIFT: int = 12

#: Ethernet MTU used throughout the evaluation (1500-byte frames).
ETH_MTU: int = 1500

#: TCP maximum segment size for an MTU of 1500 (20 B IP + 20 B TCP headers,
#: no options — netperf's default back-to-back configuration).
TCP_MSS: int = ETH_MTU - 40

#: Largest buffer a TSO-capable NIC accepts in one transmit descriptor chain.
TSO_MAX_BYTES: int = 64 * 1024

KIB: int = 1024
MIB: int = 1024 * 1024
GIB: int = 1024 * 1024 * 1024


def us_to_cycles(us: float) -> int:
    """Convert microseconds to (rounded) CPU cycles."""
    return round(us * CYCLES_PER_US)


def cycles_to_us(cycles: float) -> float:
    """Convert CPU cycles to microseconds."""
    return cycles / CYCLES_PER_US


def cycles_to_seconds(cycles: float) -> float:
    """Convert CPU cycles to seconds."""
    return cycles / CPU_FREQ_HZ


def seconds_to_cycles(seconds: float) -> int:
    """Convert seconds to (rounded) CPU cycles."""
    return round(seconds * CPU_FREQ_HZ)


def gbps_to_bytes_per_cycle(gbps: float) -> float:
    """Convert a line rate in Gb/s to bytes transferred per CPU cycle."""
    return (gbps * 1e9 / 8.0) / CPU_FREQ_HZ


def throughput_gbps(total_bytes: int, elapsed_cycles: float) -> float:
    """Aggregate throughput in Gb/s for ``total_bytes`` over ``elapsed_cycles``."""
    if elapsed_cycles <= 0:
        return 0.0
    seconds = cycles_to_seconds(elapsed_cycles)
    return total_bytes * 8.0 / seconds / 1e9


def page_order(nbytes: int) -> int:
    """Buddy order of the smallest power-of-two run of pages that holds
    ``nbytes`` (0 for anything up to one page)."""
    return max(0, ((nbytes + PAGE_SIZE - 1) >> PAGE_SHIFT) - 1).bit_length()
