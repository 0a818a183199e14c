"""§6 "Memory consumption": shadow-pool occupancy at 16-core paper scale.

The paper's worst-case bound is ≈2.1 GB (16 K buffers × two size classes
× two NUMA domains), but the measured footprint tracks *in-flight DMAs*:
it observed ≈160 MB (64 MB TX + 96 MB RX shadows), ≈13× below the
bound.  Here the simulated rings bound in-flight DMAs more tightly.
"""

import pytest

from repro.sim.units import GIB
from repro.workloads.netperf import (
    StreamConfig,
    run_tcp_stream_rx,
    run_tcp_stream_tx,
)

#: 16 K buffers per class × the 4 KB and 64 KB classes × 2 NUMA domains.
WORST_CASE_BYTES = 16 * 1024 * (4096 + 65536) * 2


@pytest.fixture(scope="module")
def rx():
    return run_tcp_stream_rx(StreamConfig(
        scheme="copy", message_size=16384, cores=16, units_per_core=350,
        warmup_units=120))


@pytest.fixture(scope="module")
def tx():
    return run_tcp_stream_tx(StreamConfig(
        scheme="copy", direction="tx", message_size=65536, cores=16,
        units_per_core=350, warmup_units=120))


def test_worst_case_matches_the_papers_arithmetic():
    assert abs(WORST_CASE_BYTES - 2.1 * GIB) / (2.1 * GIB) < 0.1


def test_shadow_memory_is_far_below_the_worst_case(rx, tx):
    used = (rx.extras["pool"]["bytes_allocated"]
            + tx.extras["pool"]["bytes_allocated"])
    assert used * 5 < WORST_CASE_BYTES


def test_rx_shadows_are_the_posted_ring_buffers(rx):
    assert rx.extras["pool"]["in_flight"] == 16 * 511
