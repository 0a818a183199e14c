"""netperf workload harness tests (small configurations)."""

import pytest

from repro.errors import ConfigurationError
from repro.hw.cpu import ALL_CATEGORIES
from repro.workloads.netperf import (
    PAPER_MESSAGE_SIZES,
    RRConfig,
    StreamConfig,
    run_tcp_rr,
    run_tcp_stream,
    run_tcp_stream_rx,
    run_tcp_stream_tx,
)


def small_stream(**kw):
    defaults = dict(units_per_core=150, warmup_units=30)
    defaults.update(kw)
    return StreamConfig(**defaults)


def test_rx_result_accounting():
    r = run_tcp_stream_rx(small_stream(scheme="copy", message_size=16384))
    assert r.units == 150
    assert r.payload_bytes > 0
    assert 0 < r.throughput_gbps < 40
    assert 0 < r.cpu_utilization <= 1.0
    assert r.workload == "tcp_stream_rx"
    assert r.params["message_size"] == 16384
    # Breakdown accounts for all busy cycles.
    assert sum(r.breakdown_cycles.values()) == r.busy_cycles
    assert set(r.breakdown_cycles) <= set(ALL_CATEGORIES)


def test_rx_small_messages_sender_limited():
    """Below the MSS the sender's syscall rate bounds throughput, so all
    schemes see identical throughput (§6 footnote 6)."""
    r_no = run_tcp_stream_rx(small_stream(scheme="no-iommu",
                                          message_size=64))
    r_strict = run_tcp_stream_rx(small_stream(scheme="identity-strict",
                                              message_size=64))
    assert r_no.throughput_gbps == pytest.approx(r_strict.throughput_gbps,
                                                 rel=0.02)
    assert r_strict.cpu_utilization > r_no.cpu_utilization
    assert r_no.cpu_utilization < 0.9  # not the bottleneck


def test_tx_result_accounting():
    r = run_tcp_stream_tx(small_stream(scheme="copy", message_size=65536,
                                       direction="tx"))
    assert r.units == 150
    assert r.payload_bytes == 150 * 65536
    assert r.throughput_gbps > 0
    assert r.workload == "tcp_stream_tx"


def test_tx_line_rate_cap():
    r = run_tcp_stream_tx(small_stream(scheme="no-iommu",
                                       message_size=65536, direction="tx",
                                       cores=2))
    assert r.throughput_gbps <= r.extras.get("line_cap", 36.5)


def test_dispatch_by_direction():
    rx = run_tcp_stream(small_stream(direction="rx", message_size=4096))
    tx = run_tcp_stream(small_stream(direction="tx", message_size=4096))
    assert rx.workload == "tcp_stream_rx"
    assert tx.workload == "tcp_stream_tx"


def test_invalid_direction_rejected():
    with pytest.raises(ConfigurationError):
        StreamConfig(direction="sideways")


def test_invalid_message_size_rejected():
    with pytest.raises(ConfigurationError):
        StreamConfig(message_size=0)


@pytest.mark.parametrize("field, value, message", [
    ("message_size", 0, "message_size must be positive"),
    ("message_size", -64, "message_size must be positive"),
    ("transactions", 0, "transactions must be positive"),
    ("warmup_transactions", -1, "warmup_transactions must not be negative"),
])
def test_invalid_rr_config_rejected(field, value, message):
    with pytest.raises(ConfigurationError, match=message):
        RRConfig(**{field: value})
    RRConfig(warmup_transactions=0)


def test_multicore_rx_uses_all_cores():
    r = run_tcp_stream_rx(small_stream(scheme="copy", cores=4,
                                       message_size=16384,
                                       units_per_core=100,
                                       warmup_units=20))
    assert r.cores == 4
    assert r.units == 400


def test_copy_pool_stats_exposed():
    r = run_tcp_stream_rx(small_stream(scheme="copy", message_size=1024))
    pool = r.extras["pool"]
    assert pool["bytes_allocated"] > 0
    assert pool["acquires"] > 0


def test_strict_invalidation_stats_exposed():
    r = run_tcp_stream_rx(small_stream(scheme="identity-strict",
                                       message_size=16384))
    assert r.extras["sync_invalidations"] > 100


def test_rr_latency_result():
    r = run_tcp_rr(RRConfig(scheme="copy", message_size=64,
                            transactions=60, warmup_transactions=10))
    assert r.latency_us is not None
    assert 5 < r.latency_us < 100
    assert r.units == 60
    assert 0 < r.cpu_utilization < 1.0


def test_rr_latency_grows_sublinearly_with_size():
    """Fig. 9: 1024× the message size costs only a few × the latency."""
    small = run_tcp_rr(RRConfig(scheme="no-iommu", message_size=64,
                                transactions=40, warmup_transactions=5))
    big = run_tcp_rr(RRConfig(scheme="no-iommu", message_size=65536,
                              transactions=40, warmup_transactions=5))
    ratio = big.latency_us / small.latency_us
    assert 2.0 <= ratio <= 8.0


def test_rr_schemes_have_comparable_latency():
    """Fig. 9b: protection schemes do not noticeably change latency."""
    base = run_tcp_rr(RRConfig(scheme="no-iommu", message_size=1024,
                               transactions=40, warmup_transactions=5))
    worst = run_tcp_rr(RRConfig(scheme="identity-strict",
                                message_size=1024,
                                transactions=40, warmup_transactions=5))
    assert worst.latency_us / base.latency_us < 1.35


def test_paper_message_sizes_constant():
    assert PAPER_MESSAGE_SIZES == (64, 256, 1024, 4096, 16384, 65536)


def test_deterministic_given_same_config():
    a = run_tcp_stream_rx(small_stream(scheme="copy", message_size=4096))
    b = run_tcp_stream_rx(small_stream(scheme="copy", message_size=4096))
    assert a.throughput_gbps == b.throughput_gbps
    assert a.busy_cycles == b.busy_cycles
