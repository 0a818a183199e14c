"""RunResult accounting and table-rendering tests."""

import pytest

from repro.hw.cpu import ALL_CATEGORIES
from repro.stats.reporting import (
    render_breakdown_table,
    render_latency_table,
    render_memcached_table,
    render_property_matrix,
    render_throughput_table,
)
from repro.stats.results import RunResult
from repro.sim.units import seconds_to_cycles


def make_result(scheme="copy", size=1024, gbps=10.0, busy_frac=0.5,
                cores=1, units=1000):
    wall = seconds_to_cycles(0.001)
    payload = int(gbps * 1e9 / 8 * 0.001)
    r = RunResult(scheme=scheme, workload="test",
                  params={"message_size": size},
                  units=units, payload_bytes=payload, wall_cycles=wall,
                  busy_cycles=int(wall * cores * busy_frac), cores=cores)
    r.breakdown_cycles = {"memcpy": r.busy_cycles // 2,
                          "other": r.busy_cycles - r.busy_cycles // 2}
    return r


def test_throughput_and_cpu():
    r = make_result(gbps=10.0, busy_frac=0.25, cores=4)
    assert r.throughput_gbps == pytest.approx(10.0, rel=0.01)
    assert r.cpu_utilization == pytest.approx(0.25, rel=0.01)


def test_cpu_clamped_to_one():
    r = make_result(busy_frac=1.5)
    assert r.cpu_utilization == 1.0


def test_us_per_unit_and_breakdown():
    r = make_result(units=100)
    per_unit = r.breakdown_us_per_unit()
    assert set(per_unit) == set(ALL_CATEGORIES)
    assert sum(per_unit.values()) == pytest.approx(r.us_per_unit, rel=0.01)


def test_empty_result_is_safe():
    r = RunResult(scheme="x", workload="w")
    assert r.throughput_gbps == 0.0
    assert r.cpu_utilization == 0.0
    assert r.us_per_unit == 0.0
    assert all(v == 0.0 for v in r.breakdown_us_per_unit().values())


def test_render_throughput_table():
    results = {
        "no-iommu": [make_result("no-iommu", 64, 5.0),
                     make_result("no-iommu", 65536, 17.0)],
        "copy": [make_result("copy", 64, 5.0),
                 make_result("copy", 65536, 13.0)],
    }
    text = render_throughput_table(results, title="Fig 3")
    assert "Fig 3" in text
    assert "64KB" in text and "64B" in text
    assert "relative throughput" in text
    assert "copy" in text
    # Relative value for copy at 64 KB is 13/17 ≈ 0.76.
    assert "0.76" in text


def test_render_breakdown_table():
    text = render_breakdown_table({"copy": make_result()},
                                  title="Fig 5a")
    assert "memcpy" in text
    assert "TOTAL" in text
    assert "Fig 5a" in text


def test_render_latency_table():
    r = make_result()
    r.latency_us = 17.5
    text = render_latency_table({"copy": [r]}, title="Fig 9")
    assert "17.5" in text
    assert "relative latency" in text


def test_render_property_matrix():
    text = render_property_matrix(
        [("copy", {"a": True, "b": False})], ["a", "b"], title="T1")
    assert "yes" in text and "T1" in text


def test_render_memcached_table():
    r = make_result("copy")
    r.transactions_per_sec = 1.3e6
    base = make_result("no-iommu")
    base.transactions_per_sec = 1.4e6
    text = render_memcached_table({"no-iommu": base, "copy": r})
    assert "1.300" in text
    assert "0.93" in text
