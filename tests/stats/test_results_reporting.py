"""RunResult accounting and table-rendering tests."""

import pytest

from repro.hw.cpu import ALL_CATEGORIES
from repro.stats.export import result_to_row
from repro.stats.reporting import (
    render_breakdown_table,
    render_exposure_report,
    render_memcached_table,
    render_property_matrix,
    render_sweep_table,
    text_table,
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


def make_row(scheme="copy", size=1024, gbps=10.0, **fields):
    return dict(result_to_row(make_result(scheme, size, gbps)), **fields)


def test_text_table_sizes_each_column_to_its_widest_cell():
    lines = text_table(["scheme", "Gb/s"],
                       [["identity-deferred-bounded", "7.5"],
                        ["copy", "12.25"]])
    assert lines == ["scheme                      Gb/s",
                     "identity-deferred-bounded    7.5",
                     "copy                       12.25"]
    # A header wider than every cell sets the width; nothing trails.
    assert text_table(["a", "wide header"], [["x", "1"]]) == \
        ["a  wide header", "x            1"]
    assert text_table(["only"], [["x"]]) == ["only", "x"]


def test_render_throughput_table():
    points = {
        "no-iommu": [make_row("no-iommu", 64, 5.0),
                     make_row("no-iommu", 65536, 17.0)],
        "copy": [make_row("copy", 64, 5.0),
                 make_row("copy", 65536, 13.0)],
    }
    text = render_sweep_table(points, title="Fig 3")
    assert "Fig 3" in text
    assert "64KB" in text and "64B" in text
    assert "relative throughput" in text
    assert "copy" in text
    # Relative value for copy at 64 KB is 13/17 ≈ 0.76.
    assert "0.76" in text


def test_render_latency_table():
    text = render_sweep_table({"copy": [make_row(latency_us=17.5)]},
                              metric="latency", title="Fig 9")
    assert "17.5" in text
    assert "relative latency" in text


def test_render_breakdown_table():
    text = render_breakdown_table({"copy": [make_row()]}, title="Fig 5a")
    assert "memcpy" in text
    assert "TOTAL" in text
    assert "Fig 5a" in text


def test_breakdown_header_keeps_long_scheme_names_apart():
    schemes = ("no-iommu", "copy", "identity-deferred", "identity-strict")
    text = render_breakdown_table({s: [make_row(s)] for s in schemes})
    assert text.splitlines()[0].split() == ["category", *schemes]


def test_render_property_matrix():
    text = render_property_matrix(
        [("copy", {"a": True, "b": False})], ["a", "b"], title="T1")
    assert "yes" in text and "T1" in text


def test_render_exposure_report_marks_unprotected_rows():
    text = render_exposure_report(
        [("self-invalidating IOMMU [Basu et al.]",
          {"stale_byte_cycles": 1967939584}),
         ("no-iommu", None)])
    lines = text.splitlines()
    assert lines[2].split()[-7:] == ["1967939584", *"000000"]
    assert lines[3].split() == ["no-iommu", *["n/a"] * 7]
    assert "device reach not bounded by translation" in text


def test_render_memcached_table():
    text = render_memcached_table({
        "no-iommu": [make_row("no-iommu", transactions_per_sec=1.4e6)],
        "copy": [make_row("copy", transactions_per_sec=1.3e6)]})
    assert "1.300" in text
    assert "0.93" in text
