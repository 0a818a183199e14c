"""Result-row export tests."""

import json

from repro.stats.export import result_to_row
from repro.stats.results import RunResult
from repro.sim.units import seconds_to_cycles


def sample(scheme="copy", size=1024):
    wall = seconds_to_cycles(0.001)
    r = RunResult(scheme=scheme, workload="tcp_stream_rx",
                  params={"message_size": size, "cores": 1},
                  units=100, payload_bytes=10 ** 6, wall_cycles=wall,
                  busy_cycles=wall // 2, cores=1)
    r.breakdown_cycles = {"memcpy": wall // 4, "other": wall // 4}
    return r


def test_row_shape():
    row = result_to_row(sample())
    assert row["scheme"] == "copy"
    assert row["param_message_size"] == 1024
    assert row["us_memcpy"] > 0
    assert row["us_spinlock"] == 0
    assert row["latency_us"] is None


def test_json_roundtrip():
    parsed = json.loads(json.dumps(result_to_row(sample())))
    assert parsed["workload"] == "tcp_stream_rx"
    assert parsed["cpu_utilization"] == 0.5
    assert parsed["throughput_gbps"] == 8.0


def test_live_result_exports():
    from repro.workloads.netperf import StreamConfig, run_tcp_stream_rx

    r = run_tcp_stream_rx(StreamConfig(scheme="copy", message_size=4096,
                                       units_per_core=80, warmup_units=20))
    row = result_to_row(r)
    assert row["throughput_gbps"] > 0
    assert row["us_memcpy"] > 0
