"""The regression gate: exact stable-view identity with the baseline.

Built around synthetic records (no simulation runs) so the semantics
are exact: any move of a simulated value — a slowdown, a 1% shift, an
improvement, a fingerprint change — trips the gate, the report names
the moved path and the span subtree that grew, and host-dependent
fields never trip it.
"""

import copy
import json

from repro.bench.record import build_record
from repro.bench.regression import (
    gate_against_baseline,
    gate_records,
    moved_paths,
)
from repro.obs.spans import SpanNode


def _span_tree(lock_wait_cycles: int) -> dict:
    """run -> dma_unmap -> {iotlb_invalidate, lock_wait} as dict data."""
    run = SpanNode("run")
    unmap = run.child("dma_unmap")
    unmap.count = 100
    unmap.total_cycles = 50_000 + lock_wait_cycles
    inv = unmap.child("iotlb_invalidate")
    inv.count = 100
    inv.total_cycles = 30_000
    lock = unmap.child("lock_wait")
    lock.count = 100
    lock.total_cycles = lock_wait_cycles
    return run.to_dict()


def _record(throughput: float, us_per_unit: float,
            lock_wait_cycles: int = 10_000,
            scheme: str = "identity-strict",
            stale_byte_cycles: int | None = None,
            excess_byte_cycles: int | None = None) -> dict:
    row = {
        "figure": "fig03", "scheme": scheme,
        "workload": "tcp_stream_rx", "cores": 1,
        "param_message_size": 65536,
        "throughput_gbps": throughput, "us_per_unit": us_per_unit,
        "latency_us": None, "transactions_per_sec": None,
    }
    if stale_byte_cycles is not None:
        row["exposure_stale_byte_cycles"] = stale_byte_cycles
    if excess_byte_cycles is not None:
        row["exposure_excess_byte_cycles"] = excess_byte_cycles
    figures = {"fig03": {
        "title": "Figure 3", "series": [row],
        "spans": {scheme: _span_tree(lock_wait_cycles)},
    }}
    return build_record(mode="quick", figures=figures,
                        schemes=(scheme,))


def test_identical_records_pass():
    base = _record(6.6, 1.17)
    assert moved_paths(base, copy.deepcopy(base)) == {}
    status, report = gate_records(base, copy.deepcopy(base))
    assert status == 0
    assert "PASS" in report


def test_injected_slowdown_trips_both_metrics():
    base = _record(6.6, 1.17)
    cur = _record(6.6 * 0.8, 1.17 * 1.25, lock_wait_cycles=40_000)
    moved = moved_paths(base, cur)
    assert list(moved) == ["fig03"]
    row = ("$.figures.fig03.series[identity-strict tcp_stream_rx "
           "cores=1 message_size=65536]")
    assert moved["fig03"][:2] == [
        f"{row}.throughput_gbps: 6.6 != {6.6 * 0.8!r}",
        f"{row}.us_per_unit: 1.17 != {1.17 * 1.25!r}"]


def test_one_percent_shift_fails_and_names_its_path():
    base = _record(6.6, 1.17)
    cur = _record(6.6 * 1.01, 1.17)
    assert moved_paths(base, cur) == {"fig03": [
        "$.figures.fig03.series[identity-strict tcp_stream_rx cores=1 "
        f"message_size=65536].throughput_gbps: 6.6 != {6.6 * 1.01!r}"]}
    assert gate_records(base, cur)[0] == 1


def test_improvement_fails():
    base = _record(6.6, 1.17, lock_wait_cycles=40_000)
    cur = _record(6.6 * 1.5, 1.17 / 1.5, lock_wait_cycles=10_000)
    assert gate_records(base, cur)[0] == 1


def test_fingerprint_change_fails():
    base = _record(6.6, 1.17)
    cur = copy.deepcopy(base)
    cur["fingerprint"]["mode"] = "full"
    cur["fingerprint"]["cost_model"]["memcpy_fixed_cycles"] += 1
    assert moved_paths(base, cur) == {"fingerprint": [
        "$.fingerprint.mode: 'quick' != 'full'",
        "$.fingerprint.cost_model.memcpy_fixed_cycles: 40 != 41"]}
    status, report = gate_records(base, cur)
    assert status == 1
    assert "fingerprint: 2 path(s) differ" in report


def test_only_record_is_compared_on_its_own_figures():
    base = _record(6.6, 1.17)
    base["figures"]["fig05"] = copy.deepcopy(base["figures"]["fig03"])
    base["throughput"] = {
        name: {"sim_cycles": cycles, "wall_seconds": 1.0,
               "sim_cycles_per_wall_second": cycles}
        for name, cycles in (("fig03", 100), ("fig05", 200),
                             ("overall", 300))}
    only = copy.deepcopy(base)
    del only["figures"]["fig05"]
    only["throughput"] = {"fig03": dict(base["throughput"]["fig03"]),
                          "overall": dict(base["throughput"]["fig03"])}
    # fig05 and the differing overall are not what this run ran.
    assert moved_paths(base, only) == {}
    only["throughput"]["fig03"]["sim_cycles"] += 1
    assert moved_paths(base, only) == {"fig03": [
        "$.throughput.fig03.sim_cycles: 100 != 101"]}
    extra = copy.deepcopy(base)
    extra["figures"]["fig99"] = copy.deepcopy(base["figures"]["fig03"])
    assert moved_paths(base, extra) == {
        "fig99": ["$.figures.fig99 (not in the baseline)"]}


def test_gate_report_names_offending_span():
    base = _record(6.6, 1.17, lock_wait_cycles=10_000)
    cur = _record(6.6 * 0.7, 1.17 * 1.4, lock_wait_cycles=60_000)
    status, report = gate_records(base, cur)
    assert status == 1
    assert "FAIL" in report
    verdict = next(line for line in report.splitlines()
                   if "verdict:" in line)
    assert "fig03 identity-strict spans: dma_unmap > lock_wait" in verdict
    assert "throughput_gbps" in report


def test_gate_exit_status(tmp_path):
    base = _record(6.6, 1.17)
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(base))
    assert gate_against_baseline(str(path), copy.deepcopy(base)) == 0
    slow = _record(6.6 * 0.5, 1.17 * 2, lock_wait_cycles=90_000)
    assert gate_against_baseline(str(path), slow) == 1


def test_exposure_growth_beyond_band_trips():
    """A deferred scheme whose stale window grows 2x is a security
    regression, caught by the same gate as the perf metrics."""
    base = _record(6.6, 1.17, scheme="identity-deferred",
                   stale_byte_cycles=1_000_000)
    cur = _record(6.6, 1.17, scheme="identity-deferred",
                  stale_byte_cycles=2_000_000)
    (path,) = moved_paths(base, cur)["fig03"]
    assert path.endswith(
        "exposure_stale_byte_cycles: 1000000 != 2000000")


def test_exposure_from_zero_baseline_trips():
    """copy's baseline exposure is provably zero; any growth from zero
    trips."""
    base = _record(6.6, 1.17, scheme="copy",
                   stale_byte_cycles=0, excess_byte_cycles=0)
    cur = _record(6.6, 1.17, scheme="copy",
                  stale_byte_cycles=4096, excess_byte_cycles=8192)
    paths = moved_paths(base, cur)["fig03"]
    assert [path.split("].")[1] for path in paths] == [
        "exposure_stale_byte_cycles: 0 != 4096",
        "exposure_excess_byte_cycles: 0 != 8192"]
    status, report = gate_records(base, cur)
    assert status == 1
    assert "FAIL" in report
