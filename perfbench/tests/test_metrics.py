"""Metric arithmetic, paper error, correctness checks and the
BENCHMARK.json validator, on hand-built data."""

import copy
import json

import pytest

from perfbench import metrics
from perfbench.cli import BENCHMARK_JSON
from perfbench.reference import paper_err_pct
from perfbench.workloads import WORKLOADS, workload_specs


def _row(gbps, us_per_unit=1.0, wall_cycles=1000, **extra):
    row = {"throughput_gbps": gbps, "us_per_unit": us_per_unit,
           "wall_cycles": wall_cycles, "units": 10, "latency_us": None,
           "breakdown_us": {}, "extras": {}}
    row.update(extra)
    return row


def _record(label, row, measure_s=0.5, captured=False, units=10):
    return {"label": label, "captured": captured, "expected_units": 10,
            "error": False, "units": units, "failed": 0, "total_s": 1.0,
            "total_raw_s": 1.5, "setup_s": 0.25, "measure_s": measure_s,
            "wall_cycles": row["wall_cycles"], "row": row}


def _report(*passes):
    return {"passes": [list(p) for p in passes], "peak_rss_mb": 100.0}


def test_paper_err_pct_on_hand_built_rows():
    rows = {"rx16-16k/no-iommu": _row(38.0), "rx16-16k/copy": _row(34.2),
            "rx16-16k/identity-deferred": _row(38.0),
            "rx16-16k/identity-strict": _row(6.0)}
    # |0| + |−10 %| + |0| + |+20 %|, averaged.
    assert paper_err_pct("rx-multicore", rows) == pytest.approx(7.5)

    rows = {"memcached8/no-iommu": {"transactions_per_sec": 1000.0},
            "memcached8/copy": {"transactions_per_sec": 980.0},
            "memcached8/identity-strict": {"transactions_per_sec": 250.0},
            "rr-64/no-iommu": {"latency_us": 20.0},
            "rr-65536/no-iommu": {"latency_us": 100.0}}
    # copy/no-iommu exact; 4.0 vs 6.6; 5.0 vs 4.0.
    expected = 100 * (0 + abs(4.0 / 6.6 - 1) + 0.25) / 3
    assert paper_err_pct("rr-kv", rows) == pytest.approx(expected)


def test_end_to_end_metrics_of_a_synthetic_report():
    copy_row = _row(38.0, us_per_unit=1.0, wall_cycles=3000)
    strict_row = _row(5.0, us_per_unit=4.0, wall_cycles=1000)
    one = [_record("rx16-16k/copy", copy_row, measure_s=1.0),
           _record("rx16-16k/identity-strict", strict_row, measure_s=3.0)]
    two = [_record("rx16-16k/copy", copy_row, measure_s=2.0),
           _record("rx16-16k/identity-strict", strict_row, measure_s=2.0)]
    samples = metrics.end_to_end("rx-captured", _report(one, two))
    assert samples["units_per_s"] == [20 / 4.0, 20 / 4.0]
    assert samples["sim_cycles_per_s"] == [4000 / 4.0, 4000 / 4.0]
    assert samples["setup_s"] == [0.5, 0.5]
    assert samples["run_s"] == [2.0, 2.0]
    assert samples["sim_gbps"][0] == pytest.approx((38.0 * 5.0) ** 0.5)
    assert samples["sim_cpu_us_per_unit"][0] == pytest.approx(2.0)
    assert samples["paper_err_pct"][0] == pytest.approx(0.0)
    assert samples["peak_rss_mb"] == [100.0]
    assert set(samples) == set(metrics.END_TO_END)
    assert metrics.summarize([3.0, 1.0, 2.0]) == {
        "median": 2.0, "min": 1.0, "max": 3.0, "n": 3}


def test_obs_overhead_ratio_pairs_captured_configs_with_their_twins():
    row = _row(38.0)
    records = [_record("a", row, measure_s=1.0),
               _record("a+obs", row, measure_s=2.5, captured=True),
               _record("b", row, measure_s=7.0)]
    extras = metrics.workload_extras(_report(records))
    assert extras["obs_overhead_ratio"]["median"] == pytest.approx(2.5)
    assert extras["run_raw_s"]["median"] == pytest.approx(4.5)
    assert "sim_latency_us" not in extras


def test_a_perturbed_row_trips_the_determinism_check():
    rows = {"x": _row(38.0), "y": _row(5.0)}
    first = [_record(label, copy.deepcopy(row)) for label, row in rows.items()]
    second = copy.deepcopy(first)
    assert metrics.check_report(_report(first, second)) == []

    second[1]["row"]["wall_cycles"] += 1
    problems = metrics.check_report(_report(first, second))
    assert problems == ["pass 1 vs pass 0: simulated results of y differ"]


def test_captured_rows_must_match_their_uncaptured_twins():
    plain = _record("x", _row(38.0))
    captured = _record("x+obs", _row(38.0), captured=True)
    assert metrics.check_report(_report([plain, captured])) == []
    captured["row"]["throughput_gbps"] = 37.0
    assert metrics.check_report(_report([plain, captured])) == [
        "x+obs vs uncaptured: simulated results of x differ"]


def test_short_failed_and_raised_configs_are_reported():
    short = _record("s", _row(1.0), units=9)
    failing = _record("f", _row(1.0))
    failing["failed"] = 2
    raised = {"label": "r", "captured": False, "expected_units": 10,
              "error": True, "units": 0, "failed": 10, "row": None}
    problems = metrics.check_report(_report([short, failing, raised]))
    assert "pass 0 s: 9 units, expected 10" in problems
    assert "pass 0 f: 2 failed operations" in problems
    assert "pass 0 r: raised" in problems
    assert metrics.attempted_failed([_report([short, failing, raised])]) \
        == (30, 12)


def test_benchmark_json_matches_perfbench():
    with open(BENCHMARK_JSON) as fh:
        spec = json.load(fh)
    assert metrics.validate_benchmark(spec, list(WORKLOADS)) == []

    broken = copy.deepcopy(spec)
    broken["end_to_end"][0]["bound"] = 0.5
    broken["per_layer"].pop()
    broken["workloads"].reverse()
    problems = metrics.validate_benchmark(broken, list(WORKLOADS))
    assert any(p.startswith("bound of") for p in problems)
    assert any(p.startswith("per_layer names differ") for p in problems)
    assert "workloads differ from perfbench.workloads" in problems


def test_scaling_keeps_at_least_one_unit_and_core():
    for name in WORKLOADS:
        for spec in workload_specs(name, seed=1, scale=0.001):
            assert spec.expected_units >= 1
            assert spec.params.get("cores", 1) == 1
    full = workload_specs("rx-multicore", seed=1)
    assert full[0].expected_units == 16 * 300


def test_seed_reaches_only_storage_and_memcached():
    for name in WORKLOADS:
        one, two = workload_specs(name, 1), workload_specs(name, 2)
        for a, b in zip(one, two):
            differs = {k for k in a.params if a.params[k] != b.params[k]}
            assert differs == ({"seed"} if a.runner in ("storage", "memcached")
                               else set())
