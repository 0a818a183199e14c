"""Metric definitions, their computation from child reports, and the
correctness checks a run must pass.

Host times in a child report are in reference seconds (see
:mod:`perfbench.hostclock`).  A pass is one run over all of a
workload's configs; timings are reported as the median over passes.
"""

from __future__ import annotations

import math
import re
import statistics
from typing import Dict, List, Sequence, Tuple

from perfbench.instrument import LATENCY_NAMES
from perfbench.reference import paper_err_pct

#: End-to-end metrics: name → (unit, better).  Every workload reports
#: all of them.  ``sim-us`` is simulated microseconds (2.4 GHz model
#: clock); simulated values repeat exactly for a given seed.
END_TO_END: Dict[str, Tuple[str, str]] = {
    "units_per_s": ("units/s", "higher"),
    "sim_cycles_per_s": ("cycles/s", "higher"),
    "setup_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "sim_gbps": ("Gb/s", "higher"),
    "sim_cpu_us_per_unit": ("sim-us", "lower"),
    "paper_err_pct": ("%", "lower"),
}

#: Traced methods reported per layer (calls and self time per unit).
REPORTED_FUNCTIONS = (
    "hw.Core.charge", "hw.PhysicalMemory.read", "hw.PhysicalMemory.write",
    "hw.PhysicalMemory.copy", "hw.SpinLock.acquire",
    "core.ShadowBufferPool.acquire_shadow",
    "core.ShadowBufferPool.release_shadow",
    "core.ShadowDmaApi.map", "core.ShadowDmaApi.unmap",
    "dma.DmaApi.dma_map", "dma.DmaApi.dma_unmap", "dma.ZeroCopyDmaApi.map",
    "dma.StrictZeroCopyDmaApi.unmap", "dma.DeferredZeroCopyDmaApi.unmap",
    "iommu.Iommu.map_range", "iommu.Iommu.unmap_range",
    "iommu.Iommu.translate", "iommu.Iotlb.lookup",
    "iommu.InvalidationQueue.invalidate_sync",
    "iommu.InvalidationQueue.invalidate_ranges_sync",
    "iommu.InvalidationQueue.flush_batch",
    "kalloc.BuddyAllocator.alloc_pages", "kalloc.BuddyAllocator.free_pages",
    "kalloc.SlabAllocator.kmalloc", "kalloc.SlabAllocator.kfree",
    "iova.IdentityIovaAllocator.alloc", "iova.IdentityIovaAllocator.free",
    "net.NicDriver.setup_queue", "net.NicDriver.receive_one",
    "net.NicDriver.transmit_one", "net.Nic.receive_frame",
    "net.Nic.transmit_pending",
    "sim.Scheduler.run",
    "obs.SpanRecorder.begin", "obs.SpanRecorder.end",
    "obs.RequestRecorder.begin", "obs.RequestRecorder.end",
    "obs.RequestRecorder.mark", "obs.RingTracer.emit",
    "obs.ExposureAccountant.note",
)

#: Layers whose share of traced host time is reported.
LAYERS = ("hw", "core", "dma", "iommu", "kalloc", "iova", "net", "sim",
          "obs", "system", "workloads")

#: Simulated per-layer components, read from untraced result rows.
SIM_COMPONENTS: Dict[str, Tuple[str, str]] = {
    "core.us_copy_mgmt": ("sim-us/unit", "lower"),
    "hw.us_memcpy": ("sim-us/unit", "lower"),
    "iommu.us_pt_mgmt": ("sim-us/unit", "lower"),
    "iommu.us_invalidate": ("sim-us/unit", "lower"),
    "hw.us_spinlock": ("sim-us/unit", "lower"),
    "iommu.iotlb_hit_rate": ("ratio", "higher"),
    "iommu.sync_invalidations": ("count", "lower"),
    "iommu.inv_lock_wait_cycles": ("cycles", "lower"),
    "core.pool_grows": ("count", "lower"),
}

_BREAKDOWN = {"core.us_copy_mgmt": "copy mgmt", "hw.us_memcpy": "memcpy",
              "iommu.us_pt_mgmt": "iommu page table mgmt",
              "iommu.us_invalidate": "invalidate iotlb",
              "hw.us_spinlock": "spinlock"}


def _per_layer_defs() -> Dict[str, Tuple[str, str]]:
    defs: Dict[str, Tuple[str, str]] = {}
    for name in REPORTED_FUNCTIONS:
        defs[f"{name}.calls_per_unit"] = ("calls/unit", "lower")
        defs[f"{name}.self_us_per_unit"] = ("us/unit", "lower")
    for name in LATENCY_NAMES:
        defs[f"{name}.p50_us"] = ("us", "lower")
        defs[f"{name}.p99_us"] = ("us", "lower")
    for layer in LAYERS:
        defs[f"{layer}.self_share"] = ("ratio", "lower")
    defs.update(SIM_COMPONENTS)
    # One workload each (0 elsewhere), so they cannot be end-to-end
    # metrics, which every workload reports and which are never 0.
    defs["obs_overhead_ratio"] = ("x", "lower")
    defs["sim_latency_us"] = ("sim-us", "lower")
    defs["trace_overhead_ratio"] = ("x", "lower")
    return defs


#: Per-layer metrics of the traced run: name → (unit, better).
PER_LAYER: Dict[str, Tuple[str, str]] = _per_layer_defs()


# ----------------------------------------------------------------------
# Summaries.
# ----------------------------------------------------------------------
def summarize(samples: Sequence[float]) -> dict:
    """Median, min, max and sample count."""
    return {"median": statistics.median(samples), "min": min(samples),
            "max": max(samples), "n": len(samples)}


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def rows_by_label(pass_records: List[dict]) -> Dict[str, dict]:
    return {rec["label"]: rec["row"] for rec in pass_records}


def end_to_end(workload: str, report: dict) -> Dict[str, List[float]]:
    """Per-pass samples of every :data:`END_TO_END` metric."""
    samples: Dict[str, List[float]] = {name: [] for name in END_TO_END}
    for records in report["passes"]:
        measure_s = sum(r["measure_s"] for r in records)
        rows = [r["row"] for r in records]
        samples["units_per_s"].append(
            sum(r["units"] for r in records) / measure_s)
        samples["sim_cycles_per_s"].append(
            sum(r["wall_cycles"] for r in records) / measure_s)
        samples["setup_s"].append(sum(r["setup_s"] for r in records))
        samples["run_s"].append(sum(r["total_s"] for r in records))
        samples["sim_gbps"].append(geomean([r["throughput_gbps"]
                                            for r in rows]))
        samples["sim_cpu_us_per_unit"].append(geomean([r["us_per_unit"]
                                                       for r in rows]))
        samples["paper_err_pct"].append(
            paper_err_pct(workload, rows_by_label(records)))
    samples["peak_rss_mb"].append(report["peak_rss_mb"])
    return samples


def obs_overhead_ratios(report: dict) -> List[float]:
    """Per pass, captured measured-phase time over that of the same
    configs uncaptured; empty when no config is captured."""
    ratios = []
    for records in report["passes"]:
        twins = {r["label"][:-len("+obs")] for r in records if r["captured"]}
        if twins:
            captured = sum(r["measure_s"] for r in records if r["captured"])
            plain = sum(r["measure_s"] for r in records
                        if r["label"] in twins)
            ratios.append(captured / plain)
    return ratios


def sim_latencies_us(report: dict) -> List[float]:
    """Simulated mean RTTs of the TCP_RR configs (first pass)."""
    return [r["row"]["latency_us"] for r in report["passes"][0]
            if r["row"]["latency_us"] is not None]


def workload_extras(report: dict) -> Dict[str, dict]:
    """Numbers printed beside the end-to-end metrics: ``run_s`` in raw
    wall seconds, capture overhead (rx-captured only) and simulated
    TCP_RR latency (rr-kv only).  The last two are per-layer metrics of
    the traced run."""
    extras: Dict[str, dict] = {"run_raw_s": dict(summarize(
        [sum(r["total_raw_s"] for r in records)
         for records in report["passes"]]), unit="s")}
    ratios = obs_overhead_ratios(report)
    if ratios:
        extras["obs_overhead_ratio"] = dict(summarize(ratios), unit="x")
    latencies = sim_latencies_us(report)
    if latencies:
        extras["sim_latency_us"] = dict(summarize([geomean(latencies)]),
                                        unit="sim-us")
    return extras


def per_layer(untraced: dict, traced: dict) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from a traced and an untraced report."""
    trace = traced["trace"]
    units = sum(r["units"] for records in traced["passes"] for r in records)
    # Traced times are raw seconds; scale them to reference microseconds.
    us = traced["ref_scale"] * 1e6
    values: Dict[str, float] = {}
    for name in REPORTED_FUNCTIONS:
        stats = trace["functions"][name]
        values[f"{name}.calls_per_unit"] = stats["calls"] / units
        values[f"{name}.self_us_per_unit"] = stats["self_s"] * us / units
    for name, durations in trace["durations"].items():
        p50, p99 = _percentiles(durations)
        values[f"{name}.p50_us"] = p50 * us
        values[f"{name}.p99_us"] = p99 * us
    total = sum(trace["layers"].values())
    for layer in LAYERS:
        values[f"{layer}.self_share"] = trace["layers"].get(layer, 0.0) / total
    values.update(sim_components(untraced["passes"][0]))
    ratios = obs_overhead_ratios(untraced)
    values["obs_overhead_ratio"] = statistics.median(ratios) if ratios else 0.0
    latencies = sim_latencies_us(untraced)
    values["sim_latency_us"] = geomean(latencies) if latencies else 0.0
    values["trace_overhead_ratio"] = _run_s(traced) / _run_s(untraced)
    return values


def _run_s(report: dict) -> float:
    return statistics.median(sum(r["total_s"] for r in records)
                             for records in report["passes"])


def _percentiles(durations: Sequence[float]) -> Tuple[float, float]:
    if not durations:
        return 0.0, 0.0
    ordered = sorted(durations)
    last = len(ordered) - 1
    return ordered[round(0.5 * last)], ordered[round(0.99 * last)]


def sim_components(records: List[dict]) -> Dict[str, float]:
    """The Fig. 5/8 breakdown per unit and the IOMMU/pool counters,
    summed over one pass's configs."""
    rows = [r["row"] for r in records]
    units = sum(row["units"] for row in rows)
    values = {name: sum(row["breakdown_us"][category] * row["units"]
                        for row in rows) / units
              for name, category in _BREAKDOWN.items()}
    extras = [row["extras"] for row in rows]
    hits = sum(e.get("iotlb", {}).get("hits", 0) for e in extras)
    misses = sum(e.get("iotlb", {}).get("misses", 0) for e in extras)
    values["iommu.iotlb_hit_rate"] = hits / (hits + misses) if hits else 0.0
    values["iommu.sync_invalidations"] = sum(
        e.get("sync_invalidations", 0) for e in extras)
    values["iommu.inv_lock_wait_cycles"] = sum(
        e.get("inv_lock_wait_cycles", 0) for e in extras)
    values["core.pool_grows"] = sum(
        e.get("pool", {}).get("grows", 0) for e in extras)
    return values


# ----------------------------------------------------------------------
# Correctness.
# ----------------------------------------------------------------------
def check_report(report: dict) -> List[str]:
    """Problems with one child report: failed or short configs, and
    simulated rows that differ between passes or between a captured
    config and its uncaptured twin."""
    problems = []
    first = report["passes"][0]
    for index, records in enumerate(report["passes"]):
        for rec in records:
            where = f"pass {index} {rec['label']}"
            if rec["error"]:
                problems.append(f"{where}: raised")
                continue
            if rec["units"] != rec["expected_units"]:
                problems.append(f"{where}: {rec['units']} units, expected "
                                f"{rec['expected_units']}")
            if rec["failed"]:
                problems.append(f"{where}: {rec['failed']} failed operations")
        if index:
            problems += compare_rows(rows_by_label(first),
                                     rows_by_label(records),
                                     f"pass {index} vs pass 0")
    rows = rows_by_label(first)
    for label, row in rows.items():
        if label.endswith("+obs"):
            twin = label[:-len("+obs")]
            problems += compare_rows({twin: rows.get(twin)}, {twin: row},
                                     f"{label} vs uncaptured")
    return problems


def compare_rows(expected: Dict[str, dict], actual: Dict[str, dict],
                 what: str) -> List[str]:
    """Labels whose simulated rows differ (or are missing)."""
    return [f"{what}: simulated results of {label} differ"
            for label in expected if actual.get(label) != expected[label]]


def check_trace(workload: str, untraced: dict, traced: dict) -> List[str]:
    """Tracing must not change simulated results, and observability
    must do no work outside ``rx-captured``."""
    problems = compare_rows(rows_by_label(untraced["passes"][0]),
                            rows_by_label(traced["passes"][0]),
                            "traced vs untraced")
    if workload != "rx-captured":
        for name, stats in traced["trace"]["functions"].items():
            if name.startswith("obs.") and stats["calls"]:
                problems.append(f"{name} called {stats['calls']} times "
                                f"with observability off")
    return problems


def attempted_failed(reports: Sequence[dict]) -> Tuple[int, int]:
    """Operations attempted and failed over every config of every pass."""
    attempted = failed = 0
    for report in reports:
        for records in report["passes"]:
            for rec in records:
                attempted += rec["expected_units"]
                failed += rec["failed"]
    return attempted, failed


# ----------------------------------------------------------------------
# BENCHMARK.json.
# ----------------------------------------------------------------------
_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
_TOP_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end",
             "per_layer"}


def validate_benchmark(spec: dict, workloads: Sequence[str]) -> List[str]:
    """Problems with BENCHMARK.json: its shape, and any disagreement with
    the workloads and metrics perfbench defines."""
    problems = []
    if set(spec) != _TOP_KEYS:
        problems.append(f"top-level keys {sorted(spec)}")
        return problems
    if [w.get("name") for w in spec["workloads"]] != list(workloads):
        problems.append("workloads differ from perfbench.workloads")
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or "\n" in w["why"] \
                or len(w["why"]) > 200:
            problems.append(f"workload entry {w}")
    if not (isinstance(spec["run_seconds"], int)
            and 1 <= spec["run_seconds"] <= 60):
        problems.append("run_seconds")
    names = [m.get("name") for m in spec["end_to_end"] + spec["per_layer"]]
    if len(set(names)) != len(names):
        problems.append("duplicate metric names")
    for section, defs, keys in (
            ("end_to_end", END_TO_END, {"name", "unit", "better", "bound"}),
            ("per_layer", PER_LAYER, {"name", "unit", "better"})):
        listed = {m.get("name"): m for m in spec[section]}
        if set(listed) != set(defs):
            problems.append(f"{section} names differ: "
                            f"{sorted(set(listed) ^ set(defs))}")
        for name, m in listed.items():
            if set(m) != keys or not _NAME.match(str(name)) \
                    or not _UNIT.match(str(m["unit"])):
                problems.append(f"{section} entry {m}")
            elif name in defs and (m["unit"], m["better"]) != defs[name]:
                problems.append(f"{section} {name}: unit/better "
                                f"{m['unit']}/{m['better']}, expected "
                                f"{defs[name][0]}/{defs[name][1]}")
            if section == "end_to_end" and not (
                    isinstance(m.get("bound"), (int, float))
                    and 0 < m["bound"] <= 0.25):
                problems.append(f"bound of {name}")
    bounds = {m["name"]: m.get("bound", 0) for m in spec["end_to_end"]}
    if bounds.get("setup_s") != max(bounds.values(), default=None):
        problems.append("setup_s must carry the largest bound")
    return problems
