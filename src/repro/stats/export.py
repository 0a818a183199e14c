"""Flatten run results into plain rows for external analysis.

One row per :class:`~repro.stats.results.RunResult`, with the
breakdown flattened into per-category columns.  Bench records, and the
record a workload command writes with ``--json``, carry these rows, and
the paper-style text tables (:mod:`repro.stats.reporting`) render from
them.
"""

from __future__ import annotations

from repro.hw.cpu import ALL_CATEGORIES
from repro.obs.scaling import serialized_shares
from repro.stats.results import RunResult


def result_to_row(result: RunResult) -> dict:
    """Flatten one result into a plain, JSON-friendly dict."""
    row: dict = {
        "scheme": result.scheme,
        "workload": result.workload,
        "units": result.units,
        "payload_bytes": result.payload_bytes,
        "wall_cycles": result.wall_cycles,
        "busy_cycles": result.busy_cycles,
        "cores": result.cores,
        "throughput_gbps": round(result.throughput_gbps, 4),
        "cpu_utilization": round(result.cpu_utilization, 4),
        "us_per_unit": round(result.us_per_unit, 4),
        "latency_us": (round(result.latency_us, 3)
                       if result.latency_us is not None else None),
        "transactions_per_sec": (round(result.transactions_per_sec, 1)
                                 if result.transactions_per_sec is not None
                                 else None),
    }
    # Serialized-share columns (see repro.obs.scaling): the within-run
    # serial-fraction estimators, so a scalability collapse shows in
    # every row like a throughput collapse does.
    lock_wait_share, serial_fraction = serialized_shares(
        result.breakdown_cycles, result.busy_cycles)
    row["lock_wait_share"] = round(lock_wait_share, 6)
    row["scaling_serial_fraction"] = round(serial_fraction, 6)
    for key, value in sorted(result.params.items()):
        row[f"param_{key}"] = value
    breakdown = result.breakdown_us_per_unit()
    for category in ALL_CATEGORIES:
        row[f"us_{category.replace(' ', '_')}"] = round(
            breakdown[category], 4)
    exposure = result.extras.get("exposure")
    if isinstance(exposure, dict):
        # Security columns beside the performance ones (see
        # repro.obs.exposure for definitions).
        row["exposure_stale_byte_cycles"] = \
            exposure.get("stale_byte_cycles", 0)
        row["exposure_excess_byte_cycles"] = \
            exposure.get("granularity_excess_byte_cycles", 0)
        row["exposure_peak_surface_bytes"] = \
            exposure.get("peak_surface_bytes", 0)
        row["exposure_stale_accesses"] = exposure.get("stale_accesses", 0)
        row["exposure_faults"] = exposure.get("faults", 0)
    requests = result.extras.get("requests")
    if isinstance(requests, dict):
        # Request-latency tail columns (see repro.obs.requests).
        overall = requests.get("overall", {})
        if overall.get("count"):
            row["latency_p50_us"] = overall.get("p50_us")
            row["latency_p99_us"] = overall.get("p99_us")
            row["latency_p999_us"] = overall.get("p999_us")
    iotlb = result.extras.get("iotlb")
    if isinstance(iotlb, dict) and iotlb:
        # IOTLB columns: cache behaviour *explains* why strict
        # unmapping costs what it costs.
        hits = iotlb.get("hits", 0)
        misses = iotlb.get("misses", 0)
        lookups = hits + misses
        row["iotlb_hit_rate"] = (round(hits / lookups, 6)
                                 if lookups else 0.0)
        row["iotlb_evictions"] = iotlb.get("evictions", 0)
        row["iotlb_invalidations"] = iotlb.get("invalidations", 0)
        row["iotlb_invalidated_entries"] = \
            iotlb.get("invalidated_entries", 0)
        prefetches = iotlb.get("prefetches", 0)
        if prefetches:
            # Prefetch-hint columns (identity-strict-prefetch): how many
            # hints were posted and how many first lookups they served.
            row["iotlb_prefetches"] = prefetches
            row["iotlb_prefetch_hit_rate"] = round(
                iotlb.get("prefetch_hits", 0) / prefetches, 6)
    return row
