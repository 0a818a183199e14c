"""The paper's values that perfbench's workloads can be held against.

Each value is copied from the *paper* column of EXPERIMENTS.md.  Only
points that a workload's own configs measure are listed; the model is
otherwise unvalidated, so no other error figure is claimed.

``paper_err_pct`` of a workload is the mean of ``|sim / paper - 1| × 100``
over its points.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

Rows = Dict[str, dict]
Point = Tuple[str, float, Callable[[Rows], float]]


def _gbps(label: str) -> Callable[[Rows], float]:
    return lambda rows: rows[label]["throughput_gbps"]


def _tps_ratio(num: str, den: str) -> Callable[[Rows], float]:
    return lambda rows: (rows[num]["transactions_per_sec"]
                         / rows[den]["transactions_per_sec"])


def _breakdown_us(label: str, *categories: str) -> Callable[[Rows], float]:
    return lambda rows: sum(rows[label]["breakdown_us"][c]
                            for c in categories)


#: workload → [(what, paper value, how to read it from the rows)].
POINTS: Dict[str, List[Point]] = {
    # Figure 1 / 6: 16-core RX, approx. Gb/s.
    "rx-multicore": [
        ("16-core RX Gb/s, no-iommu", 38.0, _gbps("rx16-16k/no-iommu")),
        ("16-core RX Gb/s, copy", 38.0, _gbps("rx16-16k/copy")),
        ("16-core RX Gb/s, identity-", 38.0,
         _gbps("rx16-16k/identity-deferred")),
        ("16-core RX Gb/s, identity+", 5.0, _gbps("rx16-16k/identity-strict")),
    ],
    # Figure 5b: single-core TX, 64 KB messages, µs per chunk.
    "bulk-dma": [
        ("TX copy 64 KB memcpy us", 4.65,
         _breakdown_us("tx1-64k/copy", "memcpy")),
        ("TX identity+ total IOMMU us", 4.58,
         _breakdown_us("tx1-64k/identity-strict", "invalidate iotlb",
                       "iommu page table mgmt")),
    ],
    # Figure 11 (memcached tps ratios) and Figure 9 (RR latency growth).
    "rr-kv": [
        ("memcached copy / no-iommu tps", 0.98,
         _tps_ratio("memcached8/copy", "memcached8/no-iommu")),
        ("memcached no-iommu / identity+ tps", 6.6,
         _tps_ratio("memcached8/no-iommu", "memcached8/identity-strict")),
        ("RR latency 64 KB / 64 B, no-iommu", 4.0,
         lambda rows: (rows["rr-65536/no-iommu"]["latency_us"]
                       / rows["rr-64/no-iommu"]["latency_us"])),
    ],
    # The 16-core points of Figure 1 / 6 that rx-captured also runs.
    "rx-captured": [
        ("16-core RX Gb/s, copy", 38.0, _gbps("rx16-16k/copy")),
        ("16-core RX Gb/s, identity+", 5.0, _gbps("rx16-16k/identity-strict")),
    ],
}


def paper_err_pct(workload: str, rows: Rows) -> float:
    """Mean absolute relative error against the paper, in percent."""
    points = POINTS[workload]
    return 100.0 * sum(abs(read(rows) / paper - 1.0)
                       for _, paper, read in points) / len(points)
