"""Result containers for workload runs.

A :class:`RunResult` captures what one benchmark configuration produced:
throughput, CPU utilization, the per-packet time breakdown (same
categories as the paper's Figures 5/8/10), and auxiliary counters
(shadow-pool occupancy, lock contention, IOTLB statistics).  The
benchmark harness serializes these into the tables EXPERIMENTS.md quotes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.hw.cpu import ALL_CATEGORIES
from repro.sim.units import CYCLES_PER_US, throughput_gbps


@dataclass
class RunResult:
    """Outcome of one workload run under one protection scheme."""

    scheme: str
    workload: str
    params: Dict[str, object] = field(default_factory=dict)

    units: int = 0                 # packets / messages / transactions
    payload_bytes: int = 0
    wall_cycles: int = 0
    busy_cycles: int = 0
    cores: int = 1
    breakdown_cycles: Dict[str, int] = field(default_factory=dict)

    latency_us: Optional[float] = None
    transactions_per_sec: Optional[float] = None
    extras: Dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def throughput_gbps(self) -> float:
        return throughput_gbps(self.payload_bytes, self.wall_cycles)

    @property
    def cpu_utilization(self) -> float:
        """Fraction of total core-time spent busy (1.0 = all cores pegged)."""
        if self.wall_cycles <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / (self.wall_cycles * self.cores))

    @property
    def us_per_unit(self) -> float:
        """Average *CPU* microseconds per packet/transaction."""
        if not self.units:
            return 0.0
        return self.busy_cycles / CYCLES_PER_US / self.units

    def breakdown_us_per_unit(self) -> Dict[str, float]:
        """Per-unit time breakdown in µs, in the paper's category order."""
        if not self.units:
            return {cat: 0.0 for cat in ALL_CATEGORIES}
        return {
            cat: self.breakdown_cycles.get(cat, 0) / CYCLES_PER_US / self.units
            for cat in ALL_CATEGORIES
        }
