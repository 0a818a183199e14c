"""Discrete-event simulation core: units, cost model, scheduler."""

from repro.sim.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.sim.engine import CoreTask, Scheduler
from repro.sim.units import (
    CPU_FREQ_HZ,
    CYCLES_PER_US,
    ETH_MTU,
    PAGE_SIZE,
    TCP_MSS,
    TSO_MAX_BYTES,
    cycles_to_seconds,
    cycles_to_us,
    throughput_gbps,
    us_to_cycles,
)

__all__ = [
    "CostModel",
    "DEFAULT_COST_MODEL",
    "CoreTask",
    "Scheduler",
    "CPU_FREQ_HZ",
    "CYCLES_PER_US",
    "PAGE_SIZE",
    "ETH_MTU",
    "TCP_MSS",
    "TSO_MAX_BYTES",
    "us_to_cycles",
    "cycles_to_us",
    "cycles_to_seconds",
    "throughput_gbps",
]
