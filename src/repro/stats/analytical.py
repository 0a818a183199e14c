"""Closed-form cost predictions — the paper's arithmetic, as code.

Two purposes:

1. **Cross-validation**: the discrete-event simulation should agree with
   a straight per-packet cost summation whenever nothing contends; the
   test suite asserts simulation ≈ analysis within a few percent for the
   single-core receive path.
2. **Analysis tools** the paper's argument implies but does not plot:
   the break-even buffer size where copying stops being cheaper than an
   IOTLB invalidation (§5.5's "copying is not always preferable"), and
   the multicore saturation throughput of a lock-serialized strict
   scheme.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.sim.costmodel import CostModel
from repro.sim.units import CPU_FREQ_HZ, TCP_MSS


@dataclass(frozen=True)
class RxCostPrediction:
    """Predicted single-core RX cost per MTU segment, by component."""

    scheme: str
    base_cycles: int
    protection_cycles: int

    @property
    def total_cycles(self) -> int:
        return self.base_cycles + self.protection_cycles

    def throughput_gbps(self, payload_bytes: int = TCP_MSS) -> float:
        packets_per_sec = CPU_FREQ_HZ / self.total_cycles
        return packets_per_sec * payload_bytes * 8 / 1e9


def rx_base_cycles(cost: CostModel, payload: int = TCP_MSS,
                   buf_size: int = 2048) -> int:
    """Protection-independent receive cost per segment (driver + stack)."""
    # The receiver's recv() syscall amortizes over a large message's
    # segments (≈13 cycles/segment at 64 KB) and is left out; the 40
    # cycles are the no-op dma_map/dma_unmap call pair itself.
    return (cost.rx_parse_cycles
            + cost.rx_other_cycles
            + cost.copy_to_user_cycles(payload)
            + cost.rx_refill_cycles
            + cost.page_alloc_cycles
            + cost.page_free_cycles
            + 40)


def rx_protection_cycles(cost: CostModel, scheme: str,
                         payload: int = TCP_MSS,
                         frame_len: int | None = None) -> int:
    """Per-segment protection cost of ``scheme`` on the RX path."""
    frame = frame_len if frame_len is not None else payload + 54
    if scheme == "no-iommu":
        return 0
    if scheme == "copy":
        return (cost.pool_acquire_cycles + cost.pool_release_cycles
                + cost.pool_find_cycles + cost.copy_hint_cycles
                + cost.memcpy_cycles(frame)
                + cost.pollution_cycles(frame)
                - 40)
    pt = cost.pt_map_cycles + cost.pt_unmap_cycles
    if scheme in ("identity-strict", "linux-strict", "eiovar-strict",
                  "magazine-strict"):
        return (pt + cost.iova_identity_cycles + cost.iova_identity_cycles // 2
                + cost.lock_uncontended_cycles
                + cost.invq_submit_cycles
                + cost.iotlb_invalidation_latency(1)
                + cost.invq_wait_poll_cycles
                - 40)
    if scheme in ("identity-deferred", "linux-deferred", "eiovar-deferred",
                  "magazine-deferred"):
        amortized_flush = (
            (cost.lock_uncontended_cycles + cost.invq_submit_cycles
             + cost.iotlb_invalidation_latency(1)
             + cost.invq_wait_poll_cycles) // cost.deferred_batch_size)
        return (pt + cost.iova_identity_cycles
                + cost.deferred_bookkeeping_cycles + amortized_flush
                + cost.iova_identity_cycles // 2 - 40)
    raise ValueError(f"no analytical model for scheme {scheme!r}")


def predict_rx(cost: CostModel, scheme: str,
               payload: int = TCP_MSS) -> RxCostPrediction:
    """Predicted single-core RX cost for one MTU segment."""
    return RxCostPrediction(
        scheme=scheme,
        base_cycles=rx_base_cycles(cost, payload),
        protection_cycles=rx_protection_cycles(cost, scheme, payload),
    )


def copy_invalidate_breakeven_bytes(cost: CostModel,
                                    concurrency: int = 1) -> int:
    """Buffer size at which a copy costs as much as an IOTLB invalidation.

    Below this size copying wins — the paper's central claim for MTU
    packets; above it, only the §5.5 hybrid (or zero-copy) makes sense.
    Contention raises the invalidation side, moving the break-even up
    (§1: "in multicore workloads ... even larger copies, such as 64 KB,
    [become] profitable").
    """
    invalidation = (cost.invq_submit_cycles
                    + cost.iotlb_invalidation_latency(concurrency)
                    + cost.invq_wait_poll_cycles
                    + (concurrency - 1) * cost.lock_handoff_cycles)
    lo, hi = 1, 1 << 30
    while lo < hi:
        mid = (lo + hi) // 2
        copy_cost = (cost.memcpy_cycles(mid) + cost.pollution_cycles(mid)
                     + cost.pool_acquire_cycles + cost.pool_release_cycles)
        if copy_cost < invalidation:
            lo = mid + 1
        else:
            hi = mid
    return lo


def strict_saturation_gbps(cost: CostModel, cores: int,
                           payload: int = TCP_MSS) -> float:
    """Lock-bound ceiling of a strict scheme at ``cores`` (Figs 1/6).

    Every unmap serializes on the invalidation-queue lock; system
    throughput cannot exceed one packet per lock hold time.
    """
    hold = (cost.invq_submit_cycles
            + cost.iotlb_invalidation_latency(cores)
            + cost.invq_wait_poll_cycles
            + (cost.lock_handoff_cycles if cores > 1
               else cost.lock_uncontended_cycles))
    packets_per_sec = CPU_FREQ_HZ / hold
    return packets_per_sec * payload * 8 / 1e9


def predict_all_rx(cost: CostModel) -> Dict[str, RxCostPrediction]:
    """Predictions for the four figure schemes."""
    return {scheme: predict_rx(cost, scheme)
            for scheme in ("no-iommu", "copy", "identity-deferred",
                           "identity-strict")}
