"""Calibrated cycle-cost model for the simulated machine.

The paper's headline claim is a *cost comparison*: copying a DMA buffer is
usually cheaper than an IOTLB invalidation, and under multicore load the
invalidation lock makes zero-copy strict protection collapse.  We reproduce
the comparison by charging measured costs — taken from the paper's own
packet-processing breakdowns (Figures 5 and 8) and its §2.2.1 background —
to simulated cores inside a discrete-event simulation.  Lock contention,
queueing at the IOMMU invalidation hardware, and the throughput crossovers
then *emerge* from the simulation rather than being hard-coded.

Calibration sources (all §6 of the paper, 2.4 GHz Haswell ⇒ 2400 cyc/µs):

===============================  ==========  =============================
quantity                         paper       model constant
===============================  ==========  =============================
IOTLB invalidation (idle)        0.61 µs     ``iotlb_invalidation_cycles``
IOTLB invalidation (16 cores)    2.7 µs      ``iotlb_contention_alpha``
IOMMU page-table map+unmap/page  0.17 µs     ``pt_map_cycles + pt_unmap_cycles``
memcpy of 1500 B                 0.11 µs     ``memcpy_cycles(1500)``
memcpy of 64 KB                  4.65 µs     ``memcpy_cycles(65536)``
shadow pool acquire+release      0.02 µs     ``pool_acquire + pool_release``
identity+ spinlock, 16-core RX   ≈ 70 µs     emerges from the lock model
cache pollution, 64 KB copy      ≈ 2 µs      ``pollution_cycles(65536)``
===============================  ==========  =============================

Baseline (protection-independent) stack costs are chosen so the no-IOMMU
end-to-end rates land where the paper's figures put them: ≈17.5 Gb/s
single-core RX at large messages (Fig. 3a) and ≈36 Gb/s single-core TX
with TSO (Fig. 4a).  These are documented per constant below.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.units import CYCLES_PER_US, us_to_cycles


@dataclass
class CostModel:
    """All tunable cycle costs for the simulation.

    Instances are plain dataclasses so experiments can perturb a single
    constant (e.g. for sensitivity analysis) without monkey-patching.
    """

    # ------------------------------------------------------------------
    # memcpy — enhanced REP MOVSB (§5.4: ERMS beats SIMD variants).
    # 1500 B → ≈0.11 µs and 64 KB → ≈4.65 µs give ≈5.8 B/cycle + fixed cost.
    # ------------------------------------------------------------------
    memcpy_fixed_cycles: int = 40
    memcpy_bytes_per_cycle: float = 5.8

    #: Cache-pollution penalty charged per cache line copied, accounting for
    #: the destination/source lines evicted from L1/L2 (Fig. 5b attributes
    #: ≈2 µs of extra "other" time to the 64 KB copy's pollution).
    pollution_cycles_per_line: float = 5.0
    #: Copies at or below this size fit comfortably in L1 (32 KB) together
    #: with the working set and are charged no pollution... except that the
    #: paper's RX numbers (0.76× no-IOMMU at 1500 B) require a small cold-
    #: line penalty even for MTU copies, so the threshold is a single page.
    pollution_free_bytes: int = 256
    cache_line_bytes: int = 64

    # ------------------------------------------------------------------
    # IOMMU hardware.
    # ------------------------------------------------------------------
    #: Latency of one IOTLB invalidation with an idle invalidation queue
    #: (Fig. 5a: identity+ spends 0.61 µs per packet on invalidation).
    iotlb_invalidation_cycles: int = us_to_cycles(0.61)
    #: Linear slowdown of the invalidation hardware per additional core
    #: concurrently submitting invalidations.  Calibrated so 16 concurrent
    #: cores see ≈2.7 µs per invalidation (Fig. 8a): 0.61·(1+α·15) = 2.7.
    iotlb_contention_alpha: float = 0.23

    #: Cost of submitting a descriptor to the invalidation queue (ring-buffer
    #: write + tail register MMIO).
    invq_submit_cycles: int = 300
    #: Cost of the busy-wait bookkeeping for a wait descriptor (strict mode
    #: polls a memory location the IOMMU writes on completion).
    invq_wait_poll_cycles: int = 350

    # ------------------------------------------------------------------
    # Scalable invalidation (per-core queues, ranged descriptors,
    # prefetch) — the post-2016 remedies; see iommu/invalidation.py.
    # ------------------------------------------------------------------
    #: Hardware dispatch slot per descriptor on a *per-core* ring.  The
    #: engine walks the rings round-robin and pipelines descriptor
    #: execution, so occupancy per descriptor is a fraction of the
    #: end-to-end latency (which submitters still observe in full).
    #: Calibrated at ~1/5 of the idle latency: the engine can retire ~5
    #: concurrent shards' traffic before queueing delay appears.
    invq_percore_service_cycles: int = us_to_cycles(0.12)
    #: CPU cost of each *additional* ranged descriptor in one batched
    #: submission (ring write only; tail MMIO and wait descriptor are
    #: shared across the batch).
    invq_ranged_desc_cycles: int = 80
    #: Hardware latency added per additional ranged descriptor in a
    #: batch (descriptor fetch + decode).
    invq_ranged_desc_service_cycles: int = 150
    #: Hardware latency added per page named by a ranged descriptor
    #: (IOTLB CAM sweep is range-sized, unlike a single-page tag match).
    invq_ranged_page_service_cycles: int = 4

    #: IOMMU page-table update, per 4 KB page, on map (Fig. 5a: identity±
    #: spend 0.17 µs per packet on page-table management, split evenly
    #: between map and unmap).
    pt_map_cycles: int = us_to_cycles(0.085)
    #: IOMMU page-table update, per 4 KB page, on unmap.
    pt_unmap_cycles: int = us_to_cycles(0.085)

    # ------------------------------------------------------------------
    # IOVA allocation.
    # ------------------------------------------------------------------
    #: Identity mapping "allocation" — computing IOVA = physical address.
    iova_identity_cycles: int = 40
    #: Linux red-black-tree IOVA allocator, uncontended alloc or free.  The
    #: paper uses the identity variant of [42] precisely because the stock
    #: allocator (and its global lock) is a separate Linux bottleneck.
    iova_rbtree_cycles: int = 300
    #: Scalable per-core (magazine) IOVA allocator of [42].
    iova_magazine_cycles: int = 90

    # ------------------------------------------------------------------
    # Locks.
    # ------------------------------------------------------------------
    #: Uncontended spinlock acquire+release pair.
    lock_uncontended_cycles: int = 60
    #: Extra penalty per contended hand-off (cache-line transfer between
    #: cores plus the ticket-lock wakeup).
    lock_handoff_cycles: int = 400

    # ------------------------------------------------------------------
    # Deferred-protection bookkeeping (identity−, [42]-style per-core
    # batching: flush after 250 invalidations or 10 ms).
    # ------------------------------------------------------------------
    deferred_batch_size: int = 250
    deferred_timeout_cycles: int = us_to_cycles(10_000.0)  # 10 ms
    #: Per-unmap cost of queueing the IOVA on the per-core flush list and
    #: deferring its deallocation.
    deferred_bookkeeping_cycles: int = 260
    #: Bounded-window variant (identity-deferred-bounded): flush when the
    #: oldest pending entry is this old, even if the 250-entry batch is
    #: not full — caps the vulnerability window at 100 µs instead of
    #: 10 ms, turning stale-window byte·cycles into a tunable knob.
    deferred_window_budget_cycles: int = us_to_cycles(100.0)
    #: CPU cost per page of posting an IOTLB prefetch hint at map time
    #: (identity-strict-prefetch; MMU-aware DMA engine style).
    iotlb_prefetch_cycles: int = 30

    # ------------------------------------------------------------------
    # Shadow buffer pool (the contribution) — Fig. 5a: 0.02 µs management.
    # ------------------------------------------------------------------
    pool_acquire_cycles: int = 24
    pool_release_cycles: int = 24
    #: find_shadow is O(1) — decode the IOVA and index the metadata array.
    pool_find_cycles: int = 12
    #: Slow path: carving a fresh page(s) into shadow buffers, writing the
    #: metadata node and installing the permanent IOMMU mapping.  Infrequent
    #: (only while the pool grows), so the exact value barely matters.
    pool_grow_cycles: int = 2200
    #: Extra cost per release when the releasing core does not own the free
    #: list (remote cache-line transfer on the tail lock).
    pool_remote_release_cycles: int = 120
    #: Evaluating a driver-supplied copying hint (§5.4).
    copy_hint_cycles: int = 30
    #: Slowdown of a copy whose source and destination live on different
    #: NUMA nodes (why shadow buffers are sticky — §5.3).
    numa_remote_copy_factor: float = 1.6

    # ------------------------------------------------------------------
    # Kernel memory allocation substrate.
    # ------------------------------------------------------------------
    kmalloc_cycles: int = 120
    kfree_cycles: int = 100
    page_alloc_cycles: int = 120
    page_free_cycles: int = 100

    # ------------------------------------------------------------------
    # Baseline network-stack costs (protection independent).  Calibrated
    # against the paper's no-IOMMU curves; see module docstring.
    # ------------------------------------------------------------------
    #: Parsing/validating a received frame (eth+IP+TCP header processing).
    rx_parse_cycles: int = 420
    #: Per-RX-packet "everything else": interrupt amortization, skb
    #: bookkeeping, socket queueing, scheduler wakeups.  Together with
    #: parse + copy_to_user this puts single-core no-IOMMU RX at ≈17.5 Gb/s
    #: for MTU packets (Fig. 3a).
    rx_other_cycles: int = 550
    #: Refilling one RX descriptor (buffer alloc cost charged separately).
    rx_refill_cycles: int = 80

    #: Syscall entry/exit for send()/recv().
    syscall_cycles: int = 600
    #: Per-message TCP transmit bookkeeping (congestion control, skb alloc).
    tcp_tx_fixed_cycles: int = 1000
    #: Per-4KB-page transmit-path cost: page allocation/charging and frag
    #: append in tcp_sendmsg.  Dominates large-message TX; calibrated so
    #: no-IOMMU single-core TSO TX lands near the paper's ≈36 Gb/s.
    tcp_tx_per_page_cycles: int = 1000
    #: Driver work to build one TX descriptor.
    tx_desc_cycles: int = 80
    #: TX completion processing per transmitted chunk.
    tx_complete_cycles: int = 800
    #: Processing the (coalesced) ACK feedback per TSO chunk.  Modeled as
    #: plain CPU cost — see DESIGN.md for why ACK DMAs are not separately
    #: charged through the DMA API.
    ack_process_cycles: int = 350

    #: One-way NIC/driver interrupt + PCIe latency for the request/response
    #: latency model (Fig. 9: back-to-back 40 GbE RTTs start near ≈15 µs).
    wire_latency_cycles: int = us_to_cycles(6.0)
    #: Scheduler wakeup of the blocked netperf/memcached thread.
    wakeup_cycles: int = us_to_cycles(0.6)

    #: Effective NIC TX line rate in Gb/s.  Slightly below the nominal
    #: 40 Gb/s: TSO segmentation, framing overhead, and PCIe overheads cap
    #: the achievable TX goodput (the paper's TX curves saturate ≈36 Gb/s).
    nic_tx_line_gbps: float = 36.0
    #: Effective NIC RX line rate in Gb/s (goodput of MTU frames at 40 Gb/s
    #: minus eth/IP/TCP framing: 1460/1538 · 40 ≈ 38).
    nic_rx_line_gbps: float = 38.0

    # ------------------------------------------------------------------
    # Application-level costs.
    # ------------------------------------------------------------------
    #: memcached per-transaction CPU (hashing, LRU, libevent, syscalls) on
    #: top of the raw network path.  Calibrated so the non-collapsed schemes
    #: land near the paper's ≈1.3 M transactions/s at 16 cores (Fig. 11).
    memcached_app_cycles: int = us_to_cycles(10.0)
    #: memslap client offered-load ceiling, transactions/s (aggregate).
    memslap_offered_tps: float = 1.45e6

    #: netperf sender syscall ceiling, messages/s: for small messages the
    #: sender's syscall rate — not the receiver — is the bottleneck, which
    #: is why all RX curves coincide below 512 B (§6, footnote 6).
    netperf_sender_msgs_per_sec: float = 1.25e6

    derived: dict = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------------
    # Convenience computations.
    # ------------------------------------------------------------------
    def memcpy_cycles(self, nbytes: int) -> int:
        """Cycles for an ERMS ``memcpy`` of ``nbytes`` (§5.4)."""
        if nbytes <= 0:
            return 0
        return self.memcpy_fixed_cycles + round(nbytes / self.memcpy_bytes_per_cycle)

    def pollution_cycles(self, nbytes: int) -> int:
        """Deferred cache-pollution cost of copying ``nbytes``.

        Charged to the *other* category: the cost is paid later, by code
        that misses on the lines the copy evicted (Fig. 5b discussion).
        """
        if nbytes <= self.pollution_free_bytes:
            return 0
        lines = nbytes / self.cache_line_bytes
        return round(lines * self.pollution_cycles_per_line)

    def copy_to_user_cycles(self, nbytes: int) -> int:
        """Kernel→user (or user→kernel) copy; same engine as memcpy."""
        return self.memcpy_cycles(nbytes)

    # ------------------------------------------------------------------
    # Vectorized burst accumulation.  Per-item costs are integral, so a
    # burst of ``n`` identical items costs exactly ``n`` per-item charges
    # — one multiply replaces ``n`` round trips through ``core.charge``
    # without shifting a single cycle.  Callers may only coalesce charges
    # across operations that read no clock in between (no locks, shared
    # hardware, or observability notes).
    # ------------------------------------------------------------------
    def pt_map_range_cycles(self, npages: int) -> int:
        """Page-table update cost for mapping an ``npages`` range."""
        return self.pt_map_cycles * max(0, npages)

    def pt_unmap_range_cycles(self, npages: int) -> int:
        """Page-table update cost for unmapping an ``npages`` range."""
        return self.pt_unmap_cycles * max(0, npages)

    def iotlb_invalidation_latency(self, concurrency: int) -> int:
        """Invalidation latency when ``concurrency`` cores are submitting.

        Linear degradation calibrated against Fig. 8a (0.61 µs idle →
        ≈2.7 µs with 16 concurrent cores).
        """
        n = max(1, concurrency)
        scale = 1.0 + self.iotlb_contention_alpha * (n - 1)
        return round(self.iotlb_invalidation_cycles * scale)

    def ranged_invalidation_extra_cycles(self, ndesc: int,
                                         npages: int) -> int:
        """Hardware latency added by a *ranged* batched submission on top
        of the base invalidation latency: descriptor fetch/decode per
        additional descriptor, plus a per-page IOTLB sweep component.

        The curve is deliberately sublinear versus submitting each range
        at full latency — that gap is the whole point of ranged
        descriptors — but not free, so huge scatter-gather batches still
        show up in the latency histogram.
        """
        return (self.invq_ranged_desc_service_cycles * max(0, ndesc - 1)
                + self.invq_ranged_page_service_cycles * max(0, npages))

    def us(self, cycles: float) -> float:
        """Convert cycles to microseconds (breakdown reporting helper)."""
        return cycles / CYCLES_PER_US


#: Shared default instance.  Experiments that need to perturb costs should
#: construct their own ``CostModel(...)`` instead of mutating this one.
DEFAULT_COST_MODEL = CostModel()
