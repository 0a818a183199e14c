"""Per-core invalidation queues: sharding, shard-count invariance, the
scalable schemes' security invariants, and the bounded deferred window.

Patterned after ``tests/sim/test_engine_batched.py``: structural knobs
(shard count here, burst size there) must not change what the simulation
*computes* — only contention, which these tests pin from both sides.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dma.api import DmaDirection
from repro.dma.registry import SCALABLE_SCHEMES, create_dma_api
from repro.hw.cpu import Core
from repro.hw.machine import Machine
from repro.iommu.invalidation import (
    InvalidationQueue,
    PerCoreInvalidationQueue,
)
from repro.iommu.iommu import Iommu
from repro.iommu.iotlb import Iotlb
from repro.iommu.page_table import Perm, PteEntry
from repro.kalloc.slab import KernelAllocators
from repro.obs.context import Observability
from repro.sim.costmodel import CostModel
from repro.workloads.netperf import StreamConfig, run_tcp_stream_rx


@pytest.fixture
def cost():
    return CostModel()


def make_percore(cost, nqueues):
    tlb = Iotlb()
    return tlb, PerCoreInvalidationQueue(tlb, cost, nqueues=nqueues)


# ----------------------------------------------------------------------
# Facade behaviour.
# ----------------------------------------------------------------------
def test_shards_have_private_locks(cost):
    tlb, q = make_percore(cost, nqueues=4)
    cores = [Core(cid=i, numa_node=0) for i in range(4)]
    for core in cores:
        q.invalidate_sync(core, 1, core.cid)
    for shard in q.shards:
        assert shard.lock.stats.acquisitions == 1
        assert shard.lock.stats.contended_acquisitions == 0
    # The aggregated lock view sums the shards for invq.lock consumers.
    assert q.lock.stats.acquisitions == 4
    assert q.lock.stats.total_wait_cycles == 0
    assert q.sync_invalidations == 4


def test_shard_routing_wraps_by_cid(cost):
    _, q = make_percore(cost, nqueues=2)
    assert q._shard(Core(cid=0, numa_node=0)) is q.shards[0]
    assert q._shard(Core(cid=3, numa_node=0)) is q.shards[1]


def test_shards_share_one_hardware_engine(cost):
    _, q = make_percore(cost, nqueues=4)
    cores = [Core(cid=i, numa_node=0) for i in range(4)]
    for core in cores:
        q.invalidate_sync(core, 1, core.cid)
    assert q.hardware.completions == 4
    for shard in q.shards:
        assert shard.hardware is q.hardware


def test_shards_share_the_concurrency_window(cost):
    _, q = make_percore(cost, nqueues=4)
    cores = [Core(cid=i, numa_node=0) for i in range(4)]
    for core in cores:
        q.invalidate_sync(core, 1, core.cid)
    # All four submissions are visible through any shard's window.
    assert q.current_concurrency(cores[0]) == 4


def test_enable_percore_invalidation_is_idempotent():
    machine = Machine.build(cores=4, numa_nodes=1)
    iommu = Iommu(machine)
    first = iommu.enable_percore_invalidation()
    assert isinstance(first, PerCoreInvalidationQueue)
    assert first.nqueues == 4
    assert iommu.enable_percore_invalidation() is first
    assert iommu.invalidation_queue is first


# ----------------------------------------------------------------------
# Shard-count invariance: with temporally disjoint submitters (zero
# contention everywhere), the shard count is invisible — identical
# clocks, identical IOTLB effects.
# ----------------------------------------------------------------------
def _disjoint_run(cost, nqueues):
    tlb, q = make_percore(cost, nqueues=nqueues)
    for page in range(32):
        tlb.insert(1, page, PteEntry(page, Perm.RW))
    cores = [Core(cid=i, numa_node=0) for i in range(4)]
    for step in range(4):
        for core in cores:
            core.advance_to((step * 4 + core.cid) * 1_000_000)
            q.invalidate_ranges_sync(core, 1,
                                     [step * 8 + core.cid, step * 8 + 7])
    return ([core.now for core in cores],
            [core.busy_cycles for core in cores],
            sorted(tlb._entries), vars(tlb.stats).copy(),
            q.sync_invalidations)


@pytest.mark.parametrize("nqueues", (1, 2, 4))
def test_shard_count_is_invisible_without_contention(cost, nqueues):
    assert _disjoint_run(cost, nqueues) == _disjoint_run(cost, 4)


def test_percore_beats_shared_ring_under_contention(cost):
    """The point of the subsystem: concurrent strict invalidations finish
    far sooner on sharded pipelined queues than on the shared ring."""
    def makespan(make_queue):
        tlb = Iotlb()
        q = make_queue(tlb)
        cores = [Core(cid=i, numa_node=0) for i in range(8)]
        for _ in range(4):
            for core in cores:
                q.invalidate_sync(core, 1, core.cid)
        return max(core.now for core in cores)

    from repro.hw.locks import SpinLock

    shared = makespan(lambda tlb: InvalidationQueue(
        tlb, cost, SpinLock("qi-lock", cost)))
    sharded = makespan(lambda tlb: PerCoreInvalidationQueue(
        tlb, cost, nqueues=8))
    assert sharded < shared / 3


# ----------------------------------------------------------------------
# Security invariants of the scalable schemes.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheme", ("identity-strict-percore",
                                    "identity-strict-prefetch"))
def test_strict_percore_zero_stale_window(scheme):
    """Both strict variants invalidate before dma_unmap returns, so the
    exposure accountant must see no stale-window byte·cycles at all."""
    obs = Observability.capture(trace_capacity=256)
    result = run_tcp_stream_rx(StreamConfig(
        scheme=scheme, message_size=16384, cores=4,
        units_per_core=30, warmup_units=8, obs=obs))
    exposure = result.extras["exposure"]
    assert exposure["stale_byte_cycles"] == 0
    assert exposure["stale_accesses"] == 0


def test_prefetch_hits_are_counted_separately():
    obs = Observability.capture(trace_capacity=256)
    result = run_tcp_stream_rx(StreamConfig(
        scheme="identity-strict-prefetch", message_size=16384, cores=2,
        units_per_core=30, warmup_units=8, obs=obs))
    iotlb = result.extras["iotlb"]
    assert iotlb["prefetches"] > 0
    assert 0 <= iotlb["prefetch_hits"] <= iotlb["prefetches"]
    # The classic schemes never prefetch (column stays absent/zero).
    obs2 = Observability.capture(trace_capacity=256)
    baseline = run_tcp_stream_rx(StreamConfig(
        scheme="identity-strict", message_size=16384, cores=2,
        units_per_core=30, warmup_units=8, obs=obs2))
    assert baseline.extras["iotlb"]["prefetches"] == 0


def test_scalable_schemes_share_one_iommu(machine, allocators, iommu):
    """The registry's enable_percore_invalidation must be idempotent
    across schemes built against one shared IOMMU (fixture pattern)."""
    apis = [create_dma_api(scheme, machine, iommu, device_id=0x200 + i,
                           allocators=allocators)
            for i, scheme in enumerate(SCALABLE_SCHEMES)]
    assert isinstance(iommu.invalidation_queue, PerCoreInvalidationQueue)
    for api in apis:
        assert api.iommu.invalidation_queue is iommu.invalidation_queue


# ----------------------------------------------------------------------
# Bounded deferred window (identity-deferred-bounded).
# ----------------------------------------------------------------------
def _bounded_api(cores=4):
    machine = Machine.build(cores=cores, numa_nodes=1)
    allocators = KernelAllocators(machine)
    iommu = Iommu(machine)
    api = create_dma_api("identity-deferred-bounded", machine, iommu,
                         device_id=1, allocators=allocators)
    return machine, allocators, api


@settings(max_examples=25, deadline=None)
@given(st.lists(
    st.tuples(st.integers(min_value=0, max_value=3),
              st.integers(min_value=0, max_value=400_000)),
    min_size=1, max_size=50))
# The entry queued by the first step is 239,900 cycles old when the last
# dma_unmap returns: just under the budget, and at it 100 cycles later.
@example(steps=[(0, 0)] * 6 + [(0, 235052)])
def test_bounded_window_never_exceeds_budget(steps):
    """After every dma_unmap returns, no pending entry in the unmapping
    core's slot is older than the window budget — the budget-expiry
    check runs on the unmap path itself, under hypothesis-driven
    interleavings of cores and idle gaps."""
    machine, allocators, api = _bounded_api()
    budget = api.window_budget_cycles
    assert budget == machine.cost.deferred_window_budget_cycles
    for cid, gap in steps:
        core = machine.cores[cid]
        core.advance_to(core.now + gap)
        buf = allocators.kmalloc(2048, node=0)
        handle = api.dma_map(core, buf, DmaDirection.FROM_DEVICE)
        api.dma_unmap(core, handle)
        # Checked before kfree, which charges the core cycles of its own.
        for entry in api._pending[core.cid]:
            assert core.now - entry.queued_at < budget
        allocators.kfree(buf, core)


def test_bounded_budget_forces_flush_before_batch_full():
    """A trickle workload (far below the 250-entry batch) still flushes
    once the oldest entry ages past the budget."""
    machine, allocators, api = _bounded_api(cores=1)
    core = machine.cores[0]
    budget = api.window_budget_cycles
    buf = allocators.kmalloc(2048, node=0)
    handle = api.dma_map(core, buf, DmaDirection.FROM_DEVICE)
    api.dma_unmap(core, handle)
    assert api.pending_invalidations == 1
    # Age the entry past the budget; the next unmap must trigger a flush.
    core.advance_to(core.now + budget + 1)
    buf2 = allocators.kmalloc(2048, node=0)
    handle2 = api.dma_map(core, buf2, DmaDirection.FROM_DEVICE)
    api.dma_unmap(core, handle2)
    assert api.iommu.invalidation_queue.batch_flushes >= 1
    assert all(core.now - p.queued_at < budget
               for p in api._pending[core.cid])
