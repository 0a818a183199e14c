"""Ablations of the design choices DESIGN.md §5 calls out.

* copying hints on/off (§5.4): copy only the bytes the packet holds;
* sticky vs non-sticky shadow buffers (§5.3): a buffer returns to its
  owner's free list instead of migrating;
* the hybrid head/tail path vs copying a huge buffer outright (§5.5);
* the deferred batch size (§2.2.1), the security/performance dial:
  bigger batches amortize invalidations but widen the measured
  vulnerability window.
"""

import pytest

from repro.dma.api import DmaDirection
from repro.dma.registry import create_dma_api
from repro.hw.machine import Machine
from repro.iommu.iommu import Iommu
from repro.kalloc.slab import KBuffer, KernelAllocators
from repro.net.driver import NicDriver
from repro.net.nic import Nic
from repro.net.packets import build_frame
from repro.sim.costmodel import CostModel
from repro.sim.units import CYCLES_PER_US
from repro.workloads.netperf import StreamConfig, run_tcp_stream_rx


def _fresh(scheme="copy", cores=2, **kwargs):
    machine = Machine.build(cores=cores, numa_nodes=min(2, cores))
    allocators = KernelAllocators(machine)
    api = create_dma_api(scheme, machine, Iommu(machine), 1, allocators,
                         **kwargs)
    return machine, allocators, api


def _hint_rx_us(hints: bool, n: int = 500) -> float:
    """RX cost per tiny packet landing in a 2 KB buffer."""
    machine, allocators, api = _fresh()
    driver = NicDriver(machine, allocators, api, Nic(1, api.port()),
                       rx_ring_size=64, tx_ring_size=64,
                       use_copy_hints=hints)
    core = machine.core(0)
    driver.setup_queue(core, 0)
    frame = build_frame(100)
    start = core.busy_cycles
    for _ in range(n):
        driver.receive_one(core, 0, frame)
    driver.teardown_queue(core, 0)
    return (core.busy_cycles - start) / n / CYCLES_PER_US


def _remote_release_us(sticky: bool, n: int = 300) -> float:
    """Map on node 0, release on node 1 (e.g. a TX completion IRQ)."""
    machine, allocators, api = _fresh(cores=4, sticky=sticky)
    mapper, releaser = machine.core(0), machine.core(3)
    buf = allocators.kmalloc(4096, node=0)
    start = mapper.busy_cycles + releaser.busy_cycles
    for _ in range(n):
        handle = api.dma_map(mapper, buf, DmaDirection.TO_DEVICE)
        meta = api.pool.find_shadow(releaser, handle.iova)
        # Retire the mapping by hand: only the release runs remotely.
        api._live.pop(handle.iova)
        api.pool.release_shadow(releaser, meta)
    return ((mapper.busy_cycles + releaser.busy_cycles - start)
            / n / CYCLES_PER_US)


def _huge_map_unmap_us(hybrid: bool, size: int = 256 * 1024,
                       n: int = 60) -> float:
    """Map + unmap of a 256 KB buffer: the §5.5 hybrid path, or a full
    copy through 64 KB-class shadows (what refusing the hybrid costs)."""
    machine, allocators, api = _fresh()
    core = machine.core(0)
    start = core.busy_cycles
    if hybrid:
        backing = allocators.kmalloc(size + 4096, node=0)
        buf = KBuffer(pa=backing.pa + 100, size=size, node=0)
        for _ in range(n):
            api.dma_unmap(core, api.dma_map(core, buf,
                                            DmaDirection.BIDIRECTIONAL))
    else:
        backing = allocators.kmalloc(size, node=0)
        chunks = [KBuffer(pa=backing.pa + off, size=65536, node=0)
                  for off in range(0, size, 65536)]
        for _ in range(n):
            api.dma_unmap_sg(core, api.dma_map_sg(
                core, chunks, DmaDirection.BIDIRECTIONAL))
    return (core.busy_cycles - start) / n / CYCLES_PER_US


@pytest.fixture(scope="module")
def batches():
    """Single-core line-rate RX per deferred batch size: (Gb/s, window
    mean µs, window max µs).  Enough unmaps that even the largest batch
    flushes, and so reports measured windows, several times."""
    out = {}
    for batch in (1, 10, 250, 1000):
        result = run_tcp_stream_rx(StreamConfig(
            scheme="identity-deferred", message_size=16384, cores=1,
            units_per_core=2400, warmup_units=100,
            cost=CostModel(deferred_batch_size=batch)))
        out[batch] = (result.throughput_gbps,
                      result.extras.get("window_mean_us", 0.0),
                      result.extras.get("window_max_us", 0.0))
    return out


def test_copy_hints_pay_off_for_partially_full_buffers():
    assert _hint_rx_us(True) < _hint_rx_us(False)


def test_sticky_buffers_avoid_a_remap_per_remote_release():
    assert _remote_release_us(False) > 3 * _remote_release_us(True)


def test_hybrid_path_beats_copying_a_huge_buffer():
    assert _huge_map_unmap_us(hybrid=True) < _huge_map_unmap_us(hybrid=False)


def test_tiny_batches_approach_strict_cost(batches):
    assert batches[250][0] > batches[1][0]


def test_batch_250_captures_nearly_all_of_the_gain(batches):
    assert batches[1000][0] / batches[250][0] < 1.05


def test_window_mean_grows_with_the_batch(batches):
    assert batches[1000][1] > batches[10][1]


def test_linux_batch_window_spans_hundreds_of_packets(batches):
    assert batches[250][2] > 50
