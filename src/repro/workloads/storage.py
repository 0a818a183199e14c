"""Storage (SSD-style) workload — the paper's §5.5 motivation, executable.

§5.5 argues that huge DMA buffers come with *low* map/unmap rates: a
40 Gb/s NIC unmaps 1.7 M MTU buffers per second, while an SSD tops out
near 850 K IOPS for 4 KB reads (and far fewer for large blocks), so for
storage the per-unmap protection cost is amortized over much more data —
and for genuinely huge buffers the hybrid head/tail-copy path keeps copy
costs flat.

This workload drives a simple block device (reads and writes of a fixed
block size at a device-limited IOPS ceiling) through any protection
scheme, using the plain DMA API — no NIC involved.  Buffers are
allocated unaligned on purpose (sector offsets), so the §5.5 hybrid path
actually exercises its head/tail shadows for large blocks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.dma.api import DmaDirection
from repro.dma.registry import create_dma_api
from repro.errors import ConfigurationError
from repro.hw.cpu import CAT_OTHER, Core
from repro.hw.machine import Machine
from repro.iommu.iommu import Iommu
from repro.kalloc.slab import KBuffer, KernelAllocators
from repro.obs import REQ_STORAGE, Observability
from repro.sim.costmodel import CostModel
from repro.sim.engine import UNIT_DONE
from repro.sim.units import CPU_FREQ_HZ, page_order, us_to_cycles
from repro.seeding import derive_seed
from repro.stats.results import RunResult
from repro.workloads.harness import (
    Pacer,
    Tally,
    attach_capture,
    measure,
    measured_result,
    record_invalidation,
    run_generators,
)

#: Intel DC-series figures quoted by §5.5.
SSD_READ_IOPS_4K = 850_000.0
SSD_WRITE_IOPS_4K = 150_000.0

_STORAGE_DEVICE_ID = 0x50


@dataclass
class StorageConfig:
    """Parameters of one storage measurement."""

    scheme: str = "copy"
    block_size: int = 4096
    cores: int = 1
    read_fraction: float = 0.7
    ops_per_core: int = 400
    warmup_ops: int = 60
    #: Device ceiling in IOPS for this block size.  Defaults to the §5.5
    #: SSD numbers scaled by block size (bandwidth-limited beyond 4 KB).
    device_iops: Optional[float] = None
    seed: int = 55
    cost: Optional[CostModel] = None
    scheme_kwargs: Dict[str, object] = field(default_factory=dict)
    obs: Optional[Observability] = None

    def resolved_iops(self) -> float:
        if self.device_iops is not None:
            return self.device_iops
        mix = (self.read_fraction * SSD_READ_IOPS_4K
               + (1 - self.read_fraction) * SSD_WRITE_IOPS_4K)
        # Bandwidth-limited scaling past 4 KB blocks.
        return mix * min(1.0, 4096 / self.block_size)


#: Per-request block-layer CPU cost (submit + completion, bio handling).
_BLOCK_LAYER_CYCLES = us_to_cycles(1.8)


def run_storage(cfg: StorageConfig) -> RunResult:
    """Run the storage workload; returns achieved IOPS and bandwidth."""
    if cfg.block_size < 512:
        raise ConfigurationError("block size below one sector")
    if not 0.0 <= cfg.read_fraction <= 1.0:
        raise ConfigurationError("read_fraction must be in [0, 1]")
    machine = Machine.build(cores=cfg.cores,
                            numa_nodes=min(2, cfg.cores), cost=cfg.cost,
                            obs=cfg.obs)
    allocators = KernelAllocators(machine)
    iommu = None if cfg.scheme in ("no-iommu", "swiotlb") else Iommu(machine)
    api = create_dma_api(cfg.scheme, machine, iommu, _STORAGE_DEVICE_ID,
                         allocators, **dict(cfg.scheme_kwargs))
    port = api.port()

    # One unaligned I/O buffer per core, reused per request (bio pages).
    order = page_order(cfg.block_size + 512)
    buffers = {}
    for core in machine.cores:
        pa = allocators.buddies[core.numa_node].alloc_pages(order)
        buffers[core.cid] = KBuffer(pa=pa + 512, size=cfg.block_size,
                                    node=core.numa_node)
    payload = bytes(range(256)) * (cfg.block_size // 256 + 1)
    payload = payload[:cfg.block_size]

    interval = CPU_FREQ_HZ / (cfg.resolved_iops() / cfg.cores)
    tally = Tally()
    obs = machine.obs

    def worker(core: Core, limit: int, start: int):
        rng = random.Random(derive_seed(cfg.seed, "storage", core.cid))
        buf = buffers[core.cid]
        pacer = Pacer(float(start))
        for _ in range(limit):
            pacer.wait(core, interval)
            is_read = rng.random() < cfg.read_fraction
            if obs.enabled:
                obs.request_begin(core, REQ_STORAGE,
                                  op="read" if is_read else "write",
                                  block_size=cfg.block_size)
            core.charge(_BLOCK_LAYER_CYCLES, CAT_OTHER)
            if is_read:
                handle = api.dma_map(core, buf, DmaDirection.FROM_DEVICE)
                port.dma_write(handle.iova, payload)
                yield
                api.dma_unmap(core, handle)
            else:
                machine.memory.write(buf.pa, payload)
                handle = api.dma_map(core, buf, DmaDirection.TO_DEVICE)
                port.dma_read(handle.iova, cfg.block_size)
                yield
                api.dma_unmap(core, handle)
            if obs.enabled:
                obs.request_end(core)
            tally.add(cfg.block_size)
            yield UNIT_DONE

    def run_phase(measured: bool, start: int) -> None:
        # Each phase runs its own quota on fresh generators, which
        # restart the per-core request stream and its arrivals.
        limit = cfg.ops_per_core if measured else cfg.warmup_ops
        run_generators(machine, "io", measured,
                       lambda c: worker(c, limit, start))

    start = measure(machine, run_phase, tally)
    params = {"block_size": cfg.block_size, "cores": cfg.cores,
              "read_fraction": cfg.read_fraction}
    result = measured_result(machine, cfg.scheme, "storage", params, tally,
                             start)
    if result.wall_cycles > 0:
        result.transactions_per_sec = (tally.units * CPU_FREQ_HZ
                                       / result.wall_cycles)
    result.extras["device_iops_ceiling"] = cfg.resolved_iops()
    if hasattr(api, "hybrid_maps"):
        result.extras["hybrid_maps"] = api.hybrid_maps
    if iommu is not None:
        result.extras["iotlb"] = vars(iommu.iotlb.stats).copy()
        record_invalidation(result, iommu)
    attach_capture(result, machine, iommu)
    return result
