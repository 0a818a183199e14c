"""Resource-accounting smoke checks: a short run must leak nothing.

Each check guards an invariant that a real resource-management bug once
broke:

1. **Page-rights invariant** (§5.2) — after a short Fig. 3-style RX run
   through the ``copy`` scheme, every IOMMU-mapped pool page still holds
   shadow buffers of a single rights value.
2. **Balanced pool accounting** — a grow → acquire → release → shrink
   cycle ends with ``PoolStats.bytes_allocated == 0`` and
   ``buffers_allocated == 0``: shrink must subtract exactly what grow
   recorded (page-quantity bytes *and* the buffer count).
3. **No fallback-IOVA leaks** — retiring a fallback shadow buffer
   returns its page range to the external IOVA allocator, so
   ``outstanding_ranges()`` drops back to zero and the range is
   immediately re-allocatable.

Run through ``python -m repro.bench.invariants`` (with the ``repro``
package importable: ``PYTHONPATH=src`` from a checkout),
``benchmarks/smoke.py``, or the suite (``tests/test_check_invariants.py``).
Exit status 0 means every invariant holds.
"""

from __future__ import annotations

import sys

from repro.core.shadow_pool import ShadowBufferPool
from repro.hw.locks import SpinLock
from repro.hw.machine import Machine
from repro.iommu.iommu import Iommu
from repro.iommu.page_table import Perm
from repro.iova.allocators import MagazineIovaAllocator
from repro.kalloc.slab import KBuffer, KernelAllocators
from repro.net.packets import build_frame
from repro.sim.units import TCP_MSS
from repro.system import System, SystemConfig

#: Frames per core in the Fig. 3-style RX smoke run.
_FRAMES_PER_CORE = 200


def _check(ok: bool, label: str) -> None:
    if not ok:
        raise AssertionError(f"invariant violated: {label}")
    print(f"ok  {label}")


def _make_pool(**kwargs):
    machine = Machine.build(cores=2, numa_nodes=1)
    allocators = KernelAllocators(machine)
    iommu = Iommu(machine)
    domain = iommu.attach_device(1)
    fallback = MagazineIovaAllocator(machine.cost, machine.num_cores,
                                     SpinLock("depot", machine.cost))
    pool = ShadowBufferPool(machine, iommu, domain, allocators, fallback,
                            **kwargs)
    return machine, pool


def check_rx_run() -> None:
    """Short Fig. 3-style RX run, then drain the pool to empty."""
    system = System.build(SystemConfig(scheme="copy", cores=2))
    system.setup_queues()
    frame = build_frame(TCP_MSS)
    for core in system.machine.cores:
        for _ in range(_FRAMES_PER_CORE):
            if system.driver.receive_one(core, core.cid, frame) is None:
                raise AssertionError("NIC dropped a paced frame")
    pool = system.dma_api.pool
    _check(pool.check_page_rights_invariant(),
           "page-rights invariant after RX run")
    system.teardown_queues()
    _check(pool.stats.in_flight == 0,
           "no shadow buffers in flight after queue teardown")
    _check(pool.stats.acquires == pool.stats.releases,
           "acquires balance releases")
    core = system.machine.core(0)
    pool.shrink(core)
    _check(pool.stats.bytes_allocated == 0,
           "bytes_allocated == 0 after full shrink")
    _check(pool.stats.buffers_allocated == 0,
           "buffers_allocated == 0 after full shrink")
    _check(pool.fallback_iova.outstanding_ranges() == 0,
           "no outstanding fallback IOVA ranges after full shrink")


def check_grow_shrink_balance() -> None:
    """Grow → acquire → release → shrink leaves the accounting at zero."""
    machine, pool = _make_pool()
    core = machine.core(0)
    metas = [pool.acquire_shadow(core, KBuffer(pa=0x100000, size=size,
                                               node=0), size, rights)
             for size in (1500, 4096, 65536)
             for rights in (Perm.READ, Perm.WRITE)]
    assert pool.stats.bytes_allocated > 0
    for meta in metas:
        pool.release_shadow(core, meta)
    pool.shrink(core)
    _check(pool.stats.bytes_allocated == 0,
           "grow/shrink cycle balances bytes_allocated")
    _check(pool.stats.buffers_allocated == 0,
           "grow/shrink cycle balances buffers_allocated")
    _check(pool.stats.grows == pool.stats.shrinks,
           "one shrink per grow once the pool is empty")


def check_fallback_iova_recycling() -> None:
    """Retired fallback buffers return their IOVA range for reuse."""
    machine, pool = _make_pool(max_buffers_per_class=2)
    core = machine.core(0)
    metas = [pool.acquire_shadow(core, KBuffer(pa=0x100000, size=4096,
                                               node=0), 4096, Perm.READ)
             for _ in range(4)]
    _check(sum(m.fallback for m in metas) == 2,
           "metadata-array overflow takes the fallback path")
    _check(pool.fallback_iova.outstanding_ranges() == 2,
           "live fallback buffers hold external IOVA ranges")
    for meta in metas:
        pool.release_shadow(core, meta)
    pool.shrink(core)
    _check(pool.fallback_iova.outstanding_ranges() == 0,
           "retired fallback buffers returned their IOVA ranges")
    _check(pool.stats.bytes_allocated == 0
           and pool.stats.buffers_allocated == 0,
           "pool accounting balanced after fallback shrink")
    # The recycled range must be immediately re-allocatable.
    iova = pool.fallback_iova.alloc(1, core, 0x200000)
    _check(iova > 0, "retired fallback IOVA range is re-allocatable")


def main() -> int:
    check_rx_run()
    check_grow_shrink_balance()
    check_fallback_iova_recycling()
    print("all invariants hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
