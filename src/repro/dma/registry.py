"""Factory for protection schemes — one name per row of Table 1.

==================  ========================================================
scheme name         composition
==================  ========================================================
``no-iommu``        IOMMU disabled (no protection)
``linux-strict``    stock Linux: rbtree IOVA allocator + strict unmap
``linux-deferred``  stock Linux default: rbtree + global-list deferral
``eiovar-strict``   FAST'15 [38]: cached IOVA ranges + strict unmap
``eiovar-deferred`` FAST'15 allocator + global-list deferral
``magazine-strict`` ATC'15 [42]: per-core IOVA magazines + strict unmap
``magazine-deferred`` ATC'15: per-core magazines + per-core deferral
``identity-strict`` the paper's **identity+**: identity IOVAs + strict
``identity-deferred`` the paper's **identity−**: identity IOVAs + per-core
                    deferral
``copy``            the paper's contribution: DMA shadowing (§5)
``identity-strict-percore`` identity+ over per-core invalidation queues
                    with ranged descriptors (post-2016 remedy)
``identity-deferred-bounded`` identity− with per-core queues, ranged
                    flushes and a 100 µs window budget
``identity-strict-prefetch`` identity-strict-percore + IOTLB prefetch
                    hints at map time (MMU-aware DMA engine style)
==================  ========================================================

Everything except ``no-iommu`` translates through the same IOMMU model;
the schemes differ only in IOVA allocation and invalidation policy —
exactly the design space of the paper's Table 1.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.dma.api import DmaApi, SchemeProperties
from repro.dma.direct import NoIommuDmaApi
from repro.dma.zerocopy import DeferredZeroCopyDmaApi, StrictZeroCopyDmaApi
from repro.errors import ConfigurationError
from repro.hw.locks import SpinLock
from repro.hw.machine import Machine
from repro.iommu.iommu import Iommu
from repro.iova.allocators import (
    EiovaRAllocator,
    IdentityIovaAllocator,
    LinuxIovaAllocator,
    MagazineIovaAllocator,
)
from repro.kalloc.slab import KernelAllocators

#: Canonical short labels used in the paper's figures.
PAPER_ALIASES = {
    "identity+": "identity-strict",
    "identity-": "identity-deferred",
    # Prose shorthands (§2.2): "strict" and "deferred" unambiguously
    # mean the identity-mapped IOMMU modes the paper evaluates.
    "strict": "identity-strict",
    "deferred": "identity-deferred",
    # Scalable-invalidation shorthands (see iommu/invalidation.py).
    "strict-percore": "identity-strict-percore",
    "deferred-bounded": "identity-deferred-bounded",
    "strict-prefetch": "identity-strict-prefetch",
}

_PROPERTIES: Dict[str, SchemeProperties] = {
    "no-iommu": SchemeProperties(
        "no-iommu", iommu_protection=False, sub_page=False,
        no_window=False, single_core_perf=True, multi_core_perf=True),
    "linux-strict": SchemeProperties(
        "Linux strict", iommu_protection=True, sub_page=False,
        no_window=True, single_core_perf=False, multi_core_perf=False),
    "linux-deferred": SchemeProperties(
        "Linux deferred", iommu_protection=True, sub_page=False,
        no_window=False, single_core_perf=True, multi_core_perf=False),
    "eiovar-strict": SchemeProperties(
        "FAST'15 strict", iommu_protection=True, sub_page=False,
        no_window=True, single_core_perf=True, multi_core_perf=False),
    "eiovar-deferred": SchemeProperties(
        "FAST'15 deferred", iommu_protection=True, sub_page=False,
        no_window=False, single_core_perf=True, multi_core_perf=False),
    "magazine-strict": SchemeProperties(
        "ATC'15 strict", iommu_protection=True, sub_page=False,
        no_window=True, single_core_perf=True, multi_core_perf=False),
    "magazine-deferred": SchemeProperties(
        "ATC'15 deferred", iommu_protection=True, sub_page=False,
        no_window=False, single_core_perf=True, multi_core_perf=True),
    "identity-strict": SchemeProperties(
        "identity+ (strict page protection)", iommu_protection=True,
        sub_page=False, no_window=True, single_core_perf=True,
        multi_core_perf=False),
    "identity-deferred": SchemeProperties(
        "identity- (deferred page protection)", iommu_protection=True,
        sub_page=False, no_window=False, single_core_perf=True,
        multi_core_perf=True),
    "copy": SchemeProperties(
        "copy (shadow buffers)", iommu_protection=True, sub_page=True,
        no_window=True, single_core_perf=True, multi_core_perf=True),
    # Extension rows (paper §7 related work, built here as executable
    # comparisons — see DESIGN.md):
    "swiotlb": SchemeProperties(
        "SWIOTLB (bounce buffers, no IOMMU)", iommu_protection=False,
        sub_page=False, no_window=False, single_core_perf=True,
        multi_core_perf=False),
    "self-invalidating": SchemeProperties(
        "self-invalidating IOMMU [Basu et al.]", iommu_protection=True,
        sub_page=False, no_window=False, single_core_perf=True,
        multi_core_perf=True),
    # Scalable-invalidation rows (post-2016 remedies for the paper's
    # qi-lock bottleneck; see iommu/invalidation.py module docstring):
    "identity-strict-percore": SchemeProperties(
        "identity+ percore (sharded ranged invalidation)",
        iommu_protection=True, sub_page=False, no_window=True,
        single_core_perf=True, multi_core_perf=True),
    "identity-deferred-bounded": SchemeProperties(
        "identity- bounded (ranged flush, 100us window)",
        iommu_protection=True, sub_page=False, no_window=False,
        single_core_perf=True, multi_core_perf=True),
    "identity-strict-prefetch": SchemeProperties(
        "identity+ prefetch (sharded + IOTLB prefetch)",
        iommu_protection=True, sub_page=False, no_window=True,
        single_core_perf=True, multi_core_perf=True),
}

#: Schemes built on the per-core invalidation subsystem.
SCALABLE_SCHEMES = ("identity-strict-percore", "identity-deferred-bounded",
                    "identity-strict-prefetch")

ALL_SCHEMES = tuple(_PROPERTIES)

#: The four systems the paper's throughput figures compare.
FIGURE_SCHEMES = ("no-iommu", "copy", "identity-deferred", "identity-strict")


def scheme_properties(name: str) -> SchemeProperties:
    name = PAPER_ALIASES.get(name, name)
    try:
        return _PROPERTIES[name]
    except KeyError:
        raise ConfigurationError(f"unknown scheme {name!r}") from None


def create_dma_api(name: str, machine: Machine, iommu: Iommu | None,
                   device_id: int, allocators: KernelAllocators,
                   **scheme_kwargs) -> DmaApi:
    """Build the protection scheme ``name`` for ``device_id``.

    ``iommu`` may be ``None`` only for ``no-iommu``.  ``scheme_kwargs``
    pass through to scheme-specific constructors (e.g. ``sticky=False``
    or ``size_classes=...`` for ``copy``).
    """
    name = PAPER_ALIASES.get(name, name)
    api = _build_dma_api(name, machine, iommu, device_id, allocators,
                         **scheme_kwargs)
    # Single rebind point: every scheme observes through the machine's
    # context and carries its Table 1 row; directly-constructed schemes
    # (unit tests) stay NULL_OBS and claim nothing.
    api.obs = machine.obs
    api.properties = _PROPERTIES[name]
    # Same pattern for fault injection: the machine's injector reaches
    # the IOVA allocators the scheme composed.
    for attr in ("iova_allocator", "fallback_iova"):
        allocator = getattr(api, attr, None)
        if allocator is not None and hasattr(allocator, "faults"):
            allocator.faults = machine.faults
    return api


def _build_dma_api(name: str, machine: Machine, iommu: Iommu | None,
                   device_id: int, allocators: KernelAllocators,
                   **scheme_kwargs) -> DmaApi:
    if name == "no-iommu":
        return NoIommuDmaApi(machine, allocators)
    if name == "swiotlb":
        from repro.dma.swiotlb import SwiotlbDmaApi

        return SwiotlbDmaApi(machine, allocators, **scheme_kwargs)
    if iommu is None:
        raise ConfigurationError(f"scheme {name!r} requires an IOMMU")
    if name == "self-invalidating":
        from repro.dma.selfinval import SelfInvalidatingDmaApi

        return SelfInvalidatingDmaApi(machine, iommu, device_id,
                                      allocators, **scheme_kwargs)
    if name == "copy":
        from repro.core.shadow_dma import ShadowDmaApi  # avoid import cycle

        fallback = MagazineIovaAllocator(
            machine.cost, machine.num_cores,
            SpinLock("iova-depot", machine.cost, obs=machine.obs))
        return ShadowDmaApi(machine, iommu, device_id, allocators,
                            fallback_iova=fallback, **scheme_kwargs)

    if name in SCALABLE_SCHEMES:
        # The scalable variants swap the IOMMU's single invalidation
        # queue for per-core shards (idempotent — schemes sharing one
        # IOMMU agree on the subsystem) and post ranged descriptors.
        iommu.enable_percore_invalidation()
        iova_allocator = IdentityIovaAllocator(machine.cost)
        if name == "identity-deferred-bounded":
            kwargs = dict(scheme_kwargs)
            kwargs.setdefault("window_budget_cycles",
                              machine.cost.deferred_window_budget_cycles)
            return DeferredZeroCopyDmaApi(
                machine, iommu, device_id, allocators, iova_allocator,
                name=name, per_core_batching=True, ranged_flush=True,
                **kwargs)
        return StrictZeroCopyDmaApi(
            machine, iommu, device_id, allocators, iova_allocator,
            name=name, ranged=True,
            prefetch=(name == "identity-strict-prefetch"),
            **scheme_kwargs)

    iova_kind, _, policy = name.rpartition("-")
    makers: Dict[str, Callable] = {
        "linux": lambda: LinuxIovaAllocator(
            machine.cost, SpinLock("iova-rbtree", machine.cost,
                                   obs=machine.obs)),
        "eiovar": lambda: EiovaRAllocator(
            machine.cost, SpinLock("iova-rbtree", machine.cost,
                                   obs=machine.obs)),
        "magazine": lambda: MagazineIovaAllocator(
            machine.cost, machine.num_cores,
            SpinLock("iova-depot", machine.cost, obs=machine.obs)),
        "identity": lambda: IdentityIovaAllocator(machine.cost),
    }
    if iova_kind not in makers or policy not in ("strict", "deferred"):
        raise ConfigurationError(f"unknown scheme {name!r}")
    iova_allocator = makers[iova_kind]()
    if policy == "strict":
        return StrictZeroCopyDmaApi(machine, iommu, device_id, allocators,
                                    iova_allocator, name=name,
                                    **scheme_kwargs)
    # Deferred: stock Linux (and EiovaR) batch on a single global list;
    # the scalable schemes batch per core (§2.2.1).
    per_core = iova_kind in ("magazine", "identity")
    return DeferredZeroCopyDmaApi(machine, iommu, device_id, allocators,
                                  iova_allocator, name=name,
                                  per_core_batching=per_core,
                                  **scheme_kwargs)
