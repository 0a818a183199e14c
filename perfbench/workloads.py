"""The four benchmark workloads, as plain data.

A workload is a list of :class:`ConfigSpec` run back to back; one run of
the whole list is a *pass*.  Specs name a runner of
``repro.workloads`` and its config fields; :mod:`perfbench.child` turns
them into ``repro`` configs.

Every config runs its own simulated warmup units before its measured
phase, so the modelled pools, rings and IOTLB start warm.  Inside the
simulation RX stream, storage and memcached are open-loop (paced by
their simulated arrival schedule); TCP_RR is closed-loop with one
transaction in flight.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List

from repro.seeding import derive_seed

#: Config fields that count work units, per runner: (measured, warmup).
UNIT_FIELDS = {
    "stream": ("units_per_core", "warmup_units"),
    "rr": ("transactions", "warmup_transactions"),
    "storage": ("ops_per_core", "warmup_ops"),
    "memcached": ("transactions_per_core", "warmup_transactions"),
}


@dataclass(frozen=True)
class ConfigSpec:
    """One runner call: ``runner`` is a key of :data:`UNIT_FIELDS`."""

    label: str
    runner: str
    params: Dict[str, object]
    #: Run with ``Observability.capture(trace_capacity=256)``, exactly
    #: as ``repro bench`` captures every figure point.
    captured: bool = False

    def scaled(self, factor: float) -> "ConfigSpec":
        """The same config with its unit counts and simulated cores
        multiplied by ``factor`` (at least one of each)."""
        params = dict(self.params)
        for key in UNIT_FIELDS[self.runner] + ("cores",):
            if key in params:
                params[key] = max(1, round(params[key] * factor))
        return replace(self, params=params)

    @property
    def expected_units(self) -> int:
        """Measured units the runner must report for this config."""
        units = self.params[UNIT_FIELDS[self.runner][0]]
        return units * self.params.get("cores", 1)


def _rx_multicore(seed: int) -> List[ConfigSpec]:
    return [ConfigSpec(f"rx16-16k/{scheme}", "stream", dict(
                scheme=scheme, direction="rx", message_size=16384, cores=16,
                units_per_core=300, warmup_units=30))
            for scheme in ("no-iommu", "copy", "identity-deferred",
                           "identity-strict", "identity-strict-percore")]


def _bulk_dma(seed: int) -> List[ConfigSpec]:
    specs = []
    for scheme in ("copy", "identity-deferred", "identity-strict"):
        specs.append(ConfigSpec(f"tx1-64k/{scheme}", "stream", dict(
            scheme=scheme, direction="tx", message_size=65536, cores=1,
            units_per_core=1500, warmup_units=150)))
        specs.append(ConfigSpec(f"storage2-64k/{scheme}", "storage", dict(
            scheme=scheme, block_size=65536, cores=2, read_fraction=0.7,
            ops_per_core=1500, warmup_ops=150,
            seed=derive_seed(seed, "bulk-dma", "storage"))))
    return specs


def _rr_kv(seed: int) -> List[ConfigSpec]:
    specs = [ConfigSpec(f"rr-{size}/{scheme}", "rr", dict(
                 scheme=scheme, message_size=size, transactions=600,
                 warmup_transactions=60))
             for size in (64, 65536)
             for scheme in ("no-iommu", "copy", "identity-strict")]
    specs += [ConfigSpec(f"memcached8/{scheme}", "memcached", dict(
                  scheme=scheme, cores=8, transactions_per_core=200,
                  warmup_transactions=20,
                  seed=derive_seed(seed, "rr-kv", "memcached")))
              for scheme in ("no-iommu", "copy", "identity-strict")]
    return specs


def _rx_captured(seed: int) -> List[ConfigSpec]:
    # Half the units of the other RX configs: captured configs run about
    # twice as long, and a 20 s run must still hold several passes.
    specs = []
    for scheme in ("copy", "identity-strict"):
        for cores, size, units in ((16, 16384, 150), (1, 65536, 750)):
            params = dict(scheme=scheme, direction="rx", message_size=size,
                          cores=cores, units_per_core=units,
                          warmup_units=units // 10)
            label = f"rx{cores}-{size // 1024}k/{scheme}"
            specs.append(ConfigSpec(label, "stream", params))
            specs.append(ConfigSpec(label + "+obs", "stream", params,
                                    captured=True))
    return specs


#: Workload name → function making its config list from the run's seed.  The
#: seed reaches the simulator only as ``StorageConfig.seed`` and
#: ``MemcachedConfig.seed``; netperf frames are fixed.
WORKLOADS: Dict[str, Callable[[int], List[ConfigSpec]]] = {
    "rx-multicore": _rx_multicore,
    "bulk-dma": _bulk_dma,
    "rr-kv": _rr_kv,
    "rx-captured": _rx_captured,
}


def workload_specs(name: str, seed: int, scale: float = 1.0) -> List[ConfigSpec]:
    """The config list of workload ``name``, unit counts times ``scale``."""
    specs = WORKLOADS[name](seed)
    return specs if scale == 1.0 else [s.scaled(scale) for s in specs]
