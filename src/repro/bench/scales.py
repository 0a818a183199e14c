"""Scales: how much work each figure of the ``repro bench`` registry does.

The one sizing table behind ``--quick`` and ``--full``.  The registry
(:mod:`repro.bench.runner`) builds its run points from it, and the
paper-fidelity ledger (:mod:`repro.bench.ledger`) reads it to know which
claims a record of each scale can hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.workloads.netperf import PAPER_MESSAGE_SIZES


@dataclass(frozen=True)
class BenchScale:
    """One sizing preset for the figure registry."""

    name: str
    units_single: int
    units_multi: int
    warmup_single: int
    warmup_multi: int
    multi_cores: int
    sizes_single: Tuple[int, ...]
    sizes_multi: Tuple[int, ...]
    breakdown_size: int
    rr_sizes: Tuple[int, ...]
    rr_transactions: int
    rr_warmup: int
    memcached_cores: int
    memcached_tpc: int
    memcached_warmup: int
    storage_block_sizes: Tuple[int, ...]
    storage_ops: int
    storage_warmup: int
    #: Core counts for the scalable-invalidation figure (fig_scalinv).
    scalinv_cores: Tuple[int, ...] = (1, 2)

    def message_sizes(self, figure: str) -> Tuple[int, ...]:
        """The message sizes registry figure ``figure`` runs at this
        scale (``KeyError`` for a figure without message sizes)."""
        breakdown = (self.breakdown_size,)
        return {
            "fig01": (16384,),
            "fig03": self.sizes_single, "fig04": self.sizes_single,
            "fig05": breakdown,
            "fig06": self.sizes_multi, "fig07": self.sizes_multi,
            "fig08": breakdown,
            "fig09": self.rr_sizes, "fig10": breakdown,
            "fig_scalinv": (16384,),
        }[figure]


#: ``--quick``: every figure in miniature; the whole registry plus the
#: invariant checks fits the <60 s smoke budget (``benchmarks/smoke.py``).
QUICK_SCALE = BenchScale(
    name="quick",
    units_single=200, units_multi=50,
    warmup_single=40, warmup_multi=15,
    multi_cores=16,
    sizes_single=(1024, 16384, 65536),
    sizes_multi=(16384,),
    breakdown_size=65536,
    rr_sizes=(1024, 65536),
    rr_transactions=60, rr_warmup=10,
    memcached_cores=8, memcached_tpc=40, memcached_warmup=10,
    storage_block_sizes=(4096, 65536),
    storage_ops=100, storage_warmup=20,
    scalinv_cores=(1, 4, 16),
)

#: ``--full``: paper-scale sweeps over every message size of the paper.
FULL_SCALE = BenchScale(
    name="full",
    units_single=1200, units_multi=350,
    warmup_single=120, warmup_multi=120,
    multi_cores=16,
    sizes_single=PAPER_MESSAGE_SIZES,
    sizes_multi=PAPER_MESSAGE_SIZES,
    breakdown_size=65536,
    rr_sizes=PAPER_MESSAGE_SIZES,
    rr_transactions=300, rr_warmup=40,
    memcached_cores=16, memcached_tpc=450, memcached_warmup=100,
    storage_block_sizes=(4096, 65536, 262144),
    storage_ops=400, storage_warmup=60,
    scalinv_cores=(1, 2, 4, 8, 16, 32, 64),
)

#: The scales ``repro bench`` runs, by mode name.
SCALES: Dict[str, BenchScale] = {scale.name: scale
                                 for scale in (QUICK_SCALE, FULL_SCALE)}
