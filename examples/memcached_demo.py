#!/usr/bin/env python3
"""memcached under DMA protection — the paper's Figure 11 workload.

Runs 8 memcached instances under each protection scheme with the
memslap mix (64 B keys, 1 KB values, 90/10 GET/SET) and prints the
aggregate transactional throughput.  Shows the paper's application-level
takeaway: full DMA-attack protection (copy) at essentially the same
throughput as no protection, while strict zero-copy protection collapses.

Run:  python3 examples/memcached_demo.py
"""

from repro import MemcachedConfig, run_memcached
from repro.stats.export import result_to_row
from repro.stats.reporting import render_memcached_table

SCHEMES = ("no-iommu", "copy", "identity-deferred", "identity-strict")


def main() -> None:
    results = {}
    for scheme in SCHEMES:
        print(f"running memcached under {scheme}...")
        results[scheme] = run_memcached(MemcachedConfig(
            scheme=scheme, cores=8, transactions_per_core=300,
            warmup_transactions=50))
    print()
    print(render_memcached_table(
        {scheme: [result_to_row(r)] for scheme, r in results.items()},
        title="memcached, 8 instances (compare paper Fig. 11)"))
    print()
    copy, base = results["copy"], results["no-iommu"]
    strict = results["identity-strict"]
    print(f"copy/no-iommu   : "
          f"{copy.transactions_per_sec / base.transactions_per_sec:.3f} "
          f"(paper: ~0.98 — 'essentially the same throughput')")
    print(f"copy/identity+  : "
          f"{copy.transactions_per_sec / strict.transactions_per_sec:.1f}x "
          f"(paper: 6.6x)")
    hits = copy.extras["store_hits"]
    misses = copy.extras["store_misses"]
    print(f"KV store served {hits} hits / {misses} misses of real data")


if __name__ == "__main__":
    main()
