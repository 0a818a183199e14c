#!/usr/bin/env python3
"""A miniature netperf campaign — Figures 3 and 6 at reduced scale.

Sweeps message sizes over the four systems the paper compares, single
core and 16 cores, and prints the throughput/CPU panels.  A compact
version of what ``python -m repro bench --full`` regenerates, and
checks against the paper, in full.

Run:  python3 examples/netperf_campaign.py           (single core)
      REPRO_CORES=16 python3 examples/netperf_campaign.py
"""

import os

from repro import FIGURE_SCHEMES, StreamConfig
from repro.stats.export import result_to_row
from repro.stats.reporting import render_sweep_table
from repro.workloads.netperf import run_tcp_stream_rx

SIZES = (64, 1024, 16384, 65536)


def main() -> None:
    cores = int(os.environ.get("REPRO_CORES", "1"))
    units = 600 if cores == 1 else 200
    results = {}
    for scheme in FIGURE_SCHEMES:
        print(f"running {scheme} ({cores} core(s))...")
        results[scheme] = [
            run_tcp_stream_rx(StreamConfig(
                scheme=scheme, message_size=size, cores=cores,
                units_per_core=units, warmup_units=80))
            for size in SIZES
        ]
    print()
    print(render_sweep_table(
        {scheme: [result_to_row(r) for r in runs]
         for scheme, runs in results.items()},
        title=f"TCP RX throughput/CPU, {cores} core(s) "
              f"(compare paper Fig. {'3' if cores == 1 else '6'})"))

    copy = results["copy"][-1]
    strict = results["identity-strict"][-1]
    print(f"copy vs identity+ at 64KB: "
          f"{copy.throughput_gbps / strict.throughput_gbps:.2f}x "
          f"({'paper: ~2x' if cores == 1 else 'paper: ~5x collapse'})")
    if "pool" in copy.extras:
        mib = copy.extras["pool"]["bytes_allocated"] / (1 << 20)
        print(f"shadow pool footprint during the copy runs: {mib:.1f} MiB")


if __name__ == "__main__":
    main()
