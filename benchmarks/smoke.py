#!/usr/bin/env python3
"""One-shot smoke target: quick bench + regression gate.

Runs, in order, in well under a minute:

1. the quick figure registry (``python -m repro bench --quick``): its
   paper-fidelity ledger, gated against the checked-in
   ``benchmarks/results/baseline.json``.  The gate
   (:mod:`repro.bench.regression`) is exact: the new record must equal
   the baseline under :func:`repro.bench.record.stable_view`
   (``fingerprint.git_sha`` aside), so a refactor cannot move a
   simulated number unnoticed, and simulator speed must stay above a
   floor of the baseline's.  Then
2. a simulator-speed check: every figure of the new record must carry a
   nonzero ``sim_cycles_per_wall_second`` throughput entry.

Exit status 0 means both passed.  A change that intends to move
the simulation regenerates the baseline in the same commit::

    PYTHONPATH=src python -m repro bench --quick
    cp benchmarks/results/BENCH_<latest>.json benchmarks/results/baseline.json
"""

from __future__ import annotations

import glob
import os
import sys
from typing import List

try:
    from repro.bench.record import load_record
    from repro.bench.runner import default_results_dir, run_bench
except ImportError:
    sys.exit("error: the 'repro' package is not importable; run with "
             "PYTHONPATH=src (from the repository root) or install it")

BASELINE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "results", "baseline.json")


def missing_throughput(record: dict) -> List[str]:
    """Figures whose ``sim_cycles_per_wall_second`` is missing or zero."""
    throughput = record.get("throughput") or {}
    return [name for name in record.get("figures", {})
            if not (throughput.get(name) or {})
            .get("sim_cycles_per_wall_second")]


def main() -> int:
    print("== quick bench (ledger, gated against baseline.json) ==")
    baseline = BASELINE if os.path.exists(BASELINE) else None
    if baseline is None:
        print(f"note: no baseline at {BASELINE}; running ungated",
              file=sys.stderr)
    jobs = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
    status = run_bench(mode="quick", baseline=baseline, jobs=jobs)
    latest = max(glob.glob(os.path.join(default_results_dir(),
                                        "BENCH_*.json")),
                 key=os.path.getmtime)
    record = load_record(latest)
    print()
    print("== simulator throughput ==")
    missing = missing_throughput(record)
    if missing:
        print(f"error: sim_cycles_per_wall_second missing or zero for "
              f"{', '.join(missing)}", file=sys.stderr)
        return 1
    print(f"[smoke] all {len(record['figures'])} figures report "
          f"sim cycles per wall second")
    return status


if __name__ == "__main__":
    sys.exit(main())
