#!/usr/bin/env python3
"""One-shot smoke target: invariants + quick bench + regression gate.

Runs, in order, in well under a minute:

1. the resource-accounting invariant checks
   (:mod:`repro.bench.invariants`), then
2. the quick figure registry (``python -m repro bench --quick``) gated
   against the checked-in ``benchmarks/results/baseline.json``, then
3. an exact check: the new record must equal ``baseline.json`` under
   :func:`repro.bench.record.stable_view` (``fingerprint.git_sha``
   aside).  The gate's tolerance bands let a 1% shift through; this
   check does not, so a refactor cannot move a simulated number
   unnoticed.  It prints up to 10 differing JSON paths.

Exit status 0 means all three passed.  A change that intends to move
the simulation regenerates the baseline in the same commit::

    PYTHONPATH=src python -m repro bench --quick
    cp benchmarks/results/BENCH_<latest>.json benchmarks/results/baseline.json
"""

from __future__ import annotations

import glob
import os
import sys
from typing import Iterator, List

try:
    from repro.bench import invariants
    from repro.bench.record import load_record, stable_view
    from repro.bench.runner import default_results_dir, run_bench
except ImportError:
    sys.exit("error: the 'repro' package is not importable; run with "
             "PYTHONPATH=src (from the repository root) or install it")

BASELINE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "results", "baseline.json")

#: Differing paths printed on a mismatch.
_MAX_PATHS = 10


def _differences(a: object, b: object, path: str) -> Iterator[str]:
    if isinstance(a, dict) and isinstance(b, dict):
        for key in list(a) + [key for key in b if key not in a]:
            if key not in a or key not in b:
                yield f"{path}.{key}"
            else:
                yield from _differences(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            yield f"{path} (length {len(a)} != {len(b)})"
        for index, (x, y) in enumerate(zip(a, b)):
            yield from _differences(x, y, f"{path}[{index}]")
    elif type(a) is not type(b) or a != b:
        yield f"{path}: {a!r} != {b!r}"


def baseline_drift(baseline: dict, record: dict) -> List[str]:
    """JSON paths where the two records' stable views differ, ignoring
    ``fingerprint.git_sha``."""
    views = []
    for source in (baseline, record):
        view = stable_view(source)
        view.get("fingerprint", {}).pop("git_sha", None)
        views.append(view)
    return list(_differences(views[0], views[1], "$"))


def main() -> int:
    print("== invariants ==")
    status = invariants.main()
    if status:
        return status
    print()
    print("== quick bench (gated against baseline.json) ==")
    baseline = BASELINE if os.path.exists(BASELINE) else None
    if baseline is None:
        print(f"note: no baseline at {BASELINE}; running ungated",
              file=sys.stderr)
    jobs = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
    status = run_bench(mode="quick", baseline=baseline, jobs=jobs)
    if baseline is None:
        return status
    print()
    print("== exact match with baseline.json (stable view) ==")
    latest = max(glob.glob(os.path.join(default_results_dir(),
                                        "BENCH_*.json")),
                 key=os.path.getmtime)
    drift = baseline_drift(load_record(baseline), load_record(latest))
    if drift:
        print(f"error: {latest} differs from {baseline} at "
              f"{len(drift)} path(s):", file=sys.stderr)
        for path in drift[:_MAX_PATHS]:
            print(f"  {path}", file=sys.stderr)
        print("regenerate the baseline in the same commit if the "
              "simulation change is intended", file=sys.stderr)
        return 1
    print(f"[smoke] {latest} matches {baseline} under stable_view")
    return status


if __name__ == "__main__":
    sys.exit(main())
