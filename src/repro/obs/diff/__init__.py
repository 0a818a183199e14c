"""Differential root-cause observatory: A/B attribution between runs.

The paper's whole argument is a *comparison* — copy vs. zero-copy under
identical load — and every scheme the ROADMAP adds (per-core
invalidation queues, IOTLB prefetch, the post-2016 contenders) will be
judged the same way.  This package is the comparison engine: given two
sides — live runs, persisted artifacts (``BENCH_*.json``,
``scale.json``), or a run against the checked-in baseline — it
produces one deterministic differential report:

* a **span-trie diff** (:mod:`repro.obs.diff.spandiff`) with per-unit-
  of-work-normalized self-cycle deltas, naming grown and shrunk
  subtrees ranked by their contribution to the total cycle delta;
* **metric deltas** (:mod:`repro.obs.diff.metricdiff`) over every
  numeric signal both sides carry — series rows, counters, histogram
  summaries, per-lock wait, exposure byte·cycles, invalidation
  queue-depth;
* **quantile-shift attribution** (:mod:`repro.obs.diff.quantile`) built
  on the request recorder's stage profiles: which stage explains the
  p50→p99 gap *change* between A and B.

Everything is pure bookkeeping over already-recorded data: building a
diff never runs simulation cycles, and the rendered markdown/JSON is
byte-stable for deterministic inputs (the CLI's ``--jobs`` fan-out
cannot change a single byte — ``tests/obs/diff`` asserts it).
"""

from repro.obs.diff.metricdiff import (
    MetricDelta,
    changed,
    diff_metrics,
    flatten_numeric,
)
from repro.obs.diff.command import default_baseline_path, run_diff
from repro.obs.diff.quantile import gap_attribution, quantile_shift
from repro.obs.diff.render import diff_to_json, render_diff_markdown
from repro.obs.diff.sides import (
    DiffSide,
    Point,
    side_from_capture,
    side_from_record,
    load_side,
    run_live_pair,
)
from repro.obs.diff.spandiff import SpanDelta, SpanDiff, diff_span_trees
from repro.obs.diff.engine import build_diff, diff_is_zero

__all__ = [
    "MetricDelta", "SpanDelta", "SpanDiff", "DiffSide", "Point",
    "build_diff", "changed", "default_baseline_path", "diff_is_zero",
    "diff_metrics", "diff_span_trees", "diff_to_json",
    "flatten_numeric", "gap_attribution", "load_side",
    "quantile_shift", "render_diff_markdown", "run_diff",
    "run_live_pair", "side_from_capture", "side_from_record",
]
