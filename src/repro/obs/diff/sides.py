"""Diff sides: turning records and live runs into comparable shapes.

A :class:`DiffSide` is the engine's input: an ordered set of *points*
keyed so the two sides align.  Every persisted record has one shape
(:mod:`repro.bench.record`), so one loader keys all of them: a series
row by :func:`repro.bench.record.row_key` — ``(figure, scheme,
workload, cores, params…)`` — a span tree by ``(figure, scheme,
"spans")``, and a per-scheme section entry (a scale sweep's
``analysis``) by ``(figure, section, scheme)``.  Live pairs key by
``(workload, cores…)`` with the scheme deliberately excluded, so an
``identity-strict`` run lines up against a ``copy`` run of the same
load.  Each point carries its flattenable metric payload and its units
of work; span trees and request tail reports ride alongside when the
source has them (live captures always do; records carry spans per
figure × scheme).

Three constructors cover the CLI's modes:

* :func:`load_side` / :func:`side_from_record` — any persisted record
  (``BENCH_*.json``, ``scale.json``);
* :func:`side_from_capture` — one completed instrumented run;
* :func:`run_live_pair` — run two schemes under identical load as two
  :class:`~repro.bench.points.RunPoint` tasks of
  :func:`repro.bench.points.fan_out`, one process each when
  ``jobs > 1``; results merge in fixed order so the built sides are
  identical at any job count.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.bench.record import load_record, row_key
from repro.obs.spans import SpanNode

#: Live-pair sizings (mirrors the bench/scale quick/full convention).
LIVE_SIZINGS: Dict[str, Dict[str, int]] = {
    "quick": {"cores": 8, "size": 16384, "units": 80, "warmup": 20},
    "full": {"cores": 16, "size": 16384, "units": 300, "warmup": 60},
}

Key = Tuple[str, ...]


@dataclass
class Point:
    """One comparable measurement point of a side."""

    metrics: Dict[str, object]
    units: int = 1
    spans: Optional[SpanNode] = None
    tail: Optional[Dict[str, object]] = None


@dataclass
class DiffSide:
    """One side of a comparison: labeled, keyed points."""

    label: str
    kind: str                                  # bench | live
    points: Dict[Key, Point] = field(default_factory=dict)

    def keys(self) -> List[Key]:
        return sorted(self.points)


def key_label(key: Key) -> str:
    return " ".join(key)


# ----------------------------------------------------------------------
# Persisted records.
# ----------------------------------------------------------------------
def side_from_record(record: Dict, label: str) -> DiffSide:
    """Build a side from any persisted record.

    Per figure: one point per series row, one span point per scheme
    (normalized by that scheme's summed row units), and one point per
    dict-valued entry of a per-scheme section.
    """
    side = DiffSide(label=label, kind="bench")
    for figure, data in record.get("figures", {}).items():
        scheme_units: Dict[str, int] = {}
        for row in data.get("series", ()):
            units = int(row.get("units") or 1)
            side.points[row_key(figure, row)] = Point(metrics=dict(row),
                                                      units=units)
            scheme = str(row.get("scheme"))
            scheme_units[scheme] = scheme_units.get(scheme, 0) + units
        for scheme, tree in (data.get("spans") or {}).items():
            key = (figure, str(scheme), "spans")
            side.points[key] = Point(
                metrics={}, units=max(1, scheme_units.get(scheme, 1)),
                spans=SpanNode.from_dict(tree))
        for section, entries in data.items():
            if section == "spans" or not isinstance(entries, dict):
                continue
            for scheme, entry in entries.items():
                if isinstance(entry, dict):
                    side.points[(figure, section, str(scheme))] = Point(
                        metrics=dict(entry))
    return side


def load_side(path: str, label: Optional[str] = None) -> DiffSide:
    """Load a record (validated by :func:`load_record`) as a side."""
    return side_from_record(load_record(path), label or path)


# ----------------------------------------------------------------------
# Live runs.
# ----------------------------------------------------------------------
def side_from_capture(result, obs, label: str,
                      key: Optional[Key] = None,
                      tail_percentile: float = 99.0) -> DiffSide:
    """One instrumented run as a side (scheme excluded from the key, so
    different schemes under the same load align point-to-point)."""
    from repro.obs.requests import tail_report
    from repro.stats.export import result_to_row

    metrics: Dict[str, object] = {"row": result_to_row(result)}
    for section in ("metrics", "locks", "exposure"):
        data = result.extras.get(section)
        if isinstance(data, dict):
            metrics[section] = data
    if key is None:
        key = (str(result.workload), f"cores={result.cores}")
    side = DiffSide(label=label, kind="live")
    side.points[key] = Point(
        metrics=metrics, units=int(result.units or 1),
        spans=obs.spans.tree(),
        tail=tail_report(obs.requests, percentile=tail_percentile))
    return side


def _live_payload(point, tail_percentile: float) -> Dict:
    """One live side, serialized (a picklable :func:`fan_out` worker).

    Everything crossing the process boundary is plain JSON-able data;
    the parent rebuilds the :class:`SpanNode` tree, so the built side
    is identical whether the run happened in-process or in a worker.
    """
    from repro.bench.points import run_point

    result, obs = run_point(point)
    side = side_from_capture(result, obs, label=point.scheme,
                             tail_percentile=tail_percentile)
    key, captured = next(iter(side.points.items()))
    return {
        "key": list(key),
        "metrics": captured.metrics,
        "units": captured.units,
        "spans": (captured.spans.to_dict()
                  if captured.spans is not None else None),
        "tail": captured.tail,
    }


def _rebuild_side(scheme: str, payload: Dict) -> DiffSide:
    side = DiffSide(label=scheme, kind="live")
    spans = (SpanNode.from_dict(payload["spans"])
             if payload.get("spans") is not None else None)
    side.points[tuple(payload["key"])] = Point(
        metrics=payload["metrics"], units=int(payload["units"]),
        spans=spans, tail=payload.get("tail"))
    return side


def run_live_pair(workload: str, scheme_a: str, scheme_b: str,
                  cores: int, size: int, units: int, warmup: int,
                  tail_percentile: float = 99.0, jobs: int = 1,
                  quiet: bool = False) -> Tuple[DiffSide, DiffSide]:
    """Run both schemes under identical load; returns ``(A, B)``.

    ``jobs > 1`` runs the two sides in separate processes; results
    always round-trip through the same serialized form and merge in
    fixed (A, B) order, so the pair is byte-identical at any job count.
    """
    from repro.bench.points import fan_out, sized_point

    points = [sized_point(workload, scheme, cores=cores, size=size,
                          units=units, warmup=warmup)
              for scheme in (scheme_a, scheme_b)]

    def note(point, payload: Dict, seconds: float) -> None:
        print(f"[diff] {point.scheme:<18} {workload} cores={cores} "
              f"{seconds:5.1f}s", file=sys.stderr)

    built = fan_out(functools.partial(_live_payload,
                                      tail_percentile=tail_percentile),
                    points, jobs, None if quiet else note)
    side_a, side_b = (_rebuild_side(point.scheme, payload)
                      for point, (payload, _) in zip(points, built))
    return side_a, side_b
