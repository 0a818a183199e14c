"""Perfetto / Chrome ``trace_event`` export of a traced run.

Turns an enabled :class:`~repro.obs.context.Observability` into the JSON
object format every Chromium-lineage trace viewer understands
(``chrome://tracing``, https://ui.perfetto.dev): load the file and the
run reads like a production trace —

* one **thread track per core** (pid 0, tid = core id) carrying complete
  ``ph: "X"`` slices: an outer slice per request plus nested slices for
  its stage segments (``dma_map``, ``copy``, ``lock_wait``, …);
* **flow arrows** (``ph: "s"/"t"/"f"``, one flow id per request id)
  stitching each request's begin → lifecycle marks → end, so a request
  remains followable even across drops and retained-trace gaps;
* **counter tracks** (``ph: "C"``) from the metrics time series
  (``pool.bytes_allocated``, ``invalidation.concurrency``,
  ``invalidation.queue_depth``, ``exposure.surface_bytes``, …) plus
  per-lock waiter counts (``lock.waiters:<name>``) derived from the
  retained ``lock.contend`` events, so the scaling report's contention
  findings are visible as piles on the trace timeline;
* the workload **phases** (warmup/measure) as slices on a dedicated
  virtual thread.

Timestamps convert simulated cycles to microseconds (the trace_event
unit) at the model's 2.4 GHz clock; durations below one nanosecond are
clamped so zero-width slices stay visible.

Only retained requests are exported (the recorder keeps a decimated
sample plus the exact slowest per kind — see :mod:`repro.obs.requests`),
which is precisely the cohort the tail analyzer talks about.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Dict, List

from repro.obs.requests import cycles_to_us
from repro.obs.trace import EV_LOCK_CONTEND

#: Virtual tid hosting workload phase slices (real cores are 0..N-1).
PHASE_TID = 1000

#: trace_event category tags.
CAT_REQUEST = "request"
CAT_STAGE = "stage"
CAT_PHASE = "phase"


def _ts(cycles: int) -> float:
    """Simulated cycles -> trace_event microseconds."""
    return round(cycles_to_us(cycles), 6)


def _dur(cycles: int) -> float:
    """Slice duration in µs; clamped so zero-cycle slices render."""
    return max(round(cycles_to_us(cycles), 6), 0.001)


def _lock_waiter_counters(obs) -> List[Dict[str, object]]:
    """Per-lock waiter-count counter events from the retained trace.

    Every ``lock.contend`` event marks the *end* of a spin: the emitting
    core was waiting over ``[t - wait_cycles, t]``.  An endpoint sweep
    (+1 at wait start, -1 at acquisition) turns those intervals into a
    running waiter count per lock — the "how many cores are piled up on
    this lock right now" series the scaling report's contention matrix
    aggregates, but on the trace timeline.
    """
    deltas: Dict[str, Counter] = {}
    for ev in obs.tracer.events(EV_LOCK_CONTEND):
        waited = int(ev.data.get("wait_cycles", 0))
        if waited <= 0:
            continue
        edges = deltas.setdefault(str(ev.data.get("lock", "?")), Counter())
        edges[ev.t - waited] += 1
        edges[ev.t] -= 1
    events: List[Dict[str, object]] = []
    for name in sorted(deltas):
        running = 0
        for t in sorted(deltas[name]):
            delta = deltas[name][t]
            if delta == 0:
                continue
            running += delta
            events.append({
                "ph": "C", "pid": 0, "tid": 0,
                "name": f"lock.waiters:{name}",
                "ts": _ts(t), "args": {"value": running},
            })
    return events


def perfetto_trace(obs) -> Dict[str, object]:
    """Build the Chrome ``trace_event`` JSON object for a traced run."""
    events: List[Dict[str, object]] = []
    cores_seen = set()

    def metadata(tid: int, name: str) -> None:
        events.append({
            "ph": "M", "pid": 0, "tid": tid, "name": "thread_name",
            "args": {"name": name},
        })

    events.append({
        "ph": "M", "pid": 0, "tid": 0, "name": "process_name",
        "args": {"name": "repro simulation"},
    })

    records = obs.requests.retained()
    for record in records:
        cores_seen.add(record.core)
        args = {"rid": record.rid, "kind": record.kind,
                "latency_us": round(cycles_to_us(record.latency), 3)}
        args.update({k: v for k, v in record.meta.items()})
        # The request itself: one complete slice on its core's track.
        events.append({
            "ph": "X", "pid": 0, "tid": record.core,
            "name": f"{record.kind} #{record.rid}", "cat": CAT_REQUEST,
            "ts": _ts(record.start), "dur": _dur(record.latency),
            "args": args,
        })
        # Flow start anchored at the request's begin.
        events.append({
            "ph": "s", "pid": 0, "tid": record.core, "id": record.rid,
            "name": "request", "cat": CAT_REQUEST, "ts": _ts(record.start),
        })
        # Stage segments as nested slices (close order preserves nesting
        # for the viewer because complete slices carry explicit ts/dur).
        for name, seg_start, seg_end, depth in record.segments:
            events.append({
                "ph": "X", "pid": 0, "tid": record.core,
                "name": name, "cat": CAT_STAGE,
                "ts": _ts(seg_start), "dur": _dur(seg_end - seg_start),
                "args": {"rid": record.rid, "depth": depth},
            })
        # Lifecycle marks become flow steps: map → copy → translate →
        # unmap → invalidate, all sharing the request's flow id.
        for mark, t in record.marks:
            events.append({
                "ph": "t", "pid": 0, "tid": record.core, "id": record.rid,
                "name": mark, "cat": CAT_REQUEST, "ts": _ts(t),
            })
        events.append({
            "ph": "f", "pid": 0, "tid": record.core, "id": record.rid,
            "name": "request", "cat": CAT_REQUEST, "ts": _ts(record.end),
            "bp": "e",
        })

    for cid in sorted(cores_seen):
        metadata(cid, f"core {cid}")

    # Counter tracks from the metrics time series.
    for name, series in sorted(obs.metrics.time_series.items()):
        for t, value in series.samples:
            events.append({
                "ph": "C", "pid": 0, "tid": 0, "name": name,
                "ts": _ts(t), "args": {"value": value},
            })

    # Derived counter tracks: per-lock waiter counts from the trace.
    events.extend(_lock_waiter_counters(obs))

    # Workload phases on a virtual thread.
    phased = False
    for phase in obs.phases:
        if phase.end is None:
            continue
        phased = True
        events.append({
            "ph": "X", "pid": 0, "tid": PHASE_TID, "name": phase.name,
            "cat": CAT_PHASE, "ts": _ts(phase.start),
            "dur": _dur(phase.end - phase.start),
            "args": {"busy_cycles": phase.busy_cycles},
        })
    if phased:
        metadata(PHASE_TID, "phases")

    events.sort(key=lambda ev: (ev.get("ts", -1.0), ev["tid"]))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {
            "source": "repro.obs.perfetto",
            "requests_exported": len(records),
            "requests_completed": obs.requests.completed,
        },
    }


def write_perfetto(obs, path: str) -> int:
    """Write the trace JSON to ``path``; returns the event count."""
    trace = perfetto_trace(obs)
    with open(path, "w") as fh:
        json.dump(trace, fh, separators=(",", ":"))
    return len(trace["traceEvents"])
