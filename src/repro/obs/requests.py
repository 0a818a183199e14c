"""Request-scoped causal tracing: follow one DMA-carrying unit of work.

Everything else in :mod:`repro.obs` is an aggregate — span tries, cycle
histograms, exposure integrals.  This module adds the per-request lens:
every unit of work that carries a DMA (an RX frame, a TX chunk, a
storage I/O, a memcached transaction) gets a **monotonic request id**
when it begins, and everything that happens on its core until it ends —
spans, trace events, lock waits, invalidation completions, exposure
touches — is linked to that id.  The result is a per-request causal
timeline with stage boundaries (queued → mapped → copied →
device-translated → unmapped → completed), which is what lets the tail
analyzer say *why the p99 packet was slow* ("71% invalidation-lock
wait") instead of only that it was.

Design constraints, shared with the rest of the layer:

* **Zero simulated overhead.**  Recording reads ``core.now``/``core.cid``
  only; it never charges cycles, never takes a simulated lock, never
  advances a clock.  Request-traced runs are cycle-identical to bare
  runs (``tests/obs/test_zero_overhead.py`` proves it).
* **Reached through the context.**  The simulator reports request
  boundaries, marks and lock waits as events to
  :class:`~repro.obs.context.Observability` under ``obs.enabled``; the
  context calls ``begin``/``end``/``mark`` and traces the
  ``req.begin``/``req.end`` events.
* **Bounded memory.**  Latency reservoirs and the retained-record sample
  use stride-doubling decimation; the slowest requests are kept exactly
  in a bounded top-K heap, so the tail report's exemplars always
  reference real, complete traces.

Stage capture follows the spans: the context hands every span it opens
and closes to :meth:`RequestRecorder.on_span_begin` /
:meth:`~RequestRecorder.on_span_end`, and a span that *begins while a
request is active on its core* becomes a stage of that request, with
self-time (exclusive of nested stages) computed online.  Spans already
open when the request begins (e.g. the scheduler's ``step``) are not
attributed to it.

Nesting folds: when a composite request (a memcached transaction) is
active and the driver begins its own rx/tx request on the same core, the
inner ``begin`` joins the enclosing request instead of starting a new
one — the driver's spans become stages of the transaction.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, NamedTuple, Optional, Tuple

# Mirrors repro.sim.units; importing it here would cycle back through
# repro.sim.engine -> repro.obs.context (same dance as obs.exposure).
_CYCLES_PER_US = 2.4e9 / 1e6


def cycles_to_us(cycles: float) -> float:
    return cycles / _CYCLES_PER_US

# Canonical request kinds.  A stable schema, like span names.
REQ_RX = "rx"                  # one received frame through the RX path
REQ_TX = "tx"                  # one transmitted chunk through the TX path
REQ_RR = "rr"                  # one request/response transaction (server side)
REQ_MEMCACHED = "memcached"    # one memcached GET/SET transaction
REQ_STORAGE = "storage"        # one block-device read/write

ALL_REQUEST_KINDS = (REQ_RX, REQ_TX, REQ_RR, REQ_MEMCACHED, REQ_STORAGE)

# Lifecycle marks: point-in-time boundaries inside a request, recorded by
# the DMA API, the shadow copy engine, the NIC, and the invalidation
# queue.  ``queued`` is implicit (the request's begin), ``completed`` its
# end.
MARK_MAPPED = "mapped"                       # dma_map returned
MARK_COPIED = "copied"                       # shadow copy performed
MARK_DEVICE_TRANSLATED = "device_translated"  # device DMA went through
MARK_UNMAPPED = "unmapped"                   # dma_unmap returned
MARK_INVALIDATED = "invalidated"             # IOTLB invalidation completed

ALL_MARKS = (MARK_MAPPED, MARK_COPIED, MARK_DEVICE_TRANSLATED,
             MARK_UNMAPPED, MARK_INVALIDATED)

#: Latency cycles a request spends outside any stage (span) — e.g. the
#: charges a workload makes between driver calls.
STAGE_UNATTRIBUTED = "unattributed"

#: Stages that are *protection* work (what the paper's schemes differ
#: in), as opposed to driver/stack overhead every scheme pays.  The tail
#: analyzer reports the dominant stage overall and the dominant
#: protection stage separately.
PROTECTION_STAGES = frozenset((
    "dma_map", "dma_unmap", "pool_acquire", "pool_release", "copy",
    "iotlb_invalidate", "lock_wait",
))

#: Latency reservoir cap per kind; beyond it the reservoir decimates
#: (keep every other sample) and doubles its stride.
_LATENCY_CAP = 1 << 14

#: Retained full-record sample cap (stride-doubling, like the reservoir).
_SAMPLE_CAP = 1024

#: Exact top-K slowest requests kept per kind (tail exemplars).
_SLOWEST_CAP = 32

#: Per-request bounds on the causal detail we retain.
_MAX_SEGMENTS = 256
_MAX_MARKS = 64


class RequestRecord(NamedTuple):
    """One completed request: latency, stage profile, causal timeline."""

    rid: int
    kind: str
    core: int
    start: int
    end: int
    #: Flat stage profile: span name -> *self* cycles (exclusive of
    #: nested stages), plus :data:`STAGE_UNATTRIBUTED`.
    stages: Dict[str, int]
    #: Causal timeline: ``(stage, start, end, depth)`` in close order.
    segments: Tuple[Tuple[str, int, int, int], ...]
    #: Lifecycle marks: ``(name, t)`` in occurrence order.
    marks: Tuple[Tuple[str, int], ...]
    #: Per-lock wait cycles (e.g. the qi-lock behind ``lock_wait``).
    locks: Dict[str, int]
    meta: Dict[str, object]

    @property
    def latency(self) -> int:
        return self.end - self.start

    def to_dict(self) -> Dict[str, object]:
        return {
            "rid": self.rid,
            "kind": self.kind,
            "core": self.core,
            "start": self.start,
            "end": self.end,
            "latency_cycles": self.latency,
            "latency_us": round(cycles_to_us(self.latency), 3),
            "stages": dict(self.stages),
            "segments": [list(seg) for seg in self.segments],
            "marks": [list(mark) for mark in self.marks],
            "locks": dict(self.locks),
            "meta": dict(self.meta),
        }


class _ActiveRequest:
    """Mutable in-flight request state (one per core at most)."""

    __slots__ = ("rid", "kind", "core", "start", "depth", "meta",
                 "stage_stack", "stages", "segments", "marks", "locks",
                 "top_cycles")

    def __init__(self, rid: int, kind: str, core: int, start: int,
                 meta: Dict[str, object]):
        self.rid = rid
        self.kind = kind
        self.core = core
        self.start = start
        self.depth = 0
        self.meta = meta
        #: Open stages: ``[name, opened_at, child_cycles]`` entries.
        self.stage_stack: List[List[object]] = []
        self.stages: Dict[str, int] = {}
        self.segments: List[Tuple[str, int, int, int]] = []
        self.marks: List[Tuple[str, int]] = []
        self.locks: Dict[str, int] = {}
        #: Cycles covered by top-level (depth-0) stages; the remainder of
        #: the latency is :data:`STAGE_UNATTRIBUTED`.
        self.top_cycles = 0


class _KindAggregate:
    """Streaming per-kind aggregates + bounded retention."""

    __slots__ = ("count", "total_latency", "max_latency", "latencies",
                 "_lat_stride", "_lat_skip", "stage_cycles", "lock_cycles",
                 "slowest", "_heap_seq")

    def __init__(self) -> None:
        self.count = 0
        self.total_latency = 0
        self.max_latency = 0
        self.latencies: List[int] = []
        self._lat_stride = 1
        self._lat_skip = 0
        self.stage_cycles: Dict[str, int] = {}
        self.lock_cycles: Dict[str, int] = {}
        #: Min-heap of ``(latency, seq, record)`` capped at _SLOWEST_CAP.
        self.slowest: List[Tuple[int, int, RequestRecord]] = []
        self._heap_seq = 0

    def observe(self, record: RequestRecord) -> None:
        latency = record.latency
        self.count += 1
        self.total_latency += latency
        if latency > self.max_latency:
            self.max_latency = latency
        # Stride-decimated latency reservoir (deterministic, bounded).
        self._lat_skip += 1
        if self._lat_skip >= self._lat_stride:
            self._lat_skip = 0
            self.latencies.append(latency)
            if len(self.latencies) >= _LATENCY_CAP:
                self.latencies = self.latencies[::2]
                self._lat_stride *= 2
        for stage, cycles in record.stages.items():
            self.stage_cycles[stage] = \
                self.stage_cycles.get(stage, 0) + cycles
        for lock, cycles in record.locks.items():
            self.lock_cycles[lock] = self.lock_cycles.get(lock, 0) + cycles
        # Exact top-K slowest (the tail report's exemplars).
        self._heap_seq += 1
        entry = (latency, self._heap_seq, record)
        if len(self.slowest) < _SLOWEST_CAP:
            heapq.heappush(self.slowest, entry)
        elif latency > self.slowest[0][0]:
            heapq.heapreplace(self.slowest, entry)


def _quantile(sorted_values: List[int], percentile: float) -> int:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0
    rank = math.ceil(percentile / 100.0 * len(sorted_values))
    index = min(len(sorted_values) - 1, max(0, rank - 1))
    return sorted_values[index]


class RequestRecorder:
    """Assigns request ids and folds spans/marks/locks into them.

    One recorder hangs off every :class:`~repro.obs.context.Observability`
    as ``obs.requests``, which also hands it every span: spans that begin
    while a request is active on their core become that request's stages.
    """

    def __init__(self) -> None:
        self._next_rid = 1
        #: Core id -> its in-flight request (the context stamps trace
        #: events with the ``rid`` found here).
        self.active: Dict[int, _ActiveRequest] = {}
        self.started = 0
        self.completed = 0
        self._kinds: Dict[str, _KindAggregate] = {}
        #: Stride-decimated sample of full records across all kinds.
        self._sample: List[RequestRecord] = []
        self._sample_stride = 1
        self._sample_skip = 0

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def begin(self, core, kind: str, **meta: object) -> int:
        """Open a request of ``kind`` on ``core``; returns its id.

        If a request is already active on the core (a composite request
        like a memcached transaction wrapping the driver's rx/tx), the
        call *folds into* it: no new id is assigned and the matching
        :meth:`end` simply unwinds the nesting.
        """
        active = self.active.get(core.cid)
        if active is not None:
            active.depth += 1
            return active.rid
        rid = self._next_rid
        self._next_rid += 1
        self.active[core.cid] = _ActiveRequest(
            rid=rid, kind=kind, core=core.cid, start=core.now,
            meta=dict(meta))
        self.started += 1
        return rid

    def end(self, core) -> Optional[RequestRecord]:
        """Close the request on ``core``; returns the record when the
        outermost nesting level closed (``None`` otherwise)."""
        active = self.active.get(core.cid)
        if active is None:
            return None
        if active.depth > 0:
            active.depth -= 1
            return None
        end = core.now
        # Stages still open at request end (e.g. a scheduler step that
        # outlives the request): attribute what elapsed inside the
        # request so the stage sum + unattributed equals the latency.
        stack = active.stage_stack
        while stack:
            name, opened_at, child = stack.pop()
            duration = end - opened_at
            active.stages[name] = (active.stages.get(name, 0)
                                   + duration - child)
            if stack:
                stack[-1][2] += duration
            else:
                active.top_cycles += duration
        latency = end - active.start
        unattributed = latency - active.top_cycles
        if unattributed > 0:
            active.stages[STAGE_UNATTRIBUTED] = \
                active.stages.get(STAGE_UNATTRIBUTED, 0) + unattributed
        record = RequestRecord(
            active.rid, active.kind, active.core, active.start, end,
            active.stages, tuple(active.segments), tuple(active.marks),
            active.locks, active.meta)
        del self.active[core.cid]
        self.completed += 1
        aggregate = self._kinds.get(active.kind)
        if aggregate is None:
            aggregate = self._kinds[active.kind] = _KindAggregate()
        aggregate.observe(record)
        self._sample_skip += 1
        if self._sample_skip >= self._sample_stride:
            self._sample_skip = 0
            self._sample.append(record)
            if len(self._sample) >= _SAMPLE_CAP:
                self._sample = self._sample[::2]
                self._sample_stride *= 2
        return record

    def mark(self, core, name: str) -> None:
        """Record a lifecycle mark on the core's active request."""
        active = self.active.get(core.cid)
        if active is not None and len(active.marks) < _MAX_MARKS:
            active.marks.append((name, core.now))

    def note_lock_wait(self, core, lock_name: str, waited: int) -> None:
        """Attribute a contended lock wait to the active request."""
        active = self.active.get(core.cid)
        if active is not None:
            active.locks[lock_name] = \
                active.locks.get(lock_name, 0) + waited

    def current_rid(self, cid: int) -> Optional[int]:
        """The active request id on core ``cid`` (tracer linkage)."""
        active = self.active.get(cid)
        return active.rid if active is not None else None

    def active_rids(self) -> Dict[int, int]:
        """Per-core active request ids (fault forensics)."""
        return {cid: active.rid for cid, active in self.active.items()}

    # ------------------------------------------------------------------
    # Stage capture (every span the context opens and closes).
    # ------------------------------------------------------------------
    def on_span_begin(self, cid: int, name: str, t: int) -> None:
        active = self.active.get(cid)
        if active is not None:
            active.stage_stack.append([name, t, 0])

    def on_span_end(self, cid: int, name: str, opened_at: int,
                    t: int) -> None:
        active = self.active.get(cid)
        if active is None:
            return
        stack = active.stage_stack
        if not stack:
            return      # span opened before the request began
        top = stack[-1]
        if top[0] != name or top[1] != opened_at:
            return      # closing a span that predates the request
        stack.pop()
        duration = t - opened_at
        active.stages[name] = (active.stages.get(name, 0)
                               + duration - top[2])
        if stack:
            stack[-1][2] += duration
        else:
            active.top_cycles += duration
        if len(active.segments) < _MAX_SEGMENTS:
            active.segments.append((name, opened_at, t, len(stack)))

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------
    @property
    def open_requests(self) -> int:
        return len(self.active)

    def kinds(self) -> Tuple[str, ...]:
        return tuple(sorted(self._kinds))

    def retained(self, kind: Optional[str] = None) -> List[RequestRecord]:
        """All retained full records (sample + exact slowest), deduped
        by id and sorted by start time."""
        by_rid: Dict[int, RequestRecord] = {}
        for record in self._sample:
            if kind is None or record.kind == kind:
                by_rid[record.rid] = record
        for name, aggregate in self._kinds.items():
            if kind is not None and name != kind:
                continue
            for _, _, record in aggregate.slowest:
                by_rid[record.rid] = record
        return sorted(by_rid.values(), key=lambda r: (r.start, r.rid))

    def latencies(self, kind: Optional[str] = None) -> List[int]:
        """Ascending retained latencies (for percentile queries)."""
        if kind is not None:
            aggregate = self._kinds.get(kind)
            return sorted(aggregate.latencies) if aggregate else []
        merged: List[int] = []
        for aggregate in self._kinds.values():
            merged.extend(aggregate.latencies)
        merged.sort()
        return merged

    def percentile(self, p: float,
                   kind: Optional[str] = None) -> int:
        """Nearest-rank latency percentile in cycles."""
        return _quantile(self.latencies(kind), p)

    # ------------------------------------------------------------------
    # Summaries.
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """JSON-friendly aggregate (rides in ``extras['requests']``)."""
        kinds: Dict[str, object] = {}
        for name in sorted(self._kinds):
            aggregate = self._kinds[name]
            lats = sorted(aggregate.latencies)
            cycles = {
                "p50": _quantile(lats, 50.0),
                "p90": _quantile(lats, 90.0),
                "p99": _quantile(lats, 99.0),
                "p999": _quantile(lats, 99.9),
                "max": aggregate.max_latency,
                "mean": (round(aggregate.total_latency / aggregate.count, 1)
                         if aggregate.count else 0.0),
            }
            kinds[name] = {
                "count": aggregate.count,
                "latency_cycles": cycles,
                "latency_us": {key: round(cycles_to_us(value), 3)
                               for key, value in cycles.items()},
                "stages": dict(sorted(aggregate.stage_cycles.items(),
                                      key=lambda kv: -kv[1])),
                "locks": dict(sorted(aggregate.lock_cycles.items(),
                                     key=lambda kv: -kv[1])),
            }
        merged = self.latencies()
        count = sum(agg.count for agg in self._kinds.values())
        overall = {
            "count": count,
            "p50_us": round(cycles_to_us(_quantile(merged, 50.0)), 3),
            "p90_us": round(cycles_to_us(_quantile(merged, 90.0)), 3),
            "p99_us": round(cycles_to_us(_quantile(merged, 99.0)), 3),
            "p999_us": round(cycles_to_us(_quantile(merged, 99.9)), 3),
            "max_us": round(cycles_to_us(
                max((agg.max_latency for agg in self._kinds.values()),
                    default=0)), 3),
        }
        return {
            "started": self.started,
            "completed": self.completed,
            "open": self.open_requests,
            "kinds": kinds,
            "overall": overall,
        }


# ----------------------------------------------------------------------
# Critical-path / tail analysis.
# ----------------------------------------------------------------------
def _profile(records: List[RequestRecord]) -> Dict[str, float]:
    """Stage shares of the cohort's total latency (sums to ~1.0)."""
    totals: Dict[str, int] = {}
    latency_sum = 0
    for record in records:
        latency_sum += record.latency
        for stage, cycles in record.stages.items():
            totals[stage] = totals.get(stage, 0) + cycles
    if not latency_sum:
        return {}
    return {stage: cycles / latency_sum
            for stage, cycles in sorted(totals.items(),
                                        key=lambda kv: -kv[1])}


def _dominant(profile: Dict[str, float],
              allowed: Optional[frozenset] = None) -> Optional[str]:
    best, best_share = None, 0.0
    for stage, share in profile.items():
        if stage == STAGE_UNATTRIBUTED:
            continue
        if allowed is not None and stage not in allowed:
            continue
        if share > best_share:
            best, best_share = stage, share
    return best


def tail_report(recorder: RequestRecorder, kind: Optional[str] = None,
                percentile: float = 99.0) -> Optional[Dict[str, object]]:
    """Attribute the tail cohort's cycles to stages and diff vs median.

    Returns ``None`` when no request completed.  The tail cohort is
    every retained record at or above the latency percentile; the median
    cohort everything at or below p50.  ``dominant_stage`` is the stage
    with the largest share of the tail cohort's latency (instrumented
    stages only — ``unattributed`` is reported but never blamed);
    ``dominant_protection_stage`` restricts the choice to
    :data:`PROTECTION_STAGES`, i.e. what the paper's schemes differ in.
    """
    lats = recorder.latencies(kind)
    if not lats:
        return None
    threshold = _quantile(lats, percentile)
    p50 = _quantile(lats, 50.0)
    records = recorder.retained(kind)
    tail = [r for r in records if r.latency >= threshold]
    median = [r for r in records if r.latency <= p50]
    tail_profile = _profile(tail)
    median_profile = _profile(median)
    stages = set(tail_profile) | set(median_profile)
    diff = {stage: round(tail_profile.get(stage, 0.0)
                         - median_profile.get(stage, 0.0), 4)
            for stage in sorted(
                stages, key=lambda s: -(tail_profile.get(s, 0.0)
                                        - median_profile.get(s, 0.0)))}
    tail_locks: Dict[str, int] = {}
    for record in tail:
        for lock, cycles in record.locks.items():
            tail_locks[lock] = tail_locks.get(lock, 0) + cycles
    exemplars = sorted(tail, key=lambda r: -r.latency)[:3]
    return {
        "kind": kind,
        "percentile": percentile,
        "completed": recorder.completed,
        "threshold_cycles": threshold,
        "threshold_us": round(cycles_to_us(threshold), 3),
        "p50_cycles": p50,
        "tail_count": len(tail),
        "median_count": len(median),
        "tail_profile": {s: round(v, 4) for s, v in tail_profile.items()},
        "median_profile": {s: round(v, 4)
                           for s, v in median_profile.items()},
        "profile_diff": diff,
        "dominant_stage": _dominant(tail_profile),
        "dominant_protection_stage": _dominant(tail_profile,
                                               PROTECTION_STAGES),
        "tail_locks": dict(sorted(tail_locks.items(),
                                  key=lambda kv: -kv[1])),
        "exemplars": [record.to_dict() for record in exemplars],
    }


def parse_percentile(text: str) -> float:
    """``"p99"``/``"99"``/``"p99.9"`` → ``99.0``/``99.9`` (CLI helper)."""
    raw = text.strip().lower()
    if raw.startswith("p"):
        raw = raw[1:]
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"not a percentile: {text!r}")
    if not 0.0 < value < 100.0:
        raise ValueError(f"percentile out of range (0, 100): {text!r}")
    return value
