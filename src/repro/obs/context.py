"""The observability context threaded through the simulation.

One :class:`Observability` object bundles the run's tracer and metrics
registry.  It hangs off :class:`~repro.hw.machine.Machine` and every
instrumented component (locks, the invalidation queue, the shadow pool,
the DMA API, the NIC driver, the scheduler) reaches it from there.

The default is :data:`NULL_OBS` — a disabled context whose only hot-path
cost is the ``if obs.enabled`` guard — so the tier-1 benchmark numbers
are untouched unless a run opts in with ``Observability.capture()`` (the
CLI's ``--trace`` flag does exactly that).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs.exposure import ExposureAccountant
from repro.obs.locks import LockContentionRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.requests import RequestRecorder
from repro.obs.spans import SpanRecorder
from repro.obs.trace import EV_PHASE, NullTracer, RingTracer


@dataclass
class PhaseRecord:
    """One workload phase (warmup, measure, drain, …) with its footprint."""

    name: str
    start: int
    end: Optional[int] = None
    busy_cycles: int = 0
    breakdown: Dict[str, int] = field(default_factory=dict)

    @property
    def wall_cycles(self) -> int:
        return (self.end - self.start) if self.end is not None else 0


class Observability:
    """Tracer + metrics + spans + phase timeline for one simulated run."""

    def __init__(self, tracer=None):
        self.tracer = tracer if tracer is not None else NullTracer()
        self.metrics = MetricsRegistry()
        #: Hierarchical cycle-attribution recorder (see repro.obs.spans).
        self.spans = SpanRecorder()
        #: Exposure accountant (see repro.obs.exposure): stale windows,
        #: granularity excess, mapped surface, fault forensics.
        self.exposure = ExposureAccountant(metrics=self.metrics,
                                           spans=self.spans)
        #: Request-scoped causal tracing (see repro.obs.requests):
        #: per-request ids, stage timelines, tail-latency attribution.
        self.requests = RequestRecorder()
        #: Per-lock contention matrix (see repro.obs.locks): waiter and
        #: holder cycles by core, waiter→holder hand-off edges.  Feeds
        #: the scalability observatory's contention attribution.
        self.locks = LockContentionRecorder()
        #: Master switch instrumented hot paths guard on.  Disabled (a
        #: :class:`NullTracer`) means neither events, metrics, spans,
        #: nor exposure are recorded.
        self.enabled = self.tracer.enabled
        self.phases: List[PhaseRecord] = []
        if self.enabled:
            # Wire the request recorder into the rest of the layer:
            # spans feed it stages, the tracer stamps events with the
            # active rid, and fault forensics can name in-flight rids.
            self.spans.listener = self.requests
            self.requests.tracer = self.tracer
            if hasattr(self.tracer, "rid_of"):
                self.tracer.rid_of = self.requests.current_rid
            self.exposure.requests = self.requests

    # ------------------------------------------------------------------
    @classmethod
    def null(cls) -> "Observability":
        """A disabled context (what every run gets unless it opts in)."""
        return cls(tracer=NullTracer())

    @classmethod
    def capture(cls, trace_capacity: int = 1 << 16) -> "Observability":
        """An enabled context with a ring tracer of ``trace_capacity``."""
        return cls(tracer=RingTracer(capacity=trace_capacity))

    # ------------------------------------------------------------------
    # Phase timeline (per-phase breakdowns for the timeline renderer).
    # ------------------------------------------------------------------
    def phase_begin(self, name: str, t: int) -> None:
        """Open a workload phase; closes any still-open previous phase."""
        if not self.enabled:
            return
        if self.phases and self.phases[-1].end is None:
            self.phase_end(t)
        self.phases.append(PhaseRecord(name=name, start=t))
        self.tracer.emit(EV_PHASE, t, -1, name=name, edge="begin")

    def phase_end(self, t: int, busy_cycles: int = 0,
                  breakdown: Dict[str, int] | None = None) -> None:
        """Close the open phase, attaching its cycle footprint."""
        if not self.enabled or not self.phases:
            return
        phase = self.phases[-1]
        if phase.end is not None:
            return
        phase.end = t
        phase.busy_cycles = busy_cycles
        if breakdown:
            phase.breakdown = dict(breakdown)
        self.tracer.emit(EV_PHASE, t, -1, name=phase.name, edge="end")


#: Shared disabled context.  Nothing may write through it (every write
#: site guards on ``enabled``), so sharing one instance is safe.
NULL_OBS = Observability.null()
