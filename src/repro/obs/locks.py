"""Per-lock contention accounting: who waited, on whom, for how long.

:class:`LockStats` (repro.hw.locks) keeps lifetime totals per lock;
the metrics registry keeps wait/hold *distributions*.  What neither can
answer is the scalability question the paper's multicore collapse turns
on: *which cores* queue on a lock, *which core* they queue behind, and
how the wait burden is distributed across the machine.  This module
records exactly that — a bounded per-lock matrix of waiter and holder
cycles plus waiter→holder hand-off edges — and :mod:`repro.obs.scaling`
derives the contention matrix of the scale report from it.

Design constraints (shared with the rest of :mod:`repro.obs`):

* **Zero simulated overhead.**  Recording reads ``core.now`` and writes
  host memory; it never charges cycles (``tests/obs/test_zero_overhead``
  covers the hooks).
* **Reached through the context.**  :class:`~repro.hw.locks.SpinLock`
  reports acquisitions and releases to
  :class:`~repro.obs.context.Observability` under ``obs.enabled``, which
  calls ``note_acquire`` / ``note_release``.
* **Bounded memory.**  O(locks × cores) aggregates — independent of run
  length, so a 64-core soak costs the same as a smoke run.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Tuple


class LockContentionStats:
    """Aggregated contention state of one named lock."""

    __slots__ = ("name", "acquisitions", "contended", "total_wait_cycles",
                 "total_hold_cycles", "wait_by_core", "hold_by_core",
                 "acquisitions_by_core", "handoff_edges", "max_wait_cycles",
                 "max_wait_at", "max_wait_core")

    def __init__(self, name: str):
        self.name = name
        self.acquisitions = 0
        self.contended = 0
        self.total_wait_cycles = 0
        self.total_hold_cycles = 0
        #: cid -> cycles spent spinning on this lock.
        self.wait_by_core: Counter = Counter()
        #: cid -> cycles spent holding this lock.
        self.hold_by_core: Counter = Counter()
        #: cid -> acquisitions (contended or not).
        self.acquisitions_by_core: Counter = Counter()
        #: (waiter cid, previous holder cid) -> contended hand-offs.
        self.handoff_edges: Counter = Counter()
        self.max_wait_cycles = 0
        self.max_wait_at = 0
        self.max_wait_core = -1

    # ------------------------------------------------------------------
    @property
    def contention_ratio(self) -> float:
        """Fraction of acquisitions that had to spin."""
        if not self.acquisitions:
            return 0.0
        return self.contended / self.acquisitions

    @property
    def mean_wait_cycles(self) -> float:
        if not self.contended:
            return 0.0
        return self.total_wait_cycles / self.contended

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly snapshot (deterministically ordered)."""
        return {
            "name": self.name,
            "acquisitions": self.acquisitions,
            "contended": self.contended,
            "total_wait_cycles": self.total_wait_cycles,
            "total_hold_cycles": self.total_hold_cycles,
            "wait_by_core": {str(cid): c for cid, c
                             in sorted(self.wait_by_core.items())},
            "hold_by_core": {str(cid): c for cid, c
                             in sorted(self.hold_by_core.items())},
            "acquisitions_by_core": {
                str(cid): c for cid, c
                in sorted(self.acquisitions_by_core.items())},
            "handoff_edges": {f"{w}->{h}": c for (w, h), c
                              in sorted(self.handoff_edges.items())},
            "max_wait_cycles": self.max_wait_cycles,
            "max_wait_at": self.max_wait_at,
            "max_wait_core": self.max_wait_core,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "LockContentionStats":
        """Rebuild a snapshot (scale records load these post-hoc)."""
        stats = cls(str(data["name"]))
        stats.acquisitions = int(data.get("acquisitions", 0))
        stats.contended = int(data.get("contended", 0))
        stats.total_wait_cycles = int(data.get("total_wait_cycles", 0))
        stats.total_hold_cycles = int(data.get("total_hold_cycles", 0))
        for key, target in (("wait_by_core", stats.wait_by_core),
                            ("hold_by_core", stats.hold_by_core),
                            ("acquisitions_by_core",
                             stats.acquisitions_by_core)):
            for cid, cycles in data.get(key, {}).items():  # type: ignore
                target[int(cid)] = int(cycles)
        for edge, count in data.get("handoff_edges", {}).items():  # type: ignore
            waiter, holder = edge.split("->")
            stats.handoff_edges[(int(waiter), int(holder))] = int(count)
        stats.max_wait_cycles = int(data.get("max_wait_cycles", 0))
        stats.max_wait_at = int(data.get("max_wait_at", 0))
        stats.max_wait_core = int(data.get("max_wait_core", -1))
        return stats


class LockContentionRecorder:
    """All locks' contention state for one observed run (``obs.locks``)."""

    __slots__ = ("locks",)

    def __init__(self) -> None:
        self.locks: Dict[str, LockContentionStats] = {}

    # ------------------------------------------------------------------
    def _lock(self, name: str) -> LockContentionStats:
        stats = self.locks.get(name)
        if stats is None:
            stats = self.locks[name] = LockContentionStats(name)
        return stats

    def note_acquire(self, name: str, waiter_cid: int, holder_cid: int,
                     waited: int, now: int) -> None:
        """One acquisition; ``waited > 0`` means it was contended, with
        ``holder_cid`` the core whose critical section blocked it
        (``-1`` when unknown, e.g. the lock's very first acquisition)."""
        stats = self.locks.get(name) or self._lock(name)
        stats.acquisitions += 1
        stats.acquisitions_by_core[waiter_cid] += 1
        if waited <= 0:
            return
        stats.contended += 1
        stats.total_wait_cycles += waited
        stats.wait_by_core[waiter_cid] += waited
        stats.handoff_edges[(waiter_cid, holder_cid)] += 1
        if waited > stats.max_wait_cycles:
            stats.max_wait_cycles = waited
            stats.max_wait_at = now
            stats.max_wait_core = waiter_cid

    def note_release(self, name: str, holder_cid: int, held: int) -> None:
        """One release: attribute the hold time to the holding core."""
        stats = self.locks.get(name) or self._lock(name)
        stats.total_hold_cycles += held
        stats.hold_by_core[holder_cid] += held

    # ------------------------------------------------------------------
    @property
    def total_wait_cycles(self) -> int:
        return sum(s.total_wait_cycles for s in self.locks.values())

    def by_wait(self) -> List[LockContentionStats]:
        """Locks ordered by total wait burden (the contention ranking)."""
        return sorted(self.locks.values(),
                      key=lambda s: (-s.total_wait_cycles, s.name))

    def get(self, name: str) -> Optional[LockContentionStats]:
        return self.locks.get(name)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-friendly dump of every lock, sorted by name."""
        return {name: self.locks[name].to_dict()
                for name in sorted(self.locks)}

    def clear(self) -> None:
        self.locks.clear()


def load_snapshot(data: Dict[str, Dict[str, object]]
                  ) -> Dict[str, LockContentionStats]:
    """Rebuild a :meth:`LockContentionRecorder.snapshot` dump."""
    return {name: LockContentionStats.from_dict(entry)
            for name, entry in data.items()}


def top_edges(stats: LockContentionStats,
              limit: int = 3) -> List[Tuple[int, int, int]]:
    """The busiest waiter→holder hand-off edges: (waiter, holder, count)."""
    ranked = sorted(stats.handoff_edges.items(),
                    key=lambda kv: (-kv[1], kv[0]))
    return [(waiter, holder, count)
            for (waiter, holder), count in ranked[:limit]]
