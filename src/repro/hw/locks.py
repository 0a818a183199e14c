"""Timestamp-based lock models for the discrete-event simulation.

Simulated cores do not run concurrently — the scheduler interleaves them
by local clock — so mutual exclusion is modeled with *timestamps*: a lock
remembers when it next becomes free, and an acquiring core busy-waits
(charging ``spinlock`` cycles) until that instant.  With the min-clock
scheduler this reproduces FIFO ticket-lock behaviour closely enough that
the paper's 16-core invalidation-lock collapse emerges quantitatively.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.hw.cpu import CAT_SPINLOCK, ChargeBatch, Core
from repro.obs import NULL_OBS, SPAN_LOCK_WAIT, Observability
from repro.sim.costmodel import CostModel


@dataclass
class LockStats:
    """Counters a lock accumulates over its lifetime.

    These lifetime aggregates stay for cheap assertions; runs that want
    distributions (wait/hold profiles per lock) enable the observability
    layer, which records wait and hold histograms per lock.
    """

    acquisitions: int = 0
    contended_acquisitions: int = 0
    total_wait_cycles: int = 0
    total_hold_cycles: int = 0

    @property
    def mean_wait_cycles(self) -> float:
        if not self.acquisitions:
            return 0.0
        return self.total_wait_cycles / self.acquisitions


class SpinLock:
    """A ticket-style spinlock living in simulated time.

    Usage::

        lock.acquire(core)
        core.charge(...)          # critical section work
        lock.release(core)

    ``acquire`` spins the core (busy cycles, ``spinlock`` category) until
    the lock's ``free_at`` timestamp, plus a cache-line hand-off penalty
    when the acquisition was contended.
    """

    def __init__(self, name: str, cost: CostModel,
                 obs: Observability | None = None):
        self.name = name
        self.cost = cost
        self.obs = obs if obs is not None else NULL_OBS
        self.free_at: int = 0
        self.stats = LockStats()
        self._holder: Core | None = None
        self._acquired_at: int = 0
        # Core id of the most recent holder.  By the time a waiter
        # observes contention the lock was already released in host
        # order (``_holder`` is None), so holder attribution for the
        # contention matrix needs this one-slot memory.
        self._last_holder_cid: int = -1

    def acquire(self, core: Core) -> None:
        if self._holder is core:
            raise SimulationError(f"lock {self.name}: recursive acquire")
        if self.obs.enabled:
            self.obs.span_begin(SPAN_LOCK_WAIT, core)
        waited = core.spin_until(self.free_at, CAT_SPINLOCK)
        self.stats.acquisitions += 1
        if waited:
            self.stats.contended_acquisitions += 1
            self.stats.total_wait_cycles += waited
            # Cache-line transfer + ticket hand-off.
            core.charge(self.cost.lock_handoff_cycles, CAT_SPINLOCK)
        else:
            # Uncontended fast path: the atomic RMW pair.
            core.charge(self.cost.lock_uncontended_cycles, CAT_SPINLOCK)
        if self.obs.enabled:
            self.obs.lock_acquired(core, self.name, self._last_holder_cid,
                                   waited)
        self._holder = core
        self._acquired_at = core.now

    def release(self, core: Core) -> None:
        if self._holder is not core:
            raise SimulationError(
                f"lock {self.name}: released by non-holder core {core.cid}"
            )
        held = core.now - self._acquired_at
        self.stats.total_hold_cycles += held
        if self.obs.enabled:
            self.obs.lock_released(core, self.name, held)
        self.free_at = core.now
        self._last_holder_cid = core.cid
        self._holder = None

    def note_uncontended(self, core: Core, count: int, at: int) -> None:
        """Account ``count`` uncontended acquire/release pairs by
        ``core`` that held the lock for no cycles, the last one taken at
        ``at``, leaving exactly what the real calls leave.

        For callers that hold back their charges (a
        :class:`~repro.hw.cpu.ChargeBatch`): they charge each pair's
        ``lock_uncontended_cycles`` themselves and pass the clock the
        last acquisition would have read.  Only a lock whose events
        record nothing qualifies — an uncaptured one, or a captured one
        inside ``Observability.exposure_only``
        (``records_beyond_exposure`` is false) — and only while no core
        holds it; a pair the lock would have made wait is refused.
        """
        if self.obs.records_beyond_exposure or self._holder is not None:
            raise SimulationError(f"lock {self.name}: cannot account "
                                  f"acquisitions off the clock")
        if count <= 0:
            return
        if at < self.free_at:
            raise SimulationError(f"lock {self.name}: acquisition at {at} "
                                  f"would wait until {self.free_at}")
        self.stats.acquisitions += count
        self._acquired_at = self.free_at = at
        self._last_holder_cid = core.cid

    @property
    def held(self) -> bool:
        return self._holder is not None


class UncontendedPairs:
    """Acquire/release pairs one core makes, holding nothing while it
    holds a lock, during a run whose charges a
    :class:`~repro.hw.cpu.ChargeBatch` holds back.

    A lock's first pair in the run goes through the lock for real, once
    the held charges are applied, since it may wait for another core's
    release.  After that only this core touches the lock and its clock
    only moves forward, so every later pair is uncontended: :meth:`pair`
    holds its ``lock_uncontended_cycles`` and :meth:`settle` accounts
    the pairs with :meth:`SpinLock.note_uncontended`, so it serves only
    while the locks' events record nothing: an uncaptured run, or ring
    setup inside ``Observability.exposure_only``.  Settle before
    anything else reads the clock or one of the locks.
    """

    def __init__(self, charges: ChargeBatch):
        self.charges = charges
        #: Lock → [pairs held back, clock of the last one].
        self._runs: dict = {}

    def pair(self, lock: SpinLock) -> None:
        """One acquire/release pair on ``lock``."""
        run = self._runs.get(lock)
        if run is None:
            core = self.charges.core
            self.charges.apply()
            lock.acquire(core)
            lock.release(core)
            self._runs[lock] = [0, core.now]
            return
        self.charges.add(lock.cost.lock_uncontended_cycles, CAT_SPINLOCK)
        run[0] += 1
        run[1] = self.charges.now

    def settle(self) -> None:
        """Apply the held charges and account every held pair."""
        self.charges.apply()
        core = self.charges.core
        for lock, (count, at) in self._runs.items():
            lock.note_uncontended(core, count, at)
        self._runs.clear()


class NullLock:
    """Free "lock" for single-core configurations and lock ablations.

    Charges nothing and never waits; keeps the same interface as
    :class:`SpinLock` so call sites need no branching.
    """

    def __init__(self, name: str = "null"):
        self.name = name
        self.stats = LockStats()

    def acquire(self, core: Core) -> None:  # noqa: ARG002 - interface parity
        self.stats.acquisitions += 1

    def release(self, core: Core) -> None:  # noqa: ARG002 - interface parity
        pass

    @property
    def held(self) -> bool:
        return False


@dataclass(eq=False)
class SharedResource:
    """A hardware unit with a serial service queue (e.g. the IOMMU's
    invalidation engine).

    ``occupy`` reserves the resource for ``service_cycles`` starting no
    earlier than the caller's clock and no earlier than the previous
    occupancy's end; it returns the completion timestamp.  Callers decide
    whether to busy-wait on that timestamp (strict mode does; deferred
    mode does not).  Each resource is one unit, compared and hashed by
    identity.
    """

    name: str
    busy_until: int = 0
    completions: int = 0
    total_service_cycles: int = 0
    queue_delay_cycles: int = field(default=0)

    def occupy(self, start: int, service_cycles: int) -> int:
        begin = max(start, self.busy_until)
        self.queue_delay_cycles += begin - start
        end = begin + service_cycles
        self.busy_until = end
        self.completions += 1
        self.total_service_cycles += service_cycles
        return end
