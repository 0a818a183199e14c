"""Min-clock discrete-event scheduler.

The simulation interleaves per-core work units (one packet, one message,
one transaction) in global time order: at every step the runnable core
with the smallest local clock executes its next unit, advancing its clock
through cycle charges and lock waits.  Because locks and shared hardware
resources coordinate through absolute timestamps, this ordering is all
that is needed for contention to resolve deterministically.

Work is supplied as :class:`CoreTask` objects — thin wrappers around a
``step()`` callable that processes one unit and reports whether more work
remains.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, List

from repro.errors import SimulationError
from repro.hw.cpu import Core
from repro.obs import NULL_OBS, SPAN_STEP, Observability


@dataclass
class CoreTask:
    """A stream of work units bound to one core.

    ``step`` runs exactly one unit on ``core`` and returns ``True`` while
    more units remain.  ``units_done`` counts completed steps.
    """

    core: Core
    step: Callable[[Core], bool]
    name: str = "task"
    units_done: int = 0

    def run_one(self) -> bool:
        more = self.step(self.core)
        self.units_done += 1
        return bool(more)


@dataclass
class GeneratorTask:
    """A work stream expressed as a generator, for fine-grained interleaving.

    The generator should ``yield`` at every natural preemption point —
    in particular *between lock acquisitions* (e.g. between the RX and TX
    halves of a transaction).  With coarse, multi-lock atomic steps the
    timestamp-based lock model over-serializes: it remembers only the
    last release, so a behind-clock core would wait out idle gaps it
    could really have used.  Yielding often keeps all core clocks close
    together, where the timestamp model is accurate.
    """

    core: Core
    gen: "object"                   # iterator; each next() is one segment
    name: str = "gen-task"
    units_done: int = 0

    def run_one(self) -> bool:
        try:
            signal = next(self.gen)
        except StopIteration:
            return False
        if signal is not None:      # yield UNIT_DONE to count a unit
            self.units_done += 1
        return True


#: Sentinel a generator yields to mark a completed work unit.
UNIT_DONE = object()

#: Units one task may run per heap pop while it stays the min-clock core.
#: Batching elides a heap push/pop per unit; ``1`` reproduces the classic
#: pop-per-unit loop exactly (the reference the determinism tests use).
DEFAULT_BURST = 64


class Scheduler:
    """Interleaves :class:`CoreTask` streams by smallest core clock."""

    def __init__(self, tasks: Iterable["CoreTask | GeneratorTask"],
                 obs: Observability | None = None):
        self.tasks: List["CoreTask | GeneratorTask"] = list(tasks)
        self.obs = obs if obs is not None else NULL_OBS
        if not self.tasks:
            raise SimulationError("scheduler needs at least one task")
        seen = set()
        for task in self.tasks:
            if task.core.cid in seen:
                raise SimulationError(
                    f"core {task.core.cid} assigned to more than one task"
                )
            seen.add(task.core.cid)

    def run(self, max_units: int | None = None,
            burst: int | None = None) -> int:
        """Run until every task is exhausted (or ``max_units`` steps total).

        A popped task keeps running — up to ``burst`` units (default
        :data:`DEFAULT_BURST`) — while its clock stays *strictly* below
        every other runnable task's, which is exactly when the classic
        pop-per-unit loop would pop it again: on a clock tie the other
        task holds the older heap entry and wins.  Batching is therefore
        cycle- and trace-identical to ``burst=1``.

        Returns the number of work units executed.
        """
        if burst is None:
            burst = DEFAULT_BURST
        if burst < 1:
            raise SimulationError(f"burst must be positive: {burst}")
        counter = itertools.count()
        heap = [(task.core.now, next(counter), task) for task in self.tasks]
        heapq.heapify(heap)
        pop = heapq.heappop
        push = heapq.heappush
        # A traced run records a span and a ``sched.step`` event per unit,
        # even within a burst, so batched traces match step-by-step ones.
        obs = self.obs
        traced = obs.enabled
        executed = 0
        while heap:
            if max_units is not None and executed >= max_units:
                break
            _, _, task = pop(heap)
            core = task.core
            run_one = task.run_one
            # A burst never overruns max_units: the budget is clamped to
            # the remaining allowance before the inner loop starts.
            budget = burst if max_units is None \
                else min(burst, max_units - executed)
            while True:
                if traced:
                    started_at = core.now
                    obs.span_begin(SPAN_STEP, core)
                more = run_one()
                if traced:
                    obs.sched_step(core, started_at, task.name,
                                   task.units_done)
                executed += 1
                budget -= 1
                if not more or budget == 0:
                    break
                if heap and heap[0][0] <= core.now:
                    break
            if more:
                push(heap, (core.now, next(counter), task))
        return executed
