"""Scheduler / task-interleaving tests."""

import pytest

from repro.errors import SimulationError
from repro.hw.cpu import Core
from repro.obs.context import Observability
from repro.obs.trace import EV_SCHED_STEP
from repro.sim.engine import (
    UNIT_DONE,
    CoreTask,
    GeneratorTask,
    Scheduler,
)


def _cores(n):
    return [Core(cid=i, numa_node=0) for i in range(n)]


def test_min_clock_ordering():
    """The core with the smallest clock always runs next."""
    a, b = _cores(2)
    order = []

    def make(core, cycles):
        def step(c):
            order.append(c.cid)
            c.charge(cycles)
            return len(order) < 6
        return step

    # Core 0 is 3× slower, so core 1 should run ~3 steps per core-0 step.
    Scheduler([CoreTask(core=a, step=make(a, 300)),
               CoreTask(core=b, step=make(b, 100))]).run()
    # First two picks are at clock 0 (tie) then clock order dominates.
    assert order.count(1) > order.count(0)


def test_tasks_exhaust():
    a, b = _cores(2)
    counts = {0: 0, 1: 0}

    def make(core, limit):
        def step(c):
            counts[c.cid] += 1
            c.charge(10)
            return counts[c.cid] < limit
        return step

    executed = Scheduler([CoreTask(core=a, step=make(a, 5)),
                          CoreTask(core=b, step=make(b, 3))]).run()
    assert executed == 8
    assert counts == {0: 5, 1: 3}


def test_max_units_cap():
    (a,) = _cores(1)
    sched = Scheduler([CoreTask(core=a, step=lambda c: True)])
    assert sched.run(max_units=7) == 7


def test_duplicate_core_rejected():
    (a,) = _cores(1)
    with pytest.raises(SimulationError):
        Scheduler([CoreTask(core=a, step=lambda c: True),
                   CoreTask(core=a, step=lambda c: True)])


def test_empty_scheduler_rejected():
    with pytest.raises(SimulationError):
        Scheduler([])


def test_generator_task_counts_units():
    (a,) = _cores(1)

    def gen(c):
        for _ in range(3):
            c.charge(5)
            yield            # segment boundary, not a unit
            c.charge(5)
            yield UNIT_DONE  # one unit done

    task = GeneratorTask(core=a, gen=gen(a))
    Scheduler([task]).run()
    assert task.units_done == 3
    assert a.now == 30


def test_generator_interleaves_between_yields():
    """Two generator tasks interleave segment-by-segment, keeping clocks
    close — the property the lock model depends on."""
    a, b = _cores(2)
    trace = []

    def gen(c):
        for i in range(4):
            c.charge(100)
            trace.append((c.cid, i))
            yield

    Scheduler([GeneratorTask(core=a, gen=gen(a)),
               GeneratorTask(core=b, gen=gen(b))]).run()
    # Strict alternation: after each yield the other core (equal clock)
    # gets to run its next segment.
    rounds = [sorted(trace[i:i + 2]) for i in range(0, len(trace), 2)]
    assert rounds == [[(0, i), (1, i)] for i in range(4)]


def test_one_task_per_core_runs_each_to_completion():
    cores = _cores(3)
    done = {c.cid: 0 for c in cores}

    def step(c):
        done[c.cid] += 1
        c.charge(1)
        return done[c.cid] < 2

    sched = Scheduler([CoreTask(core=c, step=step) for c in cores])
    sched.run()
    assert all(task.units_done == 2 for task in sched.tasks)


def test_scheduler_reports_steps_to_its_context():
    """A scheduler built with a context opens a span and traces a
    sched-step event per step."""
    cores = _cores(2)
    obs = Observability.capture(trace_capacity=64)

    def step(c):
        c.charge(10)
        return False

    sched = Scheduler([CoreTask(core=c, step=step) for c in cores], obs=obs)
    sched.run()
    assert sched.obs is obs
    steps = obs.tracer.events(EV_SCHED_STEP)
    assert len(steps) == 2
    assert obs.spans.closed == 2
