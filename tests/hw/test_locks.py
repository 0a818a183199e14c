"""Timestamp lock and shared-resource model tests."""

import pytest

from repro.errors import SimulationError
from repro.hw.cpu import CAT_SPINLOCK, ChargeBatch, Core
from repro.hw.locks import NullLock, SharedResource, SpinLock
from repro.obs.context import NULL_OBS, Observability
from repro.sim.costmodel import CostModel


@pytest.fixture
def cost():
    return CostModel()


def _cores(n):
    return [Core(cid=i, numa_node=0) for i in range(n)]


def test_uncontended_acquire_is_cheap(cost):
    (a,) = _cores(1)
    lock = SpinLock("l", cost)
    lock.acquire(a)
    assert a.busy_cycles == cost.lock_uncontended_cycles
    lock.release(a)
    assert lock.stats.contended_acquisitions == 0


def test_contended_acquire_spins(cost):
    a, b = _cores(2)
    lock = SpinLock("l", cost)
    lock.acquire(a)
    a.charge(1000)           # critical section
    lock.release(a)
    # b arrives "earlier" in its local time and must spin to free_at.
    lock.acquire(b)
    assert b.now >= 1000 + cost.lock_uncontended_cycles
    assert b.breakdown[CAT_SPINLOCK] > 0
    assert lock.stats.contended_acquisitions == 1
    assert lock.stats.total_wait_cycles >= 1000
    lock.release(b)


def test_serialization_chain(cost):
    """N cores passing the lock serialize: total span ≥ N × hold."""
    cores = _cores(4)
    lock = SpinLock("l", cost)
    hold = 500
    for c in cores:
        lock.acquire(c)
        c.charge(hold)
        lock.release(c)
    assert cores[-1].now >= 4 * hold


def test_recursive_acquire_rejected(cost):
    (a,) = _cores(1)
    lock = SpinLock("l", cost)
    lock.acquire(a)
    with pytest.raises(SimulationError):
        lock.acquire(a)


def test_release_by_non_holder_rejected(cost):
    a, b = _cores(2)
    lock = SpinLock("l", cost)
    lock.acquire(a)
    with pytest.raises(SimulationError):
        lock.release(b)


def test_hold_time_recorded(cost):
    (a,) = _cores(1)
    lock = SpinLock("l", cost)
    lock.acquire(a)
    a.charge(777)
    lock.release(a)
    assert lock.stats.total_hold_cycles == 777
    assert not lock.held


def test_null_lock_is_free():
    (a,) = _cores(1)
    lock = NullLock()
    lock.acquire(a)
    lock.release(a)
    assert a.now == 0
    assert lock.stats.acquisitions == 1
    assert not lock.held


def test_mean_wait(cost):
    stats = SpinLock("l", cost).stats
    assert stats.mean_wait_cycles == 0.0


def test_shared_resource_serializes():
    hw = SharedResource("inv-hw")
    end1 = hw.occupy(start=0, service_cycles=100)
    assert end1 == 100
    # A request arriving at t=50 queues behind the first.
    end2 = hw.occupy(start=50, service_cycles=100)
    assert end2 == 200
    assert hw.queue_delay_cycles == 50
    # A request arriving after the resource idles starts immediately.
    end3 = hw.occupy(start=500, service_cycles=10)
    assert end3 == 510
    assert hw.completions == 3
    assert hw.total_service_cycles == 210


# ----------------------------------------------------------------------
# SpinLock.note_uncontended: pairs accounted off the clock.
# ----------------------------------------------------------------------
def _lock_image(lock):
    return (vars(lock.stats), lock.free_at, lock._acquired_at,
            lock._last_holder_cid, lock.held)


@pytest.mark.parametrize("context", ["uncaptured", "exposure-only"])
def test_note_uncontended_matches_real_pairs(cost, context):
    """Pairs noted off the clock leave the lock and the core as the
    same pairs made through the lock: stats, ``free_at``, the last
    holder.  Inside ``exposure_only`` no lock event records, so a
    captured lock qualifies there too, and its recorders stay empty."""
    obs = NULL_OBS if context == "uncaptured" else Observability.capture()
    real_core, noted_core = Core(cid=3, numa_node=0), Core(cid=3, numa_node=0)
    real = SpinLock("l", cost, obs=obs)
    noted = SpinLock("l", cost, obs=obs)
    with obs.exposure_only():
        for core, lock in ((real_core, real), (noted_core, noted)):
            core.charge(500)
            lock.acquire(core)   # a first pair, as UncontendedPairs makes
            core.charge(40)
            lock.release(core)
        for _ in range(5):
            real_core.charge(70)
            real.acquire(real_core)
            real.release(real_core)
        charges = ChargeBatch(noted_core)
        for _ in range(5):
            charges.add(70)
            charges.add(cost.lock_uncontended_cycles, CAT_SPINLOCK)
            at = charges.now
        charges.apply()
        noted.note_uncontended(noted_core, 5, at)
    assert _lock_image(noted) == _lock_image(real)
    assert noted.stats.acquisitions == 6
    assert (noted_core.now, noted_core.busy_cycles,
            dict(noted_core.breakdown)) == \
        (real_core.now, real_core.busy_cycles, dict(real_core.breakdown))
    if obs.enabled:
        assert not obs.locks.snapshot()
        assert not obs.spans.tree().children
        assert len(obs.tracer) == 0


def test_note_uncontended_refuses_a_context_that_records_locks(cost):
    (a,) = _cores(1)
    lock = SpinLock("l", cost, obs=Observability.capture())
    with pytest.raises(SimulationError, match="off the clock"):
        lock.note_uncontended(a, 1, 0)
    assert lock.stats.acquisitions == 0


def test_note_uncontended_refuses_a_held_lock(cost):
    a, b = _cores(2)
    lock = SpinLock("l", cost)
    lock.acquire(a)
    with pytest.raises(SimulationError, match="off the clock"):
        lock.note_uncontended(b, 1, a.now)
    assert lock.stats.acquisitions == 1


def test_note_uncontended_refuses_a_pair_that_would_wait(cost):
    a, b = _cores(2)
    lock = SpinLock("l", cost)
    a.charge(1000)
    lock.acquire(a)
    lock.release(a)
    with pytest.raises(SimulationError, match="would wait"):
        lock.note_uncontended(b, 2, lock.free_at - 1)
    assert lock.stats.acquisitions == 1
    assert lock._last_holder_cid == a.cid
