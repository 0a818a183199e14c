"""IOMMU invalidation queue with a contention-aware hardware model.

The queue reproduces the two costs §2.2.1 identifies:

1. *The hardware is slow* — an invalidation takes ≈0.61 µs with an idle
   queue and degrades to ≈2.7 µs when many cores submit concurrently
   (Fig. 8a).  Concurrency is estimated from a sliding time window of
   recent submissions, so the degradation appears and disappears with the
   actual workload.
2. *The queue is serialized by a lock* — all submissions funnel through a
   single spinlock (``qi_lock``), which under strict protection becomes
   the multicore bottleneck (≈70 µs of spinning per packet at 16 cores).

Functionally, an invalidation removes entries from the :class:`Iotlb`
*when it executes*: synchronously inside :meth:`invalidate_sync`, or at
batch-flush time for deferred protection — this is exactly what creates
(and bounds) the deferred vulnerability window.

Scalable invalidation
---------------------
The paper's bottleneck is the *single* queue, not invalidation per se.
:class:`PerCoreInvalidationQueue` models the post-2016 remedies as a
sharded front end over the same hardware:

* each core owns a shard (its own descriptor ring + lock), so strict
  unmaps stop funneling through one spinlock;
* the shared hardware walks the rings round-robin and retires
  descriptors in a pipeline: occupancy per descriptor is the small
  dispatch slot (``invq_percore_service_cycles``), while the submitter
  still observes at least the idle completion latency.  The Fig. 8a
  concurrency degradation is a property of the shared-ring design
  (every submitter contending on one tail register) and does not apply
  to per-core rings — cf. Kurth et al.'s MMU-aware DMA engine.
  Degradation under saturation still *emerges* here, from the shared
  engine's queueing delay.

Independent of sharding, :meth:`InvalidationQueue.invalidate_ranges_sync`
and the ranged :meth:`InvalidationQueue.flush_batch` path post *ranged*
descriptors — coalesced contiguous page runs, per domain — instead of
page-at-a-time or global flushes, with a descriptor/page cost curve in
the :class:`~repro.sim.costmodel.CostModel`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterable, List, Sequence, Tuple

from repro.faults.injector import NULL_FAULTS
from repro.faults.plan import SITE_INV_STALL
from repro.hw.cpu import CAT_INVALIDATE, Core
from repro.hw.locks import NullLock, SharedResource, SpinLock
from repro.iommu.iotlb import Iotlb
from repro.obs import NULL_OBS, SPAN_IOTLB_INVALIDATE, Observability
from repro.sim.costmodel import CostModel
from repro.sim.units import us_to_cycles

#: Sliding window (cycles) over which concurrent submitters are counted.
_CONCURRENCY_WINDOW_CYCLES = us_to_cycles(64.0)

#: Recovery policy for wait descriptors that never retire (injected via
#: the ``inv.stall`` fault site): spin this long before declaring a
#: timeout, back off idling (exponentially) between bounded re-submits,
#: then reset the queue and flush the whole IOTLB as a last resort.
_STALL_TIMEOUT_CYCLES = us_to_cycles(10.0)
_STALL_BACKOFF_CYCLES = us_to_cycles(2.0)
_STALL_MAX_RETRIES = 3


def _in_window(t: int, horizon: int) -> bool:
    """THE window predicate: a submission at ``t`` counts iff it is at or
    after ``horizon``.  Eviction and counting must both use this (and its
    exact negation) or the two sides of the window disagree about
    submissions landing exactly on the boundary."""
    return t >= horizon


def coalesce_pages(pages: Iterable[int]) -> List[Tuple[int, int]]:
    """Coalesce page numbers into maximal contiguous ``(start, npages)``
    runs — the unit a *ranged* invalidation descriptor names.

    Input need not be sorted or unique; output runs are sorted and
    disjoint.  This is plain arithmetic on host ints: callers charge the
    per-descriptor CPU cost via the cost model, not per loop iteration.
    """
    runs: List[Tuple[int, int]] = []
    start = prev = None
    for page in sorted(set(pages)):
        if start is None:
            start = prev = page
            continue
        if page == prev + 1:
            prev = page
            continue
        runs.append((start, prev - start + 1))
        start = prev = page
    if start is not None:
        runs.append((start, prev - start + 1))
    return runs


@dataclass(frozen=True)
class PendingInvalidation:
    """One queued (deferred) invalidation: a page range in a domain."""

    domain_id: int
    iova_page: int
    npages: int
    queued_at: int


class InvalidationQueue:
    """The IOMMU's command queue for IOTLB invalidations.

    With ``pipelined=False`` (the default, the paper's shared ring) the
    hardware is occupied for the full observed latency of every
    descriptor, and submitter concurrency degrades that latency per
    Fig. 8a.  With ``pipelined=True`` (a per-core shard; see module
    docstring) occupancy per descriptor is only the dispatch slot and
    the Fig. 8a degradation does not apply — queueing delay on the
    shared engine is what remains.  Pass ``hardware`` to share one
    engine between several shards.
    """

    def __init__(self, iotlb: Iotlb, cost: CostModel,
                 lock: SpinLock | NullLock | None = None,
                 obs: Observability | None = None, faults=None,
                 hardware: SharedResource | None = None,
                 pipelined: bool = False):
        self.iotlb = iotlb
        self.cost = cost
        self.lock: SpinLock | NullLock = lock if lock is not None \
            else NullLock("qi-lock")
        self.obs = obs if obs is not None else NULL_OBS
        self.faults = faults if faults is not None else NULL_FAULTS
        self.hardware = hardware if hardware is not None \
            else SharedResource("iommu-invalidation-hw")
        self.pipelined = pipelined
        self._recent: Deque[Tuple[int, int]] = deque()  # (time, core id)
        self.sync_invalidations = 0
        self.batch_flushes = 0
        # Stall-recovery accounting (see _recover_stall).
        self.timeouts = 0
        self.recovered_stalls = 0
        self.queue_resets = 0

    # ------------------------------------------------------------------
    # Concurrency estimation (drives the Fig. 8a latency degradation).
    # ------------------------------------------------------------------
    def _window_concurrency(self, now: int) -> int:
        """Distinct submitting cores within the window ending at ``now``.

        Evicts expired entries from the head; both eviction and counting
        use :func:`_in_window` so a submission exactly on the boundary is
        either counted everywhere or nowhere.
        """
        horizon = now - _CONCURRENCY_WINDOW_CYCLES
        recent = self._recent
        # Both comparisons below inline :func:`_in_window` (``t >=
        # horizon``) — this runs per submission over the whole window, so
        # the predicate call per element is measurable.  The per-query
        # filter cannot become incremental distinct-counting: appends are
        # not time-monotonic under min-clock interleaving.
        while recent and recent[0][0] < horizon:
            recent.popleft()
        return len({cid for t, cid in recent if t >= horizon})

    def _note_submission(self, core: Core) -> int:
        self._recent.append((core.now, core.cid))
        return self._window_concurrency(core.now)

    def current_concurrency(self, core: Core) -> int:
        """Distinct cores that submitted within the recent window.

        Returns the raw window count — 0 when the queue has been idle for
        a full window — exactly like :meth:`_note_submission` reports for
        a submission (which is always ≥ 1: it counts itself).  Callers
        that need "what latency factor would a submission see right now"
        should take ``max(1, current_concurrency(core))``.
        """
        return self._window_concurrency(core.now)

    @property
    def lock_wait_cycles(self) -> int:
        """Cycles submitters spent spinning on the queue lock."""
        return self.lock.stats.total_wait_cycles

    # ------------------------------------------------------------------
    # Strict protection: invalidate and wait, under the queue lock.
    # ------------------------------------------------------------------
    def invalidate_sync(self, core: Core, domain_id: int, iova_page: int,
                        npages: int = 1) -> None:
        """Page-range invalidation with completion wait (strict unmap path).

        Mirrors the Linux intel-iommu strict path: take the queue lock,
        post the invalidation descriptor plus a wait descriptor, busy-wait
        for the hardware to signal completion, release the lock.
        """
        self.lock.acquire(core)
        self._invalidate_locked(core, domain_id, iova_page, npages)
        self.lock.release(core)
        self.sync_invalidations += 1

    def invalidate_ranges_sync(self, core: Core, domain_id: int,
                               pages: Sequence[int]) -> None:
        """Invalidate an arbitrary page set with *ranged* descriptors.

        Coalesces ``pages`` into contiguous runs and posts one descriptor
        per run — one lock acquisition, one wait descriptor — instead of
        one full-latency submission per page range.  This is the strict
        path of the scalable schemes: an unmap whose cleared pages have
        holes (refcounted sharing) still completes in a single batch.
        """
        runs = coalesce_pages(pages)
        if not runs:
            return
        total = sum(n for _, n in runs)
        self.lock.acquire(core)
        self._submit_and_wait(core, scope="page", domain_id=domain_id,
                              npages=total, ndesc=len(runs), ranged=True)
        self._revoke_runs(core, domain_id, runs)
        self.lock.release(core)
        self.sync_invalidations += 1

    def invalidate_domain_sync(self, core: Core, domain_id: int) -> None:
        """Domain-wide invalidation with completion wait."""
        self.lock.acquire(core)
        self._submit_and_wait(core, scope="domain", domain_id=domain_id)
        self.iotlb.invalidate_domain(domain_id)
        if self.obs.enabled:
            self.obs.invalidated(core.now, domain_id)
        self.lock.release(core)
        self.sync_invalidations += 1

    def _latency_for(self, concurrency: int, extra: int) -> int:
        """Submitter-observed completion latency for one submission.

        Per-core rings do not exhibit the Fig. 8a degradation (it is a
        shared-tail-register artifact), so pipelined shards always see
        the idle-queue latency; saturation shows up as hardware queueing
        delay in :meth:`_occupy_and_wait` instead.
        """
        effective = 1 if self.pipelined else concurrency
        return self.cost.iotlb_invalidation_latency(effective) + extra

    def _occupy_and_wait(self, core: Core, latency: int,
                         ndesc: int = 1) -> int:
        """Reserve the hardware, busy-wait completion, charge the poll.

        Shared ring: the engine is busy for the full latency (descriptor
        fetch → wait-descriptor retire is one serial transaction).
        Pipelined shard: the engine is busy only for the dispatch slots
        (``invq_percore_service_cycles`` per descriptor); the submitter
        still observes ≥ ``latency`` from now, plus any queueing delay
        the slots picked up behind other shards' traffic.
        """
        if self.pipelined:
            slot = self.cost.invq_percore_service_cycles * max(1, ndesc)
            end = self.hardware.occupy(core.now, slot)
            done = max(end, core.now + latency)
        else:
            done = self.hardware.occupy(core.now, latency)
        core.spin_until(done, CAT_INVALIDATE)
        core.charge(self.cost.invq_wait_poll_cycles, CAT_INVALIDATE)
        return done

    def _submit_and_wait(self, core: Core, scope: str,
                         domain_id: int = -1, npages: int = 0,
                         ndesc: int = 1, ranged: bool = False) -> None:
        """Post ``ndesc`` descriptors + a wait descriptor and busy-wait.

        Shared by every submission path; the observed latency (hardware
        queueing + service) is reported with the submission, which is
        how Fig. 8a is reproduced as a distribution.  Ranged
        submissions (``ranged=True``) pay the descriptor/page cost curve
        from the cost model on top of the base latency.
        """
        if self.obs.enabled:
            self.obs.span_begin(SPAN_IOTLB_INVALIDATE, core)
        core.charge(self.cost.invq_submit_cycles
                    + self.cost.invq_ranged_desc_cycles * (ndesc - 1),
                    CAT_INVALIDATE)
        concurrency = self._note_submission(core)
        submitted_at = core.now
        extra = (self.cost.ranged_invalidation_extra_cycles(ndesc, npages)
                 if ranged else 0)
        latency = self._latency_for(concurrency, extra)
        if self.faults.enabled and self.faults.fires(SITE_INV_STALL, core):
            done = self._recover_stall(core, scope, extra, ndesc)
        else:
            done = self._occupy_and_wait(core, latency, ndesc)
        if self.obs.enabled:
            self.obs.inv_submitted(core, self.hardware, scope, domain_id,
                                   npages, ndesc, concurrency, submitted_at,
                                   done)

    def _recover_stall(self, core: Core, scope: str, extra: int,
                       ndesc: int = 1) -> int:
        """A wait descriptor never retired: timeout, back off, re-submit
        (bounded), then reset the queue and flush the whole IOTLB.

        Never raises and never leaves an IOTLB entry the caller believes
        is gone — over-invalidating is always safe, so strict schemes
        keep their zero-window guarantee even through a reset.  Returns
        the completion instant.

        Every re-submit is a real submission (:meth:`_resubmit`): it
        lands in the Fig. 8a concurrency window, its latency is
        recomputed from the concurrency *at the retry instant*, and it is
        reported like the first attempt was — so stall storms are
        visible, and costed, at the moment they retry.
        """
        retries = 0
        while True:
            core.spin_until(core.now + _STALL_TIMEOUT_CYCLES,
                            CAT_INVALIDATE)
            core.charge(self.cost.invq_wait_poll_cycles, CAT_INVALIDATE)
            self.timeouts += 1
            if self.obs.enabled:
                self.obs.inv_timeout(core, scope, retries)
            if retries >= _STALL_MAX_RETRIES:
                break
            core.advance_to(core.now + (_STALL_BACKOFF_CYCLES << retries))
            retries += 1
            concurrency = self._resubmit(core, self.cost.invq_submit_cycles)
            if not (self.faults.enabled
                    and self.faults.fires(SITE_INV_STALL, core)):
                latency = self._latency_for(concurrency, extra)
                done = self._occupy_and_wait(core, latency, ndesc)
                self.recovered_stalls += 1
                if self.obs.enabled:
                    self.obs.fault_recovered(core, SITE_INV_STALL, "retry",
                                             retries=retries)
                return done
        # Retries exhausted: model a queue reset.  The reset path always
        # completes, and flushing every entry is a superset of whatever
        # the stuck descriptor was meant to revoke.  The reset's global
        # flush is itself a submission — count it.
        self.queue_resets += 1
        concurrency = self._resubmit(core, self.cost.invq_submit_cycles * 2)
        done = self._occupy_and_wait(
            core, self._latency_for(concurrency, extra=0))
        self.iotlb.invalidate_all()
        self.recovered_stalls += 1
        if self.obs.enabled:
            self.obs.invalidated(core.now)
            self.obs.fault_recovered(core, SITE_INV_STALL, "queue-reset")
        return done

    def _resubmit(self, core: Core, cycles: int) -> int:
        """Re-post a stalled submission for ``cycles``; returns the
        concurrency it sees."""
        core.charge(cycles, CAT_INVALIDATE)
        concurrency = self._note_submission(core)
        if self.obs.enabled:
            self.obs.inv_resubmitted(core, self.hardware, concurrency)
        return concurrency

    def _invalidate_locked(self, core: Core, domain_id: int,
                           iova_page: int, npages: int) -> None:
        self._submit_and_wait(core, scope="page", domain_id=domain_id,
                              npages=npages)
        self._revoke_runs(core, domain_id, ((iova_page, npages),))

    def _revoke_runs(self, core: Core, domain_id: int,
                     runs: Iterable[Tuple[int, int]]) -> None:
        """Drop ``(first page, npages)`` runs of ``domain_id`` from the
        IOTLB once their wait completed: ``core.now`` is the true
        revocation time the exposure windows close at."""
        for start, npages in runs:
            self.iotlb.invalidate_pages(domain_id, start, npages)
            if self.obs.enabled:
                self.obs.invalidated(core.now, domain_id, start, npages)

    # ------------------------------------------------------------------
    # Deferred protection: flush a batch with one global invalidation.
    # ------------------------------------------------------------------
    def flush_batch(self, core: Core,
                    pending: List[PendingInvalidation],
                    ranged: bool = False) -> None:
        """Flush a deferred batch.

        Default (Linux) path: one *global* IOTLB invalidation amortized
        over up to 250 unmaps.  A global descriptor names no pages, so it
        is accounted as one ``scope="global"`` submission with
        ``npages=0`` — the summed page count of the batch lives on the
        ``inv.flush`` trace event, not on the submission counter.

        Ranged path (``ranged=True``): per-domain *ranged* descriptors
        covering exactly the coalesced pending pages — counted as
        page-scope submissions with true page counts, and closing
        exposure windows per range instead of globally.

        Until this runs, every IOVA in ``pending`` remains reachable
        through stale IOTLB entries — the vulnerability window.
        """
        if not pending:
            return
        total_pages = sum(p.npages for p in pending)
        self.lock.acquire(core)
        if ranged:
            by_domain: dict = {}
            for p in pending:
                by_domain.setdefault(p.domain_id, []).extend(
                    range(p.iova_page, p.iova_page + p.npages))
            descriptors = 0
            for domain_id, pages in sorted(by_domain.items()):
                runs = coalesce_pages(pages)
                descriptors += len(runs)
                self._submit_and_wait(core, scope="page",
                                      domain_id=domain_id,
                                      npages=sum(n for _, n in runs),
                                      ndesc=len(runs), ranged=True)
                self._revoke_runs(core, domain_id, runs)
        else:
            descriptors = 1
            self._submit_and_wait(core, scope="global")
            self.iotlb.invalidate_all()
            if self.obs.enabled:
                self.obs.invalidated(core.now)
        self.lock.release(core)
        self.batch_flushes += 1
        if self.obs.enabled:
            self.obs.inv_flushed(core, len(pending), total_pages, ranged,
                                 descriptors)


class PerCoreInvalidationQueue:
    """Sharded invalidation front end: one pipelined
    :class:`InvalidationQueue` per core over one shared hardware engine.

    Submissions route to the submitting core's shard
    (``core.cid % nqueues``), so the per-shard spinlock is effectively
    private — the paper's ``qi-lock`` funnel disappears — while the
    engine itself stays a single :class:`SharedResource`, so hardware
    saturation (and the queueing delay it causes) is still modeled.
    The shards share one concurrency window and one engine, so Fig.
    8a-style concurrency and queue depth read across the whole
    subsystem.

    Exposes the same counters as :class:`InvalidationQueue`, summed
    over shards, so workload extras and the chaos soak read either
    queue alike.
    """

    def __init__(self, iotlb: Iotlb, cost: CostModel, nqueues: int,
                 obs: Observability | None = None, faults=None):
        if nqueues < 1:
            raise ValueError("per-core invalidation needs >= 1 queue")
        self.iotlb = iotlb
        self.cost = cost
        self.obs = obs if obs is not None else NULL_OBS
        self.hardware = SharedResource("iommu-invalidation-hw")
        shared_recent: Deque[Tuple[int, int]] = deque()
        self.shards: List[InvalidationQueue] = []
        for i in range(nqueues):
            shard = InvalidationQueue(
                iotlb, cost,
                lock=SpinLock(f"qi-shard{i}", cost, obs=self.obs),
                obs=obs, faults=faults,
                hardware=self.hardware, pipelined=True)
            shard._recent = shared_recent
            self.shards.append(shard)

    @property
    def nqueues(self) -> int:
        return len(self.shards)

    def _shard(self, core: Core) -> InvalidationQueue:
        return self.shards[core.cid % len(self.shards)]

    # Routed operations — same signatures as InvalidationQueue.
    def invalidate_sync(self, core: Core, domain_id: int, iova_page: int,
                        npages: int = 1) -> None:
        self._shard(core).invalidate_sync(core, domain_id, iova_page,
                                          npages)

    def invalidate_ranges_sync(self, core: Core, domain_id: int,
                               pages: Sequence[int]) -> None:
        self._shard(core).invalidate_ranges_sync(core, domain_id, pages)

    def invalidate_domain_sync(self, core: Core, domain_id: int) -> None:
        self._shard(core).invalidate_domain_sync(core, domain_id)

    def flush_batch(self, core: Core,
                    pending: List[PendingInvalidation],
                    ranged: bool = False) -> None:
        self._shard(core).flush_batch(core, pending, ranged=ranged)

    def current_concurrency(self, core: Core) -> int:
        # The window deque is shared; any shard answers for all.
        return self.shards[0].current_concurrency(core)

    # Aggregated counters — same names as InvalidationQueue fields.
    @property
    def sync_invalidations(self) -> int:
        return sum(s.sync_invalidations for s in self.shards)

    @property
    def batch_flushes(self) -> int:
        return sum(s.batch_flushes for s in self.shards)

    @property
    def lock_wait_cycles(self) -> int:
        return sum(s.lock_wait_cycles for s in self.shards)

    @property
    def timeouts(self) -> int:
        return sum(s.timeouts for s in self.shards)

    @property
    def recovered_stalls(self) -> int:
        return sum(s.recovered_stalls for s in self.shards)

    @property
    def queue_resets(self) -> int:
        return sum(s.queue_resets for s in self.shards)
