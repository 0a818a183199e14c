"""The invalidation queue's concurrency window counts what a scan counts.

:meth:`InvalidationQueue._window_concurrency` counts each core once, by
its latest submission, instead of scanning every entry of the window.
The scan below is the reference: evict expired entries from the head
(appends are not time-monotonic across cores, so expired entries may
stay behind the head), then count the distinct cores among the entries
left with a time inside the window.  Each core's own clock only moves
forward; which core submits next, and which core asks, is random.
"""

from __future__ import annotations

from collections import deque

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hw.cpu import Core
from repro.iommu.invalidation import (_CONCURRENCY_WINDOW_CYCLES,
                                      InvalidationQueue,
                                      PerCoreInvalidationQueue)
from repro.iommu.iotlb import Iotlb
from repro.sim.costmodel import CostModel

WINDOW = _CONCURRENCY_WINDOW_CYCLES
NCORES = 5


class ScanWindow:
    """The set-comprehension scan over the whole window (the reference)."""

    def __init__(self):
        self.recent = deque()

    def count(self, now):
        horizon = now - WINDOW
        while self.recent and self.recent[0][0] < horizon:
            self.recent.popleft()
        return len({cid for t, cid in self.recent if t >= horizon})

    def submit(self, t, cid):
        self.recent.append((t, cid))
        return self.count(t)


#: One step: (submit or query, core, cycles the core advances first).
#: Advances span from a few cycles to several windows, so entries both
#: pile up inside one window and expire behind a stale head.
steps = st.lists(
    st.tuples(st.booleans(), st.integers(0, NCORES - 1),
              st.one_of(st.integers(0, WINDOW // 8),
                        st.integers(0, 3 * WINDOW))),
    max_size=120)


def drive(ops, queues):
    """Run ``ops`` against ``queues`` (one queue, or shards sharing a
    window) and the scan; every answer must agree.  A core submits
    through its own shard and asks through the next one."""
    cores = [Core(cid=cid, numa_node=0) for cid in range(NCORES)]
    scan = ScanWindow()
    for submit, cid, advance in ops:
        core = cores[cid]
        core.now += advance
        if submit:
            queue = queues[cid % len(queues)]
            assert queue._note_submission(core) \
                == scan.submit(core.now, cid)
        else:
            queue = queues[(cid + 1) % len(queues)]
            assert queue.current_concurrency(core) == scan.count(core.now)
        assert list(queue._recent) == list(scan.recent)


@settings(max_examples=300, deadline=None)
@given(steps)
# Core 0 submits late in its clock, core 1 early in its own: core 1's
# entry expires behind core 0's unexpired head.
@example([(True, 0, 2 * WINDOW), (True, 1, 0), (True, 1, WINDOW // 8),
          (False, 1, 2 * WINDOW), (True, 2, 3 * WINDOW),
          (False, 0, WINDOW), (False, 1, 0)])
def test_window_counts_cores_as_the_scan_does(ops):
    queue = InvalidationQueue(Iotlb(), CostModel())
    drive(ops, [queue])


@settings(max_examples=150, deadline=None)
@given(steps, st.integers(2, 3))
def test_shards_count_one_shared_window_as_the_scan_does(ops, nqueues):
    percore = PerCoreInvalidationQueue(Iotlb(), CostModel(),
                                       nqueues=nqueues)
    drive(ops, percore.shards)
