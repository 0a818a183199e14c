"""IOVA allocator implementations.

Four allocators, matching the systems compared in the paper's Table 1 and
Figure 1:

* :class:`IdentityIovaAllocator` — IOVA = physical address ([42]'s
  ``identity`` variant, used for the paper's identity± baselines).  No
  allocation state at all.
* :class:`LinuxIovaAllocator` — models the stock Linux red-black-tree
  allocator: a globally locked address-ordered tree, allocating from the
  top of the space downward.
* :class:`EiovaRAllocator` — FAST'15 [38]: a cache of previously freed
  ranges in front of the Linux tree.  Fast when request sizes repeat
  (they do, in networking), but still serialized by the same global lock.
* :class:`MagazineIovaAllocator` — ATC'15 [42]: per-core magazines of
  freed ranges; the global tree (and its lock) is touched only to refill
  or drain a magazine.

All of them hand out page-granular ranges within the lower half of the
48-bit space — the upper half (MSB set) is reserved for shadow-buffer
IOVAs (§5.3, Fig. 2).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List

from repro.errors import ConfigurationError, IovaExhaustedError
from repro.faults.injector import NULL_FAULTS
from repro.faults.plan import SITE_IOVA_ALLOC
from repro.hw.cpu import Core
from repro.hw.locks import NullLock, SpinLock
from repro.sim.costmodel import CostModel
from repro.sim.units import PAGE_SHIFT

#: Lower-half 48-bit IOVA space, in pages: [1, 2^35) page numbers.
#: Page 0 is never allocated so an IOVA of 0 can act as "none".
_FIRST_PAGE = 1
_LAST_PAGE = (1 << 35) - 1


class IdentityIovaAllocator:
    """IOVA = physical address; nothing to allocate or free."""

    name = "identity"

    def __init__(self, cost: CostModel):
        self.cost = cost

    def alloc(self, npages: int, core: Core, pa: int) -> int:  # noqa: ARG002
        core.charge(self.cost.iova_identity_cycles)
        return (pa >> PAGE_SHIFT) << PAGE_SHIFT

    def free(self, iova: int, npages: int, core: Core) -> None:  # noqa: ARG002
        core.charge(self.cost.iova_identity_cycles // 2)

    def outstanding_ranges(self) -> int:
        return 0


class LinuxIovaAllocator:
    """Stock Linux: globally locked, address-ordered allocation.

    The functional structure is a next-fit free cursor with an allocated-
    range map (enough to guarantee non-overlap and catch double frees);
    the *cost* is the calibrated red-black-tree walk plus the global
    ``iova_rbtree_lock``.
    """

    name = "linux"

    #: Fault injector (instance-assigned by the scheme registry; the
    #: class default keeps standalone construction injection-free).
    faults = NULL_FAULTS

    def __init__(self, cost: CostModel, lock: SpinLock | NullLock | None = None,
                 alloc_cycles: int | None = None):
        self.cost = cost
        self.lock = lock if lock is not None else NullLock("iova-lock")
        self._alloc_cycles = (alloc_cycles if alloc_cycles is not None
                              else cost.iova_rbtree_cycles)
        self._cursor = _LAST_PAGE
        self._allocated: Dict[int, int] = {}   # base page -> npages
        self._free_ranges: List[tuple[int, int]] = []  # recycled (base, npages)

    def alloc(self, npages: int, core: Core, pa: int) -> int:  # noqa: ARG002
        if npages < 1:
            raise ConfigurationError("IOVA allocation of zero pages")
        if self.faults.enabled and self.faults.fires(SITE_IOVA_ALLOC, core):
            raise IovaExhaustedError("injected IOVA exhaustion (fault plan)")
        self.lock.acquire(core)
        core.charge(self._alloc_cycles)
        try:
            base = self._take_range(npages)
        except IovaExhaustedError:
            self.lock.release(core)
            raise
        self._allocated[base] = npages
        self.lock.release(core)
        return base << PAGE_SHIFT

    def free(self, iova: int, npages: int, core: Core) -> None:
        base = iova >> PAGE_SHIFT
        self.lock.acquire(core)
        core.charge(self._alloc_cycles)
        recorded = self._allocated.pop(base, None)
        if recorded is None:
            self.lock.release(core)
            raise IovaExhaustedError(f"free of unallocated IOVA {iova:#x}")
        if recorded != npages:
            self.lock.release(core)
            raise IovaExhaustedError(
                f"IOVA {iova:#x}: freed {npages} pages, allocated {recorded}"
            )
        self._free_ranges.append((base, npages))
        self.lock.release(core)

    def outstanding_ranges(self) -> int:
        """Allocated-but-unfreed ranges (leak detector hook)."""
        return len(self._allocated)

    def _take_range(self, npages: int) -> int:
        base = self._try_take(npages)
        if base is None:
            # Exhaustion: coalesce the recycled ranges (rewinding the
            # cursor over any block that reaches it) and retry once.
            self._coalesce()
            base = self._try_take(npages)
        if base is None:
            raise IovaExhaustedError("IOVA space exhausted")
        return base

    def _try_take(self, npages: int) -> int | None:
        # Prefer a recycled range of exactly the right size.
        for i, (base, size) in enumerate(self._free_ranges):
            if size == npages:
                del self._free_ranges[i]
                return base
        # Virgin space below the downward cursor.
        if self._cursor - npages >= _FIRST_PAGE:
            self._cursor -= npages
            return self._cursor
        # Split the smallest recycled range that still fits.
        best = -1
        best_size = 0
        for i, (base, size) in enumerate(self._free_ranges):
            if size > npages and (best < 0 or size < best_size):
                best, best_size = i, size
        if best >= 0:
            base, size = self._free_ranges[best]
            self._free_ranges[best] = (base + npages, size - npages)
            return base
        return None

    def _coalesce(self) -> None:
        """Merge adjacent recycled ranges; rewind the cursor over any
        merged block that ends exactly at it (that space is virgin
        again)."""
        if not self._free_ranges:
            return
        self._free_ranges.sort()
        merged: List[List[int]] = []
        for base, size in self._free_ranges:
            if merged and merged[-1][0] + merged[-1][1] == base:
                merged[-1][1] += size
            else:
                merged.append([base, size])
        self._free_ranges = []
        for base, size in merged:
            if base == self._cursor:
                self._cursor = base + size
            else:
                self._free_ranges.append((base, size))

    # Internal hook for EiovaR / magazines, called with the lock held
    # conceptually (they manage their own locking).
    def _take_range_unlocked(self, npages: int) -> int:
        base = self._take_range(npages)
        self._allocated[base] = npages
        return base


class EiovaRAllocator:
    """FAST'15 EiovaR: exact-size cache of freed ranges over the Linux tree.

    Hits avoid the expensive tree walk but still take the global lock —
    which is why EiovaR is fast single-core yet shares Linux's multicore
    scalability wall (Table 1, "single core perf ✓ / multi core perf ✗").
    """

    name = "eiovar"

    faults = NULL_FAULTS

    def __init__(self, cost: CostModel, lock: SpinLock | NullLock | None = None):
        self.cost = cost
        self.lock = lock if lock is not None else NullLock("iova-lock")
        self._tree = LinuxIovaAllocator(cost, NullLock("inner"),
                                        alloc_cycles=0)
        self._cache: Dict[int, List[int]] = defaultdict(list)  # npages -> bases
        self.cache_hits = 0
        self.cache_misses = 0

    def alloc(self, npages: int, core: Core, pa: int) -> int:  # noqa: ARG002
        if self.faults.enabled and self.faults.fires(SITE_IOVA_ALLOC, core):
            raise IovaExhaustedError("injected IOVA exhaustion (fault plan)")
        self.lock.acquire(core)
        bucket = self._cache[npages]
        if bucket:
            base = bucket.pop()
            self._tree._allocated[base] = npages
            core.charge(self.cost.iova_magazine_cycles)
            self.cache_hits += 1
        else:
            core.charge(self.cost.iova_rbtree_cycles)
            try:
                base = self._tree._take_range_unlocked(npages)
            except IovaExhaustedError:
                # The cached ranges of *other* sizes may cover most of
                # the space: spill them back to the tree and retry once
                # (splitting/coalescing happens down there).
                self._spill_cache()
                try:
                    base = self._tree._take_range_unlocked(npages)
                except IovaExhaustedError:
                    self.lock.release(core)
                    raise
            self.cache_misses += 1
        self.lock.release(core)
        return base << PAGE_SHIFT

    def _spill_cache(self) -> None:
        for size, bases in self._cache.items():
            for base in bases:
                self._tree._free_ranges.append((base, size))
            bases.clear()
        self._tree._coalesce()

    def free(self, iova: int, npages: int, core: Core) -> None:
        base = iova >> PAGE_SHIFT
        self.lock.acquire(core)
        core.charge(self.cost.iova_magazine_cycles)
        recorded = self._tree._allocated.pop(base, None)
        if recorded != npages:
            self.lock.release(core)
            raise IovaExhaustedError(f"free of unallocated IOVA {iova:#x}")
        self._cache[npages].append(base)
        self.lock.release(core)

    def outstanding_ranges(self) -> int:
        """Allocated-but-unfreed ranges (leak detector hook)."""
        return len(self._tree._allocated)


class MagazineIovaAllocator:
    """ATC'15 [42]: per-core magazines over a globally locked depot.

    Each core keeps up to ``magazine_size`` freed ranges per size class
    and satisfies allocations locally; only magazine refills/drains touch
    the shared tree.  This removes the allocation bottleneck — but the
    *invalidation* bottleneck (§2.2.1) remains, which is the paper's
    point.
    """

    name = "magazine"

    faults = NULL_FAULTS

    def __init__(self, cost: CostModel, num_cores: int,
                 lock: SpinLock | NullLock | None = None,
                 magazine_size: int = 127):
        self.cost = cost
        self.depot_lock = lock if lock is not None else NullLock("iova-depot")
        self.magazine_size = magazine_size
        self._tree = LinuxIovaAllocator(cost, NullLock("inner"),
                                        alloc_cycles=0)
        # magazines[core][npages] -> list of free bases
        self._magazines: List[Dict[int, List[int]]] = [
            defaultdict(list) for _ in range(num_cores)
        ]
        self.depot_refills = 0

    def alloc(self, npages: int, core: Core, pa: int) -> int:  # noqa: ARG002
        if self.faults.enabled and self.faults.fires(SITE_IOVA_ALLOC, core):
            raise IovaExhaustedError("injected IOVA exhaustion (fault plan)")
        magazine = self._magazines[core.cid][npages]
        core.charge(self.cost.iova_magazine_cycles)
        if magazine:
            base = magazine.pop()
            self._tree._allocated[base] = npages
            return base << PAGE_SHIFT
        # Refill from the depot: half a magazine at a time.  A partial
        # refill is kept; a completely dry depot reclaims every range
        # parked in any core's magazine before giving up.
        self.depot_lock.acquire(core)
        core.charge(self.cost.iova_rbtree_cycles)
        refill = max(1, self.magazine_size // 2)
        try:
            for _ in range(refill):
                # Ranges held by a magazine are reserved: neither
                # allocated nor in the depot's free pool.
                magazine.append(self._tree._take_range(npages))
        except IovaExhaustedError:
            if not magazine:
                self._reclaim_magazines()
                try:
                    magazine.append(self._tree._take_range(npages))
                except IovaExhaustedError:
                    self.depot_lock.release(core)
                    raise
        self.depot_refills += 1
        self.depot_lock.release(core)
        base = magazine.pop()
        self._tree._allocated[base] = npages
        return base << PAGE_SHIFT

    def _reclaim_magazines(self) -> None:
        """Return every parked range to the depot (exhaustion recovery)."""
        for mags in self._magazines:
            for size, bases in mags.items():
                for base in bases:
                    self._tree._free_ranges.append((base, size))
                bases.clear()
        self._tree._coalesce()

    def free(self, iova: int, npages: int, core: Core) -> None:
        base = iova >> PAGE_SHIFT
        core.charge(self.cost.iova_magazine_cycles)
        recorded = self._tree._allocated.pop(base, None)
        if recorded != npages:
            raise IovaExhaustedError(f"free of unallocated IOVA {iova:#x}")
        magazine = self._magazines[core.cid][npages]
        if len(magazine) >= self.magazine_size:
            # Drain overflow back to the depot.
            self.depot_lock.acquire(core)
            core.charge(self.cost.iova_rbtree_cycles)
            for extra in magazine[self.magazine_size // 2:]:
                self._tree._free_ranges.append((extra, npages))
            del magazine[self.magazine_size // 2:]
            self.depot_lock.release(core)
        magazine.append(base)

    def outstanding_ranges(self) -> int:
        """Allocated-but-unfreed ranges (leak detector hook).

        Ranges parked in magazines are reserved, not outstanding — only
        ranges handed to a caller and never freed count.
        """
        return len(self._tree._allocated)
