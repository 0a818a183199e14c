"""IOTLB — the IOMMU's translation cache.

The IOTLB is what makes deferred protection insecure: removing a page-table
entry does *not* revoke device access until the corresponding IOTLB entry
is invalidated.  This model is fully functional — translations inserted on
page-table walks stay visible to devices until an explicit invalidation —
so the paper's vulnerability window exists in the simulation and the
attack scenarios can exploit it.

Entries are kept per (domain, IOVA page) with LRU eviction at a bounded
capacity, like the real structure.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Tuple

from repro.iommu.page_table import PteEntry


@dataclass
class IotlbStats:
    """Counter semantics, kept deliberately distinct:

    * ``invalidations`` — invalidation *operations* issued (one per
      ``invalidate_pages``/``invalidate_domain`` call, however many
      entries it covers); this is the paper's cost unit — each op is a
      queued-invalidation command.
    * ``invalidated_entries`` — cached entries actually *removed* by
      those operations; ops over uncached pages remove nothing.
    * ``evictions`` — entries displaced by capacity pressure on
      ``insert``, never by invalidation.
    * ``prefetches`` / ``prefetch_hits`` — hint-inserted entries
      (:meth:`Iotlb.prefetch`, MMU-aware DMA engine style) and the
      subset whose *first* device lookup found them still cached.
      Counted apart from demand fills so the hint hit rate is visible
      on its own.
    """

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    invalidated_entries: int = 0
    global_invalidations: int = 0
    evictions: int = 0
    prefetches: int = 0
    prefetch_hits: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class Iotlb:
    """LRU cache of (domain_id, iova_page) → :class:`PteEntry`."""

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("IOTLB capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple[int, int], PteEntry]" = OrderedDict()
        # Keys inserted by prefetch() whose first lookup hasn't happened
        # yet — membership drives the prefetch_hits counter; discarded on
        # first hit, invalidation, or eviction.
        self._prefetched: set = set()
        self.stats = IotlbStats()

    def lookup(self, domain_id: int, iova_page: int) -> PteEntry | None:
        key = (domain_id, iova_page)
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        if key in self._prefetched:
            self._prefetched.discard(key)
            self.stats.prefetch_hits += 1
        return entry

    def insert(self, domain_id: int, iova_page: int, entry: PteEntry) -> None:
        key = (domain_id, iova_page)
        self._entries[key] = entry
        self._entries.move_to_end(key)
        # A demand fill over a pending hint supersedes it.
        self._prefetched.discard(key)
        if len(self._entries) > self.capacity:
            evicted, _ = self._entries.popitem(last=False)
            self._prefetched.discard(evicted)
            self.stats.evictions += 1

    def prefetch(self, domain_id: int, iova_page: int,
                 entry: PteEntry) -> None:
        """Hint-insert a translation at map time (MMU-aware DMA engine /
        TLB-prefetch style, Kurth et al.): the first device access then
        hits instead of walking.  Counted separately from demand fills —
        see :class:`IotlbStats`."""
        key = (domain_id, iova_page)
        self._entries[key] = entry
        self._entries.move_to_end(key)
        self._prefetched.add(key)
        self.stats.prefetches += 1
        if len(self._entries) > self.capacity:
            evicted, _ = self._entries.popitem(last=False)
            self._prefetched.discard(evicted)
            self.stats.evictions += 1

    def contains(self, domain_id: int, iova_page: int) -> bool:
        """Non-perturbing membership test (no LRU update, no stats)."""
        return (domain_id, iova_page) in self._entries

    def peek(self, domain_id: int, iova_page: int) -> PteEntry | None:
        """Non-perturbing read of a cached entry (no LRU update/stats)."""
        return self._entries.get((domain_id, iova_page))

    # ------------------------------------------------------------------
    # Invalidation — the operations the paper's whole cost story is about.
    # ------------------------------------------------------------------
    def invalidate_pages(self, domain_id: int, iova_page: int,
                         npages: int = 1) -> int:
        """Drop entries for ``npages`` starting at ``iova_page``.

        Returns how many cached entries were actually removed.
        """
        removed = 0
        for page in range(iova_page, iova_page + npages):
            key = (domain_id, page)
            if self._entries.pop(key, None) is not None:
                removed += 1
            self._prefetched.discard(key)
        self.stats.invalidations += 1
        self.stats.invalidated_entries += removed
        return removed

    def invalidate_domain(self, domain_id: int) -> int:
        """Drop every entry belonging to ``domain_id``."""
        keys = [k for k in self._entries if k[0] == domain_id]
        for key in keys:
            del self._entries[key]
            self._prefetched.discard(key)
        self.stats.invalidations += 1
        self.stats.invalidated_entries += len(keys)
        return len(keys)

    def invalidate_all(self) -> int:
        """Global invalidation: drop everything."""
        count = len(self._entries)
        self._entries.clear()
        self._prefetched.clear()
        self.stats.global_invalidations += 1
        self.stats.invalidated_entries += count
        return count

    def __len__(self) -> int:
        return len(self._entries)
