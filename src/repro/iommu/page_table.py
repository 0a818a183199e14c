"""Per-device I/O page table (VT-d style 4-level radix tree).

IOVA mappings are kept at 4 KB page granularity in a 4-level table (9 bits
per level, 48-bit IOVA space), mirroring Intel VT-d second-level
translation (§2.1).  The table tracks how many backing pages its interior
nodes consume so experiments can report page-table memory overhead.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterator, NamedTuple, Set, Tuple

from repro.errors import DmaApiError
from repro.sim.units import PAGE_SHIFT, PAGE_SIZE

IOVA_BITS = 48
_LEVEL_BITS = 9
_INDEX_MASK = (1 << _LEVEL_BITS) - 1
#: First IOVA page number outside the 48-bit space.
_PAGE_LIMIT = 1 << (IOVA_BITS - PAGE_SHIFT)
#: Radix-path bits of a page number (all levels above the last).
_PATH_MASK = (_PAGE_LIMIT >> _LEVEL_BITS) - 1
_READ_BIT = 1
_WRITE_BIT = 2


class Perm(enum.IntFlag):
    """Device access rights for a mapping (read / write / both).

    The hot checks (:meth:`allows`, :meth:`covers`) test the raw int
    bits: an IntFlag operator builds a new flag member on every call,
    which costs several times the whole check.
    """

    NONE = 0
    READ = _READ_BIT    # device may read host memory (DMA to device)
    WRITE = _WRITE_BIT  # device may write host memory (DMA from device)
    RW = READ | WRITE

    def allows(self, *, is_write: bool) -> bool:
        return bool(self._value_ & (_WRITE_BIT if is_write else _READ_BIT))

    def covers(self, other: "Perm") -> bool:
        """Whether these rights include every right in ``other``."""
        return self._value_ & other._value_ == other._value_


class PteEntry(NamedTuple):
    """A leaf translation: IOVA page → physical frame + permissions."""

    pfn: int
    perm: Perm

    @property
    def pa(self) -> int:
        return self.pfn << PAGE_SHIFT


class IoPageTable:
    """4-level radix tree from IOVA page number to :class:`PteEntry`.

    A page's radix path is its number without the 9 low bits, which
    index the last-level node.  Last-level nodes are kept in one dict by
    path, so a walk is one lookup; the interior nodes the hardware would
    allocate on the way down are counted in :attr:`table_nodes` but need
    no storage of their own.  Range operations check the whole range
    before changing anything, so a refused range leaves the table
    exactly as it was.
    """

    def __init__(self) -> None:
        #: Last-level nodes by radix path (``iova_page >> 9``).
        self._leaves: Dict[int, Dict[int, PteEntry]] = {}
        #: Paths of the allocated level-2 and level-3 nodes.
        self._interior: Set[Tuple[int, int]] = set()
        self.mapped_pages = 0
        self.table_nodes = 1  # the root

    # ------------------------------------------------------------------
    def _new_leaf(self, path: int) -> Dict[int, PteEntry]:
        """Allocate the last-level node for ``path`` and any interior
        node missing above it."""
        for node in ((2, path >> (2 * _LEVEL_BITS)), (3, path >> _LEVEL_BITS)):
            if node not in self._interior:
                self._interior.add(node)
                self.table_nodes += 1
        leaf = self._leaves[path] = {}
        self.table_nodes += 1
        return leaf

    def map_range(self, iova_page: int, pfn: int, npages: int,
                  perm: Perm) -> None:
        """Install ``npages`` translations ``iova_page+i → pfn+i``.

        All or nothing: a range without rights, reaching outside the
        48-bit space or over a live mapping is refused
        (:class:`DmaApiError`, naming the offending page) before any
        page is installed.
        """
        if npages <= 0:
            return
        if not perm:
            raise DmaApiError("mapping with no access rights")
        end = iova_page + npages
        if iova_page < 0 or end > _PAGE_LIMIT:
            raise _outside(iova_page)
        leaves = self._leaves
        for page in range(iova_page, end):
            leaf = leaves.get(page >> _LEVEL_BITS)
            if leaf is not None and (page & _INDEX_MASK) in leaf:
                raise DmaApiError(
                    f"IOVA page {page:#x} already mapped (would overwrite)")
        # One entry per page: tuple.__new__ skips PteEntry's generated
        # __new__ and its argument parsing.
        new = tuple.__new__
        delta = pfn - iova_page
        for page in range(iova_page, end):
            leaf = leaves.get(page >> _LEVEL_BITS)
            if leaf is None:
                leaf = self._new_leaf(page >> _LEVEL_BITS)
            leaf[page & _INDEX_MASK] = new(PteEntry, (page + delta, perm))
        self.mapped_pages += npages

    def unmap_range(self, iova_page: int, npages: int) -> None:
        """Remove ``npages`` translations starting at ``iova_page``.

        All or nothing: a range reaching outside the 48-bit space or
        over an unmapped page is refused (:class:`DmaApiError`, naming
        the offending page) before any page is removed.
        """
        if npages <= 0:
            return
        end = iova_page + npages
        if iova_page < 0 or end > _PAGE_LIMIT:
            raise _outside(iova_page)
        leaves = self._leaves
        for page in range(iova_page, end):
            leaf = leaves.get(page >> _LEVEL_BITS)
            if leaf is None or (page & _INDEX_MASK) not in leaf:
                raise DmaApiError(f"unmap of unmapped IOVA page {page:#x}")
        for page in range(iova_page, end):
            del leaves[page >> _LEVEL_BITS][page & _INDEX_MASK]
        self.mapped_pages -= npages

    def map_page(self, iova_page: int, pfn: int, perm: Perm) -> None:
        """Install one translation; refuses to overwrite a live mapping."""
        self.map_range(iova_page, pfn, 1, perm)

    def unmap_page(self, iova_page: int) -> PteEntry:
        """Remove one translation; returns the entry that was present."""
        entry = self.lookup(iova_page)
        self.unmap_range(iova_page, 1)
        return entry

    def lookup(self, iova_page: int) -> PteEntry | None:
        """Walk the table; ``None`` when no translation exists.

        Like the hardware walk, only the 36 page-number bits of a 48-bit
        IOVA select the path.
        """
        leaf = self._leaves.get((iova_page >> _LEVEL_BITS) & _PATH_MASK)
        return None if leaf is None else leaf.get(iova_page & _INDEX_MASK)

    # ------------------------------------------------------------------
    def entries(self) -> Iterator[Tuple[int, PteEntry]]:
        """Iterate ``(iova_page, entry)`` over all live mappings."""
        for path, leaf in self._leaves.items():
            for index, entry in leaf.items():
                yield path << _LEVEL_BITS | index, entry

    @property
    def table_bytes(self) -> int:
        """Approximate memory consumed by table nodes (4 KB each, as in HW)."""
        return self.table_nodes * PAGE_SIZE


def _outside(iova_page: int) -> DmaApiError:
    """The refusal of a range from ``iova_page`` reaching outside the
    48-bit space, naming its first page outside."""
    first = iova_page if iova_page < 0 else max(iova_page, _PAGE_LIMIT)
    return DmaApiError(f"IOVA page {first:#x} outside 48-bit space")
