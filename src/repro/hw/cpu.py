"""Simulated CPU cores with per-category cycle accounting.

Each :class:`Core` carries its own clock (``now``, in cycles) plus a
breakdown of where busy cycles went.  The breakdown categories deliberately
match the stacked bars of the paper's Figures 5, 8 and 10 so the benchmark
harness can print the same rows the paper reports.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

# Breakdown categories, named exactly as in the paper's figures.
CAT_COPY_MGMT = "copy mgmt"
CAT_SPINLOCK = "spinlock"
CAT_INVALIDATE = "invalidate iotlb"
CAT_PT_MGMT = "iommu page table mgmt"
CAT_MEMCPY = "memcpy"
CAT_RX_PARSE = "rx parsing"
CAT_COPY_USER = "copy_user"
CAT_OTHER = "other"

ALL_CATEGORIES = (
    CAT_COPY_MGMT,
    CAT_SPINLOCK,
    CAT_INVALIDATE,
    CAT_PT_MGMT,
    CAT_MEMCPY,
    CAT_RX_PARSE,
    CAT_COPY_USER,
    CAT_OTHER,
)


@dataclass
class Core:
    """One hardware thread of the simulated machine.

    ``now`` is the core's local clock in cycles.  ``charge`` advances the
    clock *and* attributes the cycles to a breakdown category;
    ``advance_to`` models idle waiting (clock moves, nothing is attributed
    to busy time).
    """

    cid: int
    numa_node: int
    now: int = 0
    busy_cycles: int = 0
    breakdown: Counter = field(default_factory=Counter)

    def charge(self, cycles: int, category: str = CAT_OTHER) -> None:
        """Consume ``cycles`` of busy CPU time in ``category``."""
        if cycles < 0:
            raise ValueError(f"negative charge: {cycles}")
        if cycles == 0:
            return
        self.now += cycles
        self.busy_cycles += cycles
        self.breakdown[category] += cycles

    def advance_to(self, when: int) -> int:
        """Idle until absolute time ``when``; returns the idle cycles spent."""
        if when <= self.now:
            return 0
        idled = when - self.now
        self.now = when
        return idled

    def spin_until(self, when: int, category: str = CAT_SPINLOCK) -> int:
        """Busy-wait until absolute time ``when`` (cycles count as busy)."""
        if when <= self.now:
            return 0
        waited = when - self.now
        self.charge(waited, category)
        return waited

    def reset_accounting(self) -> None:
        """Zero busy time and breakdown (the clock keeps running)."""
        self.busy_cycles = 0
        self.breakdown.clear()


class ChargeBatch:
    """Charges for one core, held back and applied as one sum per
    category.

    Only valid across work that reads no clock: :attr:`now` is the clock
    the core would show had every held charge been applied, and
    :meth:`apply` must run before anything reads ``core.now`` itself.
    Categories are applied in the order they were first held, so the
    core's breakdown gains keys in the order per-charge calls add them.

    A run of identical items can be held by count: ``per_item`` lists
    the ``(cycles, category)`` charges of one item, and :attr:`items`
    counts the items held.
    """

    __slots__ = ("core", "per_item", "items", "_item_cycles", "_held",
                 "_total")

    def __init__(self, core: Core, per_item: Iterable = ()):
        self.core = core
        self.per_item = tuple(per_item)
        self.items = 0
        self._item_cycles = sum(cycles for cycles, _ in self.per_item)
        self._held: dict = {}
        self._total = 0

    def add(self, cycles: int, category: str = CAT_OTHER) -> None:
        """Hold ``cycles`` of busy time in ``category``."""
        if cycles < 0:
            raise ValueError(f"negative charge: {cycles}")
        if cycles:
            held = self._held
            held[category] = held.get(category, 0) + cycles
            self._total += cycles

    @property
    def now(self) -> int:
        return self.core.now + self._total + self.items * self._item_cycles

    def apply(self) -> None:
        """Charge everything held, one call per category."""
        if self.items:
            for cycles, category in self.per_item:
                self.add(self.items * cycles, category)
            self.items = 0
        for category, cycles in self._held.items():
            self.core.charge(cycles, category)
        self._held.clear()
        self._total = 0


def merge_breakdowns(cores: Iterable[Core]) -> Counter:
    """Sum the per-category breakdowns of several cores."""
    total: Counter = Counter()
    for core in cores:
        total.update(core.breakdown)
    return total
