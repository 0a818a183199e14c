"""Core clock / accounting tests."""

import pytest

from repro.hw.cpu import (
    ALL_CATEGORIES,
    CAT_MEMCPY,
    CAT_OTHER,
    CAT_SPINLOCK,
    Core,
    merge_breakdowns,
)


def test_charge_advances_clock_and_busy():
    core = Core(cid=0, numa_node=0)
    core.charge(100, CAT_MEMCPY)
    core.charge(50)
    assert core.now == 150
    assert core.busy_cycles == 150
    assert core.breakdown[CAT_MEMCPY] == 100
    assert core.breakdown[CAT_OTHER] == 50


def test_charge_zero_is_noop():
    core = Core(cid=0, numa_node=0)
    core.charge(0)
    assert core.now == 0
    assert not core.breakdown


def test_charge_negative_rejected():
    core = Core(cid=0, numa_node=0)
    with pytest.raises(ValueError):
        core.charge(-1)


def test_advance_to_is_idle():
    core = Core(cid=0, numa_node=0)
    idled = core.advance_to(500)
    assert idled == 500
    assert core.now == 500
    assert core.busy_cycles == 0


def test_advance_to_past_is_noop():
    core = Core(cid=0, numa_node=0)
    core.charge(100)
    assert core.advance_to(50) == 0
    assert core.now == 100


def test_spin_until_is_busy():
    core = Core(cid=0, numa_node=0)
    waited = core.spin_until(300)
    assert waited == 300
    assert core.busy_cycles == 300
    assert core.breakdown[CAT_SPINLOCK] == 300


def test_reset_accounting_keeps_clock():
    core = Core(cid=0, numa_node=0)
    core.charge(100)
    core.reset_accounting()
    assert core.now == 100
    assert core.busy_cycles == 0
    assert not core.breakdown


def test_merge_breakdowns():
    a = Core(cid=0, numa_node=0)
    b = Core(cid=1, numa_node=0)
    a.charge(10, CAT_MEMCPY)
    b.charge(20, CAT_MEMCPY)
    b.charge(5, CAT_OTHER)
    merged = merge_breakdowns([a, b])
    assert merged[CAT_MEMCPY] == 30
    assert merged[CAT_OTHER] == 5


def test_categories_match_paper_figures():
    assert set(ALL_CATEGORIES) == {
        "copy mgmt", "spinlock", "invalidate iotlb",
        "iommu page table mgmt", "memcpy", "rx parsing",
        "copy_user", "other",
    }
