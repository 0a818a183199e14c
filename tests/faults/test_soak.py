"""Chaos soak invariants: no leaks, no deadlock, exposure bounds hold."""

import pytest

from repro.faults.plan import (
    SITE_INV_STALL,
    SITE_IOVA_ALLOC,
    SITE_POOL_GROW,
    SITE_PT_MAP,
    SITE_RING_OVERFLOW,
    FaultPlan,
    SiteRule,
)
from repro.faults.soak import (
    MIXES,
    ChaosResult,
    SoakRow,
    mix_plan,
    render_soak_report,
    run_chaos,
    soak_matrix,
)

STRICT_SCHEMES = ("identity-strict", "linux-strict", "copy")


def test_mix_plan_names():
    assert mix_plan("none", 1).empty
    for name in MIXES:
        assert not mix_plan(name, 1).empty


@pytest.mark.parametrize("scheme", STRICT_SCHEMES)
def test_strict_schemes_zero_exposure_under_inv_stalls(scheme):
    plan = FaultPlan(seed=3, rules={SITE_INV_STALL: SiteRule(rate=0.3)})
    result = run_chaos(scheme, plan, cores=1, units=60)
    assert result.ok, result.violations
    assert result.exposure["stale_byte_cycles"] == 0
    assert result.exposure["stale_accesses"] == 0


def test_deferred_scheme_quiesces_clean():
    result = run_chaos("identity-deferred", mix_plan("mixed", 2),
                       cores=2, units=60)
    assert result.ok, result.violations
    assert result.exposure["stale_open_pages"] == 0


def test_resource_faults_leak_nothing():
    plan = FaultPlan(seed=5, rules={
        SITE_POOL_GROW: SiteRule(rate=0.2),
        SITE_IOVA_ALLOC: SiteRule(rate=0.2),
    })
    result = run_chaos("copy", plan, cores=1, units=80)
    assert result.ok, result.violations


def test_ring_overflow_recovers_and_accounts():
    plan = FaultPlan(seed=1, rules={
        SITE_RING_OVERFLOW: SiteRule(rate=0.5)})
    result = run_chaos("identity-deferred", plan, cores=1, units=40)
    assert result.ok, result.violations
    assert result.recovery["tx_ring_recoveries"] > 0
    # Reaping always makes room in this workload: nothing dropped.
    assert result.tx_segments > 0


def test_inv_stall_recovery_counters():
    plan = FaultPlan(seed=2, rules={SITE_INV_STALL: SiteRule(rate=0.5)})
    result = run_chaos("identity-strict", plan, cores=1, units=40)
    assert result.ok, result.violations
    assert result.recovery["inv_timeouts"] > 0
    assert (result.recovery["inv_recovered_stalls"]
            + result.recovery["inv_queue_resets"]) > 0


@pytest.mark.parametrize("spec, cores", [("pool.grow:at=1", 1),
                                         ("pool.grow:rate=0.5", 2)])
def test_pool_grow_failures_are_counted(spec, cores):
    """Every refused shadow-pool grow shows in the recovery counters."""
    result = run_chaos("copy", FaultPlan.parse(spec, seed=1), cores=cores,
                       units=120)
    assert result.ok, result.violations
    fires = result.fault_summary[SITE_POOL_GROW]["fires"]
    assert fires >= 1
    assert result.recovery["pool_grow_failures"] == fires


def test_swiotlb_bounce_slot_failures_are_counted():
    """swiotlb has no shadow pool: each bounce-slot allocation the
    ``pool.grow`` site refuses shows in its own recovery counter."""
    result = run_chaos("swiotlb", FaultPlan.parse("pool.grow:at=1", seed=1),
                       cores=1, units=120)
    assert result.ok, result.violations
    fires = result.fault_summary[SITE_POOL_GROW]["fires"]
    assert fires == 1
    assert result.recovery["bounce_slot_failures"] == fires
    assert "pool_grow_failures" not in result.recovery


def test_throughput_degrades_gracefully():
    """Faulted run still delivers most traffic — no deadlock, no cliff."""
    base = run_chaos("copy", FaultPlan(seed=1), cores=1, units=60)
    hurt = run_chaos("copy", mix_plan("mixed", 1), cores=1, units=60)
    assert hurt.ok, hurt.violations
    assert hurt.rx_delivered >= int(0.5 * base.rx_delivered)
    assert hurt.goodput > 0


def test_soak_matrix_and_report():
    rows = soak_matrix(schemes=("identity-strict",),
                       mixes=("invalidation",), seeds=(1,), units=30)
    assert len(rows) == 2   # baseline + one mix
    assert all(row.result.ok for row in rows)
    report = render_soak_report(rows)
    assert "identity-strict" in report
    assert "0 invariant failure(s)" in report
    baseline = next(row for row in rows if row.mix == "none")
    assert baseline.degradation_pct == 0.0


def test_soak_report_keeps_scheme_and_mix_apart():
    """A scheme name wider than any fixed column still leaves its mix a
    token of its own; a failure's violations follow the table."""
    def row(scheme, mix, violations=()):
        result = ChaosResult(scheme=scheme, seed=1, plan_desc="", cores=1,
                             units=60, rx_delivered=60, rx_offered=60,
                             violations=list(violations))
        return SoakRow(result=result, mix=mix, baseline_goodput=0.0)

    report = render_soak_report([
        row("identity-deferred-bounded", "none"),
        row("identity-deferred-bounded", "invalidation"),
        row("copy", "none", ["leaked 1 mapping"])])
    lines = report.splitlines()
    assert [line.split()[:2] for line in lines[2:5]] == [
        ["identity-deferred-bounded", "none"],
        ["identity-deferred-bounded", "invalidation"],
        ["copy", "none"]]
    assert [line.split()[-1] for line in lines[2:5]] == ["ok", "ok", "FAIL"]
    assert "FAIL copy none seed 1: leaked 1 mapping" in lines
    assert "3 runs, 1 invariant failure(s)" in lines


@pytest.mark.parametrize("scheme", ["identity-strict", "identity-deferred",
                                    "identity-strict-percore",
                                    "identity-deferred-bounded"])
def test_multi_page_zero_copy_maps_survive_resource_faults(scheme):
    """64 KB TX buffers map as multi-page runs: page-table, IOVA and
    invalidation faults on them must unwind and quiesce clean."""
    plan = FaultPlan(seed=4, rules={
        SITE_PT_MAP: SiteRule(rate=0.2),
        SITE_IOVA_ALLOC: SiteRule(rate=0.1),
        SITE_INV_STALL: SiteRule(rate=0.2),
    })
    result = run_chaos(scheme, plan, cores=2, units=40, chunk_bytes=65536)
    assert result.ok, result.violations
    assert result.fault_summary[SITE_PT_MAP]["fires"] > 0
    assert result.tx_segments > 0
