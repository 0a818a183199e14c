"""Chaos soak harness: every scheme under every fault mix, no leaks.

The harness drives a full system (NIC + driver + scheme) through a
bidirectional traffic loop while a :class:`~repro.faults.injector.
FaultInjector` fires a :class:`~repro.faults.plan.FaultPlan` at it, then
quiesces and audits the wreckage:

* ``live_mappings == 0`` — every ``dma_map`` met its ``dma_unmap``;
* ``outstanding_ranges() == 0`` — no leaked IOVA ranges, even on the
  paths where a mid-map failure forced unwinding;
* shadow pool ``in_flight == 0`` and balanced accounting;
* *no-window* schemes (the ``-strict`` family and ``copy``) show
  **exactly zero** stale byte·cycles and zero stale accesses — injected
  invalidation stalls must be recovered *inside* ``dma_unmap``;
* windowed schemes end with **zero open** stale pages once quiesced —
  their exposure only shrinks after the traffic stops.

The injector is inactive during build/setup and quiesce/teardown, so a
plan perturbs only the traffic phase — recovery-free control paths can
never trip, and the audited end state is reached deterministically.
Same seed + same plan ⇒ byte-identical JSONL event trace.

``soak_matrix`` runs the scheme × mix × seed cube and renders a
degradation report: each faulted run is compared against a same-seed
baseline run with an empty plan, so the report shows what the faults
*cost*, not what the scheme costs.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.attacks.attacker import AttackerDevice
from repro.dma.registry import ALL_SCHEMES, scheme_properties
from repro.errors import SimulationError
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    SITE_ATTACK_BURST,
    SITE_INV_STALL,
    SITE_IOVA_ALLOC,
    SITE_NIC_RX_DROP,
    SITE_POOL_GROW,
    SITE_PT_MAP,
    SITE_RING_OVERFLOW,
    FaultPlan,
    SiteRule,
    site_seed,
)
from repro.net.packets import build_frame
from repro.obs.context import Observability
from repro.sim.units import TCP_MSS
from repro.system import System, SystemConfig

#: Named fault mixes for the soak matrix.  Rates are per-consult, so a
#: few hundred traffic units see each armed site fire several times.
MIXES: Dict[str, Dict[str, SiteRule]] = {
    "resource": {
        SITE_POOL_GROW: SiteRule(rate=0.05),
        SITE_IOVA_ALLOC: SiteRule(rate=0.05),
        SITE_PT_MAP: SiteRule(rate=0.02),
    },
    "invalidation": {
        SITE_INV_STALL: SiteRule(rate=0.2),
    },
    "device": {
        SITE_NIC_RX_DROP: SiteRule(rate=0.05),
        SITE_RING_OVERFLOW: SiteRule(rate=0.05),
        SITE_ATTACK_BURST: SiteRule(rate=0.05),
    },
    "mixed": {
        SITE_POOL_GROW: SiteRule(rate=0.02),
        SITE_IOVA_ALLOC: SiteRule(rate=0.02),
        SITE_PT_MAP: SiteRule(rate=0.01),
        SITE_INV_STALL: SiteRule(rate=0.05),
        SITE_NIC_RX_DROP: SiteRule(rate=0.02),
        SITE_RING_OVERFLOW: SiteRule(rate=0.02),
        SITE_ATTACK_BURST: SiteRule(rate=0.02),
    },
}

#: Probes per attack burst.  Reads only: hostile reads are side-effect
#: free on every scheme (including the unprotected baselines), so the
#: soak measures protection and recovery, not self-inflicted memory
#: corruption — the write-attack scenarios live in repro.attacks.
_BURST_PROBES = 4
_BURST_SPAN = 1 << 35


def mix_plan(mix: str, seed: int) -> FaultPlan:
    """The named ``mix`` as a plan under ``seed`` (empty plan for "none")."""
    if mix == "none":
        return FaultPlan(seed=seed)
    try:
        rules = MIXES[mix]
    except KeyError:
        raise SimulationError(
            f"unknown fault mix {mix!r}; choices: "
            + ", ".join(["none", *MIXES])) from None
    return FaultPlan(seed=seed, rules=dict(rules))


@dataclass
class ChaosResult:
    """Outcome of one chaos run, with the post-quiesce audit attached."""

    scheme: str
    seed: int
    plan_desc: str
    cores: int
    units: int
    rx_delivered: int = 0
    rx_offered: int = 0
    tx_segments: int = 0
    wall_cycles: int = 0
    fault_summary: Dict[str, Dict[str, int]] = field(default_factory=dict)
    recovery: Dict[str, int] = field(default_factory=dict)
    exposure: Dict[str, object] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)
    trace_jsonl: Optional[str] = None
    #: Host seconds the run took — the only wall-clock number here;
    #: everything else on this result is deterministic.
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def goodput(self) -> float:
        """Delivered RX bytes per simulated cycle (degradation metric)."""
        if self.wall_cycles <= 0:
            return 0.0
        return self.rx_delivered * TCP_MSS / self.wall_cycles

    @property
    def sim_cycles_per_wall_second(self) -> float:
        """Simulator speed (the bench throughput metric, per soak run)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.wall_cycles / self.wall_seconds


def _scheme_kwargs(scheme: str) -> Dict[str, object]:
    if scheme == "copy":
        # The chaos harness opts into the full degradation ladder:
        # shadow pool -> §5.3 fallback -> swiotlb-style bounce.  Regular
        # runs keep the default (fail loudly) so capacity bugs surface.
        return {"bounce_fallback": True}
    return {}


def _collect_recovery(system: System) -> Dict[str, int]:
    driver = system.driver
    counters = {
        "rx_refill_failures": driver.stats.rx_refill_failures,
        "rx_refill_recoveries": driver.stats.rx_refill_recoveries,
        "tx_map_failures": driver.stats.tx_map_failures,
        "tx_ring_recoveries": driver.stats.tx_ring_recoveries,
        "tx_dropped_chunks": driver.stats.tx_dropped_chunks,
        "rx_drops_injected": system.nic.stats.rx_drops_injected,
    }
    if system.iommu is not None:
        q = system.iommu.invalidation_queue
        counters.update({
            "inv_timeouts": q.timeouts,
            "inv_recovered_stalls": q.recovered_stalls,
            "inv_queue_resets": q.queue_resets,
        })
    api = system.dma_api
    if hasattr(api, "bounce_maps"):
        counters["bounce_maps"] = api.bounce_maps
    pool = getattr(api, "pool", None)
    if pool is not None:
        counters["pool_grow_failures"] = getattr(pool.stats,
                                                 "grow_failures", 0)
    return counters


def _audit(system: System, obs: Optional[Observability]) -> List[str]:
    """Post-quiesce invariant audit; returns human-readable violations."""
    violations: List[str] = []
    api = system.dma_api

    if api.live_mappings != 0:
        violations.append(
            f"{api.live_mappings} DMA mappings still live after quiesce")
    for attr in ("iova_allocator", "fallback_iova"):
        allocator = getattr(api, attr, None)
        if allocator is None:
            continue
        leaked = allocator.outstanding_ranges()
        if leaked:
            violations.append(
                f"{attr} leaked {leaked} IOVA range(s) at quiesce")
    pool = getattr(api, "pool", None)
    if pool is not None:
        if pool.stats.in_flight != 0:
            violations.append(
                f"shadow pool has {pool.stats.in_flight} buffers in "
                "flight after quiesce")
        if pool.stats.acquires != pool.stats.releases:
            violations.append(
                f"shadow pool acquires ({pool.stats.acquires}) != "
                f"releases ({pool.stats.releases})")

    if obs is not None and obs.enabled:
        summary = obs.exposure.summary()
        props = scheme_properties(system.config.scheme)
        if props.no_window and props.iommu_protection:
            # Strict schemes promise a zero window even while faults are
            # being injected into their invalidation path.
            if summary["stale_byte_cycles"] != 0:
                violations.append(
                    f"no-window scheme exposed "
                    f"{summary['stale_byte_cycles']} stale byte-cycles")
            if summary["stale_accesses"] != 0:
                violations.append(
                    f"no-window scheme served "
                    f"{summary['stale_accesses']} stale accesses")
        if summary["stale_open_pages"] != 0:
            violations.append(
                f"{summary['stale_open_pages']} stale windows still open "
                "after quiesce (deferred exposure must only shrink)")
    return violations


def run_chaos(scheme: str, plan: FaultPlan, *, cores: int = 1,
              units: int = 200, capture: bool = True,
              chunk_bytes: int = 4096,
              keep_trace: bool = False) -> ChaosResult:
    """One soak run: build, blast traffic under the plan, quiesce, audit.

    Never raises on an *injected* fault — absorbing them is the point.
    Invariant violations are reported on the result, not raised, so a
    matrix run can show every failure instead of the first.
    """
    started = time.perf_counter()
    obs = Observability.capture() if capture else None
    injector = FaultInjector(plan)
    system = System.build(SystemConfig(
        scheme=scheme, cores=cores, obs=obs, faults=injector,
        scheme_kwargs=_scheme_kwargs(scheme)))
    system.setup_queues()

    machine = system.machine
    queues = system.config.resolved_queues()
    frame = build_frame(TCP_MSS)
    attacker = AttackerDevice(system.dma_api.port())
    burst_rng = random.Random(site_seed(plan.seed, SITE_ATTACK_BURST) ^
                              0x5EED)
    result = ChaosResult(scheme=scheme, seed=plan.seed,
                         plan_desc=plan.describe(), cores=cores,
                         units=units)

    injector.start()
    for i in range(units):
        qid = i % queues
        core = machine.core(qid % machine.num_cores)
        result.rx_offered += 1
        if system.driver.receive_one(core, qid, frame) is not None:
            result.rx_delivered += 1
        result.tx_segments += system.driver.transmit_one(core, qid,
                                                         chunk_bytes)
        if injector.fires(SITE_ATTACK_BURST, core):
            for _ in range(_BURST_PROBES):
                iova = burst_rng.randrange(0, _BURST_SPAN) & ~0xFFF
                attacker.try_read(iova, 64)
    injector.stop()

    # Quiesce: drain the datapath with injection off — recovery must
    # already have restored enough state for a clean teardown.
    core0 = machine.core(0)
    system.teardown_queues()
    system.dma_api.quiesce(core0)
    if hasattr(system.dma_api, "expire_all"):
        # Self-invalidating hardware: model the clock passing every
        # armed threshold so its windows close before the audit.
        system.dma_api.expire_all()
    pool = getattr(system.dma_api, "pool", None)
    if pool is not None:
        pool.shrink(core0)

    result.wall_cycles = machine.wall_clock()
    result.fault_summary = injector.summary()
    result.recovery = _collect_recovery(system)
    if obs is not None:
        result.exposure = obs.exposure.summary()
    result.violations = _audit(system, obs)
    if keep_trace and obs is not None:
        result.trace_jsonl = obs.tracer.to_jsonl()
    result.wall_seconds = time.perf_counter() - started
    return result


# ----------------------------------------------------------------------
# The matrix: schemes x mixes x seeds, with a degradation report.
# ----------------------------------------------------------------------
@dataclass
class SoakRow:
    result: ChaosResult
    mix: str
    baseline_goodput: float

    @property
    def degradation_pct(self) -> float:
        if self.baseline_goodput <= 0:
            return 0.0
        loss = 1.0 - self.result.goodput / self.baseline_goodput
        return max(0.0, 100.0 * loss)


def soak_matrix(schemes: Sequence[str] = ALL_SCHEMES,
                mixes: Sequence[str] = tuple(MIXES),
                seeds: Sequence[int] = (1,), *, cores: int = 1,
                units: int = 200,
                capture: bool = True) -> List[SoakRow]:
    """Run the full cube; baselines (empty plan) are shared per scheme
    x seed so each mix's degradation is measured against the same run."""
    rows: List[SoakRow] = []
    baselines: Dict[tuple, float] = {}
    for scheme in schemes:
        for seed in seeds:
            key = (scheme, seed, cores, units)
            if key not in baselines:
                base = run_chaos(scheme, FaultPlan(seed=seed), cores=cores,
                                 units=units, capture=capture)
                baselines[key] = base.goodput
                rows.append(SoakRow(result=base, mix="none",
                                    baseline_goodput=base.goodput))
            for mix in mixes:
                res = run_chaos(scheme, mix_plan(mix, seed), cores=cores,
                                units=units, capture=capture)
                rows.append(SoakRow(result=res, mix=mix,
                                    baseline_goodput=baselines[key]))
    return rows


def render_soak_report(rows: Sequence[SoakRow]) -> str:
    """Human-readable degradation report for a soak matrix."""
    lines = [
        f"{'scheme':<20}{'mix':<14}{'seed':>5}{'rx':>7}{'drop%':>8}"
        f"{'degr%':>8}{'recoveries':>12}  status",
        "-" * 84,
    ]
    for row in rows:
        r = row.result
        dropped = r.rx_offered - r.rx_delivered
        drop_pct = 100.0 * dropped / r.rx_offered if r.rx_offered else 0.0
        recoveries = (r.recovery.get("inv_recovered_stalls", 0)
                      + r.recovery.get("rx_refill_recoveries", 0)
                      + r.recovery.get("tx_ring_recoveries", 0)
                      + r.recovery.get("bounce_maps", 0))
        status = "ok" if r.ok else "FAIL: " + "; ".join(r.violations)
        lines.append(
            f"{r.scheme:<20}{row.mix:<14}{r.seed:>5}{r.rx_delivered:>7}"
            f"{drop_pct:>8.1f}{row.degradation_pct:>8.1f}"
            f"{recoveries:>12}  {status}")
    failures = sum(1 for row in rows if not row.result.ok)
    lines.append("-" * 84)
    lines.append(f"{len(rows)} runs, {failures} invariant failure(s)")
    # The bench throughput section, for soaks: long chaos runs also
    # track simulator speed, so an event-loop regression shows up here
    # before it shows up as a CI timeout.
    total_sim = sum(row.result.wall_cycles for row in rows)
    total_wall = sum(row.result.wall_seconds for row in rows)
    if total_wall > 0:
        lines.append(
            f"simulator throughput: {total_sim:,} sim cycles in "
            f"{total_wall:.1f}s wall "
            f"({total_sim / total_wall:,.0f} sim cycles/s)")
    return "\n".join(lines)
