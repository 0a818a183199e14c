"""The measured run every workload shares: warmup, then measure.

A runner supplies its per-unit work and one ``run_phase(measured,
start)`` closure that runs a phase to completion; :func:`measure` owns
the phases around it, a :class:`Tally` counts what the measured phase
completed, and :func:`collect` (or :func:`measured_result`, for a runner
without a :class:`~repro.system.System`) turns both into a
:class:`~repro.stats.results.RunResult`.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Optional

from repro.hw.cpu import Core, merge_breakdowns
from repro.hw.machine import Machine
from repro.iommu.iommu import Iommu
from repro.obs.metrics import record_iotlb_stats
from repro.sim.engine import GeneratorTask, Scheduler
from repro.sim.units import cycles_to_us
from repro.stats.results import RunResult
from repro.system import System, SystemConfig

#: Open-loop backlog bound, in inter-arrival intervals.
BACKLOG_INTERVALS = 64


class Tally:
    """Units and payload bytes completed during the measured phase."""

    __slots__ = ("measuring", "units", "bytes")

    def __init__(self) -> None:
        self.measuring = False
        self.units = 0
        self.bytes = 0

    def add(self, nbytes: int) -> None:
        """Count one completed unit of ``nbytes``; a no-op in warmup."""
        if self.measuring:
            self.units += 1
            self.bytes += nbytes


class Pacer:
    """One core's open-loop arrivals.  A core ahead of its next arrival
    idles until it; a core that falls more than :data:`BACKLOG_INTERVALS`
    behind keeps the pacer that close instead of accumulating unbounded
    backlog (those arrivals would back up at the device and be dropped).
    """

    __slots__ = ("next_arrival",)

    def __init__(self, next_arrival: float) -> None:
        self.next_arrival = next_arrival

    def wait(self, core: Core, interval: float) -> None:
        """Advance to the next arrival, ``interval`` after the last one."""
        self.next_arrival += interval
        if core.now < self.next_arrival:
            core.advance_to(int(self.next_arrival))
        elif self.next_arrival < core.now - BACKLOG_INTERVALS * interval:
            self.next_arrival = core.now - BACKLOG_INTERVALS * interval


def measure(machine: Machine, run_phase: Callable[[bool, int], None],
            tally: Tally) -> int:
    """Run ``run_phase(measured, start)`` for warmup, then for the
    measured phase, each from a synced clock ``start``; returns the
    measured phase's start.  Accounting is reset exactly once, right
    before the measured phase, and each phase record closes with its
    busy cycles and per-category breakdown.
    """
    obs = machine.obs
    for measured in (False, True):
        if measured:
            machine.reset_accounting()
            tally.measuring = True
        start = machine.sync_clocks()
        obs.phase_begin("measure" if measured else "warmup", start)
        run_phase(measured, start)
        obs.phase_end(machine.wall_clock(),
                      busy_cycles=sum(c.busy_cycles for c in machine.cores),
                      breakdown=merge_breakdowns(machine.cores))
    return start


def run_generators(machine: Machine, name: str, measured: bool,
                   worker: Callable[[Core], Iterator[object]]) -> None:
    """Run ``worker(core)`` as one generator task per core until every
    task finishes; a task is named ``<name><cid>``, with a ``-warm``
    suffix in the warmup phase."""
    suffix = "" if measured else "-warm"
    Scheduler([GeneratorTask(core=c, gen=worker(c),
                             name=f"{name}{c.cid}{suffix}")
               for c in machine.cores], obs=machine.obs).run()


def build_system(cfg, cores: int, rx_buf_size: int = 2048) -> System:
    """Build and set up a ``cores``-core NIC system from a runner's own
    config (its scheme, copy hints, cost model, scheme kwargs, obs)."""
    system = System.build(SystemConfig(
        scheme=cfg.scheme, cores=cores,
        rx_buf_size=rx_buf_size,
        use_copy_hints=cfg.use_copy_hints,
        cost=cfg.cost,
        scheme_kwargs=dict(cfg.scheme_kwargs),
        obs=cfg.obs,
    ))
    system.setup_queues()
    return system


def measured_result(machine: Machine, scheme: str, workload: str,
                    params: Dict[str, object], tally: Tally,
                    start: int) -> RunResult:
    """The measured phase's result: the tally over the wall cycles since
    ``start`` and the busy cycles and breakdown since the reset."""
    return RunResult(
        scheme=scheme, workload=workload, params=params,
        units=tally.units, payload_bytes=tally.bytes,
        wall_cycles=machine.wall_clock() - start,
        busy_cycles=sum(c.busy_cycles for c in machine.cores),
        cores=machine.num_cores,
        breakdown_cycles=dict(merge_breakdowns(machine.cores)),
    )


def collect(system: System, scheme: str, workload: str,
            params: Dict[str, object], tally: Tally,
            start: int) -> RunResult:
    """:func:`measured_result` plus the system's IOTLB, shadow-pool,
    invalidation and deferred-window counters (and, on a captured run,
    the recorder summaries)."""
    result = measured_result(system.machine, scheme, workload, params,
                             tally, start)
    result.extras["iotlb"] = (vars(system.iommu.iotlb.stats).copy()
                              if system.iommu else {})
    pool = getattr(system.dma_api, "pool", None)
    if pool is not None:
        result.extras["pool"] = vars(pool.stats).copy()
    if system.iommu is not None:
        record_invalidation(result, system.iommu)
    samples = getattr(system.dma_api, "window_samples", None)
    if samples:
        result.extras["window_mean_us"] = cycles_to_us(
            sum(samples) / len(samples))
        result.extras["window_max_us"] = cycles_to_us(max(samples))
    attach_capture(result, system.machine, system.iommu)
    return result


def record_invalidation(result: RunResult, iommu: Iommu) -> None:
    """Record the invalidation queue's counters in ``result.extras``,
    with the hardware-side queueing decomposition the scalability
    observatory reads (arrivals and service against queue delay)."""
    invq = iommu.invalidation_queue
    hw = invq.hardware
    result.extras.update(
        inv_lock_wait_cycles=invq.lock_wait_cycles,
        sync_invalidations=invq.sync_invalidations,
        batch_flushes=invq.batch_flushes,
        inv_hw_completions=hw.completions,
        inv_hw_service_cycles=hw.total_service_cycles,
        inv_hw_queue_delay_cycles=hw.queue_delay_cycles)


def attach_capture(result: RunResult, machine: Machine,
                   iommu: Optional[Iommu]) -> None:
    """On a captured run, record the IOTLB counters in ``result.extras``
    as metrics, then attach the metrics, exposure, request and lock
    summaries.  An uncaptured run's extras stay as they are."""
    obs = machine.obs
    if not obs.enabled:
        return
    if iommu is not None:
        record_iotlb_stats(obs.metrics, machine.wall_clock(),
                           result.extras["iotlb"], iommu.iotlb.stats.hit_rate)
    result.extras["metrics"] = obs.metrics.snapshot()
    result.extras["exposure"] = obs.exposure.summary()
    result.extras["requests"] = obs.requests.summary()
    result.extras["locks"] = obs.locks.snapshot()
