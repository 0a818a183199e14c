"""Fleet workload: open-loop, diurnal, composite traffic for SLO runs.

The paper's benchmarks ask "how fast is one workload at a fixed offered
load"; the ROADMAP's north star asks a different question — *how many
users can a scheme serve while still meeting its objective?*  This
workload supplies the traffic side of that question: an **open-loop**
arrival process (arrivals keep coming whether or not the server keeps
up, so queueing delay explodes past the capacity knee instead of
politely backing off) driving millions of short-lived connections
whose per-connection work is drawn from the repo's existing generators:

* ``kv``   — a memcached-style GET/SET transaction (RX request frame,
  hash-table work, TX response) — the bulk of fleet traffic;
* ``burst``— a run of MTU frames through the RX DMA path (a client
  uploading, cf. TCP_STREAM RX);
* ``bulk`` — one TSO-sized chunk through the TX DMA path (a download);
* ``io``   — a 4 KB block read through a second DMA API on a storage
  device id (the §5.5 storage path), riding the same machine.

Arrivals follow a **seeded diurnal curve**: a sinusoid (period ≪ run
length, so a short simulation still sees peaks and troughs) with
deterministic burst spikes layered on top, all derived from
:func:`repro.seeding.derive_seed` so the same seed replays the same
day, on any platform, in any process.

When the arrival pacer falls more than a backlog bound behind, the
excess arrivals are **shed** — counted as drops against the SLO
(``obs.slo.note_drop``), exactly what a listen-queue overflow does to
real fleets.  Every completed request carries its ``queue_wait`` (cycles
past the intended arrival) in the request meta, so the SLO recorder
judges *offered-to-completed* latency, not just service time.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.hw.cpu import CAT_COPY_USER, CAT_OTHER, Core
from repro.dma.api import DmaDirection
from repro.dma.registry import create_dma_api
from repro.kalloc.slab import KBuffer
from repro.obs.context import Observability
from repro.obs.requests import REQ_MEMCACHED, REQ_RX, REQ_STORAGE, REQ_TX
from repro.obs.slo import SloObjective
from repro.seeding import derive_seed
from repro.sim.costmodel import CostModel
from repro.sim.engine import UNIT_DONE
from repro.sim.units import CPU_FREQ_HZ, TCP_MSS, page_order, us_to_cycles
from repro.stats.results import RunResult
from repro.net.packets import build_frame
from repro.workloads.harness import (
    BACKLOG_INTERVALS,
    Tally,
    build_system,
    collect,
    measure,
    run_generators,
)
from repro.workloads.memcached import KeyValueStore

#: Storage rides the same machine under its own device id (cf.
#: repro.workloads.storage; the NIC keeps 0x40).
_FLEET_STORAGE_DEVICE_ID = 0x50

#: The connection kinds the fleet can serve (mix names must be these).
CONN_KINDS = ("kv", "burst", "bulk", "io")

#: Connection mix: (name, weight).  Weights are normalized; the order is
#: part of the deterministic schedule.
DEFAULT_MIX: Tuple[Tuple[str, float], ...] = (
    ("kv", 0.6), ("burst", 0.2), ("bulk", 0.1), ("io", 0.1),
)

#: Load-curve resolution: the diurnal/burst multiplier is a step
#: function over this many slots (repeating past the end).
_CURVE_SLOTS = 64

#: Diurnal curve: multiplier 1 ± amplitude over one period.
DIURNAL_AMPLITUDE = 0.3
DIURNAL_PERIOD_US = 1000.0

#: Burst spikes: per-slot probability and peak extra multiplier.
BURST_RATE = 0.15
BURST_GAIN = 0.6

_RX_BURST_FRAMES = 3
_BULK_CHUNK = 16384
_IO_BLOCK = 4096
_BLOCK_LAYER_CYCLES = us_to_cycles(1.8)


def default_fleet_objective() -> SloObjective:
    """The default fleet SLO: p99 ≤ 60 us per 200 us window, 99.9%
    availability, 240 us client timeout."""
    return SloObjective(p99_us=60.0, availability=0.999, window_us=200.0,
                        timeout_us=240.0)


@dataclass
class FleetConfig:
    """Parameters of one fleet run at a fixed user population."""

    scheme: str = "copy"
    cores: int = 2
    #: Concurrent user population; offered load is
    #: ``users * per_user_tps`` transactions/s at curve multiplier 1.
    users: int = 1_000_000
    per_user_tps: float = 0.05
    duration_us: float = 2000.0
    warmup_us: float = 300.0
    seed: int = 2016
    objective: SloObjective = field(default_factory=default_fleet_objective)
    mix: Tuple[Tuple[str, float], ...] = DEFAULT_MIX
    use_copy_hints: bool = True
    cost: Optional[CostModel] = None
    scheme_kwargs: Dict[str, object] = field(default_factory=dict)
    obs: Optional[Observability] = None

    def __post_init__(self) -> None:
        if self.users < 1:
            raise ConfigurationError("fleet needs at least one user")
        if self.per_user_tps <= 0:
            raise ConfigurationError("per_user_tps must be positive")
        if self.duration_us <= 0 or self.warmup_us < 0:
            raise ConfigurationError("bad fleet phase durations")
        total = sum(w for _, w in self.mix)
        if total <= 0 or any(w < 0 for _, w in self.mix):
            raise ConfigurationError(f"bad connection mix: {self.mix}")
        unknown = [name for name, _ in self.mix if name not in CONN_KINDS]
        if unknown:
            raise ConfigurationError(
                f"unknown connection kind(s) {unknown}; "
                f"choices: {', '.join(CONN_KINDS)}")


def build_load_curve(cfg: FleetConfig) -> List[float]:
    """The per-slot arrival-rate multiplier (deterministic from seed).

    A diurnal sinusoid sampled at :data:`_CURVE_SLOTS` points plus
    seeded burst spikes; the workload indexes it by elapsed measured
    time (mod the curve length), so a capacity search replays the same
    day at every offered load.
    """
    rng = random.Random(derive_seed(cfg.seed, "fleet", "bursts"))
    slot_us = DIURNAL_PERIOD_US / _CURVE_SLOTS
    curve: List[float] = []
    for i in range(_CURVE_SLOTS):
        t_us = (i + 0.5) * slot_us
        mult = 1.0 + DIURNAL_AMPLITUDE * math.sin(
            2.0 * math.pi * t_us / DIURNAL_PERIOD_US)
        if rng.random() < BURST_RATE:
            mult += BURST_GAIN * rng.random()
        curve.append(max(0.05, mult))
    return curve


def run_fleet(cfg: FleetConfig) -> RunResult:
    """Run the fleet at ``cfg.users``; returns throughput + SLO extras."""
    system = build_system(cfg, cfg.cores)
    machine, cost = system.machine, system.cost
    obs = machine.obs

    # Storage path: its own DMA API on the same machine/IOMMU, so block
    # I/O pays the same scheme's protection costs as the NIC path.
    io_api = create_dma_api(cfg.scheme, machine, system.iommu,
                            _FLEET_STORAGE_DEVICE_ID, system.allocators,
                            **dict(cfg.scheme_kwargs))
    io_port = io_api.port()
    order = page_order(_IO_BLOCK + 512)
    io_buffers = {}
    for core in machine.cores:
        pa = system.allocators.buddies[core.numa_node].alloc_pages(order)
        io_buffers[core.cid] = KBuffer(pa=pa + 512, size=_IO_BLOCK,
                                       node=core.numa_node)
    io_payload = (bytes(range(256)) * (_IO_BLOCK // 256))[:_IO_BLOCK]

    # kv (memcached-style) material.
    stores = [KeyValueStore() for _ in range(cfg.cores)]
    key_space = [f"key-{i:08d}".encode().ljust(64, b"k")
                 for i in range(256)]
    kv_value = (bytes(range(256)) * 5)[:1024]
    for store in stores:
        for key in key_space:
            store.set(key, kv_value)
    kv_req = build_frame(104)            # verb + 64 B key
    kv_resp_bytes = 1024 + 64
    mtu_frame = build_frame(TCP_MSS)

    curve = build_load_curve(cfg)
    slot_cycles = max(1, us_to_cycles(DIURNAL_PERIOD_US) // _CURVE_SLOTS)
    base_interval = CPU_FREQ_HZ / (cfg.users * cfg.per_user_tps / cfg.cores)

    names = [name for name, _ in cfg.mix]
    total_weight = sum(w for _, w in cfg.mix)
    cumulative: List[float] = []
    acc = 0.0
    for _, weight in cfg.mix:
        acc += weight / total_weight
        cumulative.append(acc)

    def pick_connection(rng: random.Random) -> str:
        roll = rng.random()
        for name, bound in zip(names, cumulative):
            if roll < bound:
                return name
        return names[-1]

    tally = Tally()
    served_by_kind = {name: 0 for name in names}

    # ------------------------------------------------------------------
    # Per-connection service generators (driver rx/tx requests fold
    # into the outer fleet request as stages).
    # ------------------------------------------------------------------
    def serve_kv(c: Core, rng: random.Random) -> int:
        qid = c.cid
        store = stores[c.cid]
        is_get = rng.random() < 0.9
        key = key_space[rng.randrange(len(key_space))]
        if system.driver.receive_one(c, qid, kv_req) is None:
            raise ConfigurationError("fleet kv request dropped")
        yield
        c.charge(cost.syscall_cycles, CAT_OTHER)
        c.charge(cost.memcached_app_cycles, CAT_OTHER)
        if is_get:
            store.get(key)
            resp_bytes = kv_resp_bytes
        else:
            store.set(key, kv_value)
            resp_bytes = 48
        yield
        c.charge(cost.syscall_cycles, CAT_OTHER)
        c.charge(cost.copy_to_user_cycles(resp_bytes), CAT_COPY_USER)
        system.driver.transmit_one(c, qid, resp_bytes)
        return len(kv_req) + resp_bytes

    def serve_burst(c: Core, rng: random.Random) -> int:
        qid = c.cid
        for _ in range(_RX_BURST_FRAMES):
            if system.driver.receive_one(c, qid, mtu_frame) is None:
                raise ConfigurationError("fleet burst frame dropped")
            c.charge(cost.copy_to_user_cycles(TCP_MSS), CAT_COPY_USER)
            c.charge(cost.rx_other_cycles, CAT_OTHER)
            yield
        c.charge(cost.syscall_cycles, CAT_OTHER)
        return _RX_BURST_FRAMES * TCP_MSS

    def serve_bulk(c: Core, rng: random.Random) -> int:
        qid = c.cid
        c.charge(cost.syscall_cycles, CAT_OTHER)
        c.charge(cost.copy_to_user_cycles(_BULK_CHUNK), CAT_COPY_USER)
        c.charge(cost.tcp_tx_fixed_cycles, CAT_OTHER)
        yield
        system.driver.transmit_one(c, qid, _BULK_CHUNK)
        return _BULK_CHUNK

    def serve_io(c: Core, rng: random.Random) -> int:
        buf = io_buffers[c.cid]
        c.charge(_BLOCK_LAYER_CYCLES, CAT_OTHER)
        handle = io_api.dma_map(c, buf, DmaDirection.FROM_DEVICE)
        io_port.dma_write(handle.iova, io_payload)
        yield
        io_api.dma_unmap(c, handle)
        return _IO_BLOCK

    serve = {"kv": serve_kv, "burst": serve_burst, "bulk": serve_bulk,
             "io": serve_io}
    req_kind = {"kv": REQ_MEMCACHED, "burst": REQ_RX, "bulk": REQ_TX,
                "io": REQ_STORAGE}

    # ------------------------------------------------------------------
    # Open-loop pacer: one generator per core, duration-bounded.
    # ------------------------------------------------------------------
    def worker(c: Core, phase_start: int, phase_cycles: int):
        rng = random.Random(derive_seed(cfg.seed, "fleet", c.cid))
        phase_end = phase_start + phase_cycles
        next_arrival = float(phase_start)
        while c.now < phase_end:
            slot = ((c.now - phase_start) // slot_cycles) % _CURVE_SLOTS
            interval = base_interval / curve[slot]
            next_arrival += interval
            if c.now < next_arrival:
                c.advance_to(int(next_arrival))
            elif next_arrival < c.now - BACKLOG_INTERVALS * interval:
                # Overloaded: shed the backlog beyond the bound, like a
                # listen-queue cap.  Every shed arrival is a dropped
                # connection — an SLO bad event, not a free pass.
                bound = c.now - BACKLOG_INTERVALS * interval
                shed = int((bound - next_arrival) // interval) + 1
                next_arrival += shed * interval
                if obs.enabled and tally.measuring:
                    obs.slo.note_drop(c.now, shed)
            queue_wait = max(0, c.now - int(next_arrival))
            kind = pick_connection(rng)
            if obs.enabled:
                obs.requests.begin(c, req_kind[kind], conn=kind,
                                   queue_wait=queue_wait)
            nbytes = yield from serve[kind](c, rng)
            if obs.enabled:
                obs.requests.end(c)
            if tally.measuring:
                served_by_kind[kind] += 1
            tally.add(nbytes)
            yield UNIT_DONE

    def run_phase(measured: bool, start: int) -> None:
        # Arm the SLO recorder for the measured phase only, so warmup
        # transients never count against the objective.
        armed = measured and obs.enabled
        if armed:
            obs.slo.configure(cfg.objective, start=start)
        cycles = us_to_cycles(cfg.duration_us if measured else cfg.warmup_us)
        run_generators(machine, "fleet", measured,
                       lambda c: worker(c, start, cycles))
        if armed:
            obs.slo.finalize(machine.wall_clock())

    start = measure(machine, run_phase, tally)
    params = {"users": cfg.users, "cores": cfg.cores,
              "duration_us": cfg.duration_us}
    result = collect(system, cfg.scheme, "fleet", params, tally, start)
    if result.wall_cycles > 0:
        result.transactions_per_sec = (tally.units * CPU_FREQ_HZ
                                       / result.wall_cycles)
    result.extras["offered_tps"] = cfg.users * cfg.per_user_tps
    result.extras["load_curve"] = [round(m, 4) for m in curve]
    result.extras["served"] = dict(served_by_kind)
    if obs.enabled:
        result.extras["slo"] = obs.slo.summary()
    system.teardown_queues()
    return result
