"""netperf-style workloads: TCP_STREAM (RX and TX) and TCP_RR.

These drive the simulated system the way the paper's §6 benchmarks drive
the testbed:

* **TCP_STREAM RX** — the evaluated machine receives MTU frames at the
  offered load (bounded by the sender's syscall rate for small messages —
  §6 footnote 6 — and by the 40 Gb/s line otherwise), one netperf
  instance (queue + core) per core.
* **TCP_STREAM TX** — the evaluated machine transmits; TSO passes up to
  64 KB chunks to the NIC, so large-message TX is dominated by per-chunk
  costs (including, for ``copy``, the 64 KB shadow memcpy — Fig. 5b).
* **TCP_RR** — single-connection request/response; reports the mean
  round-trip latency and the CPU spent per transaction (Figures 9/10).

Each run returns a :class:`~repro.stats.results.RunResult` whose
breakdown uses the same categories as the paper's stacked bars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ConfigurationError
from repro.hw.cpu import CAT_COPY_USER, CAT_OTHER, Core
from repro.hw.locks import SharedResource
from repro.obs import REQ_RR, Observability
from repro.sim.costmodel import CostModel
from repro.sim.engine import UNIT_DONE, CoreTask, Scheduler
from repro.sim.units import (
    CPU_FREQ_HZ,
    TCP_MSS,
    TSO_MAX_BYTES,
    cycles_to_us,
    gbps_to_bytes_per_cycle,
    us_to_cycles,
)
from repro.stats.results import RunResult
from repro.net.packets import build_frame, segment_payload
from repro.workloads.harness import (
    Pacer,
    Tally,
    build_system,
    collect,
    measure,
    run_generators,
)

#: Message sizes swept by the paper's figures.
PAPER_MESSAGE_SIZES = (64, 256, 1024, 4096, 16384, 65536)

#: TX pipeline depth: how far (in cycles) the CPU may run ahead of the
#: wire before blocking in send() on a full socket buffer.
_TX_BACKLOG_CYCLES = us_to_cycles(100.0)

#: RR receive coalescing (LRO/GRO): frames merged per RX buffer.
_RR_GRO_FRAMES = 8


@dataclass
class StreamConfig:
    """Parameters of one TCP_STREAM measurement."""

    scheme: str = "copy"
    direction: str = "rx"              # "rx" or "tx"
    message_size: int = 16384
    cores: int = 1
    units_per_core: int = 2000         # segments (rx) / messages (tx)
    warmup_units: int = 300
    use_copy_hints: bool = True
    cost: Optional[CostModel] = None
    scheme_kwargs: Dict[str, object] = field(default_factory=dict)
    obs: Optional[Observability] = None

    def __post_init__(self) -> None:
        if self.direction not in ("rx", "tx"):
            raise ConfigurationError(f"bad direction {self.direction!r}")
        if self.message_size < 1:
            raise ConfigurationError("message_size must be positive")


# ----------------------------------------------------------------------
# TCP_STREAM receive.
# ----------------------------------------------------------------------
def run_tcp_stream_rx(cfg: StreamConfig) -> RunResult:
    """The evaluated machine as netperf *receiver* (Figures 3 and 6)."""
    system = build_system(cfg, cfg.cores)
    machine, cost = system.machine, system.cost

    # Wire segments: messages below the MSS coalesce into full segments
    # (the sender's kernel does this; the sender's syscall rate is then
    # the limiting factor for throughput).  Messages above the MSS arrive
    # as their own segment runs.
    if cfg.message_size >= TCP_MSS:
        seg_sizes = segment_payload(cfg.message_size)
    else:
        seg_sizes = [TCP_MSS]
    frames = {size: build_frame(size) for size in set(seg_sizes)}
    # Offered load per core/instance: the per-instance sender syscall
    # ceiling, capped by this core's share of the line rate.
    per_core_offered_bytes_per_sec = min(
        cost.netperf_sender_msgs_per_sec * cfg.message_size,
        cost.nic_rx_line_gbps * 1e9 / 8 / cfg.cores,
    )
    per_core_bytes_per_cycle = per_core_offered_bytes_per_sec / CPU_FREQ_HZ

    syscall_per_segment = cfg.message_size < TCP_MSS

    # Segments each core has received, warmup included.
    received = {core.cid: 0 for core in machine.cores}
    tally = Tally()

    def make_step(core: Core, limit: int, pacer: Pacer):
        qid = core.cid

        def step(c: Core) -> bool:
            payload = seg_sizes[received[qid] % len(seg_sizes)]
            received[qid] = done = received[qid] + 1
            pacer.wait(c, payload / per_core_bytes_per_cycle)
            got = system.driver.receive_one(c, qid, frames[payload])
            if got is None:
                raise ConfigurationError("NIC dropped a paced frame")
            # Socket/stack costs above the driver.
            c.charge(cost.copy_to_user_cycles(payload), CAT_COPY_USER)
            c.charge(cost.rx_other_cycles, CAT_OTHER)
            if syscall_per_segment:
                # Sender-limited regime: the receiver blocks between
                # segments, paying a wakeup + recv() per arrival.
                c.charge(cost.wakeup_cycles + cost.syscall_cycles, CAT_OTHER)
            elif done % len(seg_sizes) == 0:
                c.charge(cost.syscall_cycles, CAT_OTHER)
            tally.add(payload)
            return done < limit

        return step

    def run_phase(measured: bool, start: int) -> None:
        # Warmup is a fixed unit count *per core*, so the measured phase
        # starts with every core holding the same amount of remaining
        # work.  Warmup arrivals are due from cycle 0, so warmup opens
        # on a full backlog; measured arrivals are due from ``start``.
        limit = cfg.warmup_units + (cfg.units_per_core if measured else 0)
        first = float(start) if measured else 0.0
        suffix = "" if measured else "-warm"
        Scheduler([CoreTask(core=c, step=make_step(c, limit, Pacer(first)),
                            name=f"rx{c.cid}{suffix}")
                   for c in machine.cores], obs=machine.obs).run()

    start = measure(machine, run_phase, tally)
    params = {"message_size": cfg.message_size, "cores": cfg.cores,
              "direction": "rx"}
    result = collect(system, cfg.scheme, "tcp_stream_rx", params, tally,
                     start)
    system.teardown_queues()
    return result


# ----------------------------------------------------------------------
# TCP_STREAM transmit.
# ----------------------------------------------------------------------
def run_tcp_stream_tx(cfg: StreamConfig) -> RunResult:
    """The evaluated machine as netperf *transmitter* (Figures 4 and 7)."""
    system = build_system(cfg, cfg.cores)
    machine, cost = system.machine, system.cost
    wire = SharedResource("tx-wire")
    line_bytes_per_cycle = gbps_to_bytes_per_cycle(cost.nic_tx_line_gbps)

    chunk_sizes = _tx_chunks(cfg.message_size)
    npages_per_msg = max(1, math.ceil(cfg.message_size / 4096))
    # Delayed ACKs: the peer acknowledges every other TSO chunk; each ACK
    # is a real (54-byte) inbound frame that takes the full RX DMA path —
    # including the protection scheme's map/unmap costs.
    ack_frame = build_frame(0)

    # Messages below the MSS coalesce in the socket (Nagle/TSQ): the DMA
    # chunk — and hence the per-chunk protection cost — is per MSS
    # segment, amortized over many small sends.  That is why the paper's
    # Fig. 4 shows all schemes performing comparably below 512 B.
    coalescing = cfg.message_size < TCP_MSS

    class _TxState:
        __slots__ = ("units", "accum")

        def __init__(self) -> None:
            self.units = 0
            self.accum = 0

    states = {core.cid: _TxState() for core in machine.cores}
    tally = Tally()

    chunk_counter = {"n": 0}

    def _emit_chunk(c: Core, qid: int, chunk: int):
        # Generator: yields between the transmit DMA cycle and the ACK's
        # RX DMA cycle — each takes the invalidation lock under strict
        # protection, and fine-grained interleaving keeps the timestamp
        # lock model accurate (see GeneratorTask).
        system.driver.transmit_one(c, qid, chunk)
        c.charge(cost.ack_process_cycles, CAT_OTHER)
        yield
        chunk_counter["n"] += 1
        if chunk_counter["n"] % 2 == 0:
            system.driver.receive_one(c, qid, ack_frame)
            yield
        # Wire pacing: block in send() when the socket buffer (the
        # allowed backlog) is full.
        done = wire.occupy(c.now, round(chunk / line_bytes_per_cycle))
        if done - c.now > _TX_BACKLOG_CYCLES:
            c.advance_to(done - _TX_BACKLOG_CYCLES)

    def worker(c: Core, limit: int):
        state = states[c.cid]
        qid = c.cid
        while state.units < limit:
            # send() syscall: user copy + TCP segmentation bookkeeping.
            c.charge(cost.syscall_cycles, CAT_OTHER)
            c.charge(cost.copy_to_user_cycles(cfg.message_size),
                     CAT_COPY_USER)
            c.charge(cost.tcp_tx_fixed_cycles, CAT_OTHER)
            c.charge(cost.tcp_tx_per_page_cycles * npages_per_msg, CAT_OTHER)
            if coalescing:
                state.accum += cfg.message_size
                while state.accum >= TCP_MSS:
                    yield from _emit_chunk(c, qid, TCP_MSS)
                    state.accum -= TCP_MSS
            else:
                for chunk in chunk_sizes:
                    yield from _emit_chunk(c, qid, chunk)
            state.units += 1
            tally.add(cfg.message_size)
            yield UNIT_DONE

    def run_phase(measured: bool, start: int) -> None:
        limit = cfg.warmup_units + (cfg.units_per_core if measured else 0)
        run_generators(machine, "tx", measured, lambda c: worker(c, limit))

    start = measure(machine, run_phase, tally)
    # The wire may still be draining the backlog when the last send
    # returns; throughput accounts for the drain.
    end = max(machine.wall_clock(), wire.busy_until)
    for core in machine.cores:
        core.advance_to(end)
    params = {"message_size": cfg.message_size, "cores": cfg.cores,
              "direction": "tx"}
    result = collect(system, cfg.scheme, "tcp_stream_tx", params, tally,
                     start)
    system.teardown_queues()
    return result


def _tx_chunks(message_size: int) -> List[int]:
    """TSO chunking: a message becomes ≤64 KB DMA chunks."""
    full, rest = divmod(message_size, TSO_MAX_BYTES)
    chunks = [TSO_MAX_BYTES] * full
    if rest:
        chunks.append(rest)
    return chunks


def run_tcp_stream(cfg: StreamConfig) -> RunResult:
    """Dispatch on ``cfg.direction``."""
    if cfg.direction == "rx":
        return run_tcp_stream_rx(cfg)
    return run_tcp_stream_tx(cfg)


# ----------------------------------------------------------------------
# TCP_RR — request/response latency (Figures 9 and 10).
# ----------------------------------------------------------------------
@dataclass
class RRConfig:
    """Parameters of one TCP_RR measurement (single core, single flow)."""

    scheme: str = "copy"
    message_size: int = 64
    transactions: int = 400
    warmup_transactions: int = 50
    use_copy_hints: bool = True
    cost: Optional[CostModel] = None
    scheme_kwargs: Dict[str, object] = field(default_factory=dict)
    obs: Optional[Observability] = None

    def __post_init__(self) -> None:
        if self.message_size < 1:
            raise ConfigurationError("message_size must be positive")
        if self.transactions < 1:
            raise ConfigurationError("transactions must be positive")
        if self.warmup_transactions < 0:
            raise ConfigurationError(
                "warmup_transactions must not be negative")


def run_tcp_rr(cfg: RRConfig) -> RunResult:
    """Closed-loop request/response: one transaction in flight at a time.

    The remote end is the (unprotected) traffic generator; its CPU time
    is estimated with the same stack model minus protection costs.
    """
    # LRO configuration: RR coalesces inbound frames into 16 KB buffers.
    system = build_system(cfg, 1, rx_buf_size=16384)
    machine, cost = system.machine, system.cost
    core = machine.core(0)
    size = cfg.message_size

    aggr_payloads = _gro_aggregates(size)
    frames = {p: build_frame(p, mtu=p + 60) for p in set(aggr_payloads)}
    wire_cycles = round(size / gbps_to_bytes_per_cycle(40.0))
    npages_per_msg = max(1, math.ceil(size / 4096))
    client_cpu = _client_cpu_cycles(cost, size)

    latencies: List[int] = []
    tally = Tally()
    obs_ctx = machine.obs

    def transaction() -> None:
        t0 = core.now
        # Request propagates: NIC/PCIe latency + serialization.
        core.advance_to(t0 + cost.wire_latency_cycles + wire_cycles)
        if obs_ctx.enabled:
            # One rr request spans the server-side turnaround; the
            # driver's rx/tx requests fold into it as stages.
            obs_ctx.request_begin(core, REQ_RR, message_size=size)
        for payload in aggr_payloads:
            if system.driver.receive_one(core, 0, frames[payload]) is None:
                raise ConfigurationError("RR frame dropped")
        core.charge(cost.copy_to_user_cycles(size), CAT_COPY_USER)
        core.charge(cost.rx_other_cycles, CAT_OTHER)
        core.charge(cost.wakeup_cycles, CAT_OTHER)
        core.charge(cost.syscall_cycles, CAT_OTHER)     # recv()
        # Build and send the response.
        core.charge(cost.syscall_cycles, CAT_OTHER)     # send()
        core.charge(cost.copy_to_user_cycles(size), CAT_COPY_USER)
        core.charge(cost.tcp_tx_fixed_cycles, CAT_OTHER)
        core.charge(cost.tcp_tx_per_page_cycles * npages_per_msg, CAT_OTHER)
        for chunk in _tx_chunks(size):
            system.driver.transmit_one(core, 0, chunk)
        if obs_ctx.enabled:
            # Ends when the response hits the wire; the client-side
            # turnaround below is not the server's latency.
            obs_ctx.request_end(core)
        # Response propagates to the client, which turns it around.
        rtt_end = (core.now + cost.wire_latency_cycles + wire_cycles
                   + client_cpu + cost.wakeup_cycles)
        if tally.measuring:
            latencies.append(rtt_end - t0)
        tally.add(2 * size)
        core.advance_to(rtt_end)

    def run_phase(measured: bool, start: int) -> None:
        for _ in range(cfg.transactions if measured
                       else cfg.warmup_transactions):
            transaction()

    start = measure(machine, run_phase, tally)
    params = {"message_size": size, "cores": 1}
    result = collect(system, cfg.scheme, "tcp_rr", params, tally, start)
    result.latency_us = (cycles_to_us(sum(latencies) / len(latencies))
                         if latencies else 0.0)
    system.teardown_queues()
    return result


def _gro_aggregates(size: int) -> List[int]:
    """Split ``size`` inbound bytes into LRO/GRO aggregates."""
    per_aggregate = _RR_GRO_FRAMES * TCP_MSS
    aggregates: List[int] = []
    remaining = size
    while remaining > 0:
        aggregates.append(min(remaining, per_aggregate))
        remaining -= per_aggregate
    return aggregates or [size]


def _client_cpu_cycles(cost: CostModel, size: int) -> int:
    """Traffic-generator turnaround estimate (no IOMMU on that side)."""
    naggr = len(_gro_aggregates(size))
    rx = naggr * (cost.rx_parse_cycles + cost.rx_other_cycles
                  + cost.rx_refill_cycles)
    rx += cost.copy_to_user_cycles(size)
    tx = (cost.syscall_cycles * 2 + cost.tcp_tx_fixed_cycles
          + cost.tcp_tx_per_page_cycles * max(1, math.ceil(size / 4096))
          + cost.copy_to_user_cycles(size))
    return rx + tx
