"""memcached + memslap application workload (paper Figure 11).

One memcached instance per core (the paper runs 16 to avoid memcached's
internal lock contention), loaded by memslap's default mix: 64-byte keys,
1 KB values, 90% GET / 10% SET.  Each transaction exercises the full
datapath: a real request frame through the RX DMA path, a hash-table
lookup/update against an actual in-memory store, and a real response
through the TX DMA path — so every protection scheme pays its true
per-transaction costs.

Aggregated transactions/s and CPU utilization are reported; identity+
collapses here because every transaction needs (at least) two IOTLB
invalidations through the global queue lock.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import ConfigurationError
from repro.hw.cpu import CAT_COPY_USER, CAT_OTHER, Core
from repro.obs import REQ_MEMCACHED, Observability
from repro.sim.costmodel import CostModel
from repro.sim.engine import UNIT_DONE
from repro.sim.units import CPU_FREQ_HZ
from repro.seeding import derive_seed
from repro.stats.results import RunResult
from repro.net.packets import build_frame
from repro.workloads.harness import (
    Pacer,
    Tally,
    build_system,
    collect,
    measure,
    run_generators,
)

#: memslap defaults (§6 "Benchmarks").
KEY_SIZE = 64
DEFAULT_VALUE_SIZE = 1024
DEFAULT_GET_FRACTION = 0.9

#: Distinct keys SETs draw from; GETs draw from the first 256, which
#: every store preloads.
KEYS = 2048


class KeyValueStore:
    """A miniature memcached: a bounded hash map of bytes → bytes."""

    def __init__(self, max_items: int = 1 << 20):
        self._data: Dict[bytes, bytes] = {}
        self.max_items = max_items
        self.hits = 0
        self.misses = 0

    def set(self, key: bytes, value: bytes) -> None:
        if len(self._data) >= self.max_items and key not in self._data:
            # Trivial eviction: drop an arbitrary item (LRU is out of
            # scope; eviction order does not affect the measured path).
            self._data.pop(next(iter(self._data)))
        self._data[key] = value

    def get(self, key: bytes) -> Optional[bytes]:
        value = self._data.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def __len__(self) -> int:
        return len(self._data)


@dataclass
class MemcachedConfig:
    """Parameters of one memcached/memslap measurement."""

    scheme: str = "copy"
    cores: int = 16
    transactions_per_core: int = 600
    warmup_transactions: int = 100
    value_size: int = DEFAULT_VALUE_SIZE
    get_fraction: float = DEFAULT_GET_FRACTION
    seed: int = 20160402          # ASPLOS'16 presentation date
    use_copy_hints: bool = True
    cost: Optional[CostModel] = None
    scheme_kwargs: Dict[str, object] = field(default_factory=dict)
    obs: Optional["Observability"] = None


def run_memcached(cfg: MemcachedConfig) -> RunResult:
    """Run the Figure 11 workload; returns aggregate transactions/s."""
    if not 0.0 <= cfg.get_fraction <= 1.0:
        raise ConfigurationError("get_fraction must be in [0, 1]")
    system = build_system(cfg, cfg.cores)
    machine, cost = system.machine, system.cost

    stores = [KeyValueStore() for _ in range(cfg.cores)]
    key_space = [f"key-{i:08d}".encode().ljust(KEY_SIZE, b"k")
                 for i in range(KEYS)]
    value = bytes(range(256)) * (cfg.value_size // 256 + 1)
    value = value[:cfg.value_size]

    # Pre-populate so GETs hit (memslap preloads the same way).
    for store in stores:
        for key in key_space[:256]:
            store.set(key, value)

    # memslap protocol overheads: request = verb + key (+ value for SET);
    # response = value (+ header) for GET, short status for SET.
    get_req = build_frame(KEY_SIZE + 40)
    set_req_payload = KEY_SIZE + cfg.value_size + 48
    set_req = build_frame(min(set_req_payload, 1400))
    get_resp_bytes = cfg.value_size + 64
    set_resp_bytes = 48

    # Offered load: memslap's aggregate ceiling, split across instances.
    per_core_interval = CPU_FREQ_HZ / (cost.memslap_offered_tps / cfg.cores)

    class _State:
        __slots__ = ("units", "rng")

        def __init__(self, seed: int) -> None:
            self.units = 0
            self.rng = random.Random(seed)

    states = {c.cid: _State(derive_seed(cfg.seed, "memcached", c.cid))
              for c in machine.cores}
    tally = Tally()
    obs = machine.obs

    def worker(c: Core, limit: int, pacer: Pacer):
        # A generator task: yields between the RX half, the application
        # half, and the TX half of each transaction so that lock waits
        # interleave correctly across cores (see GeneratorTask).
        state = states[c.cid]
        store = stores[c.cid]
        qid = c.cid
        while state.units < limit:
            pacer.wait(c, per_core_interval)
            is_get = state.rng.random() < cfg.get_fraction
            key = key_space[state.rng.randrange(256 if is_get else KEYS)]
            # Request arrives through the RX DMA path.
            req = get_req if is_get else set_req
            if obs.enabled:
                # One memcached request per transaction; the driver's
                # rx/tx requests fold into it as stages.
                obs.request_begin(c, REQ_MEMCACHED,
                                  op="get" if is_get else "set")
            if system.driver.receive_one(c, qid, req) is None:
                raise ConfigurationError("memcached request dropped")
            yield
            c.charge(cost.syscall_cycles, CAT_OTHER)          # recv/epoll
            c.charge(cost.memcached_app_cycles, CAT_OTHER)    # hash + LRU
            if is_get:
                store.get(key)
                resp_bytes = get_resp_bytes
            else:
                store.set(key, value)
                resp_bytes = set_resp_bytes
            yield
            # Response leaves through the TX DMA path.
            c.charge(cost.syscall_cycles, CAT_OTHER)          # send
            c.charge(cost.copy_to_user_cycles(resp_bytes), CAT_COPY_USER)
            system.driver.transmit_one(c, qid, resp_bytes)
            if obs.enabled:
                obs.request_end(c)
            state.units += 1
            tally.add(resp_bytes + len(req))
            yield UNIT_DONE

    def run_phase(measured: bool, start: int) -> None:
        # Warmup arrivals are due from cycle 0, measured ones from start.
        first = float(start) if measured else 0.0
        limit = cfg.warmup_transactions + (
            cfg.transactions_per_core if measured else 0)
        run_generators(machine, "mc", measured,
                       lambda c: worker(c, limit, Pacer(first)))

    start = measure(machine, run_phase, tally)
    params = {"cores": cfg.cores, "value_size": cfg.value_size,
              "get_fraction": cfg.get_fraction}
    result = collect(system, cfg.scheme, "memcached", params, tally, start)
    if result.wall_cycles > 0:
        result.transactions_per_sec = (tally.units * CPU_FREQ_HZ
                                       / result.wall_cycles)
    result.extras["store_hits"] = sum(s.hits for s in stores)
    result.extras["store_misses"] = sum(s.misses for s in stores)
    system.teardown_queues()
    return result
