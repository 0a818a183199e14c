"""Tracing must never perturb the simulation.

The whole observability layer records in *host* memory and charges no
simulated cycles, so:

* a run with the default (null) context is byte-identical to one with an
  explicitly passed NullTracer context, and
* a fully *traced* run reproduces the exact cycle numbers of an untraced
  run — the trace is a pure observer.
"""

import dataclasses
import json

import pytest

from repro.dma.registry import ALL_SCHEMES
from repro.obs.context import Observability
from repro.obs.trace import (
    EV_DMA_COPY,
    EV_DMA_MAP,
    EV_INV_SUBMIT,
    EV_LOCK_ACQUIRE,
    NullTracer,
)
from repro.stats.export import result_to_row
from repro.system import System
from repro.workloads.memcached import MemcachedConfig, run_memcached
from repro.workloads.netperf import RRConfig, StreamConfig, run_tcp_rr, \
    run_tcp_stream_rx, run_tcp_stream_tx
from repro.workloads.storage import StorageConfig, run_storage

_RR = dict(scheme="copy", message_size=64, transactions=40,
           warmup_transactions=10)

#: Runner, config class and parameters of each run the cycle-identity
#: test traces (RX stream has tests of its own below).
_TRACED_RUNS = {
    "rr": (run_tcp_rr, RRConfig, _RR),
    "stream-tx": (run_tcp_stream_tx, StreamConfig,
                  dict(scheme="copy", direction="tx", cores=2,
                       message_size=16384, units_per_core=30,
                       warmup_units=10)),
    "storage": (run_storage, StorageConfig,
                dict(scheme="identity-strict", cores=2, ops_per_core=40,
                     warmup_ops=10)),
    "memcached": (run_memcached, MemcachedConfig,
                  dict(scheme="copy", cores=2, transactions_per_core=30,
                       warmup_transactions=10)),
}


#: RunResult extras only a captured run carries.
_OBS_EXTRAS = ("metrics", "exposure", "requests", "locks")


def _run_keeping_system(monkeypatch, config):
    """Run an RX stream and return its result and the system it built
    (torn down by then)."""
    built = []
    build = System.build.__func__

    def keep(cls, system_config):
        built.append(build(cls, system_config))
        return built[-1]

    with monkeypatch.context() as patch:
        patch.setattr(System, "build", classmethod(keep))
        result = run_tcp_stream_rx(config)
    (system,) = built
    return result, system


def _assert_capture_changes_nothing(monkeypatch, **cfg):
    """Both runs of a scheme with a one-pass ``dma_map_fresh`` set
    their rings up in one pass: the captured one inside
    ``exposure_only``, reporting its maps to exposure in one event per
    ring.  Both tear down buffer by buffer.  The rows must agree
    (observability extras aside), and after teardown both leave no
    mapping live and equal shadow-pool counters."""
    bare, bare_system = _run_keeping_system(monkeypatch,
                                            StreamConfig(**cfg))
    traced, traced_system = _run_keeping_system(
        monkeypatch, StreamConfig(**cfg, obs=Observability.capture()))
    rows = []
    for result in (bare, traced):
        row = dataclasses.asdict(result)
        row["extras"] = {k: v for k, v in row["extras"].items()
                         if k not in _OBS_EXTRAS}
        rows.append(row)
    assert rows[0] == rows[1]
    assert bare_system.dma_api.live_mappings == 0
    assert traced_system.dma_api.live_mappings == 0
    pool = getattr(bare_system.dma_api, "pool", None)
    if pool is not None:
        assert vars(pool.stats) == vars(traced_system.dma_api.pool.stats)


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_captured_rx_stream_matches_uncaptured(scheme, monkeypatch):
    _assert_capture_changes_nothing(
        monkeypatch, scheme=scheme, direction="rx", cores=2,
        message_size=16384, units_per_core=20, warmup_units=5)


def test_captured_16_core_copy_rx_matches_uncaptured(monkeypatch):
    _assert_capture_changes_nothing(
        monkeypatch, scheme="copy", direction="rx", cores=16,
        message_size=16384, units_per_core=10, warmup_units=3)


def test_null_tracer_run_is_byte_identical():
    bare = run_tcp_rr(RRConfig(**_RR))
    nulled = run_tcp_rr(RRConfig(**_RR,
                                 obs=Observability(tracer=NullTracer())))
    assert json.dumps(result_to_row(bare)) == json.dumps(result_to_row(nulled))
    assert bare.extras == nulled.extras


@pytest.mark.parametrize("run, config, params", list(_TRACED_RUNS.values()),
                         ids=list(_TRACED_RUNS))
def test_traced_run_is_cycle_identical(run, config, params):
    bare = run(config(**params))
    obs = Observability.capture()
    traced = run(config(**params, obs=obs))
    assert traced.wall_cycles == bare.wall_cycles
    assert traced.busy_cycles == bare.busy_cycles
    assert traced.breakdown_cycles == bare.breakdown_cycles
    assert traced.latency_us == bare.latency_us
    assert traced.units == bare.units
    # The only divergence is the attached metrics snapshot.
    assert "metrics" in traced.extras and "metrics" not in bare.extras
    # And the observer actually observed: each run must produce lock,
    # DMA and a third kind of traffic event.  Copy invalidates only
    # when it frees its rings, which records to exposure only, so its
    # third kind is the shadow copy.
    kinds = obs.tracer.counts_by_kind()
    assert kinds[EV_DMA_MAP] > 0
    assert kinds[EV_LOCK_ACQUIRE] > 0
    if params["scheme"] == "copy":
        assert kinds[EV_DMA_COPY] > 0
    else:
        assert kinds[EV_INV_SUBMIT] > 0
        hist = obs.metrics.histograms["invalidation.latency_cycles"]
        assert hist.count > 0


def test_traced_stream_identical_under_contention():
    """identity-strict at 2 cores contends the qi lock; tracing the
    contention must not change it."""
    cfg = dict(scheme="identity-strict", direction="rx", cores=2,
               message_size=16384, units_per_core=60, warmup_units=15)
    bare = run_tcp_stream_rx(StreamConfig(**cfg))
    obs = Observability.capture()
    traced = run_tcp_stream_rx(StreamConfig(**cfg, obs=obs))
    assert traced.wall_cycles == bare.wall_cycles
    assert traced.busy_cycles == bare.busy_cycles
    assert traced.breakdown_cycles == bare.breakdown_cycles
    # The contention-matrix and queue-depth hooks (obs.locks, the
    # invalidation.queue_depth series) observed the same run for free.
    qi = obs.locks.get("qi-lock")
    assert qi is not None and qi.contended > 0
    assert qi.total_wait_cycles > 0
    assert sum(qi.handoff_edges.values()) == qi.contended
    depth = obs.metrics.time_series["invalidation.queue_depth"]
    assert depth.summary()["samples"] > 0


def test_lock_contention_null_run_records_nothing():
    """With the null context the contention-matrix note sites never
    fire — obs.locks stays empty."""
    null_obs = Observability(tracer=NullTracer())
    run_tcp_stream_rx(StreamConfig(
        scheme="identity-strict", direction="rx", cores=2,
        message_size=16384, units_per_core=40, warmup_units=10,
        obs=null_obs))
    assert null_obs.locks.locks == {}
    assert null_obs.locks.total_wait_cycles == 0


def test_exposure_accounting_is_cycle_identical():
    """The exposure accountant observes every map/unmap/invalidation
    and the deferred scheme keeps it busy (stale windows accumulate);
    none of that may shift a single simulated cycle."""
    cfg = dict(_RR, scheme="identity-deferred")
    bare = run_tcp_rr(RRConfig(**cfg))
    obs = Observability.capture()
    traced = run_tcp_rr(RRConfig(**cfg, obs=obs))
    assert traced.wall_cycles == bare.wall_cycles
    assert traced.busy_cycles == bare.busy_cycles
    assert traced.breakdown_cycles == bare.breakdown_cycles
    assert traced.latency_us == bare.latency_us
    # The accountant actually accounted: the deferred window is real.
    summary = obs.exposure.summary()
    assert summary["stale_byte_cycles"] > 0
    assert summary["stale_windows"] > 0
    # And an exposure snapshot rides along in extras for export (taken
    # at collect time, so teardown unmaps may still follow it).
    snap = traced.extras["exposure"]
    assert snap["stale_byte_cycles"] > 0
    assert "exposure" not in bare.extras


def test_exposure_null_run_records_nothing():
    """With the null context the exposure note sites never fire."""
    null_obs = Observability(tracer=NullTracer())
    run_tcp_rr(RRConfig(**dict(_RR, scheme="identity-deferred"),
                        obs=null_obs))
    summary = null_obs.exposure.summary()
    assert not summary["domains"]
    assert summary["faults"] == 0


def test_request_traced_run_is_cycle_identical():
    """Request ids, stage capture, marks, and lock-wait attribution all
    record in host memory only — a request-traced 16-core contended run
    reproduces the bare run's cycles exactly."""
    cfg = dict(scheme="identity-strict", direction="rx", cores=16,
               message_size=1448, units_per_core=40, warmup_units=10)
    bare = run_tcp_stream_rx(StreamConfig(**cfg))
    obs = Observability.capture()
    traced = run_tcp_stream_rx(StreamConfig(**cfg, obs=obs))
    assert traced.wall_cycles == bare.wall_cycles
    assert traced.busy_cycles == bare.busy_cycles
    assert traced.breakdown_cycles == bare.breakdown_cycles
    assert traced.units == bare.units
    # The recorder actually recorded: every measured frame is a request
    # with a fully attributed stage profile.
    assert obs.requests.completed > 0
    assert obs.requests.open_requests == 0
    record = obs.requests.retained()[-1]
    assert sum(record.stages.values()) == record.latency
    assert record.locks.get("qi-lock", 0) > 0
    # The latency columns ride in extras without touching the results.
    assert traced.extras["requests"]["overall"]["count"] > 0
    assert "requests" not in bare.extras


def test_request_null_run_records_nothing():
    """With the null context no request begins — the write sites are
    behind the same ``obs.enabled`` guard as everything else."""
    null_obs = Observability(tracer=NullTracer())
    run_tcp_rr(RRConfig(**_RR, obs=null_obs))
    assert null_obs.requests.started == 0
    assert null_obs.requests.completed == 0
    assert null_obs.requests.open_requests == 0


def test_span_instrumented_run_is_byte_identical():
    """The span begin/end sites are behind the same ``obs.enabled``
    guard as the tracer; a NullTracer run records no spans and stays
    byte-identical, and a capturing run records spans without shifting
    a single cycle."""
    bare = run_tcp_rr(RRConfig(**_RR))
    null_obs = Observability(tracer=NullTracer())
    nulled = run_tcp_rr(RRConfig(**_RR, obs=null_obs))
    assert json.dumps(result_to_row(bare)) == json.dumps(result_to_row(nulled))
    assert null_obs.spans.opened == 0
    assert null_obs.spans.closed == 0
    assert not null_obs.spans.tree().children

    obs = Observability.capture()
    spanned = run_tcp_rr(RRConfig(**_RR, obs=obs))
    assert spanned.wall_cycles == bare.wall_cycles
    assert spanned.busy_cycles == bare.busy_cycles
    assert spanned.breakdown_cycles == bare.breakdown_cycles
    # ...and the spans were actually recorded.
    assert obs.spans.closed > 0
    assert obs.spans.opened == obs.spans.closed
    assert obs.spans.open_spans == 0
