"""The measured-run contract every workload runner keeps.

Every runner goes through :func:`repro.workloads.harness.measure`, so:

* a captured run records a ``warmup`` phase, then a ``measure`` phase,
  each closed with its busy cycles and per-category breakdown;
* every run resets busy-cycle accounting exactly once, after the warmup
  units and before the first measured one.  perfbench's ``PhaseClock``
  takes that call as the start of the measured phase.
"""

import pytest

from repro.hw.machine import Machine
from repro.obs.context import Observability
from repro.workloads.harness import Tally
from repro.workloads.memcached import MemcachedConfig, run_memcached
from repro.workloads.netperf import (RRConfig, StreamConfig, run_tcp_rr,
                                     run_tcp_stream_rx, run_tcp_stream_tx)
from repro.workloads.storage import StorageConfig, run_storage

#: One small run of each runner: (runner, config class, parameters).
RUNS = {
    "stream-rx": (run_tcp_stream_rx, StreamConfig,
                  dict(scheme="copy", cores=2, units_per_core=30,
                       warmup_units=10)),
    "stream-tx": (run_tcp_stream_tx, StreamConfig,
                  dict(scheme="copy", direction="tx", cores=2,
                       units_per_core=20, warmup_units=5)),
    "rr": (run_tcp_rr, RRConfig,
           dict(scheme="copy", transactions=20, warmup_transactions=5)),
    "storage": (run_storage, StorageConfig,
                dict(scheme="copy", cores=2, ops_per_core=20,
                     warmup_ops=5)),
    "memcached": (run_memcached, MemcachedConfig,
                  dict(scheme="copy", cores=2, transactions_per_core=20,
                       warmup_transactions=5)),
}


@pytest.mark.parametrize("name", list(RUNS))
def test_a_captured_run_records_warmup_then_measure(name):
    run, config, params = RUNS[name]
    obs = Observability.capture(trace_capacity=256)
    result = run(config(**params, obs=obs))
    assert [phase.name for phase in obs.phases] == ["warmup", "measure"]
    for phase in obs.phases:
        assert phase.end is not None and phase.end > phase.start
        assert phase.busy_cycles > 0
        assert phase.breakdown
    measured = obs.phases[1]
    assert measured.busy_cycles == result.busy_cycles
    assert measured.breakdown == result.breakdown_cycles


@pytest.mark.parametrize("name", list(RUNS))
def test_an_uncaptured_run_resets_accounting_once_between_the_phases(
        name, monkeypatch):
    run, config, params = RUNS[name]
    log = []
    reset_accounting, add = Machine.reset_accounting, Tally.add

    def logged_reset(machine):
        log.append("reset")
        reset_accounting(machine)

    def logged_add(tally, nbytes):
        log.append("unit")
        add(tally, nbytes)

    monkeypatch.setattr(Machine, "reset_accounting", logged_reset)
    monkeypatch.setattr(Tally, "add", logged_add)
    result = run(config(**params))
    assert log.count("reset") == 1
    first_measured = log.index("reset") + 1
    assert first_measured > 1, "no warmup unit ran before the reset"
    assert len(log) - first_measured == result.units > 0
