"""The driver has one per-packet path, whatever the run observes.

Captured and uncaptured runs call the same class-level ``receive_one``
and ``transmit_one``: nothing is bound on a driver instance, so no
driver refers to itself and a finished run's system is freed by
reference counting alone, the moment its runner returns.
"""

import gc
import weakref

import pytest

from repro.hw.machine import Machine
from repro.net.driver import NicDriver
from repro.obs.context import Observability
from repro.system import System, SystemConfig
from repro.workloads.memcached import MemcachedConfig, run_memcached
from repro.workloads.netperf import RRConfig, StreamConfig, run_tcp_rr, \
    run_tcp_stream_rx, run_tcp_stream_tx

#: Each uncaptured NIC runner, at a small scale.
_RUNS = {
    "stream-rx": (run_tcp_stream_rx,
                  StreamConfig(scheme="copy", cores=2, message_size=16384,
                               units_per_core=20, warmup_units=5)),
    "stream-tx": (run_tcp_stream_tx,
                  StreamConfig(scheme="copy", direction="tx", cores=2,
                               message_size=16384, units_per_core=20,
                               warmup_units=5)),
    "rr": (run_tcp_rr,
           RRConfig(scheme="copy", message_size=64, transactions=20,
                    warmup_transactions=5)),
    "memcached": (run_memcached,
                  MemcachedConfig(scheme="copy", cores=2,
                                  transactions_per_core=20,
                                  warmup_transactions=5)),
}


@pytest.mark.parametrize("obs", [None, Observability.capture],
                         ids=["uncaptured", "captured"])
def test_driver_binds_no_packet_path_on_itself(obs):
    system = System.build(SystemConfig(
        scheme="copy", cores=1, obs=obs() if obs is not None else None))
    assert system.machine.obs.enabled is (obs is not None)
    assert "receive_one" not in vars(system.driver)
    assert "transmit_one" not in vars(system.driver)


def test_perfbench_names_alias_the_one_path():
    """``perfbench/instrument.py``'s ``TARGETS`` wraps these names."""
    assert NicDriver.__dict__["_receive_one_fast"] \
        is NicDriver.__dict__["receive_one"]
    assert NicDriver.__dict__["_transmit_one_fast"] \
        is NicDriver.__dict__["transmit_one"]


@pytest.mark.parametrize("name", sorted(_RUNS))
def test_uncaptured_run_frees_its_system_on_return(monkeypatch, name):
    runner, config = _RUNS[name]
    memories = []
    build = Machine.build.__func__

    def build_and_watch(cls, *args, **kwargs):
        machine = build(cls, *args, **kwargs)
        memories.append(weakref.ref(machine.memory))
        return machine

    monkeypatch.setattr(Machine, "build", classmethod(build_and_watch))
    gc.disable()
    try:
        result = runner(config)
        assert result.units > 0
        assert len(memories) == 1
        assert memories[0]() is None, \
            f"{name}: the run's physical memory outlived its runner"
    finally:
        gc.enable()
