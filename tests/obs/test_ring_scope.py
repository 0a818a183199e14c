"""RX-ring setup and teardown report to exposure only.

``System.setup_queues`` and ``System.teardown_queues`` run inside
``Observability.exposure_only``: a captured run's spans, requests,
locks, metrics and trace hold the traffic its phases run, while the
exposure accountant still sees every ring buffer mapped and unmapped.
"""

import pytest

from repro.dma.registry import FIGURE_SCHEMES
from repro.obs.context import NULL_OBS, Observability, _ExposureOnly
from repro.system import System, SystemConfig
from repro.workloads.memcached import MemcachedConfig, run_memcached
from repro.workloads.netperf import (RRConfig, StreamConfig, run_tcp_rr,
                                     run_tcp_stream_rx, run_tcp_stream_tx)

#: RX buffers one queue posts at setup (a 512-entry ring, one slot free).
_RX_BUFFERS = 511

#: Runner, config class, parameters and the span roots its traffic opens.
_RUNS = {
    "stream-rx": (run_tcp_stream_rx, StreamConfig,
                  dict(direction="rx", cores=2, message_size=16384,
                       units_per_core=10, warmup_units=2), {"step"}),
    "stream-tx": (run_tcp_stream_tx, StreamConfig,
                  dict(direction="tx", cores=2, message_size=16384,
                       units_per_core=10, warmup_units=2), {"step"}),
    "rr": (run_tcp_rr, RRConfig,
           dict(message_size=64, transactions=20, warmup_transactions=5),
           {"rx_packet", "tx_chunk"}),
    "memcached": (run_memcached, MemcachedConfig,
                  dict(cores=2, transactions_per_core=10,
                       warmup_transactions=2), {"step"}),
}

#: Events whose whole fact the exposure accountant keeps.
_EXPOSURE_EVENTS = {"range_mapped", "range_unmapped", "ring_mapped",
                    "invalidated", "device_access"}


def _assert_exposure_saw_rings(obs, scheme, cores):
    """Every ring buffer mapped at setup was unmapped at teardown."""
    (domain,) = [d for d in obs.exposure.summary()["domains"].values()
                 if d["scheme"] == scheme]
    assert domain["dma_maps"] == domain["dma_unmaps"]
    assert domain["dma_maps"] >= cores * _RX_BUFFERS
    assert domain["live_mappings"] == 0


@pytest.mark.parametrize("scheme", FIGURE_SCHEMES)
@pytest.mark.parametrize("run, config, params, roots", list(_RUNS.values()),
                         ids=list(_RUNS))
def test_captured_span_roots_are_traffic_only(run, config, params, roots,
                                              scheme):
    obs = Observability.capture(trace_capacity=256)
    run(config(scheme=scheme, obs=obs, **params))
    assert set(obs.spans.tree().children) == roots
    assert type(obs) is Observability
    if scheme != "no-iommu":
        _assert_exposure_saw_rings(obs, scheme, params.get("cores", 1))


@pytest.mark.parametrize("scheme", ["copy", "identity-strict"])
def test_ring_setup_and_teardown_record_to_exposure_only(scheme):
    obs = Observability.capture()
    system = System.build(SystemConfig(scheme=scheme, cores=2, obs=obs))
    system.setup_queues()
    system.teardown_queues()
    assert not obs.spans.tree().children
    assert len(obs.tracer) == 0
    assert not obs.locks.snapshot()
    assert obs.requests.started == 0
    metrics = obs.metrics.snapshot()
    assert metrics["series"]["exposure.surface_bytes"]
    assert all(name.startswith("exposure.")
               for kind in metrics.values() for name in kind)
    _assert_exposure_saw_rings(obs, scheme, 2)


def test_disabled_context_is_left_as_it_is():
    with NULL_OBS.exposure_only():
        assert type(NULL_OBS) is Observability


def test_context_keeps_no_instance_dict():
    """``exposure_only`` swaps the context's class; with an instance
    dict, CPython would look its attributes up the slow way from then
    on, in every event of the measured phase."""
    assert not hasattr(Observability.capture(), "__dict__")


def test_every_event_is_exposure_only_or_records_nothing():
    """A new event method must say what it records inside the scope."""
    events = {name for name, attr in vars(Observability).items()
              if callable(attr) and not name.startswith("_")}
    events -= {"exposure_only"}
    overridden = set(vars(_ExposureOnly))
    assert events - _EXPOSURE_EVENTS <= overridden
    assert not _EXPOSURE_EVENTS & overridden
