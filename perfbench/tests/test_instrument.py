"""Tracer arithmetic, host-speed normalisation, and wrapper hygiene."""

import gc
import importlib

import pytest

from perfbench import hostclock
from perfbench.child import run_workload
from perfbench.instrument import ROOT_NAME, TARGETS, Patcher, Tracer


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_of_synthetic_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock)
    tracer.config = "cfg"

    def at(t):
        clock.t = t

    # root [0, 10] ⊃ dma_map [1, 4] ⊃ charge [2, 3];  root ⊃ map_range [5, 6]
    at(0)
    with tracer.frame(ROOT_NAME):
        at(1)
        with tracer.frame("dma.DmaApi.dma_map"):
            at(2)
            with tracer.frame("hw.Core.charge", span=False):
                at(3)
            at(4)
        at(5)
        with tracer.frame("iommu.Iommu.map_range"):
            at(6)
        at(10)

    summary = tracer.summary()
    fn = summary["functions"]
    assert fn[ROOT_NAME] == {"calls": 1, "self_s": 6.0}
    assert fn["dma.DmaApi.dma_map"] == {"calls": 1, "self_s": 2.0}
    assert fn["hw.Core.charge"] == {"calls": 1, "self_s": 1.0}
    assert fn["iommu.Iommu.map_range"] == {"calls": 1, "self_s": 1.0}
    busy = {k: v for k, v in summary["layers"].items() if v}
    assert busy == {"workloads": 6.0, "dma": 2.0, "hw": 1.0, "iommu": 1.0}
    assert summary["durations"]["dma.DmaApi.dma_map"] == [3.0]
    # The leaf records no span; the others hang off the root span.
    names = [tracer.names[fid] for _, _, fid, _, _, _ in tracer.spans]
    assert names == ["dma.DmaApi.dma_map", "iommu.Iommu.map_range",
                     ROOT_NAME]
    by_name = {tracer.names[s[2]]: s for s in tracer.spans}
    root_id = by_name[ROOT_NAME][0]
    assert by_name[ROOT_NAME][1] == 0
    assert by_name["dma.DmaApi.dma_map"][1] == root_id
    assert by_name["iommu.Iommu.map_range"][1] == root_id
    assert by_name["dma.DmaApi.dma_map"][3:] == (1, 4, "cfg")


def test_normalisation_scales_by_the_mean_kernel_time():
    nominal = hostclock.REF_NOMINAL_S
    assert hostclock.reference_scale(nominal, nominal) == pytest.approx(1.0)
    # The kernel took twice its nominal time: the host ran at half speed,
    # so a wall second is half a reference second.
    assert hostclock.reference_scale(2 * nominal, 2 * nominal) \
        == pytest.approx(0.5)
    # 1.5× before and 2.5× after average to the same 2×.
    assert hostclock.reference_scale(1.5 * nominal, 2.5 * nominal) \
        == pytest.approx(0.5)


def test_kernel_time_is_the_median_probe_with_the_collector_off(
        monkeypatch):
    kernel = hostclock.ReferenceKernel()
    wall = [0.0]
    costs = iter([0.010] + [0.002] * (hostclock.KERNEL_PROBES - 1))
    gc_states = []

    def fake_probe():
        gc_states.append(gc.isenabled())
        wall[0] += next(costs)

    monkeypatch.setattr(hostclock.time, "perf_counter", lambda: wall[0])
    monkeypatch.setattr(kernel, "probe", fake_probe)
    assert gc.isenabled()
    assert kernel.time_s() == pytest.approx(0.002)   # one slow probe ignored
    assert gc_states == [False] * hostclock.KERNEL_PROBES
    assert gc.isenabled()


def test_patcher_restores_plain_and_class_methods():
    class Widget:
        def method(self):
            return "m"

        @classmethod
        def build(cls):
            return "b"

    before = dict(vars(Widget))
    calls = []

    def make(func):
        def wrapped(*args, **kwargs):
            calls.append(func.__name__)
            return func(*args, **kwargs)
        return wrapped

    with Patcher() as patcher:
        patcher.wrap(Widget, "method", make)
        patcher.wrap(Widget, "build", make)
        patcher.wrap(Widget, "build", make)     # stacked wrappers unwind too
        assert Widget().method() == "m"
        assert Widget.build() == "b"
    assert calls == ["method", "build", "build"]
    assert vars(Widget).keys() == before.keys()
    assert all(vars(Widget)[k] is v for k, v in before.items())


def _class_dicts():
    from repro.hw.machine import Machine
    from repro.system import System

    classes = {getattr(importlib.import_module(t.module), t.cls)
               for t in TARGETS} | {Machine, System}
    return {cls: dict(vars(cls)) for cls in classes}


def test_traced_run_leaves_every_class_dict_identical():
    before = _class_dicts()
    report = run_workload("rx-captured", seed=1, seconds=0, scale=0.02,
                          min_passes=1, traced=True)
    assert report["trace"]["functions"]["obs.RingTracer.emit"]["calls"] > 0
    after = _class_dicts()
    for cls, attrs in before.items():
        assert after[cls].keys() == attrs.keys(), cls
        changed = [k for k, v in attrs.items() if after[cls][k] is not v]
        assert not changed, (cls, changed)
