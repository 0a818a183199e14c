"""Tracer tests: ring semantics, JSONL export, and the null no-op."""

import json

import pytest

from repro.obs.trace import (
    ALL_EVENT_KINDS,
    EV_DMA_MAP,
    EV_LOCK_ACQUIRE,
    EV_POOL_GROW,
    NullTracer,
    RingTracer,
    TraceEvent,
)


def test_null_tracer_is_inert():
    tracer = NullTracer()
    assert tracer.enabled is False
    tracer.emit(EV_LOCK_ACQUIRE, 10, 0, {"name": "x"})  # must not raise
    assert len(tracer) == 0
    assert tracer.events() == []


def test_ring_tracer_records_events():
    tracer = RingTracer(capacity=16)
    assert tracer.enabled is True
    tracer.emit(EV_DMA_MAP, 100, 2, {"iova": 0xdead, "size": 1500})
    assert len(tracer) == 1
    (ev,) = tracer.events()
    assert ev == TraceEvent(t=100, core=2, kind=EV_DMA_MAP,
                            data={"iova": 0xdead, "size": 1500})
    assert ev.to_dict() == {"t": 100, "core": 2, "kind": EV_DMA_MAP,
                            "iova": 0xdead, "size": 1500}


def test_ring_evicts_oldest_and_counts_dropped():
    tracer = RingTracer(capacity=4)
    for i in range(10):
        tracer.emit(EV_LOCK_ACQUIRE, i, 0, {"seq": i})
    assert len(tracer) == 4
    assert tracer.emitted == 10
    assert tracer.dropped == 6
    # The newest events survive, in order.
    assert [ev.data["seq"] for ev in tracer.events()] == [6, 7, 8, 9]


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        RingTracer(capacity=0)


def test_events_filter_and_counts_by_kind():
    tracer = RingTracer()
    for t in range(3):
        tracer.emit(EV_LOCK_ACQUIRE, t, 0, {})
    tracer.emit(EV_POOL_GROW, 5, 1, {"nbytes": 4096})
    assert len(tracer.events(EV_LOCK_ACQUIRE)) == 3
    assert len(tracer.events(EV_POOL_GROW)) == 1
    assert tracer.counts_by_kind() == {EV_LOCK_ACQUIRE: 3, EV_POOL_GROW: 1}


def test_clear_resets_everything():
    tracer = RingTracer(capacity=2)
    for i in range(5):
        tracer.emit(EV_LOCK_ACQUIRE, i, 0, {})
    tracer.clear()
    assert len(tracer) == 0
    assert tracer.emitted == 0
    assert tracer.dropped == 0


def test_jsonl_round_trip(tmp_path):
    tracer = RingTracer()
    tracer.emit(EV_DMA_MAP, 7, 1, {"iova": 4096, "scheme": "copy"})
    tracer.emit(EV_POOL_GROW, 9, 0, {"nbytes": 65536})
    rows = [json.loads(line) for line in tracer.to_jsonl().splitlines()]
    assert rows == [
        {"t": 7, "core": 1, "kind": EV_DMA_MAP, "iova": 4096,
         "scheme": "copy"},
        {"t": 9, "core": 0, "kind": EV_POOL_GROW, "nbytes": 65536},
    ]
    path = tmp_path / "trace.jsonl"
    assert tracer.write_jsonl(str(path)) == 2
    assert [json.loads(line) for line in path.read_text().splitlines()] == rows


def test_write_empty_trace(tmp_path):
    path = tmp_path / "empty.jsonl"
    assert RingTracer().write_jsonl(str(path)) == 0
    assert path.read_text() == ""


def test_event_kinds_are_unique_dotted_names():
    assert len(set(ALL_EVENT_KINDS)) == len(ALL_EVENT_KINDS)
    for kind in ALL_EVENT_KINDS:
        assert kind == "phase" or "." in kind
