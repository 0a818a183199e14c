"""Perfetto export: valid Chrome ``trace_event`` JSON that round-trips.

The schema check is structural — every event must be a well-formed
trace_event object for its phase — plus the flow invariant the viewer
relies on: each request's ``s``/``t``/``f`` events share one flow id
(the rid), appear in causal order, and bracket exactly one begin and
one end.
"""

import json

from repro.obs.context import Observability
from repro.obs.perfetto import PHASE_TID, perfetto_trace, write_perfetto
from repro.workloads.netperf import StreamConfig, run_tcp_stream_rx

_VALID_PHASES = {"M", "X", "s", "t", "f", "C"}


def _traced_obs():
    obs = Observability.capture(trace_capacity=256)
    run_tcp_stream_rx(StreamConfig(
        scheme="identity-strict", direction="rx", message_size=16384,
        cores=2, units_per_core=40, warmup_units=10, obs=obs))
    return obs


def test_every_event_is_a_valid_trace_event_object():
    obs = _traced_obs()
    trace = perfetto_trace(obs)
    events = trace["traceEvents"]
    assert events, "a traced run must export events"
    for ev in events:
        assert ev["ph"] in _VALID_PHASES
        assert ev["pid"] == 0
        assert isinstance(ev["tid"], int)
        assert isinstance(ev["name"], str) and ev["name"]
        if ev["ph"] == "X":
            assert isinstance(ev["ts"], (int, float)) and ev["ts"] >= 0
            assert ev["dur"] > 0
        elif ev["ph"] in ("s", "t", "f"):
            assert isinstance(ev["id"], int)
            assert ev["ts"] >= 0
        elif ev["ph"] == "C":
            assert "value" in ev["args"]
    # Thread-name metadata exists for every core that carried a slice.
    named = {ev["tid"] for ev in events
             if ev["ph"] == "M" and ev["name"] == "thread_name"}
    sliced = {ev["tid"] for ev in events
              if ev["ph"] == "X" and ev["tid"] != PHASE_TID}
    assert sliced <= named | {PHASE_TID}
    assert trace["otherData"]["requests_exported"] > 0


def test_flow_ids_are_consistent_per_request():
    obs = _traced_obs()
    events = perfetto_trace(obs)["traceEvents"]
    flows = {}
    for ev in events:
        if ev["ph"] in ("s", "t", "f"):
            flows.setdefault(ev["id"], []).append(ev)
    assert flows
    request_slices = {ev["args"]["rid"]: ev for ev in events
                      if ev["ph"] == "X" and ev.get("cat") == "request"}
    for rid, steps in flows.items():
        phases = [ev["ph"] for ev in steps]
        assert phases.count("s") == 1
        assert phases.count("f") == 1
        assert phases[0] == "s" and phases[-1] == "f"
        start, finish = steps[0], steps[-1]
        assert all(start["ts"] <= ev["ts"] <= finish["ts"]
                   for ev in steps)
        # The flow id IS the request id of a retained request slice.
        assert rid in request_slices
        slice_ev = request_slices[rid]
        assert slice_ev["tid"] == start["tid"]


def test_write_perfetto_round_trips_through_json(tmp_path):
    obs = _traced_obs()
    path = tmp_path / "trace.json"
    count = write_perfetto(obs, str(path))
    loaded = json.loads(path.read_text())
    assert len(loaded["traceEvents"]) == count
    assert loaded["traceEvents"] == perfetto_trace(obs)["traceEvents"]
    assert loaded["otherData"]["source"] == "repro.obs.perfetto"


def test_empty_run_exports_only_metadata():
    obs = Observability.capture(trace_capacity=16)
    trace = perfetto_trace(obs)
    assert trace["otherData"]["requests_exported"] == 0
    assert all(ev["ph"] in ("M", "C") for ev in trace["traceEvents"])


def test_lock_waiter_counter_tracks():
    """``lock.contend`` events become per-lock waiter-count counter
    tracks: +1 at each wait's start, -1 at its acquisition, so the
    running value counts simultaneously spinning cores."""
    obs = Observability.capture(trace_capacity=64)
    # Two overlapping waits on "qi" (waits [50,100] and [80,120]) and
    # one on another lock; an uncontended acquire adds no counter.
    obs.tracer.emit("lock.contend", 100, 1,
                    {"lock": "qi", "wait_cycles": 50})
    obs.tracer.emit("lock.contend", 120, 2,
                    {"lock": "qi", "wait_cycles": 40})
    obs.tracer.emit("lock.contend", 10, 3,
                    {"lock": "iova", "wait_cycles": 5})
    obs.tracer.emit("lock.acquire", 130, 1, {"lock": "qi"})
    counters = [ev for ev in perfetto_trace(obs)["traceEvents"]
                if ev["ph"] == "C" and ev["name"].startswith("lock.waiters:")]
    assert {ev["name"] for ev in counters} \
        == {"lock.waiters:qi", "lock.waiters:iova"}
    qi = [(ev["ts"], ev["args"]["value"]) for ev in counters
          if ev["name"] == "lock.waiters:qi"]
    # Cycle endpoints 50, 80, 100, 120 -> waiter counts 1, 2, 1, 0.
    assert [w for _, w in qi] == [1, 2, 1, 0]
    assert qi == sorted(qi)
    iova = [ev["args"]["value"] for ev in counters
            if ev["name"] == "lock.waiters:iova"]
    assert iova == [1, 0]


def test_lock_waiter_counters_from_contended_run():
    """A real contended run exports a qi-lock waiter track whose
    running count returns to zero and never goes negative."""
    # A big enough ring that the contend events survive retention.
    obs = Observability.capture(trace_capacity=1 << 16)
    run_tcp_stream_rx(StreamConfig(
        scheme="identity-strict", direction="rx", message_size=16384,
        cores=2, units_per_core=40, warmup_units=10, obs=obs))
    counts = [ev["args"]["value"]
              for ev in perfetto_trace(obs)["traceEvents"]
              if ev["ph"] == "C" and ev["name"] == "lock.waiters:qi-lock"]
    assert counts, "the 2-core strict run must contend the qi lock"
    assert min(counts) >= 0
    assert counts[-1] == 0
