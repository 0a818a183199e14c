"""Request-scoped tracing: recorder semantics + tail attribution.

The unit tests drive :class:`~repro.obs.requests.RequestRecorder`
directly with a fake core; the acceptance tests run real workloads and
assert the paper's causal story — the strict scheme's 16-core RX tail
is invalidation-lock dominated, while the copy scheme's tail pays for
the copy itself.
"""

import pytest

from repro.obs.context import Observability
from repro.obs.requests import (
    PROTECTION_STAGES,
    REQ_RX,
    STAGE_UNATTRIBUTED,
    RequestRecorder,
    _CYCLES_PER_US,
    parse_percentile,
    tail_report,
)
from repro.obs.trace import EV_NET_RX, EV_REQ_BEGIN, EV_REQ_END
from repro.sim.units import CYCLES_PER_US
from repro.workloads.netperf import StreamConfig, run_tcp_stream_rx


class FakeCore:
    """The two attributes the recorder reads: ``cid`` and ``now``."""

    def __init__(self, cid=0, now=0):
        self.cid = cid
        self.now = now


def test_cycles_per_us_mirror_matches_sim_units():
    # requests.py mirrors the constant to avoid a circular import; the
    # mirror must never drift from the real clock.
    assert _CYCLES_PER_US == CYCLES_PER_US


def test_begin_end_assigns_monotonic_ids_and_latency():
    rec = RequestRecorder()
    core = FakeCore()
    rid1 = rec.begin(core, REQ_RX)
    core.now = 100
    record1 = rec.end(core)
    core.now = 150
    rid2 = rec.begin(core, REQ_RX)
    core.now = 250
    record2 = rec.end(core)
    assert rid2 == rid1 + 1
    assert record1.latency == 100
    assert record2.latency == 100
    assert rec.started == rec.completed == 2
    assert rec.open_requests == 0


def test_nested_begin_folds_into_enclosing_request():
    rec = RequestRecorder()
    core = FakeCore()
    outer = rec.begin(core, "memcached")
    core.now = 10
    inner = rec.begin(core, REQ_RX)   # the driver's rx inside the txn
    assert inner == outer
    core.now = 20
    assert rec.end(core) is None      # inner end only unwinds nesting
    core.now = 90
    record = rec.end(core)
    assert record is not None and record.rid == outer
    assert record.kind == "memcached"
    assert record.latency == 90
    assert rec.started == rec.completed == 1


def test_stage_self_time_excludes_nested_stages():
    rec = RequestRecorder()
    core = FakeCore()
    rec.begin(core, REQ_RX)
    rec.on_span_begin(0, "rx_packet", 0)
    rec.on_span_begin(0, "dma_unmap", 10)
    rec.on_span_begin(0, "lock_wait", 20)
    rec.on_span_end(0, "lock_wait", 20, 50)
    rec.on_span_end(0, "dma_unmap", 10, 70)
    rec.on_span_end(0, "rx_packet", 0, 80)
    core.now = 100
    record = rec.end(core)
    assert record.stages["lock_wait"] == 30
    assert record.stages["dma_unmap"] == 30       # 60 total - 30 nested
    assert record.stages["rx_packet"] == 20       # 80 total - 60 nested
    assert record.stages[STAGE_UNATTRIBUTED] == 20
    assert sum(record.stages.values()) == record.latency
    # Segments carry the causal timeline in close order with depth.
    assert record.segments == (("lock_wait", 20, 50, 2),
                               ("dma_unmap", 10, 70, 1),
                               ("rx_packet", 0, 80, 0))


def test_span_opened_before_request_is_not_attributed():
    rec = RequestRecorder()
    core = FakeCore(now=50)
    # The scheduler's step span opened at t=0, before the request.
    rec.begin(core, REQ_RX)
    rec.on_span_end(0, "step", 0, 80)     # closing the pre-existing span
    core.now = 100
    record = rec.end(core)
    assert "step" not in record.stages
    assert record.stages[STAGE_UNATTRIBUTED] == record.latency


def test_open_stage_virtually_closed_at_request_end():
    rec = RequestRecorder()
    core = FakeCore()
    rec.begin(core, REQ_RX)
    rec.on_span_begin(0, "rx_packet", 10)
    core.now = 100                         # request ends mid-span
    record = rec.end(core)
    assert record.stages["rx_packet"] == 90
    assert record.stages[STAGE_UNATTRIBUTED] == 10
    assert sum(record.stages.values()) == record.latency


def test_marks_and_lock_waits_attach_to_active_request():
    rec = RequestRecorder()
    core = FakeCore()
    rec.begin(core, REQ_RX)
    core.now = 30
    rec.mark(core, "mapped")
    rec.note_lock_wait(core, "qi-lock", 25)
    rec.note_lock_wait(core, "qi-lock", 5)
    core.now = 60
    record = rec.end(core)
    assert record.marks == (("mapped", 30),)
    assert record.locks == {"qi-lock": 30}
    # Without an active request both are no-ops, never errors.
    rec.mark(core, "mapped")
    rec.note_lock_wait(core, "qi-lock", 1)


def test_current_rid_and_active_rids_track_per_core():
    rec = RequestRecorder()
    core0, core1 = FakeCore(0), FakeCore(1)
    rid0 = rec.begin(core0, REQ_RX)
    rid1 = rec.begin(core1, REQ_RX)
    assert rec.current_rid(0) == rid0
    assert rec.current_rid(1) == rid1
    assert rec.current_rid(7) is None
    assert rec.active_rids() == {0: rid0, 1: rid1}
    rec.end(core0)
    assert rec.current_rid(0) is None


def test_begin_end_emit_trace_events_with_rid():
    obs = Observability.capture(trace_capacity=16)
    core = FakeCore()
    obs.request_begin(core, REQ_RX)
    rid = obs.requests.current_rid(core.cid)
    obs.request_begin(core, REQ_RX)      # folds in: no second begin
    obs.packet_received(core, qid=0, nbytes=64, payload=10)
    obs.request_end(core)
    core.now = 40
    obs.request_end(core)
    kinds = [ev.kind for ev in obs.tracer.events()]
    assert kinds == [EV_REQ_BEGIN, EV_NET_RX, EV_REQ_END]
    begin, rx, end = obs.tracer.events()
    assert begin.data["rid"] == rx.data["rid"] == end.data["rid"] == rid
    assert begin.data["req_kind"] == REQ_RX
    assert end.data["latency_cycles"] == 40
    # Events outside any request carry no rid.
    obs.packet_received(core, qid=0, nbytes=64, payload=10)
    assert "rid" not in obs.tracer.events()[-1].data


def test_retention_is_bounded_but_keeps_the_slowest():
    rec = RequestRecorder()
    core = FakeCore()
    n = 40_000
    for i in range(n):
        core.now = i * 100
        rec.begin(core, REQ_RX)
        # One outlier in the middle of the stream.
        core.now += 1_000_000 if i == n // 2 else 10
        rec.end(core)
    assert rec.completed == n
    lats = rec.latencies(REQ_RX)
    assert len(lats) < n                     # reservoir decimated
    retained = rec.retained(REQ_RX)
    assert len(retained) < n                 # sample bounded too
    assert max(r.latency for r in retained) == 1_000_000
    assert rec.percentile(99.9, REQ_RX) >= rec.percentile(50.0, REQ_RX)


def test_summary_and_exemplars_shape():
    rec = RequestRecorder()
    core = FakeCore()
    for i in range(100):
        core.now = i * 1000
        rec.begin(core, REQ_RX)
        core.now += (i + 1) * 10
        rec.end(core)
    summary = rec.summary()
    assert summary["completed"] == 100
    kind = summary["kinds"][REQ_RX]
    assert kind["latency_us"]["p50"] <= kind["latency_us"]["p99"]
    assert summary["overall"]["count"] == 100
    report = tail_report(rec, kind=REQ_RX)
    exemplars = [ex["latency_cycles"] for ex in report["exemplars"]]
    assert exemplars == [1000, 990]     # the tail cohort, slowest first
    assert all(ex >= report["threshold_cycles"] for ex in exemplars)


def test_tail_report_empty_recorder_returns_none():
    assert tail_report(RequestRecorder()) is None


def test_tail_report_blames_the_dominant_stage():
    rec = RequestRecorder()
    core = FakeCore()
    for i in range(50):
        core.now = i * 1000
        rec.begin(core, REQ_RX)
        slow = i >= 45
        rec.on_span_begin(0, "lock_wait" if slow else "copy", core.now)
        duration = 500 if slow else 50
        rec.on_span_end(0, "lock_wait" if slow else "copy",
                        core.now, core.now + duration)
        core.now += duration
        rec.end(core)
    report = tail_report(rec, kind=REQ_RX, percentile=95.0)
    assert report["dominant_stage"] == "lock_wait"
    assert report["dominant_protection_stage"] == "lock_wait"
    assert report["tail_profile"]["lock_wait"] > 0.9
    assert report["profile_diff"]["lock_wait"] > 0.5
    assert report["exemplars"][0]["latency_cycles"] == 500
    assert report["tail_locks"] == {}


@pytest.mark.parametrize("text,expected", [
    ("p99", 99.0), ("99", 99.0), ("p99.9", 99.9), ("P50", 50.0),
    ("0.5", 0.5),
])
def test_parse_percentile_accepts_usual_spellings(text, expected):
    assert parse_percentile(text) == expected


@pytest.mark.parametrize("text", ["", "pp99", "100", "0", "-5", "p1e9"])
def test_parse_percentile_rejects_garbage(text):
    with pytest.raises(ValueError):
        parse_percentile(text)


# ----------------------------------------------------------------------
# Acceptance: the paper's causal story at 16 cores.
# ----------------------------------------------------------------------
_MC = dict(direction="rx", message_size=1448, cores=16,
           units_per_core=60, warmup_units=15)


def _tail_for(scheme):
    obs = Observability.capture(trace_capacity=256)
    run_tcp_stream_rx(StreamConfig(scheme=scheme, obs=obs, **_MC))
    report = tail_report(obs.requests, kind=REQ_RX, percentile=99.0)
    assert report is not None
    return report


def test_strict_16core_rx_tail_is_invalidation_lock_dominated():
    report = _tail_for("identity-strict")
    assert report["dominant_stage"] == "lock_wait"
    assert report["dominant_protection_stage"] == "lock_wait"
    assert report["tail_profile"]["lock_wait"] > 0.5
    # The lock behind the wait is named: the invalidation queue's.
    assert "qi-lock" in report["tail_locks"]


def test_copy_16core_rx_tail_pays_for_the_copy_instead():
    report = _tail_for("copy")
    assert report["dominant_protection_stage"] == "copy"
    # No invalidation-lock misery on the copy path.
    assert report["tail_profile"].get("lock_wait", 0.0) < 0.2
    # And the tail itself is an order of magnitude shorter than strict's.
    strict = _tail_for("identity-strict")
    assert report["threshold_us"] * 10 < strict["threshold_us"]
