"""Request stages read from the span stack agree with a second stack.

The request recorder takes its stages from the span recorder's per-core
stacks: a request remembers the stack depth it began at (its base), a
span closing below the base lowers it, and stages still open at the
request's end are attributed up to it.  :class:`TwoStackModel` is the
other way to get the same records: every span opened during a request
is pushed a second time, on that request's own stage stack.  Random
interleavings on several cores, driven through
:class:`~repro.obs.context.Observability`, must leave every record —
stages (in order), segments, marks, lock waits, latency — as the model
leaves it.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs.context import Observability
from repro.obs.requests import (MARK_COPIED, MARK_DEVICE_TRANSLATED,
                                STAGE_UNATTRIBUTED)

NAMES = ("step", "rx_packet", "dma_map", "copy")


class FakeCore:
    """What the context reads of a core: ``cid`` and ``now``."""

    def __init__(self, cid: int):
        self.cid = cid
        self.now = 0


class TwoStackModel:
    """Stage capture with a second stack per request (the reference).

    Spans live on per-core ``(name, opened_at)`` stacks.  A span that
    opens while a request is active on its core is also pushed on that
    request's stage stack as ``[name, opened_at, child_cycles]``; a span
    that closes on top of the stage stack is a stage, any other is older
    than the request.  At the request's end, the stages still open are
    popped as if they closed then.
    """

    MAX_SEGMENTS = 256
    MAX_MARKS = 64

    def __init__(self):
        self.spans = {}
        self.active = {}
        self.records = []
        self.next_rid = 1

    def span_begin(self, cid, name, t):
        self.spans.setdefault(cid, []).append((name, t))
        request = self.active.get(cid)
        if request is not None:
            request["stack"].append([name, t, 0])

    def span_end(self, cid, t):
        stack = self.spans.get(cid)
        if not stack:
            return
        name, opened_at = stack.pop()
        request = self.active.get(cid)
        if request is None or not request["stack"]:
            return
        top = request["stack"][-1]
        if top[0] != name or top[1] != opened_at:
            return
        request["stack"].pop()
        self._close(request, name, opened_at, t, top[2])
        if len(request["segments"]) < self.MAX_SEGMENTS:
            request["segments"].append(
                (name, opened_at, t, len(request["stack"])))

    @staticmethod
    def _close(request, name, opened_at, t, child):
        duration = t - opened_at
        request["stages"][name] = (request["stages"].get(name, 0)
                                   + duration - child)
        if request["stack"]:
            request["stack"][-1][2] += duration
        else:
            request["top"] += duration

    def mark(self, cid, name, t):
        request = self.active.get(cid)
        if request is not None and len(request["marks"]) < self.MAX_MARKS:
            request["marks"].append((name, t))

    def lock_wait(self, cid, lock, waited):
        request = self.active.get(cid)
        if request is not None:
            request["locks"][lock] = request["locks"].get(lock, 0) + waited

    def request_begin(self, cid, kind, t, meta):
        request = self.active.get(cid)
        if request is not None:
            request["depth"] += 1
            return
        self.active[cid] = dict(
            rid=self.next_rid, kind=kind, core=cid, start=t, depth=0,
            meta=meta, stack=[], stages={}, segments=[], marks=[],
            locks={}, top=0)
        self.next_rid += 1

    def request_end(self, cid, t):
        request = self.active.get(cid)
        if request is None:
            return
        if request["depth"]:
            request["depth"] -= 1
            return
        while request["stack"]:
            name, opened_at, child = request["stack"].pop()
            self._close(request, name, opened_at, t, child)
        unattributed = t - request["start"] - request["top"]
        if unattributed > 0:
            request["stages"][STAGE_UNATTRIBUTED] = \
                request["stages"].get(STAGE_UNATTRIBUTED, 0) + unattributed
        del self.active[cid]
        self.records.append((
            request["rid"], request["kind"], request["core"],
            request["start"], t, list(request["stages"].items()),
            tuple(request["segments"]), tuple(request["marks"]),
            request["locks"], request["meta"]))


#: One step of a run: (operation, core, argument).
OPS = ("advance", "span_begin", "span_end", "copied", "lock_acquired",
       "translated", "request_begin", "request_end")
steps = st.lists(st.tuples(st.sampled_from(OPS), st.integers(0, 2),
                           st.integers(0, 40)), max_size=80)


def run(ops):
    """Drive ``ops`` through a captured context and the model; returns
    both sides' completed records and the requests still open."""
    obs = Observability.capture()
    model = TwoStackModel()
    cores = [FakeCore(cid) for cid in range(3)]
    for op, cid, arg in ops:
        core = cores[cid]
        t = core.now
        if op == "advance":
            core.now += arg
        elif op == "span_begin":
            name = NAMES[arg % len(NAMES)]
            obs.span_begin(name, core)
            model.span_begin(cid, name, t)
        elif op == "span_end":
            obs.span_end(core)
            model.span_end(cid, t)
        elif op == "copied":
            obs.dma_copied(core, nbytes=arg, remote=False, cycles=arg)
            model.mark(cid, MARK_COPIED, t)
            model.span_end(cid, t)
        elif op == "lock_acquired":
            obs.lock_acquired(core, "qi-lock", holder_cid=-1, waited=arg)
            if arg:
                model.lock_wait(cid, "qi-lock", arg)
            model.span_end(cid, t)
        elif op == "translated":
            obs.device_translated(core)
            model.mark(cid, MARK_DEVICE_TRANSLATED, t)
        elif op == "request_begin":
            obs.request_begin(core, "rx", n=arg)
            model.request_begin(cid, "rx", t, {"n": arg})
        else:
            obs.request_end(core)
            model.request_end(cid, t)
    got = [(r.rid, r.kind, r.core, r.start, r.end, list(r.stages.items()),
            r.segments, r.marks, r.locks, r.meta)
           for r in sorted(obs.requests.retained(), key=lambda r: r.rid)]
    expected = sorted(model.records, key=lambda record: record[0])
    return got, expected, obs.requests.active_rids(), \
        {cid: request["rid"] for cid, request in model.active.items()}


@settings(max_examples=300, deadline=None)
@given(steps)
# A stage still open at the request's end.
@example([("request_begin", 0, 0), ("advance", 0, 5),
          ("span_begin", 0, 1), ("advance", 0, 7), ("request_end", 0, 0)])
# A span older than the request closes mid-request; the next span
# opened under the same request is a stage.
@example([("span_begin", 0, 0), ("request_begin", 0, 0), ("advance", 0, 3),
          ("span_end", 0, 0), ("span_begin", 0, 0), ("advance", 0, 4),
          ("span_begin", 0, 2), ("advance", 0, 2), ("copied", 0, 9),
          ("advance", 0, 1), ("span_end", 0, 0), ("request_end", 0, 0)])
# A new request begins under the previous one's open spans, which then
# close inside it; a folded request ends on the way.
@example([("request_begin", 1, 0), ("span_begin", 1, 1), ("advance", 1, 4),
          ("request_begin", 1, 1), ("span_begin", 1, 2), ("advance", 1, 3),
          ("request_end", 1, 0), ("request_end", 1, 0), ("advance", 1, 2),
          ("request_begin", 1, 2), ("advance", 1, 6),
          ("lock_acquired", 1, 5), ("span_end", 1, 0), ("advance", 1, 1),
          ("span_begin", 1, 3), ("advance", 1, 2), ("request_end", 1, 0)])
def test_stages_from_the_span_stack_match_a_second_stack(ops):
    got, expected, open_got, open_expected = run(ops)
    assert got == expected
    assert open_got == open_expected


def test_examples_reach_every_case():
    """The named cases really happen: a span older than the request
    closes inside it, and a stage still open at the end is attributed."""
    got, expected, _, _ = run([
        ("span_begin", 0, 0), ("request_begin", 0, 0), ("advance", 0, 3),
        ("span_end", 0, 0), ("span_begin", 0, 0), ("advance", 0, 4),
        ("request_end", 0, 0)])
    assert got == expected
    (record,) = got
    stages = dict(record[5])
    assert stages == {"step": 4, STAGE_UNATTRIBUTED: 3}
