"""Observability context tests: enable switch, phases, machine wiring."""

from repro.hw.machine import Machine
from repro.obs.context import NULL_OBS, Observability
from repro.obs.trace import EV_PHASE, NullTracer, RingTracer


def test_null_context_is_disabled():
    obs = Observability.null()
    assert obs.enabled is False
    assert isinstance(obs.tracer, NullTracer)
    # Phase calls through a disabled context record nothing.
    obs.phase_begin("warmup", 0)
    obs.phase_end(100)
    assert obs.phases == []


def test_null_tracer_forces_disabled():
    # The tracer decides: a NullTracer context captures nothing.
    assert Observability(tracer=NullTracer()).enabled is False
    assert Observability().enabled is False


def test_capture_context_is_enabled():
    obs = Observability.capture(trace_capacity=128)
    assert obs.enabled is True
    assert isinstance(obs.tracer, RingTracer)
    assert obs.tracer.capacity == 128


def test_phase_lifecycle_and_events():
    obs = Observability.capture()
    obs.phase_begin("warmup", 100)
    obs.phase_end(300, busy_cycles=150, breakdown={"copy": 90})
    obs.phase_begin("measure", 300)
    obs.phase_end(1000, busy_cycles=600)
    warm, measure = obs.phases
    assert (warm.name, warm.wall_cycles, warm.busy_cycles) == ("warmup",
                                                               200, 150)
    assert warm.breakdown == {"copy": 90}
    assert (measure.name, measure.wall_cycles) == ("measure", 700)
    # Begin/end edges land in the trace.
    edges = [(ev.data["name"], ev.data["edge"])
             for ev in obs.tracer.events(EV_PHASE)]
    assert edges == [("warmup", "begin"), ("warmup", "end"),
                     ("measure", "begin"), ("measure", "end")]


def test_phase_begin_closes_open_phase():
    obs = Observability.capture()
    obs.phase_begin("warmup", 0)
    obs.phase_begin("measure", 500)  # implicit end of warmup
    assert obs.phases[0].end == 500
    obs.phase_end(900)
    obs.phase_end(999)  # double end is a no-op
    assert obs.phases[1].end == 900


def test_machine_defaults_to_shared_null_context():
    machine = Machine.build(cores=1, numa_nodes=1)
    assert machine.obs is NULL_OBS
    traced = Machine.build(cores=1, numa_nodes=1,
                           obs=Observability.capture())
    assert traced.obs.enabled
