"""Timeline/summary renderer tests for the observability report."""

from repro.obs.context import Observability, PhaseRecord
from repro.obs.metrics import CycleHistogram, MetricsRegistry
from repro.obs.trace import EV_DMA_MAP, NullTracer, RingTracer
from repro.stats.timeline import (
    render_histogram,
    render_metrics_summary,
    render_observability_report,
    render_phase_table,
    render_trace_summary,
)


def test_render_histogram_bars_and_summary():
    hist = CycleHistogram("lat")
    for _ in range(10):
        hist.observe(100)
    hist.observe(1000)
    text = render_histogram(hist)
    assert text.startswith("lat")
    assert "<=" in text and "#" in text
    assert "count=11" in text


def test_render_empty_histogram():
    assert "(no observations)" in render_histogram(CycleHistogram("lat"))


def test_render_metrics_summary_sections():
    metrics = MetricsRegistry()
    metrics.counter("net.rx_packets").inc(7)
    metrics.histogram("invalidation.latency_cycles").observe(1500)
    metrics.series("pool.in_flight").sample(0, 3)
    text = render_metrics_summary(metrics)
    assert "counters:" in text
    assert "net.rx_packets" in text and "7" in text
    assert "histograms (cycles):" in text
    assert "invalidation.latency_cycles" in text
    assert "series:" in text and "pool.in_flight" in text


def test_render_empty_metrics():
    assert "(no metrics recorded)" in render_metrics_summary(MetricsRegistry())


def test_render_phase_table():
    phases = [PhaseRecord("warmup", 0, 3000, busy_cycles=2000,
                          breakdown={"copy": 1200, "other": 800}),
              PhaseRecord("measure", 3000, 9000, busy_cycles=5000)]
    text = render_phase_table(phases)
    assert "warmup" in text and "measure" in text
    assert "copy=" in text
    assert "(no phases recorded)" in render_phase_table([])


def test_render_trace_summary():
    tracer = RingTracer(capacity=2)
    for i in range(5):
        tracer.emit(EV_DMA_MAP, i, 0, {})
    text = render_trace_summary(tracer)
    assert EV_DMA_MAP in text
    assert "retained=2 dropped=3" in text
    assert "(tracing disabled)" in render_trace_summary(NullTracer())


def test_render_full_report():
    obs = Observability.capture()
    obs.phase_begin("measure", 0)
    obs.tracer.emit(EV_DMA_MAP, 5, 0, {"size": 1500})
    obs.metrics.counter("dma.maps:copy").inc()
    obs.phase_end(100, busy_cycles=80)
    text = render_observability_report(obs)
    assert "== trace ==" in text
    assert "== phases ==" in text
    assert "== metrics ==" in text
