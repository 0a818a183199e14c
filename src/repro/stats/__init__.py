"""Result containers and paper-style table renderers."""

from repro.stats.reporting import (
    render_breakdown_table,
    render_latency_table,
    render_memcached_table,
    render_property_matrix,
    render_throughput_table,
)
from repro.stats.analytical import (
    copy_invalidate_breakeven_bytes,
    predict_all_rx,
    predict_rx,
    strict_saturation_gbps,
)
from repro.stats.export import result_to_row
from repro.stats.results import RunResult
from repro.stats.timeline import (
    render_histogram,
    render_metrics_summary,
    render_observability_report,
    render_phase_table,
    render_trace_summary,
)

__all__ = [
    "RunResult",
    "render_throughput_table",
    "render_breakdown_table",
    "render_latency_table",
    "render_property_matrix",
    "render_memcached_table",
    "predict_rx",
    "predict_all_rx",
    "copy_invalidate_breakeven_bytes",
    "strict_saturation_gbps",
    "result_to_row",
    "render_histogram",
    "render_metrics_summary",
    "render_observability_report",
    "render_phase_table",
    "render_trace_summary",
]
