"""Plain-text rendering of the paper's tables and figure data.

The benchmark harness prints the same rows/series the paper reports:
throughput and CPU per message size (Figures 3/4/6/7/9), per-packet time
breakdowns (Figures 5/8/10), the memcached bars (Figure 11), and the
Table 1 property matrix.  Everything renders as aligned monospace text —
the repository's "figures" are these series, per the reproduction brief.

A figure table is a view of its series rows (the
:func:`repro.stats.export.result_to_row` dicts) grouped by scheme, in
point order, so a stored record re-renders its own tables.  Every table
lays its cells out through :func:`text_table`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from repro.hw.cpu import ALL_CATEGORIES

#: A figure's series rows grouped by scheme, in point order.
SchemeRows = Dict[str, List[dict]]


def text_table(header: Sequence[str],
               rows: Iterable[Sequence[str]]) -> List[str]:
    """Lay formatted cells out as aligned lines: each column as wide as
    its widest cell (header included), two spaces apart, the first
    column left-aligned and the rest right-aligned."""
    table = [list(header), *(list(row) for row in rows)]
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    return ["  ".join([row[0].ljust(widths[0]),
                       *(cell.rjust(width)
                         for cell, width in zip(row[1:], widths[1:]))])
            .rstrip()
            for row in table]


def _fmt_size(size: int) -> str:
    if size >= 1024 and size % 1024 == 0:
        return f"{size // 1024}KB"
    return f"{size}B"


def _ratio(value: float, base: float) -> float:
    return value / base if base else 0.0


#: The scheme every relative column divides by.
BASELINE = "no-iommu"


#: The headline metric of a sweep: its panel title, row column and
#: printed decimal places.
SWEEP_METRICS = {
    "throughput": ("throughput [Gb/s]", "throughput_gbps", 2),
    "latency": ("latency [us]", "latency_us", 1),
}


def render_sweep_table(points: SchemeRows, metric: str = "throughput",
                       title: str = "") -> str:
    """The four panels of the paper's sweep figures — the metric, the
    metric relative to :data:`BASELINE`, CPU [%] and relative CPU — with
    one column per message size: throughput for Figures 3/4/6/7,
    latency for Figure 9."""
    label, key, places = SWEEP_METRICS[metric]
    first = next(iter(points.values()))
    size = "param_message_size"
    base = {row[size]: row for row in points.get(BASELINE, first)}
    header = ["scheme", *(_fmt_size(row[size]) for row in first)]
    lines: List[str] = [title] if title else []
    for panel, cell in (
        (label, lambda row, b: f"{row[key] or 0:.{places}f}"),
        (f"relative {metric}", lambda row, b:
            f"{_ratio(row[key] or 0, b[key]):.2f}"),
        ("cpu [%]", lambda row, b: f"{100 * row['cpu_utilization']:.1f}"),
        ("relative cpu", lambda row, b:
            f"{_ratio(row['cpu_utilization'], b['cpu_utilization']):.2f}"),
    ):
        lines.append(f"--- {panel} ---")
        lines.extend(text_table(header, (
            [scheme, *(cell(row, base[row[size]]) for row in rows)]
            for scheme, rows in points.items())))
        lines.append("")
    return "\n".join(lines)


def render_breakdown_table(points: SchemeRows, title: str = "") -> str:
    """Per-packet time breakdown in µs (the paper's Figures 5/8/10 bars),
    one column per row."""
    columns = [(scheme, row) for scheme, rows in points.items()
               for row in rows]
    body = [[category, *(f"{row['us_' + category.replace(' ', '_')]:.3f}"
                         for _, row in columns)]
            for category in ALL_CATEGORIES]
    body.append(["TOTAL (us/unit)",
                 *(f"{row['us_per_unit']:.3f}" for _, row in columns)])
    body.append(["throughput (Gb/s)",
                 *(f"{row['throughput_gbps']:.2f}" for _, row in columns)])
    lines = [title] if title else []
    lines.extend(text_table(["category", *(s for s, _ in columns)], body))
    return "\n".join(lines)


def render_memcached_table(points: SchemeRows, title: str = "") -> str:
    """memcached transactions/s + CPU (Figure 11 bars)."""
    base = points.get(BASELINE, [{}])[0].get("transactions_per_sec")
    lines = [title] if title else []
    lines.extend(text_table(["scheme", "Mtps", "rel", "cpu %"], (
        [scheme, f"{(row['transactions_per_sec'] or 0.0) / 1e6:.3f}",
         f"{_ratio(row['transactions_per_sec'] or 0.0, base):.2f}",
         f"{100 * row['cpu_utilization']:.1f}"]
        for scheme, rows in points.items() for row in rows)))
    return "\n".join(lines)


def render_property_matrix(rows: Sequence[tuple[str, Dict[str, bool]]],
                           columns: Iterable[str],
                           title: str = "Table 1") -> str:
    """The Table 1 ✓/✗ matrix (verified empirically by the audit)."""
    columns = list(columns)
    return "\n".join([title, *text_table(["scheme", *columns], (
        [label, *("yes" if props.get(col) else "-" for col in columns)]
        for label, props in rows))])


#: The exposure report's columns: header and summary key.
_EXPOSURE_COLUMNS = (
    ("stale B*cyc", "stale_byte_cycles"),
    ("max win cyc", "stale_peak_window_cycles"),
    ("stale hits", "stale_accesses"),
    ("excess B*cyc", "granularity_excess_byte_cycles"),
    ("peak excess B", "peak_excess_bytes"),
    ("surface B", "peak_surface_bytes"),
    ("faults", "faults"),
)


def render_exposure_report(rows: Sequence[tuple[str, Dict[str, object] | None]],
                           title: str = "Exposure report") -> str:
    """Per-scheme exposure metrics (see :mod:`repro.obs.exposure`).

    ``rows`` pairs a scheme label with its exposure summary — ``None``
    marks a scheme with no IOMMU domain at all (no-iommu, SWIOTLB),
    where the device's reach is not bounded by translation in the
    first place; its cells read ``n/a``.
    """
    return "\n".join([
        title,
        *text_table(["scheme", *(head for head, _ in _EXPOSURE_COLUMNS)], (
            [label, *("n/a" if summary is None else str(summary.get(key, 0))
                      for _, key in _EXPOSURE_COLUMNS)]
            for label, summary in rows)),
        "",
        "n/a: unprotected, device reach not bounded by translation; "
        "stale B*cyc: byte-cycles device-reachable after OS unmap "
        "(deferred window); excess B*cyc: OS bytes beyond the requested "
        "range (page granularity), integrated over the mapping lifetime.",
    ])
