"""One-shot consolidated report: ``python -m repro report``.

Runs the quick-scale figure registry (the same sweeps ``bench --quick``
runs), then writes a single markdown document that combines

* the standard per-figure tables and span highlights of a bench record
  (:func:`repro.bench.record.render_markdown`);
* a **request latency tail table** — every series point that carried
  ``latency_p50/p99/p999`` columns, side by side across schemes;
* a **tail attribution** section — two contrasting 16-core MTU RX
  captures (``identity-strict`` vs ``copy``) with the critical-path
  analyzer's verdict for each, so the report states *why* the strict
  scheme's tail is slow (invalidation-lock wait) and where the copy
  scheme pays instead (the copy itself);
* a **differential analysis** section — the same two captures run
  through the ``repro diff`` engine (:mod:`repro.obs.diff`): per-unit
  span-cycle movement between the schemes and the stage-wise
  decomposition of the tail-gap change.

Unlike ``bench``, no ``BENCH_*.json`` record is written — this is the
human-facing artifact (CI uploads it; see ``.github/workflows/ci.yml``).
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.points import run_point, sized_point
from repro.bench.record import build_record, render_markdown
from repro.bench.runner import (
    FIGURE_SCHEMES,
    build_figures,
    default_results_dir,
    select_figures,
)
from repro.bench.scales import QUICK_SCALE
from repro.obs.requests import REQ_RX, tail_report
from repro.stats.timeline import render_tail_report

#: Sizing of the contrast captures in the tail-attribution section:
#: enough 16-core MTU frames for a stable p99 without dominating the
#: report's runtime.
_ATTRIBUTION_CORES = 16
_ATTRIBUTION_UNITS = 60
_ATTRIBUTION_WARMUP = 15
_ATTRIBUTION_SIZE = 1448


def _latency_rows(record: Dict) -> List[Tuple[str, Dict]]:
    rows: List[Tuple[str, Dict]] = []
    for name, figure in record.get("figures", {}).items():
        for row in figure.get("series", ()):
            if row.get("latency_p50_us") is not None:
                rows.append((name, row))
    return rows


def _latency_table(record: Dict) -> List[str]:
    """Markdown table of every series point with request-tail columns."""
    rows = _latency_rows(record)
    if not rows:
        return ["(no request-latency data in this run)"]
    lines = [
        "| figure | scheme | workload | cores | params | p50 [us] "
        "| p99 [us] | p99.9 [us] |",
        "|---|---|---|---:|---|---:|---:|---:|",
    ]
    for name, row in rows:
        params = ", ".join(
            f"{key[len('param_'):]}={value}"
            for key, value in sorted(row.items())
            if key.startswith("param_") and key != "param_cores"
            and key != "param_direction")
        lines.append(
            f"| {name} | {row.get('scheme')} | {row.get('workload')} "
            f"| {row.get('cores')} | {params} "
            f"| {row.get('latency_p50_us')} "
            f"| {row.get('latency_p99_us')} "
            f"| {row.get('latency_p999_us')} |")
    return lines


def _exposure_table(record: Dict) -> List[str]:
    """Per-scheme exposure totals summed across the run's series rows."""
    per_scheme: Dict[str, Dict[str, int]] = {}
    for figure in record.get("figures", {}).values():
        for row in figure.get("series", ()):
            if row.get("exposure_stale_byte_cycles") is None:
                continue
            agg = per_scheme.setdefault(str(row.get("scheme")),
                                        {"stale": 0, "excess": 0,
                                         "faults": 0})
            agg["stale"] += row.get("exposure_stale_byte_cycles", 0)
            agg["excess"] += row.get("exposure_excess_byte_cycles", 0)
            agg["faults"] += row.get("exposure_faults", 0)
    if not per_scheme:
        return ["(no exposure data in this run)"]
    lines = [
        "| scheme | stale [B·cyc] | granularity excess [B·cyc] "
        "| faults |",
        "|---|---:|---:|---:|",
    ]
    for scheme, agg in sorted(per_scheme.items()):
        lines.append(f"| {scheme} | {agg['stale']:,} | {agg['excess']:,} "
                     f"| {agg['faults']:,} |")
    return lines


def _fleet_table(record: Dict) -> List[str]:
    """Fleet capacity per scheme (from the ``fleet`` figure's rows)."""
    rows = [row for row
            in record.get("figures", {}).get("fleet", {}).get("series", ())
            if row.get("fleet_capacity_users") is not None]
    if not rows:
        return ["(no fleet capacity data in this run — the `fleet` "
                "figure was excluded)"]
    lines = [
        "Max sustained user population per scheme before any SLO window "
        "breaches (see `python -m repro fleet` for the full search "
        "curves and breach forensics).",
        "",
        "| scheme | capacity [users] | breach windows @ capacity "
        "| worst window p99 [us] | drops |",
        "|---|---:|---:|---:|---:|",
    ]
    for row in rows:
        lines.append(
            f"| {row.get('scheme')} "
            f"| {row.get('fleet_capacity_users'):,} "
            f"| {row.get('slo_breach_windows')} "
            f"| {row.get('slo_worst_p99_us')} "
            f"| {row.get('slo_drops')} |")
    return lines


def _tail_attribution(tail: float) -> Tuple[List[str], List]:
    """Contrast captures: where the tail goes, strict vs copy.

    Returns the rendered section *and* the two captures as diff sides,
    so the differential-analysis section reuses the exact same runs
    rather than paying for a second pair.
    """
    from repro.obs.diff.sides import side_from_capture

    lines: List[str] = []
    sides: List = []
    for scheme in ("identity-strict", "copy"):
        result, obs = run_point(sized_point(
            "stream", scheme, cores=_ATTRIBUTION_CORES,
            size=_ATTRIBUTION_SIZE, units=_ATTRIBUTION_UNITS,
            warmup=_ATTRIBUTION_WARMUP))
        sides.append(side_from_capture(result, obs, label=scheme,
                                       tail_percentile=tail))
        report = tail_report(obs.requests, kind=REQ_RX, percentile=tail)
        lines.extend([
            f"### {scheme}",
            "",
            "```text",
            render_tail_report(report),
            "```",
            "",
        ])
    return lines, sides


def _diff_section(sides: List) -> List[str]:
    """Strict-vs-copy differential summary from the reused captures."""
    from repro.obs.diff.engine import build_diff
    from repro.obs.diff.render import render_diff_embed

    return render_diff_embed(build_diff(sides[0], sides[1]))


def run_report(out: Optional[str] = None,
               only: Optional[Sequence[str]] = None,
               tail: float = 99.0, jobs: int = 1) -> int:
    """Build and write the consolidated report; returns exit status."""
    specs = select_figures(only)
    started = time.time()
    # The same timed-run helper ``bench`` uses — progress lines, wall
    # accounting, and the --jobs fan-out are implemented exactly once.
    figures, throughput = build_figures(specs, QUICK_SCALE, jobs=jobs,
                                        label="report")
    record = build_record(mode=QUICK_SCALE.name, figures=figures,
                          schemes=FIGURE_SCHEMES, throughput=throughput)

    parts = [
        render_markdown(record).rstrip(),
        "",
        "## Request latency tails",
        "",
        *_latency_table(record),
        "",
        "## Exposure (summed across series points)",
        "",
        *_exposure_table(record),
        "",
        "## Fleet capacity at the SLO",
        "",
        *_fleet_table(record),
        "",
        f"## Tail attribution (p{tail:g}, {_ATTRIBUTION_CORES}-core RX, "
        f"{_ATTRIBUTION_SIZE}B frames)",
        "",
    ]
    attribution_lines, sides = _tail_attribution(tail)
    parts.extend(attribution_lines)
    parts.extend([
        "## Differential analysis (identity-strict vs copy)",
        "",
        "The same two captures as above, run through the `repro diff` "
        "engine: per-unit span-cycle movement and the stage-wise "
        "decomposition of the tail-gap change.",
        "",
        *_diff_section(sides),
    ])

    path = out or os.path.join(default_results_dir(), "REPORT.md")
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w") as fh:
        fh.write("\n".join(parts).rstrip() + "\n")
    print(f"[report] {len(specs)} figures in {time.time() - started:.1f}s")
    print(f"[report] report : {path}")
    return 0
