"""Core-count sweep orchestration: ``python -m repro scale``.

The scalability observatory's front door.  A *sweep* runs one workload
under each requested scheme at each requested core count — every point
an independent, deterministic simulation under a capturing
:class:`~repro.obs.context.Observability` — and hands the recorded data
to :mod:`repro.obs.scaling` for the post-hoc analysis: speedup curves,
Amdahl/USL serial-fraction fits, the per-lock contention matrix, and
the invalidation-queue decomposition.

Every point is a :class:`~repro.bench.points.RunPoint` run by
:func:`repro.bench.points.run_point`, and points are independent tasks
of :func:`repro.bench.points.fan_out`, so ``--jobs N`` distributes them
over worker processes and merges them back in task order — the written
record is byte-identical at any job count once the host-dependent
fields are stripped (:func:`repro.bench.record.stable_view` applies
unchanged, which is what ``tests/bench/test_scale.py`` asserts).

Artifacts land as fixed-name ``scale.json`` + ``scale.md`` (CI uploads
the JSON next to the bench records; fixed names keep the workflow glob
trivial and repeated sweeps diffable).  ``scale.json`` is a bench
record with one ``scale`` figure: the sweep points are its series rows
and the per-scheme analysis rides under the same figure, so
``repro diff`` and ``repro bench --baseline`` read it like any record.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.points import (
    RunPoint,
    fan_out,
    run_point,
    sized_point,
    throughput_entry,
)
from repro.bench.record import build_record, write_record
from repro.bench.runner import default_results_dir
from repro.dma.registry import ALL_SCHEMES, PAPER_ALIASES
from repro.obs.scaling import (
    analyze_scheme,
    contention_matrix,
    queueing_rows,
    render_contention_matrix,
    render_fit_table,
    render_queueing_table,
    render_speedup_table,
    serialized_shares,
)
from repro.obs.spans import SPAN_LOCK_WAIT
from repro.sim.units import cycles_to_us
from repro.stats.results import RunResult

#: The ROADMAP's target sweep for the "strict vs per-core vs copy" figure.
DEFAULT_CORES = (1, 2, 4, 8, 16, 32, 64)

#: Workloads the sweep can drive, with the message, block or value size
#: of their points.
SCALE_SIZES = {"stream": 16384, "stream-tx": 16384, "storage": 4096,
               "memcached": 4096}
SCALE_WORKLOADS = tuple(SCALE_SIZES)


@dataclass(frozen=True)
class ScaleSizing:
    """Work per sweep point (fixed *per core*, so aggregate throughput
    ratios are speedups)."""

    name: str
    units_per_core: int
    warmup_units: int


#: CI smoke sizing: a strict-vs-copy 1/2/4 sweep in a few seconds.
QUICK_SIZING = ScaleSizing(name="quick", units_per_core=60, warmup_units=15)

#: Report sizing: stable curves through 64 cores.
FULL_SIZING = ScaleSizing(name="full", units_per_core=200, warmup_units=40)

SIZINGS = {"quick": QUICK_SIZING, "full": FULL_SIZING}


# ----------------------------------------------------------------------
# One sweep point.
# ----------------------------------------------------------------------
def _lock_wait_paths(tree) -> List[Dict[str, object]]:
    """Span paths ending in ``lock_wait``, with their inclusive cycles —
    the "where in the stack does the spinning happen" evidence the
    report attaches to the top contended lock."""
    paths: List[Dict[str, object]] = []
    for path, node in tree.walk():
        if path and path[-1] == SPAN_LOCK_WAIT and node.total_cycles:
            # Drop the synthetic "run" root from the display path.
            paths.append({"path": list(path[1:]),
                          "cycles": node.total_cycles,
                          "count": node.count})
    paths.sort(key=lambda p: (-int(p["cycles"]), p["path"]))
    return paths


def _invalidation_section(result: RunResult) -> Dict[str, object]:
    """The queueing-decomposition inputs recorded by the workload."""
    extras = result.extras
    completions = int(extras.get("inv_hw_completions") or 0)
    service = int(extras.get("inv_hw_service_cycles") or 0)
    delay = int(extras.get("inv_hw_queue_delay_cycles") or 0)
    wall_us = cycles_to_us(result.wall_cycles) if result.wall_cycles else 0.0
    depth = {}
    metrics = extras.get("metrics")
    if isinstance(metrics, dict):
        depth = (metrics.get("series") or {}).get(
            "invalidation.queue_depth") or {}
    return {
        "submissions": completions,
        "arrival_rate_per_us": (round(completions / wall_us, 6)
                                if wall_us > 0 else 0.0),
        "mean_service_cycles": (round(service / completions, 2)
                                if completions else 0.0),
        "mean_queue_delay_cycles": (round(delay / completions, 2)
                                    if completions else 0.0),
        "queue_depth_mean": depth.get("mean", 0.0),
        "queue_depth_max": depth.get("max", 0),
    }


def _sweep_point(point: RunPoint) -> Dict[str, object]:
    """Run one (scheme, cores) point and flatten it into a point dict."""
    result, obs = run_point(point)
    lock_wait_share, serial_fraction = serialized_shares(
        result.breakdown_cycles, result.busy_cycles)
    return {
        "cores": result.cores,
        "units": result.units,
        "payload_bytes": result.payload_bytes,
        "wall_cycles": result.wall_cycles,
        "busy_cycles": result.busy_cycles,
        "throughput_gbps": round(result.throughput_gbps, 6),
        "breakdown_cycles": dict(result.breakdown_cycles),
        "lock_wait_share": round(lock_wait_share, 6),
        "scaling_serial_fraction": round(serial_fraction, 6),
        "locks": result.extras.get("locks") or {},
        "invalidation": _invalidation_section(result),
        "lock_wait_paths": _lock_wait_paths(obs.spans.tree()),
    }


# ----------------------------------------------------------------------
# Sweep orchestration.
# ----------------------------------------------------------------------
def resolve_schemes(schemes: Sequence[str]) -> List[str]:
    """Canonicalize scheme names (paper aliases allowed), fail fast."""
    resolved: List[str] = []
    for name in schemes:
        canonical = PAPER_ALIASES.get(name, name)
        if canonical not in ALL_SCHEMES:
            raise SystemExit(
                f"error: unknown scheme {name!r}; "
                f"choices: {', '.join(sorted(ALL_SCHEMES))}")
        if canonical not in resolved:
            resolved.append(canonical)
    if not resolved:
        raise SystemExit("error: no schemes to sweep")
    return resolved


def resolve_cores(cores: Sequence[int]) -> List[int]:
    """Validated, sorted, de-duplicated core counts."""
    unique = sorted(set(cores))
    if not unique:
        raise SystemExit("error: no core counts to sweep")
    if unique[0] < 1:
        raise SystemExit(f"error: core counts must be positive: {unique[0]}")
    return unique


def build_sweep(workload: str, schemes: Sequence[str],
                cores: Sequence[int], sizing: ScaleSizing, jobs: int = 1,
                ) -> Tuple[List[Dict], Dict[str, dict]]:
    """Run every (scheme, cores) point; returns ``(rows, throughput)``.

    Points are :func:`repro.bench.points.fan_out` tasks merged back
    **in task order**, so the scheme-major rows are deterministic at
    any ``jobs`` count.  Each row is the point dict plus its
    ``figure``, ``scheme`` and ``workload``.  The throughput section sums per-point wall times
    (not makespan), comparable across job counts the way the bench
    section is.
    """
    tasks = [sized_point(workload, scheme, cores=n,
                         size=SCALE_SIZES[workload],
                         units=sizing.units_per_core,
                         warmup=sizing.warmup_units)
             for scheme in schemes for n in cores]

    def note(task: RunPoint, point: Dict, seconds: float) -> None:
        print(f"[scale] {task.scheme:<18} cores={point['cores']:<3} "
              f"{point['throughput_gbps']:8.2f} Gb/s  {seconds:5.1f}s",
              file=sys.stderr)

    built = fan_out(_sweep_point, tasks, jobs, note)
    rows = [dict(point, figure="scale", scheme=task.scheme,
                 workload=workload)
            for task, (point, _) in zip(tasks, built)]
    throughput = {"overall": throughput_entry(
        sum(point["wall_cycles"] for point, _ in built),
        sum(seconds for _, seconds in built))}
    return rows, throughput


def scheme_points(figure: Dict) -> Dict[str, List[Dict]]:
    """The ``scale`` figure's series rows grouped by scheme, in sweep
    order."""
    points: Dict[str, List[Dict]] = {}
    for row in figure.get("series", ()):
        points.setdefault(row["scheme"], []).append(row)
    return points


def build_scale_record(workload: str, schemes: Sequence[str],
                       cores: Sequence[int], sizing: ScaleSizing,
                       rows: List[Dict],
                       throughput: Dict[str, dict]) -> Dict:
    """Assemble the scale record: one ``scale`` figure holding the sweep
    rows and, per scheme, the fitted ``analysis``, the ``contention``
    matrix and the ``queueing`` rows."""
    figure: Dict[str, object] = {"series": rows, "workload": workload,
                                 "cores": list(cores)}
    points = scheme_points(figure)
    figure["analysis"] = {
        scheme: analyze_scheme(scheme, points[scheme]).to_dict()
        for scheme in schemes}
    figure["contention"] = {
        scheme: contention_matrix(points[scheme]) for scheme in schemes}
    figure["queueing"] = {
        scheme: queueing_rows(points[scheme]) for scheme in schemes}
    return build_record(mode=f"scale-{sizing.name}",
                        figures={"scale": figure}, schemes=schemes,
                        throughput=throughput)


# ----------------------------------------------------------------------
# Markdown report.
# ----------------------------------------------------------------------
def _top_lock_evidence(scheme: str, points: List[Dict]) -> List[str]:
    """Span paths behind the widest point's heaviest lock waiting."""
    if not points:
        return []
    widest = max(points, key=lambda p: int(p["cores"]))
    paths = widest.get("lock_wait_paths") or []
    if not paths:
        return []
    lines = [f"Span paths of the lock waiting at {widest['cores']} cores "
             f"({scheme}):", ""]
    for entry in paths[:4]:
        path = " → ".join(entry["path"])
        lines.append(f"- `{path}` — {entry['cycles']:,} cycles "
                     f"across {entry['count']:,} waits")
    lines.append("")
    return lines


def render_scale_report(record: Dict) -> str:
    """The human-facing scaling report (written as ``scale.md``)."""
    figure = record["figures"]["scale"]
    points = scheme_points(figure)
    schemes = list(points)
    analyses = [analyze_scheme(s, points[s]) for s in schemes]
    fp = record.get("fingerprint", {})
    lines = [
        "# Scaling report",
        "",
        f"- workload: `{figure.get('workload', '?')}`",
        f"- cores: {', '.join(str(n) for n in figure.get('cores', ()))}",
        f"- schemes: {', '.join(schemes)}",
        f"- mode: `{fp.get('mode', '?')}`",
        f"- git SHA: `{fp.get('git_sha', '?')}`",
        "",
        "## Speedup (aggregate throughput vs the smallest core count)",
        "",
        *render_speedup_table(analyses),
        "",
        "## Serial-fraction fits",
        "",
        *render_fit_table(analyses),
        "",
        "Amdahl's ``s`` is the fitted serial fraction; USL's κ > 0 "
        "means the model predicts throughput *degrades* past the peak "
        "core count.  `lock-wait share` is the measured spinlock share "
        "of busy cycles at the widest sweep point.",
        "",
    ]
    for scheme in schemes:
        lines.extend([
            f"## {scheme}: contention matrix",
            "",
            *render_contention_matrix(
                figure.get("contention", {}).get(scheme, ())),
            "",
            *_top_lock_evidence(scheme, points[scheme]),
            f"### {scheme}: invalidation-queue decomposition",
            "",
            *render_queueing_table(
                figure.get("queueing", {}).get(scheme, ())),
            "",
        ])
    return "\n".join(lines).rstrip() + "\n"


# ----------------------------------------------------------------------
# Entry point (the ``repro scale`` subcommand).
# ----------------------------------------------------------------------
def run_scale(workload: str = "stream",
              schemes: Sequence[str] = ("identity-strict", "copy"),
              cores: Sequence[int] = DEFAULT_CORES,
              mode: str = "quick", jobs: int = 1,
              out_dir: Optional[str] = None) -> int:
    """Run the sweep, write ``scale.json`` + ``scale.md``, print the
    ranking verdict.  Returns the process exit status."""
    sizing = SIZINGS.get(mode)
    if sizing is None:
        raise SystemExit(f"error: unknown scale mode {mode!r}; "
                         f"choices: {', '.join(SIZINGS)}")
    if workload not in SCALE_WORKLOADS:
        raise SystemExit(f"error: unknown scale workload {workload!r}; "
                         f"choices: {', '.join(SCALE_WORKLOADS)}")
    scheme_list = resolve_schemes(schemes)
    core_list = resolve_cores(cores)

    started = time.perf_counter()
    rows, throughput = build_sweep(workload, scheme_list, core_list,
                                   sizing, jobs=jobs)
    record = build_scale_record(workload, scheme_list, core_list, sizing,
                                rows, throughput)
    json_path, md_path = write_record(
        record, out_dir or default_results_dir(), "scale",
        render_scale_report(record))

    ranked = sorted(record["figures"]["scale"]["analysis"].items(),
                    key=lambda kv: -(kv[1]["fit"]["serial_fraction"] or 0.0))
    print(f"[scale] {len(scheme_list)}×{len(core_list)} points in "
          f"{time.perf_counter() - started:.1f}s (jobs={jobs})")
    for scheme, analysis in ranked:
        s = analysis["fit"]["serial_fraction"]
        s_text = "-" if s is None else f"{s:.3f}"
        top = analysis["top_lock"] or "-"
        print(f"[scale] {scheme:<18} serial fraction {s_text:<6} "
              f"top lock {top}")
    print(f"[scale] record : {json_path}")
    print(f"[scale] report : {md_path}")
    return 0
