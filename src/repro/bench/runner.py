"""The figure registry and runner behind ``python -m repro bench``.

Every figure/table of the paper is a :class:`FigureSpec` that runs at a
selectable scale (:mod:`repro.bench.scales`): a list of
:class:`~repro.bench.points.RunPoint` plus the renderer of its text
table.  :func:`build_figures` runs each distinct point of the selected
figures once through :func:`repro.bench.points.fan_out`, builds every
figure as a view of those runs, and feeds one fingerprinted record
(:mod:`repro.bench.record`), the paper-fidelity ledger
(:mod:`repro.bench.ledger`) and the optional regression gate
(:mod:`repro.bench.regression`).

Every run in the registry goes through
:func:`repro.bench.points.run_point`, under a capturing
:class:`~repro.obs.context.Observability`; the zero-overhead guarantee
(``tests/obs/test_zero_overhead.py``) means the numbers are identical to
an uninstrumented run, so span capture is unconditionally on here.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.ledger import broken, evaluate, render_fidelity
from repro.bench.points import (
    WORKLOADS,
    RunPoint,
    fan_out,
    run_point,
    sized_point,
    throughput_entry,
)
from repro.bench.scales import SCALES, BenchScale
from repro.dma.registry import FIGURE_SCHEMES
from repro.obs.spans import SpanNode, merge_span_trees
from repro.stats.export import result_to_row
from repro.stats.reporting import (
    SchemeRows,
    render_breakdown_table,
    render_memcached_table,
    render_sweep_table,
    text_table,
)
from repro.stats.results import RunResult


def default_results_dir() -> str:
    """Where reports/records land: ``$REPRO_BENCH_RESULTS`` or
    ``benchmarks/results`` under the current directory."""
    return (os.environ.get("REPRO_BENCH_RESULTS")
            or os.path.join(os.getcwd(), "benchmarks", "results"))


# ----------------------------------------------------------------------
# The figure registry: a figure is a list of run points plus the
# renderer of its text table, a view of the figure's series rows.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FigureSpec:
    """One registry entry: a named figure's run points at a scale and the
    renderer of its text table from its rows grouped by scheme
    (:func:`repro.bench.record.scheme_points`)."""

    name: str
    title: str
    points: Callable[[BenchScale], List[RunPoint]]
    render: Callable[[SchemeRows], str]


def _stream_points(scale: BenchScale, workload: str,
                   schemes: Sequence[str], cores: Sequence[int],
                   sizes: Sequence[int]) -> List[RunPoint]:
    """Stream points, scheme-major; single-core points take the
    single-core sizing."""
    return [sized_point(workload, scheme, cores=n, size=size,
                        units=scale.units_single if n == 1
                        else scale.units_multi,
                        warmup=scale.warmup_single if n == 1
                        else scale.warmup_multi)
            for scheme in schemes for n in cores for size in sizes]


def _stream_figure(name: str, title: str, workload: str,
                   multi: bool, breakdown: bool = False) -> FigureSpec:
    def points(scale: BenchScale) -> List[RunPoint]:
        cores = scale.multi_cores if multi else 1
        return _stream_points(scale, workload, FIGURE_SCHEMES, (cores,),
                              scale.message_sizes(name))

    render = render_breakdown_table if breakdown else render_sweep_table
    return FigureSpec(name, title, points, partial(render, title=title))


#: Columns of a one-line-per-point table: header and cell of a row.
_CORES = ("cores", lambda row: str(row["cores"]))
_GBPS = ("Gb/s", lambda row: f"{row['throughput_gbps']:.2f}")
_US_PER_UNIT = ("us/unit", lambda row: f"{row['us_per_unit']:.3f}")


def _point_table(title: str, columns: Sequence[tuple]) -> Callable[
        [SchemeRows], str]:
    """A renderer printing one line per point: its scheme, then
    ``columns``."""
    def render(points: SchemeRows) -> str:
        return "\n".join([title, *text_table(
            ["scheme", *(head for head, _ in columns)],
            ([scheme, *(cell(row) for _, cell in columns)]
             for scheme, rows in points.items() for row in rows))])
    return render


_FIG01_TITLE = "Figure 1: IOMMU protection cost, RX 16KB, 1 vs N cores"

#: Figure 1 adds stock Linux (rbtree IOVAs) to the figure schemes.
_FIG01_SCHEMES = FIGURE_SCHEMES + ("linux-deferred", "linux-strict")


def _rr_points(scale: BenchScale, sizes: Sequence[int]) -> List[RunPoint]:
    return [sized_point("rr", scheme, size=size,
                        units=scale.rr_transactions, warmup=scale.rr_warmup)
            for scheme in FIGURE_SCHEMES for size in sizes]


#: Schemes of the scalable-invalidation figure: the paper's strict
#: baseline, the three post-2016 remedies, and copy — the contenders in
#: "can smart zero-copy beat copy?".
SCALINV_SCHEMES = ("identity-strict", "identity-strict-percore",
                   "identity-strict-prefetch", "identity-deferred-bounded",
                   "copy")

_FIG_SCALINV_TITLE = ("Scalable invalidation: strict vs per-core queues "
                      "vs copy, RX 16KB core sweep")

#: The registry, in the paper's figure order.
FIGURES: Tuple[FigureSpec, ...] = (
    FigureSpec(
        "fig01", _FIG01_TITLE,
        lambda scale: _stream_points(scale, "stream", _FIG01_SCHEMES,
                                     (1, scale.multi_cores),
                                     scale.message_sizes("fig01")),
        _point_table(_FIG01_TITLE, (_CORES, _GBPS, _US_PER_UNIT))),
    _stream_figure("fig03", "Figure 3: single-core TCP RX",
                   "stream", multi=False),
    _stream_figure("fig04", "Figure 4: single-core TCP TX",
                   "stream-tx", multi=False),
    _stream_figure("fig05", "Figure 5: single-core RX breakdown [us], 64KB",
                   "stream", multi=False, breakdown=True),
    _stream_figure("fig06", "Figure 6: 16-core TCP RX", "stream",
                   multi=True),
    _stream_figure("fig07", "Figure 7: 16-core TCP TX", "stream-tx",
                   multi=True),
    _stream_figure("fig08", "Figure 8: 16-core RX breakdown [us], 64KB",
                   "stream", multi=True, breakdown=True),
    FigureSpec(
        "fig09", "Figure 9: TCP_RR latency",
        lambda scale: _rr_points(scale, scale.message_sizes("fig09")),
        partial(render_sweep_table, metric="latency",
                title="Figure 9: TCP_RR latency (netperf TCP_RR)")),
    FigureSpec(
        "fig10", "Figure 10: TCP_RR CPU breakdown",
        lambda scale: _rr_points(scale, scale.message_sizes("fig10")),
        partial(render_breakdown_table, title=(
            "Figure 10: TCP_RR CPU breakdown per transaction [us], 64KB"))),
    FigureSpec(
        "fig11", "Figure 11: memcached",
        lambda scale: [sized_point("memcached", scheme,
                                   cores=scale.memcached_cores,
                                   units=scale.memcached_tpc,
                                   warmup=scale.memcached_warmup)
                       for scheme in FIGURE_SCHEMES],
        partial(render_memcached_table,
                title="Figure 11: memcached + memslap")),
    FigureSpec(
        "storage", "Storage block I/O",
        lambda scale: [sized_point("storage", scheme, size=block_size,
                                   units=scale.storage_ops,
                                   warmup=scale.storage_warmup)
                       for scheme in FIGURE_SCHEMES
                       for block_size in scale.storage_block_sizes],
        _point_table("Storage (§5.5): block I/O ops/s by block size", (
            ("block", lambda row: str(row["param_block_size"])),
            ("ops/s", lambda row: f"{row['transactions_per_sec'] or 0:,.0f}"),
            _GBPS))),
    FigureSpec(
        "fig_scalinv", _FIG_SCALINV_TITLE,
        lambda scale: _stream_points(scale, "stream", SCALINV_SCHEMES,
                                     scale.scalinv_cores,
                                     scale.message_sizes("fig_scalinv")),
        # Exposure columns ride along in the series rows (every registry
        # run is captured), so the record gates both sides of the trade:
        # throughput scaling *and* stale-window byte·cycles per remedy.
        _point_table(_FIG_SCALINV_TITLE, (
            _CORES, _GBPS, _US_PER_UNIT,
            ("stale byte-cycles", lambda row:
                f"{row.get('exposure_stale_byte_cycles', 0):,}")))),
)

FIGURE_NAMES = tuple(spec.name for spec in FIGURES)


def select_figures(only: Optional[Sequence[str]]) -> List[FigureSpec]:
    """Resolve ``--only`` selections against the registry (fail fast); a
    repeated name selects its figure once."""
    if not only:
        return list(FIGURES)
    by_name = {spec.name: spec for spec in FIGURES}
    unknown = [name for name in only if name not in by_name]
    if unknown:
        raise SystemExit(
            f"error: unknown figure(s) {', '.join(unknown)}; "
            f"choices: {', '.join(FIGURE_NAMES)}")
    return [by_name[name] for name in dict.fromkeys(only)]


def _point_key(point: RunPoint) -> tuple:
    """A point's identity in the point table: workload, scheme and
    sorted config fields."""
    return (point.workload, point.scheme,
            tuple(sorted(point.params.items())))


def _run_captured(point: RunPoint) -> Tuple[RunResult, SpanNode]:
    """Run one point under capture: its result and span tree (a
    picklable worker)."""
    result, obs = run_point(point)
    return result, obs.spans.tree()


def _figure(spec: FigureSpec, points: Sequence[RunPoint],
            runs: Sequence[Tuple[RunResult, SpanNode]]) -> dict:
    """One figure as a view of its points' runs, in point order: one
    series row per point and one merged span tree per scheme.  Its text
    table renders from the rows
    (:func:`repro.bench.record.render_markdown`), so the figure holds
    no rendered text."""
    trees: Dict[str, List[SpanNode]] = {}
    for point, (_, tree) in zip(points, runs):
        trees.setdefault(point.scheme, []).append(tree)
    return {
        "title": spec.title,
        "series": [dict(result_to_row(result), figure=spec.name)
                   for result, _ in runs],
        "spans": {scheme: merge_span_trees(scheme_trees).to_dict()
                  for scheme, scheme_trees in trees.items()},
    }


def build_figures(specs: Sequence[FigureSpec], scale: BenchScale,
                  jobs: int = 1) -> Tuple[Dict[str, dict], Dict[str, dict]]:
    """Build every figure from one point table, timed.

    The table holds each distinct point of ``specs`` once, in the order
    the figures first read it.  Its points are the tasks of
    :func:`repro.bench.points.fan_out`, merged back **in table order**,
    and each figure is a view of its own points' runs, so both return
    values are identical at any job count.  Returns ``(figures,
    throughput)``: the per-figure record data plus a
    ``sim_cycles_per_wall_second`` entry per figure and ``"overall"``.
    A figure's simulated cycles are its series rows' ``wall_cycles`` and
    its wall seconds its points'; a point several figures read counts in
    each, and ``"overall"`` sums the figures (figure work, not elapsed
    time, so it is comparable across job counts).
    """
    started = time.perf_counter()
    figure_points = {spec.name: spec.points(scale) for spec in specs}
    table = {_point_key(point): point
             for points in figure_points.values() for point in points}

    def note(point: RunPoint, run: Tuple[RunResult, SpanNode],
             seconds: float) -> None:
        result = run[0]
        size = result.params.get(WORKLOADS[point.workload].knobs["size"])
        print(f"[bench] {point.workload:<9} {point.scheme:<25} "
              f"cores={result.cores:<3} size={size:<6} "
              f"{result.throughput_gbps:8.2f} Gb/s  {seconds:5.1f}s",
              file=sys.stderr)

    built = dict(zip(table, fan_out(_run_captured, list(table.values()),
                                    jobs, note)))
    figures: Dict[str, dict] = {}
    seconds: Dict[str, float] = {}
    for spec in specs:
        points = figure_points[spec.name]
        runs = [built[_point_key(point)] for point in points]
        figures[spec.name] = _figure(spec, points, [run for run, _ in runs])
        seconds[spec.name] = sum(wall for _, wall in runs)
    throughput = {
        name: throughput_entry(
            sum(row["wall_cycles"] for row in data["series"]),
            seconds[name])
        for name, data in figures.items()}
    throughput["overall"] = throughput_entry(
        sum(entry["sim_cycles"] for entry in throughput.values()),
        sum(seconds.values()))
    rate = throughput["overall"]["sim_cycles_per_wall_second"]
    print(f"[bench] {len(specs)} figures, {len(table)} distinct points in "
          f"{time.perf_counter() - started:.1f}s (jobs={jobs}, "
          f"{rate:,} sim cycles/s)")
    return figures, throughput


def run_bench(mode: str = "quick", only: Optional[Sequence[str]] = None,
              baseline: Optional[str] = None,
              out_dir: Optional[str] = None, jobs: int = 1) -> int:
    """Run the registry, write the record + report, check the
    paper-fidelity ledger, optionally gate.

    ``jobs`` shards the distinct run points across processes; the merged
    record is byte-stable regardless of job count (modulo the timestamp
    and the wall-clock throughput fields).  Returns the process exit
    status: 0 on success, 1 when a ledger claim is broken or the
    record moved from the baseline (or simulated under its speed
    floor).
    """
    # Imported here to keep the module importable without a cycle once
    # record/regression need runner metadata.
    from repro.bench.record import (
        build_record,
        record_basename,
        render_markdown,
        write_record,
    )
    from repro.bench.regression import gate_against_baseline

    scale = SCALES.get(mode)
    if scale is None:
        raise SystemExit(f"error: unknown bench mode {mode!r}")
    if baseline is not None and not os.path.exists(baseline):
        raise SystemExit(f"error: baseline record not found: {baseline}")
    specs = select_figures(only)
    out = out_dir or default_results_dir()

    figures, throughput = build_figures(specs, scale, jobs=jobs)
    record = build_record(mode=scale.name, figures=figures,
                          schemes=FIGURE_SCHEMES, throughput=throughput)
    json_path, md_path = write_record(record, out, record_basename(record),
                                      render_markdown(record))
    print(f"[bench] record : {json_path}")
    print(f"[bench] report : {md_path}")

    verdicts = evaluate(record)
    print("== paper fidelity ==")
    print("\n".join(render_fidelity(verdicts)))
    status = 1 if broken(verdicts) else 0
    if baseline is not None:
        status = max(status, gate_against_baseline(baseline, record,
                                                   out_dir=out))
    return status

