"""The figure registry and runner behind ``python -m repro bench``.

Every figure/table of the paper is a :class:`FigureSpec` that runs at a
selectable scale (:mod:`repro.bench.scales`): a list of
:class:`~repro.bench.points.RunPoint` plus the renderer of its text
table.  :func:`build_figures` fans the figures out through
:func:`repro.bench.points.fan_out` and feeds one fingerprinted record
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

import functools
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.ledger import broken, evaluate, render_fidelity
from repro.bench.points import (
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
    render_breakdown_table,
    render_latency_table,
    render_memcached_table,
    render_throughput_table,
)
from repro.stats.results import RunResult
from repro.stats.timeline import render_span_tree


def default_results_dir() -> str:
    """Where reports/records land: ``$REPRO_BENCH_RESULTS`` or
    ``benchmarks/results`` under the current directory."""
    return (os.environ.get("REPRO_BENCH_RESULTS")
            or os.path.join(os.getcwd(), "benchmarks", "results"))


# ----------------------------------------------------------------------
# The figure registry: a figure is a list of run points plus the
# renderer of its text table.
# ----------------------------------------------------------------------
Results = Dict[str, List[RunResult]]


@dataclass(frozen=True)
class FigureSpec:
    """One registry entry: a named figure and how to build it.

    ``build(scale)`` returns the figure's record data and the simulated
    cycles of every run behind it — more than its series rows hold when
    the figure is a capacity search.
    """

    name: str
    title: str
    build: Callable[[BenchScale], Tuple[dict, int]]


def _point_figure(name: str, title: str,
                  points: Callable[[BenchScale], List[RunPoint]],
                  render: Callable[[Results], str]) -> FigureSpec:
    """A figure built by running its points in order: one series row per
    point, one merged span tree per scheme, and the rendered table."""
    def build(scale: BenchScale) -> Tuple[dict, int]:
        results: Results = {}
        trees: Dict[str, List[SpanNode]] = {}
        for point in points(scale):
            result, obs = run_point(point)
            results.setdefault(point.scheme, []).append(result)
            trees.setdefault(point.scheme, []).append(obs.spans.tree())
        runs = [result for scheme_runs in results.values()
                for result in scheme_runs]
        figure = {
            "title": title,
            "series": [dict(result_to_row(result), figure=name)
                       for result in runs],
            "spans": {scheme: merge_span_trees(scheme_trees).to_dict()
                      for scheme, scheme_trees in trees.items()},
            "report": render(results),
        }
        return figure, sum(result.wall_cycles for result in runs)

    return FigureSpec(name, title, build)


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


def _throughput_table(title: str) -> Callable[[Results], str]:
    return lambda results: render_throughput_table(results, title=title)


def _breakdown_table(title: str) -> Callable[[Results], str]:
    return lambda results: render_breakdown_table(
        {scheme: runs[0] for scheme, runs in results.items()}, title=title)


def _stream_figure(name: str, title: str, workload: str,
                   multi: bool, breakdown: bool = False) -> FigureSpec:
    def points(scale: BenchScale) -> List[RunPoint]:
        cores = scale.multi_cores if multi else 1
        return _stream_points(scale, workload, FIGURE_SCHEMES, (cores,),
                              scale.message_sizes(name))

    render = _breakdown_table(title) if breakdown \
        else _throughput_table(title)
    return _point_figure(name, title, points, render)


_FIG01_TITLE = "Figure 1: IOMMU protection cost, RX 16KB, 1 vs N cores"

#: Figure 1 adds stock Linux (rbtree IOVAs) to the figure schemes.
_FIG01_SCHEMES = FIGURE_SCHEMES + ("linux-deferred", "linux-strict")


def _render_fig01(results: Results) -> str:
    lines = [_FIG01_TITLE,
             f"  {'scheme':<20}{'cores':>6}{'Gb/s':>10}{'us/unit':>10}"]
    for scheme, runs in results.items():
        for result in runs:
            lines.append(f"  {scheme:<20}{result.cores:>6}"
                         f"{result.throughput_gbps:>10.2f}"
                         f"{result.us_per_unit:>10.3f}")
    return "\n".join(lines)


def _rr_points(scale: BenchScale, sizes: Sequence[int]) -> List[RunPoint]:
    return [sized_point("rr", scheme, size=size,
                        units=scale.rr_transactions, warmup=scale.rr_warmup)
            for scheme in FIGURE_SCHEMES for size in sizes]


def _render_storage(results: Results) -> str:
    lines = ["Storage (§5.5): block I/O ops/s by block size",
             f"  {'scheme':<20}{'block':>8}{'ops/s':>12}{'Gb/s':>10}"]
    for scheme, runs in results.items():
        for result in runs:
            tps = result.transactions_per_sec or 0.0
            lines.append(
                f"  {scheme:<20}{result.params['block_size']:>8}"
                f"{tps:>12,.0f}{result.throughput_gbps:>10.2f}")
    return "\n".join(lines)


#: Schemes of the scalable-invalidation figure: the paper's strict
#: baseline, the three post-2016 remedies, and copy — the contenders in
#: "can smart zero-copy beat copy?".
SCALINV_SCHEMES = ("identity-strict", "identity-strict-percore",
                   "identity-strict-prefetch", "identity-deferred-bounded",
                   "copy")

_FIG_SCALINV_TITLE = ("Scalable invalidation: strict vs per-core queues "
                      "vs copy, RX 16KB core sweep")


def _render_scalinv(results: Results) -> str:
    """Exposure columns ride along in the series rows (every registry
    run is captured), so the record gates both sides of the trade:
    throughput scaling *and* stale-window byte·cycles per remedy."""
    lines = [_FIG_SCALINV_TITLE,
             f"  {'scheme':<28}{'cores':>6}{'Gb/s':>10}{'us/unit':>10}"
             f"{'stale byte-cycles':>20}"]
    for scheme, runs in results.items():
        for result in runs:
            exposure = result.extras.get("exposure") or {}
            stale = exposure.get("stale_byte_cycles", 0)
            lines.append(f"  {scheme:<28}{result.cores:>6}"
                         f"{result.throughput_gbps:>10.2f}"
                         f"{result.us_per_unit:>10.3f}"
                         f"{stale:>20,}")
    return "\n".join(lines)


def _fleet_build(scale: BenchScale) -> Tuple[dict, int]:
    # Lazy import: repro.bench.fleet imports this module's helpers.
    from repro.bench.fleet import build_fleet_figure
    return build_fleet_figure()


#: The registry, in the paper's figure order.
FIGURES: Tuple[FigureSpec, ...] = (
    _point_figure(
        "fig01", _FIG01_TITLE,
        lambda scale: _stream_points(scale, "stream", _FIG01_SCHEMES,
                                     (1, scale.multi_cores),
                                     scale.message_sizes("fig01")),
        _render_fig01),
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
    _point_figure(
        "fig09", "Figure 9: TCP_RR latency",
        lambda scale: _rr_points(scale, scale.message_sizes("fig09")),
        lambda results: render_latency_table(
            results, title="Figure 9: TCP_RR latency (netperf TCP_RR)")),
    _point_figure(
        "fig10", "Figure 10: TCP_RR CPU breakdown",
        lambda scale: _rr_points(scale, scale.message_sizes("fig10")),
        _breakdown_table(
            "Figure 10: TCP_RR CPU breakdown per transaction [us], 64KB")),
    _point_figure(
        "fig11", "Figure 11: memcached",
        lambda scale: [sized_point("memcached", scheme,
                                   cores=scale.memcached_cores,
                                   units=scale.memcached_tpc,
                                   warmup=scale.memcached_warmup)
                       for scheme in FIGURE_SCHEMES],
        lambda results: render_memcached_table(
            {scheme: runs[0] for scheme, runs in results.items()},
            title="Figure 11: memcached + memslap")),
    _point_figure(
        "storage", "Storage block I/O",
        lambda scale: [sized_point("storage", scheme, size=block_size,
                                   units=scale.storage_ops,
                                   warmup=scale.storage_warmup)
                       for scheme in FIGURE_SCHEMES
                       for block_size in scale.storage_block_sizes],
        _render_storage),
    FigureSpec("fleet", "Fleet capacity at the SLO", _fleet_build),
    _point_figure(
        "fig_scalinv", _FIG_SCALINV_TITLE,
        lambda scale: _stream_points(scale, "stream", SCALINV_SCHEMES,
                                     scale.scalinv_cores,
                                     scale.message_sizes("fig_scalinv")),
        _render_scalinv),
)

FIGURE_NAMES = tuple(spec.name for spec in FIGURES)


def select_figures(only: Optional[Sequence[str]]) -> List[FigureSpec]:
    """Resolve ``--only`` selections against the registry (fail fast)."""
    if not only:
        return list(FIGURES)
    by_name = {spec.name: spec for spec in FIGURES}
    unknown = [name for name in only if name not in by_name]
    if unknown:
        raise SystemExit(
            f"error: unknown figure(s) {', '.join(unknown)}; "
            f"choices: {', '.join(FIGURE_NAMES)}")
    return [by_name[name] for name in only]


def _build_figure(name: str, scale: BenchScale) -> Tuple[dict, int]:
    """Build one registry figure by name (a picklable worker)."""
    return next(spec for spec in FIGURES if spec.name == name).build(scale)


def build_figures(specs: Sequence[FigureSpec], scale: BenchScale,
                  jobs: int = 1, label: str = "bench",
                  ) -> Tuple[Dict[str, dict], Dict[str, dict]]:
    """Build every figure, timed — THE shared timed-run helper behind
    ``bench`` and ``report`` (one implementation, so the two progress/
    timing paths cannot drift).

    Figures are independent tasks of :func:`repro.bench.points.fan_out`,
    so ``jobs > 1`` distributes them over worker processes and merges
    them back **in spec order**: both return values are deterministic
    regardless of job count.  Returns ``(figures, throughput)``: the
    per-figure record data plus a ``sim_cycles_per_wall_second`` entry
    per figure and ``"overall"``.  Each entry counts every simulation
    run inside the timed build and sums figure build times, not
    makespan — comparable across job counts.
    """
    titles = {spec.name: spec.title for spec in specs}

    def note(name: str, result: Tuple[dict, int], seconds: float) -> None:
        print(f"[{label}] {name:<8} {titles[name]:<50} "
              f"{seconds:6.1f}s", file=sys.stderr)

    names = [spec.name for spec in specs]
    built = fan_out(functools.partial(_build_figure, scale=scale), names,
                    jobs, note)
    figures = {name: data for name, ((data, _), _) in zip(names, built)}
    throughput = {name: throughput_entry(sim_cycles, seconds)
                  for name, ((_, sim_cycles), seconds) in zip(names, built)}
    throughput["overall"] = throughput_entry(
        sum(entry["sim_cycles"] for entry in throughput.values()),
        sum(seconds for _, seconds in built))
    return figures, throughput


def run_bench(mode: str = "quick", only: Optional[Sequence[str]] = None,
              baseline: Optional[str] = None,
              out_dir: Optional[str] = None, jobs: int = 1) -> int:
    """Run the registry, write the record + report, check the
    paper-fidelity ledger, optionally gate.

    ``jobs`` shards the figure matrix across processes; the merged
    record is byte-stable regardless of job count (modulo the timestamp
    and the wall-clock throughput fields).  Returns the process exit
    status: 0 on success, 1 when a ledger claim is broken or the
    baseline comparison found a regression.
    """
    # Imported here to keep the module importable without a cycle once
    # record/regression need runner metadata.
    from repro.bench.record import build_record, write_record
    from repro.bench.regression import gate_against_baseline

    scale = SCALES.get(mode)
    if scale is None:
        raise SystemExit(f"error: unknown bench mode {mode!r}")
    if baseline is not None and not os.path.exists(baseline):
        raise SystemExit(f"error: baseline record not found: {baseline}")
    specs = select_figures(only)
    out = out_dir or default_results_dir()

    started = time.perf_counter()
    figures, throughput = build_figures(specs, scale, jobs=jobs,
                                        label="bench")
    record = build_record(mode=scale.name, figures=figures,
                          schemes=FIGURE_SCHEMES, throughput=throughput)
    json_path, md_path = write_record(record, out)
    rate = throughput["overall"]["sim_cycles_per_wall_second"]
    print(f"[bench] {len(specs)} figures in "
          f"{time.perf_counter() - started:.1f}s (jobs={jobs}, "
          f"{rate:,} sim cycles/s)")
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


def render_figure_spans(figure: dict, scheme: str) -> str:
    """Render one scheme's attribution tree from a figure's record data."""
    tree = figure.get("spans", {}).get(scheme)
    if tree is None:
        return f"(no spans recorded for {scheme})"
    return render_span_tree(SpanNode.from_dict(tree))
