"""Fleet capacity search: ``python -m repro fleet``.

The paper reports throughput at fixed offered load; the ROADMAP's north
star wants the inverse — **max sustained users at an SLO** — so this
module runs a deterministic capacity search per scheme: bracket the
knee by doubling the user population until the
:class:`~repro.obs.slo.SloRecorder` reports a breached window, then
bisect the bracket down to a relative tolerance.  Every evaluation is
one independent ``fleet`` :class:`~repro.bench.points.RunPoint` run by
:func:`repro.bench.points.run_point`, so the whole search is
reproducible bit-for-bit; "sustained" means *zero* breached windows
across the measured diurnal trace.

Schemes are independent :func:`repro.bench.points.fan_out` tasks, so
``--jobs N`` fans them over worker processes and merges them back in
scheme order — the written record is byte-identical at any job count
once the host-dependent fields are stripped
(:func:`repro.bench.record.stable_view`), which
``tests/bench/test_fleet.py`` asserts.

Artifacts land under fixed names so CI globs stay trivial:

* ``fleet.json``   — a bench record whose one ``fleet`` figure is the
  registry's figure plus the search's objective, sizing, capacity,
  curves and forensics;
* ``fleet.md``     — the human-facing capacity report;
* ``fleet_windows.jsonl`` — one JSON line per SLO window at the
  capacity point and at the first failing point, per scheme;
* ``fleet_<scheme>.trace.json`` — a Perfetto trace of the first
  failing point, whose ``slo.p99_window`` / ``slo.burn_rate`` counter
  tracks show the objective being lost in real (simulated) time.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.points import RunPoint, fan_out, run_point, throughput_entry
from repro.bench.record import build_record, write_record
from repro.bench.runner import default_results_dir
from repro.bench.scale import resolve_schemes
from repro.obs.perfetto import perfetto_trace
from repro.stats.export import result_to_row
from repro.workloads.fleet import default_fleet_objective

#: Default search pair: the paper's verdict ("copy beats zero-copy under
#: protection") re-asked as capacity.
DEFAULT_FLEET_SCHEMES = ("identity-strict", "copy")

#: Requests kept in the Perfetto export of the failing point.
_TRACE_MAX_REQUESTS = 64


#: Every search brackets its knee starting from this user population.
START_USERS = 1_000_000


@dataclass(frozen=True)
class FleetSizing:
    """One capacity-search preset: run length and bracket.  Every preset
    judges against :func:`repro.workloads.fleet.default_fleet_objective`.
    """

    name: str
    cores: int
    duration_us: float
    warmup_us: float
    #: How many doublings/halvings from :data:`START_USERS` to try
    #: before declaring the search saturated.
    max_doublings: int
    #: Bisection stops when ``hi - lo <= max(1, lo * rel_tol)``.
    rel_tol: float


#: CI smoke sizing: two schemes to capacity in well under a minute.
QUICK_FLEET = FleetSizing(
    name="quick", cores=2, duration_us=2000.0, warmup_us=300.0,
    max_doublings=5, rel_tol=0.125)

#: Report sizing: longer diurnal trace, tighter bisection.
FULL_FLEET = FleetSizing(
    name="full", cores=4, duration_us=4000.0, warmup_us=500.0,
    max_doublings=7, rel_tol=0.0625)

#: Bench-registry sizing: a coarse search cheap enough for the quick
#: figure matrix while still landing the capacity columns.
FIGURE_FLEET = FleetSizing(
    name="figure", cores=2, duration_us=1200.0, warmup_us=200.0,
    max_doublings=4, rel_tol=0.25)

FLEET_SIZINGS = {"quick": QUICK_FLEET, "full": FULL_FLEET}


# ----------------------------------------------------------------------
# One evaluation = one fleet run at a fixed user population.
# ----------------------------------------------------------------------
def _eval_point(scheme: str, users: int, sizing: FleetSizing,
                with_trace: bool = False) -> Dict[str, object]:
    """Run the fleet at ``users`` and flatten the SLO verdict."""
    result, obs = run_point(RunPoint("fleet", scheme, {
        "cores": sizing.cores, "users": users,
        "duration_us": sizing.duration_us, "warmup_us": sizing.warmup_us}))
    slo = result.extras["slo"]
    point: Dict[str, object] = {
        "users": users,
        "sustained": slo["breach_windows"] == 0,
        "windows": slo["windows"],
        "breach_windows": slo["breach_windows"],
        "worst_p99_us": slo["worst_p99_us"],
        "min_availability": slo["min_availability"],
        "max_burn_rate": slo["max_burn_rate"],
        "drops": slo["drops"],
        "timeouts": slo["timeouts"],
        "completions": slo["completions"],
        "row": result_to_row(result),
        "window_rows": list(obs.slo.windows),
        "forensics": slo["forensics"],
        "spans": obs.spans.tree().to_dict(),
    }
    if with_trace:
        point["trace"] = perfetto_trace(obs,
                                        max_requests=_TRACE_MAX_REQUESTS)
    return point


def search_capacity(scheme: str, sizing: FleetSizing,
                    with_trace: bool = False) -> Dict[str, object]:
    """Bracket + bisect the max sustained user population.

    Purely integer arithmetic over deterministic evaluations, so the
    search path — and therefore the record — is identical on every
    host and at every job count.  ``sim_cycles`` counts every fleet run
    the search made, the Perfetto re-run included.
    """
    evaluated: Dict[int, Dict[str, object]] = {}
    order: List[int] = []
    sim_cycles = 0

    def run(users: int, with_trace: bool = False) -> Dict[str, object]:
        nonlocal sim_cycles
        point = _eval_point(scheme, users, sizing, with_trace=with_trace)
        sim_cycles += int(point["row"]["wall_cycles"])
        return point

    def evaluate(users: int) -> Dict[str, object]:
        point = evaluated.get(users)
        if point is None:
            point = evaluated[users] = run(users)
            order.append(users)
        return point

    lo: Optional[int] = None        # highest sustained population seen
    hi: Optional[int] = None        # lowest failing population seen
    users = START_USERS
    if evaluate(users)["sustained"]:
        lo = users
        for _ in range(sizing.max_doublings):
            users *= 2
            if evaluate(users)["sustained"]:
                lo = users
            else:
                hi = users
                break
    else:
        hi = users
        for _ in range(sizing.max_doublings):
            users //= 2
            if users < 1:
                break
            if evaluate(users)["sustained"]:
                lo = users
                break
            hi = users
    saturated = hi is None          # never failed within the bracket
    if lo is not None and hi is not None:
        while hi - lo > max(1, int(lo * sizing.rel_tol)):
            mid = (lo + hi) // 2
            if evaluate(mid)["sustained"]:
                lo = mid
            else:
                hi = mid
    capacity = lo or 0
    breach_point = evaluated.get(hi) if hi is not None else None
    if with_trace and hi is not None:
        # Re-run the first failing point with a Perfetto export: the
        # slo.p99_window / slo.burn_rate counter tracks show the
        # objective being lost.
        breach_point = evaluated[hi] = run(hi, with_trace=True)

    def curve_entry(users: int) -> Dict[str, object]:
        point = evaluated[users]
        return {key: point[key]
                for key in ("users", "sustained", "windows",
                            "breach_windows", "worst_p99_us",
                            "min_availability", "max_burn_rate", "drops",
                            "timeouts", "completions")}

    return {
        "scheme": scheme,
        "capacity_users": capacity,
        "first_failing_users": hi,
        "saturated": saturated,
        "curve": [curve_entry(users) for users in order],
        "capacity_point": evaluated.get(capacity),
        "breach_point": breach_point,
        "sim_cycles": sim_cycles,
    }


def build_searches(schemes: Sequence[str], sizing: FleetSizing,
                   jobs: int = 1, with_trace: bool = False,
                   label: str = "fleet",
                   ) -> Tuple[Dict[str, Dict], Dict[str, dict]]:
    """Run the capacity search for every scheme; fan over ``jobs``.

    Searches are :func:`repro.bench.points.fan_out` tasks merged back
    **in scheme order**, so the result is deterministic at any job
    count.
    """
    def note(scheme: str, search: Dict, seconds: float) -> None:
        print(f"[{label}] {scheme:<18} capacity "
              f"{search['capacity_users']:>12,} users  "
              f"({len(search['curve'])} evals, {seconds:5.1f}s)",
              file=sys.stderr)

    built = fan_out(functools.partial(search_capacity, sizing=sizing,
                                      with_trace=with_trace),
                    list(schemes), jobs, note)
    searches = {scheme: search
                for scheme, (search, _) in zip(schemes, built)}
    throughput = {"overall": throughput_entry(
        sum(search["sim_cycles"] for search, _ in built),
        sum(seconds for _, seconds in built))}
    return searches, throughput


# ----------------------------------------------------------------------
# Record + BENCH-figure integration.
# ----------------------------------------------------------------------
def capacity_row(search: Dict[str, object]) -> Dict[str, object]:
    """The BENCH series row for one scheme's search.

    The capacity point's flattened result row plus the two capacity
    columns; ``param_users`` is stripped because the row's key must
    stay stable while the measured capacity moves.
    """
    point = search["capacity_point"] or search["breach_point"]
    row = dict(point["row"])
    row.pop("param_users", None)
    row["fleet_capacity_users"] = search["capacity_users"]
    row["slo_breach_windows"] = (
        search["capacity_point"]["breach_windows"]
        if search["capacity_point"] is not None else
        point["breach_windows"])
    return row


def _fleet_figure(schemes: Sequence[str],
                  searches: Dict[str, Dict]) -> Dict[str, object]:
    """The ``fleet`` figure of finished searches: one capacity row and
    one span tree per scheme, plus the text table."""
    title = (f"Fleet capacity: max users at p99 <= "
             f"{default_fleet_objective().p99_us:g} us")
    lines = [title,
             f"  {'scheme':<20}{'capacity [users]':>18}"
             f"{'p99@cap [us]':>14}{'breach@cap':>12}"]
    for scheme in schemes:
        search = searches[scheme]
        point = search["capacity_point"]
        p99 = point["worst_p99_us"] if point else float("nan")
        breach = point["breach_windows"] if point else "-"
        lines.append(f"  {scheme:<20}{search['capacity_users']:>18,}"
                     f"{p99:>14.3f}{breach:>12}")
    return {
        "title": title,
        "series": [dict(capacity_row(searches[s]), figure="fleet")
                   for s in schemes],
        "spans": {s: (searches[s]["capacity_point"]
                      or searches[s]["breach_point"])["spans"]
                  for s in schemes},
        "report": "\n".join(lines),
    }


def build_fleet_figure(sizing: FleetSizing = FIGURE_FLEET,
                       schemes: Sequence[str] = DEFAULT_FLEET_SCHEMES,
                       ) -> Tuple[Dict[str, object], int]:
    """The ``fleet`` entry of the BENCH figure registry: a coarse
    capacity search whose rows carry the ``fleet_capacity_users`` and
    ``slo_breach_windows`` columns.  Returns the figure and the
    simulated cycles of every search evaluation."""
    searches, throughput = build_searches(list(schemes), sizing, jobs=1,
                                          label="bench:fleet")
    return (_fleet_figure(schemes, searches),
            throughput["overall"]["sim_cycles"])


def build_fleet_record(schemes: Sequence[str], sizing: FleetSizing,
                       searches: Dict[str, Dict],
                       throughput: Dict[str, dict]) -> Dict:
    """Assemble the fleet record: the registry's ``fleet`` figure plus
    the search's ``objective`` and ``sizing`` and, per scheme, its
    ``capacity``, ``curves`` and breach ``forensics``."""
    figure = _fleet_figure(schemes, searches)
    figure["objective"] = default_fleet_objective().to_dict()
    figure["sizing"] = {
        "cores": sizing.cores, "duration_us": sizing.duration_us,
        "warmup_us": sizing.warmup_us,
        "start_users": START_USERS, "rel_tol": sizing.rel_tol,
    }
    figure["capacity"] = {
        scheme: {
            "capacity_users": searches[scheme]["capacity_users"],
            "first_failing_users": searches[scheme]["first_failing_users"],
            "saturated": searches[scheme]["saturated"],
        } for scheme in schemes}
    figure["curves"] = {scheme: searches[scheme]["curve"]
                        for scheme in schemes}
    figure["forensics"] = {
        scheme: (searches[scheme]["breach_point"] or {}).get("forensics",
                                                             [])
        for scheme in schemes}
    return build_record(mode=f"fleet-{sizing.name}",
                        figures={"fleet": figure}, schemes=schemes,
                        throughput=throughput)


# ----------------------------------------------------------------------
# Markdown report (+ the section ``repro report`` embeds).
# ----------------------------------------------------------------------
def capacity_table(figure: Dict) -> List[str]:
    """Markdown capacity table of a fleet record's ``fleet`` figure."""
    capacity = figure.get("capacity") or {}
    if not capacity:
        return ["(no fleet capacity data)"]
    objective = figure.get("objective") or {}
    lines = [
        f"Objective: p99 <= {objective.get('p99_us', '?')} us per "
        f"{objective.get('window_us', '?')} us window, availability >= "
        f"{objective.get('availability', '?')}, client timeout "
        f"{objective.get('timeout_us', '?')} us.",
        "",
        "| scheme | capacity [users] | first failing [users] "
        "| p99 @ capacity [us] | p99 @ failing [us] |",
        "|---|---:|---:|---:|---:|",
    ]
    curves = figure.get("curves") or {}
    for scheme, entry in capacity.items():
        cap = entry["capacity_users"]
        hi = entry["first_failing_users"]
        by_users = {p["users"]: p for p in curves.get(scheme, ())}
        cap_p99 = by_users.get(cap, {}).get("worst_p99_us", "-")
        hi_p99 = by_users.get(hi, {}).get("worst_p99_us", "-")
        hi_text = f"{hi:,}" if hi is not None else "(saturated)"
        lines.append(f"| {scheme} | {cap:,} | {hi_text} "
                     f"| {cap_p99} | {hi_p99} |")
    return lines


def _forensics_lines(figure: Dict) -> List[str]:
    lines: List[str] = []
    for scheme, entries in (figure.get("forensics") or {}).items():
        if not entries:
            continue
        first = entries[0]
        lines.append(
            f"- **{scheme}** window {first['window']} "
            f"({first['start_us']:g}–{first['end_us']:g} us): "
            f"p99 {first['p99_us']} us, availability "
            f"{first['availability']}, burn rate {first['burn_rate']} — "
            f"dominant span `{first['dominant_span_path']}` "
            f"({first['dominant_span_cycles']:,} cycles), top lock "
            f"`{first['top_lock'] or '-'}` "
            f"({first['top_lock_wait_cycles']:,} wait cycles)")
    return lines or ["(no breached windows recorded)"]


def render_fleet_report(record: Dict) -> str:
    """The human-facing capacity report (written as ``fleet.md``)."""
    fp = record.get("fingerprint", {})
    figure = record["figures"]["fleet"]
    schemes = list(figure.get("capacity") or {})
    lines = [
        "# Fleet capacity report",
        "",
        f"- schemes: {', '.join(schemes)}",
        f"- mode: `{fp.get('mode', '?')}`",
        f"- git SHA: `{fp.get('git_sha', '?')}`",
        "",
        "## Capacity at the SLO",
        "",
        *capacity_table(figure),
        "",
        "## Search curves",
        "",
    ]
    for scheme in schemes:
        lines.extend([
            f"### {scheme}",
            "",
            "| users | sustained | breach windows | worst p99 [us] "
            "| min availability | drops | completions |",
            "|---:|---|---:|---:|---:|---:|---:|",
        ])
        for point in sorted(figure.get("curves", {}).get(scheme, ()),
                            key=lambda p: p["users"]):
            lines.append(
                f"| {point['users']:,} "
                f"| {'yes' if point['sustained'] else 'NO'} "
                f"| {point['breach_windows']}/{point['windows']} "
                f"| {point['worst_p99_us']} "
                f"| {point['min_availability']} "
                f"| {point['drops']} | {point['completions']} |")
        lines.append("")
    lines.extend([
        "## Breach forensics (first breached window past capacity)",
        "",
        *_forensics_lines(figure),
        "",
    ])
    return "\n".join(lines).rstrip() + "\n"


def write_windows_jsonl(schemes: Sequence[str],
                        searches: Dict[str, Dict], path: str) -> int:
    """One JSON line per SLO window at the capacity point and the first
    failing point, per scheme; returns the line count."""
    count = 0
    with open(path, "w") as fh:
        for scheme in schemes:
            search = searches[scheme]
            for label in ("capacity_point", "breach_point"):
                point = search[label]
                if point is None:
                    continue
                for window in point["window_rows"]:
                    line = {"scheme": scheme, "users": point["users"],
                            "point": label.replace("_point", "")}
                    line.update(window)
                    fh.write(json.dumps(line, sort_keys=False) + "\n")
                    count += 1
    return count


# ----------------------------------------------------------------------
# Entry point (the ``repro fleet`` subcommand).
# ----------------------------------------------------------------------
def run_fleet_capacity(schemes: Sequence[str] = DEFAULT_FLEET_SCHEMES,
                       mode: str = "quick", jobs: int = 1,
                       out_dir: Optional[str] = None) -> int:
    """Run the search, write ``fleet.json`` / ``fleet.md`` /
    ``fleet_windows.jsonl`` / per-scheme Perfetto traces, print the
    capacity verdict.  Returns the process exit status."""
    sizing = FLEET_SIZINGS.get(mode)
    if sizing is None:
        raise SystemExit(f"error: unknown fleet mode {mode!r}; "
                         f"choices: {', '.join(FLEET_SIZINGS)}")
    scheme_list = resolve_schemes(schemes)

    started = time.perf_counter()
    searches, throughput = build_searches(scheme_list, sizing, jobs=jobs,
                                          with_trace=True)
    record = build_fleet_record(scheme_list, sizing, searches, throughput)

    out = out_dir or default_results_dir()
    json_path, md_path = write_record(record, out, "fleet",
                                      render_fleet_report(record))
    jsonl_path = os.path.join(out, "fleet_windows.jsonl")
    windows = write_windows_jsonl(scheme_list, searches, jsonl_path)
    trace_paths = []
    for scheme in scheme_list:
        point = searches[scheme]["breach_point"]
        if point is None or "trace" not in point:
            continue
        trace_path = os.path.join(out, f"fleet_{scheme}.trace.json")
        with open(trace_path, "w") as fh:
            json.dump(point["trace"], fh, separators=(",", ":"))
        trace_paths.append(trace_path)

    print(f"[fleet] {len(scheme_list)} schemes in "
          f"{time.perf_counter() - started:.1f}s (jobs={jobs})")
    for scheme in scheme_list:
        entry = record["figures"]["fleet"]["capacity"][scheme]
        hi = entry["first_failing_users"]
        hi_text = f"{hi:,}" if hi is not None else "search saturated"
        print(f"[fleet] {scheme:<18} capacity "
              f"{entry['capacity_users']:>12,} users "
              f"(first failing: {hi_text})")
    print(f"[fleet] record : {json_path}")
    print(f"[fleet] report : {md_path}")
    print(f"[fleet] windows: {jsonl_path} ({windows} lines)")
    for path in trace_paths:
        print(f"[fleet] trace  : {path}")
    return 0
