"""Machine-readable records: one shape for every persisted artifact.

``BENCH_<timestamp>.json``, ``scale.json`` and the CLI's ``--json``
output hold only ``schema_version``, ``created``, a
**fingerprint** (git SHA, mode, scheme set, every cost model constant,
so two records can be compared meaningfully), per-name **figures** and
a **throughput** section (simulated cycles and simulator speed per
figure and ``overall``).  A figure holds its ``series`` rows — the
:func:`repro.stats.export.result_to_row` rows, or a sweep's points —
plus optional per-scheme ``spans`` trees and per-scheme sections (a
scale sweep's ``analysis``).
:func:`row_key` names a series row for the diff loader and the
baseline gate alike.

The bench markdown report embeds the paper-fidelity table
(:mod:`repro.bench.ledger`), the paper-style text tables and two tables
computed from the series rows (request-latency tails and per-scheme
exposure), so a record is readable without tooling.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
from datetime import datetime, timezone
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.ledger import evaluate, render_fidelity
from repro.obs.spans import SpanNode
from repro.sim.costmodel import CostModel
from repro.stats.timeline import render_span_tree

#: Bump when the record layout changes incompatibly.
SCHEMA_VERSION = 2


def cost_model_fingerprint(cost: Optional[CostModel] = None) -> Dict:
    """Every cost-model constant, minus the derived cache."""
    fields = dataclasses.asdict(cost if cost is not None else CostModel())
    fields.pop("derived", None)
    return fields


def repo_sha() -> str:
    """The repository HEAD, or ``unknown`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, check=False,
            cwd=os.path.dirname(os.path.abspath(__file__)))
    except OSError:
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def build_fingerprint(mode: str, schemes: Sequence[str],
                      cost: Optional[CostModel] = None) -> Dict:
    return {
        "git_sha": repo_sha(),
        "mode": mode,
        "schemes": list(schemes),
        "cost_model": cost_model_fingerprint(cost),
    }


def build_record(mode: str, figures: Dict[str, dict],
                 schemes: Sequence[str],
                 cost: Optional[CostModel] = None,
                 throughput: Optional[Dict[str, dict]] = None) -> Dict:
    """Assemble the full record from the runner's per-figure data.

    ``throughput`` is the runner's per-figure (plus ``"overall"``)
    simulator-speed section: ``sim_cycles`` are deterministic, while
    ``wall_seconds`` / ``sim_cycles_per_wall_second`` are host-dependent
    — :func:`stable_view` strips the latter for byte-for-byte record
    comparison.
    """
    record = {
        "schema_version": SCHEMA_VERSION,
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "fingerprint": build_fingerprint(mode, schemes, cost),
        "figures": figures,
    }
    if throughput is not None:
        record["throughput"] = throughput
    return record


def stable_view(record: Dict) -> Dict:
    """A deep copy with every host-dependent field removed.

    What remains is fully determined by the simulation, so two runs of
    the same code at the same scale — at any ``--jobs`` count — must
    produce byte-identical stable views (the property the fan-out tests
    assert).
    """
    view = json.loads(json.dumps(record))
    view.pop("created", None)
    for entry in view.get("throughput", {}).values():
        if isinstance(entry, dict):
            entry.pop("wall_seconds", None)
            entry.pop("sim_cycles_per_wall_second", None)
    return view


def single_run_record(row: Dict, mode: str = "single",
                      spans: Optional[Dict] = None) -> Dict:
    """The CLI ``--json`` form: one row, same schema as a bench record."""
    figure = {"title": f"{row.get('workload', 'run')} (single run)",
              "series": [row]}
    if spans is not None:
        figure["spans"] = {str(row.get("scheme", "run")): spans}
    return build_record(mode, {"single": figure},
                        [row.get("scheme", "?")])


def row_key(figure: str, row: Dict) -> Tuple[str, ...]:
    """The name of one series row: ``(figure, scheme, workload,
    cores=N, param=value…)``, the key both the diff loader and the
    baseline gate align rows by."""
    # param_cores would duplicate the explicit cores element.
    params = [f"{k[len('param_'):]}={row[k]}"
              for k in sorted(row)
              if k.startswith("param_") and k != "param_cores"]
    return (figure, str(row.get("scheme")), str(row.get("workload")),
            f"cores={row.get('cores')}", *params)


def load_record(path: str) -> Dict:
    """Load and minimally validate a record (fail with a clear message)."""
    try:
        with open(path) as fh:
            record = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"error: cannot read bench record {path}: {exc}")
    if not isinstance(record, dict) or "figures" not in record:
        raise SystemExit(
            f"error: {path} is not a bench record (no 'figures' key)")
    version = record.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SystemExit(
            f"error: {path} has schema_version {version!r}; "
            f"this build reads {SCHEMA_VERSION}")
    return record


def record_basename(record: Dict) -> str:
    stamp = (record["created"].replace("-", "").replace(":", "")
             .split("+")[0])
    return f"BENCH_{stamp}"


def write_record(record: Dict, out_dir: str, base: str,
                 markdown: str) -> Tuple[str, str]:
    """Write ``<base>.json`` + its ``<base>.md`` report; returns both
    paths.  The one writer behind ``bench`` and ``scale``."""
    os.makedirs(out_dir, exist_ok=True)
    json_path = os.path.join(out_dir, f"{base}.json")
    with open(json_path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=False)
        fh.write("\n")
    md_path = os.path.join(out_dir, f"{base}.md")
    with open(md_path, "w") as fh:
        fh.write(markdown)
    return json_path, md_path


# ----------------------------------------------------------------------
# Markdown report.
# ----------------------------------------------------------------------
def _span_highlights(figure: dict, max_schemes: int = 4) -> str:
    """Per-scheme attribution trees, depth-limited for readability."""
    spans = figure.get("spans", {})
    parts = []
    for scheme in list(spans)[:max_schemes]:
        tree = SpanNode.from_dict(spans[scheme])
        parts.append(f"spans — {scheme}:\n"
                     + render_span_tree(tree, max_depth=3))
    return "\n\n".join(parts)


def _latency_table(record: Dict) -> List[str]:
    """Every series row with request-tail columns, side by side."""
    lines = []
    for name, figure in record.get("figures", {}).items():
        for row in figure.get("series", ()):
            if row.get("latency_p50_us") is None:
                continue
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
    if not lines:
        return ["(no request-latency data in this run)"]
    return ["| figure | scheme | workload | cores | params | p50 [us] "
            "| p99 [us] | p99.9 [us] |",
            "|---|---|---|---:|---|---:|---:|---:|", *lines]


def _exposure_table(record: Dict) -> List[str]:
    """Per-scheme exposure totals summed across the distinct run points:
    a point several figures read (their rows equal but for ``figure``)
    counts once."""
    per_scheme: Dict[str, Dict[str, int]] = {}
    points = set()
    for name, figure in record.get("figures", {}).items():
        for row in figure.get("series", ()):
            if row.get("exposure_stale_byte_cycles") is None:
                continue
            point = row_key(name, row)[1:]
            if point in points:
                continue
            points.add(point)
            agg = per_scheme.setdefault(str(row.get("scheme")),
                                        {"stale": 0, "excess": 0,
                                         "faults": 0})
            agg["stale"] += row.get("exposure_stale_byte_cycles", 0)
            agg["excess"] += row.get("exposure_excess_byte_cycles", 0)
            agg["faults"] += row.get("exposure_faults", 0)
    if not per_scheme:
        return ["(no exposure data in this run)"]
    return ["| scheme | stale [B·cyc] | granularity excess [B·cyc] "
            "| faults |",
            "|---|---:|---:|---:|",
            *(f"| {scheme} | {agg['stale']:,} | {agg['excess']:,} "
              f"| {agg['faults']:,} |"
              for scheme, agg in sorted(per_scheme.items()))]


def render_markdown(record: Dict) -> str:
    """A self-contained report: fingerprint, simulator throughput,
    paper fidelity, per-figure tables and spans, request-latency tails
    and exposure totals."""
    fp = record.get("fingerprint", {})
    lines = [
        "# Benchmark record",
        "",
        f"- created: `{record.get('created', '?')}`",
        f"- git SHA: `{fp.get('git_sha', '?')}`",
        f"- mode: `{fp.get('mode', '?')}`",
        f"- schemes: {', '.join(fp.get('schemes', ()))}",
        f"- schema version: {record.get('schema_version', '?')}",
        "",
    ]
    throughput = record.get("throughput")
    if throughput:
        lines.extend([
            "## Simulator throughput",
            "",
            "| figure | sim cycles | wall [s] | sim cycles / wall s |",
            "|---|---:|---:|---:|",
        ])
        for name, entry in throughput.items():
            lines.append(
                f"| {name} | {entry.get('sim_cycles', 0):,} "
                f"| {entry.get('wall_seconds', 0)} "
                f"| {entry.get('sim_cycles_per_wall_second', 0):,} |")
        lines.append("")
    lines.extend(["## Paper fidelity", "",
                  *render_fidelity(evaluate(record)), ""])
    for name, figure in record.get("figures", {}).items():
        lines.append(f"## {name}: {figure.get('title', '')}")
        lines.append("")
        report = figure.get("report")
        if report:
            lines.extend(["```text", report.rstrip(), "```", ""])
        highlights = _span_highlights(figure)
        if highlights:
            lines.extend(["```text", highlights, "```", ""])
    lines.extend(["## Request latency tails", "", *_latency_table(record),
                  "", "## Exposure (summed across distinct run points)", "",
                  *_exposure_table(record), ""])
    return "\n".join(lines)
