"""Machine-readable benchmark records (``BENCH_<timestamp>.json``).

A record is one self-describing snapshot of a bench run:

* a **fingerprint** — git SHA, bench mode, scheme set, and every cost
  model constant — so two records can be compared meaningfully (or the
  comparison refused);
* per-figure **series** — the flattened
  :func:`repro.stats.export.result_to_row` rows, the same serializer the
  CSV exports and the CLI's ``--json`` mode use;
* per-figure, per-scheme **span trees** — the cycle-attribution data the
  regression gate uses to name the subtree behind a slowdown.

The markdown report rendered next to the JSON embeds the paper-fidelity
table (:mod:`repro.bench.ledger`) and the paper-style text tables, so a
record is readable without tooling.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
from datetime import datetime, timezone
from typing import Dict, Optional, Sequence, Tuple

from repro.bench.ledger import evaluate, render_fidelity
from repro.obs.spans import SpanNode
from repro.sim.costmodel import CostModel
from repro.stats.timeline import render_span_tree

#: Bump when the record layout changes incompatibly.
SCHEMA_VERSION = 1


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
    return {
        "schema_version": SCHEMA_VERSION,
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "fingerprint": build_fingerprint(mode, [row.get("scheme", "?")]),
        "figures": {"single": figure},
    }


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


def write_record(record: Dict, out_dir: str) -> Tuple[str, str]:
    """Write ``BENCH_<timestamp>.json`` + ``.md``; returns both paths."""
    os.makedirs(out_dir, exist_ok=True)
    base = record_basename(record)
    json_path = os.path.join(out_dir, f"{base}.json")
    with open(json_path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=False)
        fh.write("\n")
    md_path = os.path.join(out_dir, f"{base}.md")
    with open(md_path, "w") as fh:
        fh.write(render_markdown(record))
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


def render_markdown(record: Dict) -> str:
    """A self-contained report: fingerprint, simulator throughput,
    paper fidelity, per-figure tables and spans."""
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
    return "\n".join(lines)
