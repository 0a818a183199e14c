"""Renderers for the differential report: markdown for humans, JSON
for machines.

Both renderers are pure functions of the report dict from
:func:`repro.obs.diff.engine.build_diff`; neither consults the clock or
the environment, so the rendered bytes are stable for identical inputs
— the property the CI smoke step and the ``--jobs`` byte-stability
tests pin down.
"""

from __future__ import annotations

import json
from typing import Dict, List


def diff_to_json(diff: Dict[str, object]) -> str:
    """Canonical JSON form: sorted keys, trailing newline."""
    return json.dumps(diff, indent=2, sort_keys=True) + "\n"


def _fmt(value: object, signed: bool = False) -> str:
    if value is None:
        return "—"
    if isinstance(value, float):
        return f"{value:+.3f}" if signed else f"{value:.3f}"
    return str(value)


def _span_section(section: Dict[str, object], lines: List[str]) -> None:
    lines.append(f"### `{section['key']}`")
    lines.append("")
    if section.get("zero"):
        lines.append("No span movement.")
        lines.append("")
        return
    lines.append(
        f"Total: {_fmt(section['total_delta_per_unit'], signed=True)} "
        f"cycles/unit across {section['paths']} path(s) "
        f"(A: {section['a_units']} units, B: {section['b_units']} units).")
    lines.append("")
    for title, rows in (("Grown (B pays more)", section.get("grown", ())),
                        ("Shrunk (A pays more)",
                         section.get("shrunk", ()))):
        if not rows:
            continue
        lines.append(f"**{title}**")
        lines.append("")
        lines.append("| span path | A self/unit | B self/unit "
                     "| Δ self/unit | share of Δ |")
        lines.append("| --- | ---: | ---: | ---: | ---: |")
        for row in rows:
            share = row.get("contribution")
            share_s = f"{share * 100:.1f}%" if share is not None else "—"
            lines.append(
                f"| `{' > '.join(row['path'])}` "
                f"| {_fmt(row['a_self_per_unit'])} "
                f"| {_fmt(row['b_self_per_unit'])} "
                f"| {_fmt(row['self_delta_per_unit'], signed=True)} "
                f"| {share_s} |")
        lines.append("")


def _metric_section(section: Dict[str, object],
                    lines: List[str]) -> None:
    lines.append(f"### `{section['key']}`")
    lines.append("")
    shown = section.get("changed", ())
    total = section.get("changed_total", 0)
    if not total:
        lines.append(f"No metric movement "
                     f"({section.get('unchanged', 0)} metrics equal).")
        lines.append("")
        return
    lines.append("| metric | A | B | Δ | rel |")
    lines.append("| --- | ---: | ---: | ---: | ---: |")
    for row in shown:
        rel = row.get("rel")
        rel_s = f"{rel * 100:+.2f}%" if rel is not None else "new/gone"
        lines.append(f"| `{row['metric']}` | {_fmt(row['a'])} "
                     f"| {_fmt(row['b'])} "
                     f"| {_fmt(row['delta'], signed=True)} | {rel_s} |")
    if total > len(shown):
        lines.append("")
        lines.append(f"_{total - len(shown)} further moved metric(s) "
                     f"elided; see the JSON report._")
    lines.append("")
    lines.append(f"_{section.get('unchanged', 0)} metric(s) unchanged._")
    lines.append("")


def _quantile_section(section: Dict[str, object],
                      lines: List[str]) -> None:
    lines.append(f"### `{section['key']}`")
    lines.append("")
    pct = section.get("percentile")
    verdict = section.get("verdict")
    lines.append(
        f"p50→p{pct:g} gap: {_fmt(section['gap_a_us'])} µs (A) → "
        f"{_fmt(section['gap_b_us'])} µs (B), "
        f"Δ {_fmt(section['gap_delta_us'], signed=True)} µs.")
    if verdict is not None:
        lines.append(
            f"Verdict: **{verdict}** explains "
            f"{_fmt(section['verdict_delta_us'], signed=True)} µs "
            f"of the gap change.")
    lines.append("")
    lines.append("| stage | gap A (µs) | gap B (µs) | Δ (µs) |")
    lines.append("| --- | ---: | ---: | ---: |")
    for row in section.get("stages", ()):
        lines.append(f"| `{row['stage']}` | {_fmt(row['gap_a_us'])} "
                     f"| {_fmt(row['gap_b_us'])} "
                     f"| {_fmt(row['delta_us'], signed=True)} |")
    lines.append("")


def render_diff_markdown(diff: Dict[str, object]) -> str:
    """The human-facing differential report."""
    summary = diff.get("summary", {})
    lines: List[str] = ["# Differential report", ""]
    lines.append(f"- **A**: `{diff['a']['label']}` "
                 f"({diff['a']['kind']}, {diff['a']['points']} point(s))")
    lines.append(f"- **B**: `{diff['b']['label']}` "
                 f"({diff['b']['kind']}, {diff['b']['points']} point(s))")
    lines.append(f"- **Matched points**: {diff['matched']}")
    lines.append(f"- **Verdict**: {summary.get('verdict', '?')}")
    lines.append("")

    if diff.get("only_a") or diff.get("only_b"):
        lines.append("## Unmatched points")
        lines.append("")
        for label, keys in (("Only in A", diff.get("only_a", ())),
                            ("Only in B", diff.get("only_b", ()))):
            for key in keys:
                lines.append(f"- {label}: `{key}`")
        lines.append("")

    if diff.get("spans"):
        lines.append("## Span-trie diff (self cycles per unit of work)")
        lines.append("")
        for section in diff["spans"]:
            _span_section(section, lines)

    if diff.get("metrics"):
        lines.append("## Metric deltas")
        lines.append("")
        for section in diff["metrics"]:
            _metric_section(section, lines)

    if diff.get("quantile_shift"):
        lines.append("## Quantile-shift attribution")
        lines.append("")
        for section in diff["quantile_shift"]:
            _quantile_section(section, lines)

    return "\n".join(lines).rstrip() + "\n"
