"""The baseline gate: a bench record must equal its baseline.

The simulation is deterministic, so a rerun at the same code and scale
reproduces its baseline exactly under
:func:`repro.bench.record.stable_view`: any move — a 1% shift, an
improvement, a renamed key — is a change to the simulation, and a
change that means it regenerates the baseline in the same commit.
:func:`gate_against_baseline` compares, ``fingerprint.git_sha`` aside,
the fingerprint; every figure the current record ran, with its
``throughput`` ``sim_cycles`` (so an ``--only`` run gates just its own
figures); and ``throughput.overall`` when both records ran the same
figures.  For each moved figure the report lists up to
:data:`MAX_PATHS` differing paths, series rows named by
:func:`repro.bench.record.row_key`, plus the diff engine's verdict line,
and can write that figure's full ``diff_<figure>.md``.

The one host-dependent check is a floor on simulator speed: a figure
(or ``overall``) whose ``sim_cycles_per_wall_second`` falls under
:data:`SPEED_FLOOR` of the baseline's trips — an order-of-magnitude
event-loop regression, not host variance.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro.bench.record import load_record, row_key, stable_view
from repro.obs.diff.engine import build_diff
from repro.obs.diff.render import render_diff_markdown
from repro.obs.diff.sides import DiffSide, side_from_record

#: Differing paths printed per moved section.
MAX_PATHS = 10

#: Fraction of the baseline's simulator speed below which a figure trips.
SPEED_FLOOR = 0.2

_SPEED = "sim_cycles_per_wall_second"


def _short(value: object) -> str:
    text = repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


def differences(a: object, b: object, path: str) -> Iterator[str]:
    """Every JSON path where ``a`` and ``b`` differ, in document order."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in list(a) + [key for key in b if key not in a]:
            if key not in a or key not in b:
                yield f"{path}.{key}"
            else:
                yield from differences(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            yield f"{path} (length {len(a)} != {len(b)})"
        for index, (x, y) in enumerate(zip(a, b)):
            yield from differences(x, y, f"{path}[{index}]")
    elif type(a) is not type(b) or a != b:
        yield f"{path}: {_short(a)} != {_short(b)}"


def _figure_paths(name: str, base: Dict, cur: Dict) -> Iterator[str]:
    """One figure's differing paths between two stable views."""
    if name not in base["figures"]:
        yield f"$.figures.{name} (not in the baseline)"
        return
    base_fig = dict(base["figures"][name])
    cur_fig = dict(cur["figures"][name])
    base_rows = base_fig.pop("series", [])
    cur_rows = cur_fig.pop("series", [])
    if len(base_rows) != len(cur_rows):
        yield (f"$.figures.{name}.series "
               f"(length {len(base_rows)} != {len(cur_rows)})")
    for base_row, cur_row in zip(base_rows, cur_rows):
        label = " ".join(row_key(name, base_row)[1:])
        yield from differences(base_row, cur_row,
                               f"$.figures.{name}.series[{label}]")
    yield from differences(base_fig, cur_fig, f"$.figures.{name}")
    yield from _throughput_paths(name, base, cur)


def _throughput_paths(name: str, base: Dict, cur: Dict) -> Iterator[str]:
    return differences(base.get("throughput", {}).get(name),
                       cur.get("throughput", {}).get(name),
                       f"$.throughput.{name}")


def moved_paths(baseline: Dict, current: Dict) -> Dict[str, List[str]]:
    """Differing stable-view paths per moved section: ``fingerprint``,
    each figure the current record ran, and ``overall``."""
    base, cur = stable_view(baseline), stable_view(current)
    for view in (base, cur):
        view.get("fingerprint", {}).pop("git_sha", None)
    sections = {"fingerprint": differences(
        base.get("fingerprint"), cur.get("fingerprint"), "$.fingerprint")}
    for name in cur["figures"]:
        sections[name] = _figure_paths(name, base, cur)
    if set(base["figures"]) == set(cur["figures"]):
        sections["overall"] = _throughput_paths("overall", base, cur)
    moved = {name: list(paths) for name, paths in sections.items()}
    return {name: paths for name, paths in moved.items() if paths}


def slow_sections(baseline: Dict, current: Dict) -> List[str]:
    """Figures (and ``overall``) simulating at under :data:`SPEED_FLOOR`
    of the baseline's speed; none when the baseline has no speed
    section."""
    base_tp = baseline.get("throughput") or {}
    slow = []
    for name, entry in (current.get("throughput") or {}).items():
        base_rate = (base_tp.get(name) or {}).get(_SPEED)
        rate = entry.get(_SPEED)
        if base_rate and rate is not None and rate < SPEED_FLOOR * base_rate:
            slow.append(name)
    return slow


def figure_diffs(baseline: Dict, current: Dict,
                 figures: List[str]) -> Dict[str, Dict]:
    """The diff engine's report on each named figure both records carry
    points for."""
    sides = (side_from_record(baseline, "baseline"),
             side_from_record(current, "current"))
    diffs = {}
    for figure in figures:
        base_side, cur_side = (
            DiffSide(label=f"{side.label}:{figure}", kind=side.kind,
                     points={key: point
                             for key, point in side.points.items()
                             if key[0] == figure})
            for side in sides)
        if base_side.points and cur_side.points:
            diffs[figure] = build_diff(base_side, cur_side)
    return diffs


def gate_records(baseline: Dict, current: Dict,
                 out_dir: Optional[str] = None) -> Tuple[int, str]:
    """The gate's exit status (0/1) and its report.  With ``out_dir``,
    every moved figure gets its ``diff_<figure>.md`` there."""
    moved = moved_paths(baseline, current)
    slow = slow_sections(baseline, current)
    lines = ["== regression gate =="]
    for label, record in (("baseline", baseline), ("current ", current)):
        fp = record.get("fingerprint", {})
        lines.append(f"{label}: sha={fp.get('git_sha', '?')[:12]} "
                     f"mode={fp.get('mode', '?')}")
    if not moved and not slow:
        lines.append("PASS: identical to the baseline under stable_view "
                     "(git SHA aside)")
        return 0, "\n".join(lines)
    failed = list(dict.fromkeys([*moved, *slow]))
    lines.append(f"FAIL: {len(failed)} section(s) moved or slowed: "
                 f"{', '.join(failed)}")
    diffs = figure_diffs(baseline, current, list(moved))
    for name, paths in moved.items():
        lines.append(f"  {name}: {len(paths)} path(s) differ")
        lines.extend(f"    {path}" for path in paths[:MAX_PATHS])
        diff = diffs.get(name)
        if diff is None:
            continue
        lines.append(f"    verdict: {diff['summary']['verdict']}")
        if out_dir is not None:
            path = Path(out_dir) / f"diff_{name}.md"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(render_diff_markdown(diff))
            lines.append(f"    differential report: {path}")
    base_tp = baseline.get("throughput") or {}
    for name in slow:
        lines.append(
            f"  {name}: {current['throughput'][name][_SPEED]:,} sim "
            f"cycles/s, under {SPEED_FLOOR:g}x the baseline's "
            f"{base_tp[name][_SPEED]:,}")
    if moved:
        lines.append("regenerate the baseline in the same commit if the "
                     "simulation change is intended")
    return 1, "\n".join(lines)


def gate_against_baseline(baseline_path: str, current: Dict,
                          out_dir: Optional[str] = None) -> int:
    """Gate ``current`` against the record at ``baseline_path``: print
    the report, return the exit status (0/1)."""
    status, report = gate_records(load_record(baseline_path), current,
                                  out_dir)
    print(report)
    return status
